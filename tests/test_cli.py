import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import mlk
import mlk.cli
import mlk.siegel
from mlk.bounds import height_term
from mlk.cli import main
from mlk.oracle import faltings_height_ec

TERM_TAU_2I = -1.3137383138033930
WEAK_TAU_2I_HALF = -1.3142782908110466
TERM_IDENTITY_G2 = -2.9826069522587457


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tau_2i_doc():
    return {"g": 1, "degree": 1, "embeddings": [{"re": [[0.0]], "im": [[2.0]]}]}


class TestBoundCommand:
    def test_golden_tau_2i(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", tau_2i_doc())
        code, out, _ = run(capsys, ["bound", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["height_lower_bound"] == pytest.approx(TERM_TAU_2I, abs=1e-5)
        assert doc["simplified_lower_bound"] == pytest.approx(WEAK_TAU_2I_HALF, abs=1e-5)
        assert doc["per_embedding"][0]["rho"] == pytest.approx(1 / math.sqrt(2), abs=1e-7)

    def test_golden_g2_identity(self, tmp_path, capsys):
        doc = {
            "g": 2,
            "degree": 1,
            "embeddings": [{"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[1.0, 0.0], [0.0, 1.0]]}],
        }
        path = write(tmp_path, "b.json", doc)
        code, out, _ = run(capsys, ["bound", path])
        assert code == 0
        assert json.loads(out)["height_lower_bound"] == pytest.approx(TERM_IDENTITY_G2, abs=1e-5)

    def test_incomplete_embeddings_exit3(self, tmp_path, capsys):
        doc = tau_2i_doc()
        doc["degree"] = 2
        path = write(tmp_path, "c.json", doc)
        code, out, err = run(capsys, ["bound", path])
        assert code == 3
        assert "incomplete embedding data" in err

    def test_empty_embeddings_exit2(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", {"g": 1, "degree": 1, "embeddings": []})
        code, _, err = run(capsys, ["bound", path])
        assert code == 2

    def test_unknown_field_rejected(self, tmp_path, capsys):
        doc = tau_2i_doc()
        doc["extra"] = 1
        path = write(tmp_path, "e.json", doc)
        code, _, err = run(capsys, ["bound", path])
        assert code == 2
        assert "unknown fields" in err

    def test_invalid_matrix_names_embedding(self, tmp_path, capsys):
        doc = {
            "g": 1,
            "degree": 2,
            "embeddings": [{"re": [[0.0]], "im": [[1.0]]}, {"re": [[0.0]], "im": [[-1.0]]}],
        }
        path = write(tmp_path, "f.json", doc)
        code, _, err = run(capsys, ["bound", path])
        assert code == 3
        assert "embedding 1" in err

    def test_bad_json_exit2(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, ["bound", str(p)])
        assert code == 2

    def test_missing_file_exit2(self, capsys):
        code, _, _ = run(capsys, ["bound", "/nonexistent/input.json"])
        assert code == 2

    def test_flat_row_major_matrices_accepted(self, tmp_path, capsys):
        doc = {
            "g": 2,
            "embeddings": [{"re": [0.0, 0.0, 0.0, 0.0], "im": [1.0, 0.0, 0.0, 1.0]}],
        }
        path = write(tmp_path, "h.json", doc)
        code, out, _ = run(capsys, ["bound", path])
        assert code == 0
        assert json.loads(out)["degree"] == 1  # defaults to len(embeddings)

    def test_epsilon_option(self, tmp_path, capsys):
        path = write(tmp_path, "i.json", tau_2i_doc())
        _, out_half, _ = run(capsys, ["bound", path])
        code, out_quarter, _ = run(capsys, ["bound", path, "--epsilon", "0.25"])
        assert code == 0
        a = json.loads(out_half)["simplified_lower_bound"]
        b = json.loads(out_quarter)["simplified_lower_bound"]
        assert a != b

    @pytest.mark.parametrize("value", [2.0, 0.0, 1.0, -0.5, math.nan, math.inf], ids=repr)
    def test_epsilon_outside_the_unit_interval_exits_2(self, tmp_path, capsys, value):
        # the flag is held to the rule of options.epsilon, not left to bounds (exit 3)
        doc = tau_2i_doc()
        with pytest.raises(SystemExit) as exc:
            main(["bound", write(tmp_path, "i.json", doc), "--epsilon", str(value)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--epsilon" in captured.err
        doc["options"] = {"epsilon": value}  # json writes nan as NaN: no longer JSON
        code, out, err = run(capsys, ["bound", write(tmp_path, "j.json", doc)])
        assert (code, out) == (2, "")
        assert ("options.epsilon" if math.isfinite(value) else "is not a JSON value") in err

    def test_epsilon_that_is_not_a_number_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", write(tmp_path, "i.json", tau_2i_doc()), "--epsilon", "abc"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not a number: 'abc'" in captured.err


class TestStrictInput:
    """Fields are JSON numbers of the right kind: booleans and numeric
    strings are rejected with exit 2, never converted."""

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(g=True),
        lambda d: d.update(degree=True),
        lambda d: d.update(options={"budget": True}),
        lambda d: d.update(options={"epsilon": True}),
        lambda d: d["embeddings"][0].update(re=[["0.25"]]),
        lambda d: d["embeddings"][0].update(im=[[True]]),
        lambda d: d["embeddings"][0].update(im=[[2.0, None]]),
        lambda d: d["embeddings"][0].update(re=["0.0"]),
        lambda d: d["embeddings"][0].update(re=[[10**400]]),
        lambda d: d["embeddings"][0].update(re=[0.0, 0.0]),
        lambda d: d["embeddings"][0].update(im=[[2.0, 0.0]]),
        lambda d: d.update(options=[]),
        lambda d: d.update(embeddings=[[[0.0]]]),
        lambda d: d["embeddings"][0].pop("im"),
    ], ids=["g", "degree", "budget", "epsilon", "string-leaf", "bool-leaf", "null-leaf",
            "flat-string-leaf", "huge-int-leaf", "flat-wrong-length", "not-square",
            "options-not-object", "embedding-not-object", "im-missing"])
    @pytest.mark.parametrize("command", ["rho", "verify"])
    def test_rejected_with_exit_2(self, tmp_path, capsys, edit, command):
        doc = tau_2i_doc()
        edit(doc)
        argv = [command, write(tmp_path, "a.json", doc)]
        code, out, err = run(capsys, argv + (["--suite", "chain"] if command == "verify" else []))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [
        ("im", math.nan), ("re", math.inf), ("im", -math.inf),
    ], ids=["nan-im", "infinity-re", "minus-infinity-im"])
    @pytest.mark.parametrize("command", ["bound", "rho", "verify"])
    def test_non_finite_literal_exits_2(self, tmp_path, capsys, command, field, value):
        # json.loads reads NaN and +-Infinity, which strict JSON does not have;
        # they are refused while parsing, not as matrix data (exit 3)
        doc = tau_2i_doc()
        doc["embeddings"][0][field] = [[value]]
        argv = [command, write(tmp_path, "a.json", doc)]
        code, out, err = run(capsys, argv + (["--suite", "chain"] if command == "verify" else []))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: ") and "is not a JSON value" in err

    @pytest.mark.parametrize("command", ["bound", "rho"])
    def test_top_level_list_exits_2(self, tmp_path, capsys, command):
        code, out, err = run(capsys, [command, write(tmp_path, "a.json", [tau_2i_doc()])])
        assert (code, out) == (2, "") and "must be an object" in err

    @pytest.mark.parametrize("command", ["bound", "rho"])
    def test_more_embeddings_than_degree_exits_3(self, tmp_path, capsys, command):
        doc = tau_2i_doc()
        doc["embeddings"] *= 2
        code, out, err = run(capsys, [command, write(tmp_path, "a.json", doc)])
        assert (code, out) == (3, "") and "exceed degree 1" in err

    def test_non_finite_report_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mlk.cli, "lambda_clamped",
                            lambda om: mlk.siegel.lambda_clamped(om)._replace(rho=math.nan))
        with pytest.raises(ValueError, match="JSON compliant"):
            main(["rho", write(tmp_path, "a.json", tau_2i_doc())])
        assert capsys.readouterr().out == ""


class TestRhoCommand:
    def test_tau_2i(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", tau_2i_doc())
        code, out, _ = run(capsys, ["rho", path])
        assert code == 0
        entry = json.loads(out)["per_embedding"][0]
        assert entry["rho"] == pytest.approx(0.7071068, abs=1e-6)
        assert entry["rho_clamped"] == pytest.approx(0.7071068, abs=1e-6)
        assert entry["lambda_matches_rho"] is True

    def test_g2_identity_clamped(self, tmp_path, capsys):
        doc = {
            "g": 2,
            "degree": 1,
            "embeddings": [{"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[1.0, 0.0], [0.0, 1.0]]}],
        }
        path = write(tmp_path, "b.json", doc)
        code, out, _ = run(capsys, ["rho", path])
        entry = json.loads(out)["per_embedding"][0]
        assert entry["rho"] == pytest.approx(1.0, abs=1e-9)
        assert entry["rho_clamped"] == pytest.approx(0.7236013, abs=1e-6)

    def test_reduction_invariance(self, tmp_path, capsys):
        raw = {"g": 1, "degree": 1, "embeddings": [{"re": [[0.7]], "im": [[2.0]]}]}
        reduced = {"g": 1, "degree": 1, "embeddings": [{"re": [[-0.3]], "im": [[2.0]]}]}
        _, out_a, _ = run(capsys, ["rho", write(tmp_path, "a.json", raw)])
        _, out_b, _ = run(capsys, ["rho", write(tmp_path, "b.json", reduced)])
        ra = json.loads(out_a)["per_embedding"][0]["rho"]
        rb = json.loads(out_b)["per_embedding"][0]["rho"]
        assert ra == pytest.approx(rb, rel=1e-9)

    @pytest.mark.parametrize("command", ["rho", "bound"])
    def test_condition_limit_of_the_period_gram_exits_4(self, tmp_path, capsys, command):
        # at tau = y i the period Gram matrix diag(1/y, y) has condition
        # number y^2, past the limit beyond y = 10^6 though Y is 1 x 1: valid
        # input that cannot be certified. A Y past the limit is invalid input
        for y, want in ((9e5, 0), (1.1e6, 4)):
            doc = {"g": 1, "embeddings": [{"re": [[0.0]], "im": [[y]]}]}
            code, out, err = run(capsys, [command, write(tmp_path, "a.json", doc)])
            assert code == want
        assert out == "" and "period Gram matrix rejected: Gram matrix condition number" in err
        doc = {"g": 2, "embeddings": [{"re": [[0.0, 0.0], [0.0, 0.0]],
                                       "im": [[1e13, 0.0], [0.0, 1.0]]}]}
        code, out, err = run(capsys, [command, write(tmp_path, "b.json", doc)])
        assert (code, out) == (3, "") and "imaginary part rejected" in err

    @pytest.mark.parametrize("command,message", [
        (["rho"], "period Gram matrix rejected: Gram matrix condition"),
        (["bound"], "period Gram matrix rejected: Gram matrix condition"),
        # the chain builds no period Gram matrix; its log-Gaussian underflows
        (["verify", "--suite", "chain"], "integrand produced a non-finite value"),
    ], ids=["rho", "bound", "verify"])
    def test_limit_error_names_its_embedding(self, tmp_path, capsys, command, message):
        doc = {"g": 1, "degree": 2, "embeddings": [{"re": [[0.0]], "im": [[2.0]]},
                                                   {"re": [[0.0]], "im": [[1.1e6]]}]}
        code, out, err = run(capsys, [command[0], write(tmp_path, "a.json", doc), *command[1:]])
        assert (code, out) == (4, "")
        assert err.startswith(f"error: embedding 1: {message}")

    def test_one_period_gram_search_per_embedding(self, tmp_path, capsys, monkeypatch):
        # each injectivity_diameter call builds one 2g x 2g period Gram matrix
        doc = {"g": 1, "degree": 2, "embeddings": [{"re": [[0.0]], "im": [[2.0]]},
                                                   {"re": [[0.2]], "im": [[1.3]]}]}
        calls = []
        period_gram = mlk.siegel._period_gram

        def counted(om):
            calls.append(om)
            return period_gram(om)

        monkeypatch.setattr(mlk.siegel, "_period_gram", counted)
        code, out, _ = run(capsys, ["rho", write(tmp_path, "pair.json", doc)])
        assert code == 0
        assert len(calls) == 2
        monkeypatch.undo()
        per = json.loads(out)["per_embedding"]
        assert [e["rho"] for e in per] == [mlk.siegel.injectivity_diameter(om) for om in calls]

    def test_enumeration_cap_in_input_exits_4(self, tmp_path, capsys):
        # rho of Omega = i I_14 is within reach of the ellipsoid enumeration;
        # the theta box of its chain (3^14 points and more) is above the cap
        eye = [[float(i == j) for j in range(14)] for i in range(14)]
        doc = {"g": 14, "embeddings": [{"re": [[0.0] * 14] * 14, "im": eye}]}
        path = write(tmp_path, "g14.json", doc)
        code, out, _ = run(capsys, ["rho", path])
        assert code == 0
        assert json.loads(out)["per_embedding"][0]["rho"] == 1.0
        code, out, err = run(capsys, ["verify", path, "--suite", "chain"])
        assert code == 4
        assert out == ""
        assert "exceeds cap" in err


class TestVerifyCommand:
    def test_lattice_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "lattice", "--random", "20",
                                    "--seed", "7", "--dim", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert sum(c["name"].startswith("deep_point") for c in doc["checks"]) == 20
        assert all(c["pass"] for c in doc["checks"])

    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "oracle"])
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    @pytest.mark.parametrize("seed", range(4))
    def test_height_gap_entries(self, capsys, monkeypatch, seed):
        # per y, h_Fa >= term (slack: the gap) and gap <= 1, both to
        # tolerance 0: the pair passes exactly when 0 <= gap <= 1, also for
        # heights moved so that the gap leaves [0, 1] at either end
        for shift in (0.0, -0.5, 1.0):
            monkeypatch.setattr(mlk.cli, "faltings_height_ec",
                                lambda tau, s=shift: faltings_height_ec(tau) + s)
            _, out, _ = run(capsys, ["verify", "--suite", "oracle", "--seed", str(seed)])
            checks = {c["name"]: c for c in json.loads(out)["checks"]}
            for y in (1.0, 2.0, 5.0, 10.0, 50.0):
                ht = faltings_height_ec(complex(0.0, y)) + shift
                gap = ht - height_term(1.0 / math.sqrt(y), 1)  # as the suite forms it
                lower, upper = checks[f"height_gap[y={y:g}]"], checks[f"height_gap_upper[y={y:g}]"]
                assert lower["slack"] == gap and upper["lhs"] == gap
                assert lower["tolerance"] == upper["tolerance"] == 0.0
                assert (lower["pass"], upper["pass"]) == (0.0 <= gap, gap <= 1.0)

    def test_chain_suite_on_tau_i(self, tmp_path, capsys):
        doc = {"g": 1, "degree": 1, "embeddings": [{"re": [[0.0]], "im": [[1.0]]}],
               "options": {"budget": 256}}
        path = write(tmp_path, "tau_i.json", doc)
        code, out, _ = run(capsys, ["verify", path, "--suite", "chain"])
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert all(c["slack"] >= -1e-6 for c in report["checks"])
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["parseval[0,0]"]["error_estimate"] > 0.0
        assert by_name["theta_invariant_lower[0]"]["error_estimate"] > 0.0
        assert all("error_estimate" in c for c in report["checks"])

    def test_chain_suite_rejects_tau_inside_the_unit_circle(self, tmp_path, capsys):
        # tau = 0.1 + 0.9i is not in the fundamental domain (|tau| < 1)
        doc = {"g": 1, "degree": 1, "embeddings": [{"re": [[0.1]], "im": [[0.9]]}]}
        code, out, err = run(capsys, ["verify", write(tmp_path, "a.json", doc), "--suite", "chain"])
        assert (code, out) == (3, "")
        assert err.startswith("error: embedding 0: period matrix must be reduced first")

    def test_reruns_are_bit_identical(self, capsys):
        _, out_a, _ = run(capsys, ["verify", "--suite", "lattice", "--random", "5",
                                   "--seed", "3", "--dim", "2"])
        _, out_b, _ = run(capsys, ["verify", "--suite", "lattice", "--random", "5",
                                   "--seed", "3", "--dim", "2"])
        assert out_a == out_b

    def test_outputs_reparse(self, capsys):
        _, out, _ = run(capsys, ["verify", "--suite", "integrals", "--random", "10",
                                 "--seed", "1", "--dim", "2"])
        doc = json.loads(out)
        assert {"tool", "input_digest", "checks", "all_passed"} <= set(doc)
        assert all(c["error_estimate"] > 0.0 for c in doc["checks"])

    @pytest.mark.parametrize("flag,value", [("--random", "-3"), ("--random", "0"),
                                            ("--dim", "0"), ("--dim", "-1"),
                                            ("--budget", "-5"), ("--budget", "0"),
                                            ("--dim", "2.5"), ("--seed", "-1"),
                                            ("--seed", "1.5")])
    def test_non_positive_counts_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "integrals", "--random", "10", "--dim", "1", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_seed_zero_is_the_default(self, capsys):
        code, explicit, _ = run(capsys, ["verify", "--suite", "oracle", "--seed", "0"])
        assert code == 0
        _, default, _ = run(capsys, ["verify", "--suite", "oracle"])
        assert explicit == default

    def test_builtin_chain_input_is_the_tau_i_document(self, tmp_path, capsys):
        doc = {"g": 1, "embeddings": [{"re": [[0.0]], "im": [[1.0]]}]}
        _, from_file, _ = run(capsys, ["verify", write(tmp_path, "tau_i.json", doc),
                                       "--suite", "chain", "--budget", "256"])
        _, builtin, _ = run(capsys, ["verify", "--suite", "chain", "--budget", "256"])
        from_file, builtin = json.loads(from_file), json.loads(builtin)
        assert builtin["input_digest"] == "sha256:" + hashlib.sha256(b"builtin:tau=i").hexdigest()
        assert builtin["checks"] == from_file["checks"]
        assert builtin["checks"][-1]["name"] == "height_chain"
        assert builtin["checks"][-1]["error_estimate"] > 0.0

    def test_budget_above_the_gauss_cap_is_a_g1_chain_error(self, tmp_path, capsys):
        doc = {"g": 1, "embeddings": [{"re": [[0.0]], "im": [[1.0]]}], "options": {"budget": 257}}
        for argv in (["verify", "--suite", "chain", "--budget", "257"],
                     ["verify", write(tmp_path, "tau_i.json", doc), "--suite", "all"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert "budget 257 exceeds 256" in err
        code, out, _ = run(capsys, ["verify", _identity_doc(tmp_path, 2), "--suite", "chain",
                                    "--budget", "4096"])
        assert code == 0 and json.loads(out)["all_passed"] is True

    def test_scheme_option_is_an_unknown_field(self, tmp_path, capsys):
        # the quadrature rule follows from the dimension; a document that
        # still names one is rejected like any other unknown field
        doc = {"g": 1, "embeddings": [{"re": [[0.0]], "im": [[1.0]]}],
               "options": {"scheme": "tensor-gauss"}}
        code, out, err = run(capsys, ["verify", write(tmp_path, "tau_i.json", doc),
                                      "--suite", "chain"])
        assert code == 2
        assert out == ""
        assert "unknown fields ['scheme']" in err

    def test_underflow_beyond_double_precision_exits_4(self, tmp_path, capsys):
        # at tau = 1000i, f_Y(2; 1/2) underflows to 0 and ln f is not finite:
        # valid input that double precision cannot certify
        doc = {"g": 1, "embeddings": [{"re": [[0.0]], "im": [[1000.0]]}]}
        code, out, err = run(capsys, ["verify", write(tmp_path, "tau.json", doc),
                                      "--suite", "chain"])
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_enumeration_cap_exits_4(self, tmp_path, capsys):
        # the lattice and integrals suites pass; the g = 14 chain's theta box
        # is above the cap, and no partial report is written
        eye = [[float(i == j) for j in range(14)] for i in range(14)]
        doc = {"g": 14, "embeddings": [{"re": [[0.0] * 14] * 14, "im": eye}]}
        code, out, err = run(capsys, ["verify", write(tmp_path, "g14.json", doc),
                                      "--suite", "all", "--random", "3"])
        assert code == 4
        assert out == ""
        assert "exceeds cap" in err


_IMPORT_PROBE = """
import json, sys
import mlk, mlk.cli
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = mlk.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules
                              if any(m == w or m.startswith(w + ".") for w in watched))]))
"""

_BLOCK_SCIPY = """
import sys

class _NoScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, _NoScipy)
"""


def _identity_doc(tmp_path, g: int) -> str:
    eye = [[float(i == j) for j in range(g)] for i in range(g)]
    doc = {"g": g, "embeddings": [{"re": [[0.0] * g] * g, "im": eye}]}
    return write(tmp_path, f"g{g}.json", doc)


class TestColdImports:
    """mlk needs numpy alone: `import mlk` and every subcommand load no
    scipy module and no thread pool, and only `verify` loads numpy.fft (the
    chain's x-integrals). Each case runs in a fresh interpreter, so modules
    the test session imported cannot leak in."""

    G2_DOC = {"g": 2, "degree": 2, "embeddings": [
        {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[1.0, 0.0], [0.0, 1.0]]},
        {"re": [[0.1, 0.05], [0.05, -0.2]], "im": [[1.5, 0.3], [0.3, 1.2]]},
    ]}

    @staticmethod
    def probe(argv, prelude="", watched=("scipy",)):
        """[exit code, loaded modules named by ``watched`` or under it]."""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(mlk.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", prelude + _IMPORT_PROBE, json.dumps(argv),
                               json.dumps(list(watched))],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("command", [None, "bound", "rho"])
    def test_import_bound_and_rho_skip_stats_and_special(self, tmp_path, command):
        argv = [command, write(tmp_path, "g2.json", self.G2_DOC)] if command else []
        assert self.probe(argv, watched=("scipy", "numpy.fft")) == [0, []]

    def test_verify_chain_loads_fft(self, tmp_path):
        code, loaded = self.probe(["verify", _identity_doc(tmp_path, 2), "--suite", "chain"],
                                  watched=("numpy.fft",))
        assert code == 0 and "numpy.fft" in loaded

    @pytest.mark.parametrize("command", ["bound", "rho", "verify"])
    def test_no_thread_pool_without_mlk_threads(self, tmp_path, command):
        argv = (["verify", "--suite", "all"] if command == "verify"
                else [command, write(tmp_path, "g2.json", self.G2_DOC)])
        assert self.probe(argv, watched=("concurrent",)) == [0, []]

    @pytest.mark.parametrize("case", ["lattice", "chain_g2", "chain_g3", "all"])
    def test_verify_loads_no_scipy(self, tmp_path, case):
        argv = {
            "lattice": ["verify", "--suite", "lattice", "--random", "2"],
            "chain_g2": ["verify", _identity_doc(tmp_path, 2), "--suite", "chain"],
            "chain_g3": ["verify", _identity_doc(tmp_path, 3), "--suite", "chain",
                         "--budget", "1024"],
            "all": ["verify", "--suite", "all"],
        }[case]
        assert self.probe(argv) == [0, []]

    def test_verify_all_runs_with_scipy_blocked(self):
        assert self.probe(["verify", "--suite", "all"], prelude=_BLOCK_SCIPY) == [0, []]
