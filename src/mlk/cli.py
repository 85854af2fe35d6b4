"""Command-line front end.

Subcommands:

    mlk bound <file>                 height lower bounds from period data
    mlk rho <file>                   injectivity diameters and clamped minima
    mlk verify <file | --random N>   invariant suites (--suite lattice|
                                     integrals|chain|oracle|all)

Input is a strict JSON document; unknown fields are rejected.
options.budget (or --budget) sizes the chain's 2g-dimensional invariant,
whose rule follows from g, and is a cap at every g: on the QMC points per
shift at g >= 2, where the set doubles from 2^5 points, and on the tensor
Gauss-Legendre nodes per axis at g = 1, max(budget, 4) <= 256, where the
rule doubles from 32 nodes. Either stops once the invariant's check is
decided at either end of value +- estimate, so the reported invariant is
only as precise as that decision needs; the chain's log-Gaussian mean stops
the same way, on its first grid k/n that decides its check. Reports go to
stdout, diagnostics to stderr. Exit codes: 0 success, 1 a verify check
failed, 2 parse error (also a NaN or Infinity in the document, a --random,
--dim or --budget below 1, a --seed below 0, an --epsilon outside (0, 1),
or a budget above 256 for a g = 1 chain), 3 invalid matrix data, 4 the
input is valid but cannot be certified: a lattice enumeration or quadrature
grid exceeded its cap, the period Gram matrix passed the condition limit,
or a theta series or integrand left the range of double precision (a
QuadratureError or ThetaError). An error 3 or 4 that comes from one
embedding names it ("embedding i: ..."). height_chain's error_estimate is
(2/d) times the sum of the invariants' estimates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import (
    BoundsError,
    CheckEntry,
    EmbeddingSet,
    _per_embedding,
    height_lower_bound,
    height_term,
    verify_chain,
)
from .lattice import (
    ConditionLimitError,
    EnumerationLimitError,
    GramMatrix,
    LatticeError,
    bezout_deep_point,
    closest_vector,
    mu_interval,
)
from .oracle import faltings_height_ec, log_abs_delta
from .quadrature import _MAX_GAUSS_NODES, QuadratureError, integral_ln_f, integral_psi_sq
from .siegel import SiegelError, lambda_clamped, validate_period_matrix
from .theta import ThetaError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_LIMIT = 4

_SUITES = ("lattice", "integrals", "chain", "oracle", "all")


class InputError(ValueError):
    """Malformed document (exit 2)."""


class DataError(ValueError):
    """Structurally valid document with invalid matrix data (exit 3)."""


def _expect_keys(obj: dict, allowed: set, label: str):
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"{label}: unknown fields {sorted(unknown)}")


def _is_count(value) -> bool:
    """A JSON integer >= 1 (JSON true and false are not integers)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _as_matrix(value, g: int, label: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=object)  # RuntimeError past 32 nesting levels
        # every leaf a JSON number: no strings, booleans, nulls or ragged rows
        if any(type(v) not in (int, float) for v in arr.flat):
            raise ValueError
        arr = arr.astype(float)  # OverflowError: an integer beyond the range of doubles
    except (ValueError, RuntimeError, OverflowError) as exc:
        raise InputError(f"{label}: not a numeric array") from exc
    if arr.ndim == 1:
        if arr.size != g * g:
            raise InputError(f"{label}: flat row-major array must have g*g={g * g} entries")
        arr = arr.reshape(g, g)
    if arr.shape != (g, g):
        raise InputError(f"{label}: expected a {g}x{g} matrix")
    return arr


def _parse_document(raw: bytes):
    def no_constant(name):  # json.loads takes NaN, Infinity and -Infinity; strict JSON does not
        raise InputError(f"invalid JSON: {name} is not a JSON value")

    try:
        doc = json.loads(raw.decode("utf-8"), parse_constant=no_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("top-level document must be an object")
    _expect_keys(doc, {"g", "degree", "embeddings", "options"}, "document")
    g = doc.get("g")
    if not _is_count(g):
        raise InputError("field 'g' must be a positive integer")
    embeddings = doc.get("embeddings")
    if not isinstance(embeddings, list) or not embeddings:
        raise InputError("field 'embeddings' must be a non-empty list")
    degree = doc.get("degree", len(embeddings))
    if not _is_count(degree):
        raise InputError("field 'degree' must be a positive integer")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InputError("field 'options' must be an object")
    _expect_keys(options, {"epsilon", "budget"}, "options")
    epsilon = options.get("epsilon", 0.5)
    if type(epsilon) not in (int, float) or not 0.0 < epsilon < 1.0:
        raise InputError("options.epsilon must lie in (0, 1)")
    budget = options.get("budget")
    if budget is not None and not _is_count(budget):
        raise InputError("options.budget must be a positive integer")

    periods = []
    for i, emb in enumerate(embeddings):
        if not isinstance(emb, dict):
            raise InputError(f"embedding {i}: must be an object")
        _expect_keys(emb, {"re", "im"}, f"embedding {i}")
        if "re" not in emb or "im" not in emb:
            raise InputError(f"embedding {i}: fields 're' and 'im' are required")
        re = _as_matrix(emb["re"], g, f"embedding {i}: 're'")
        im = _as_matrix(emb["im"], g, f"embedding {i}: 'im'")
        try:
            periods.append(validate_period_matrix(re, im))
        except EnumerationLimitError:
            raise
        except (SiegelError, LatticeError) as exc:
            raise DataError(f"embedding {i}: {exc}") from exc
    if len(periods) > degree:
        raise DataError(f"{len(periods)} embeddings exceed degree {degree}")
    return {
        "g": g,
        "degree": degree,
        "periods": periods,
        "epsilon": float(epsilon),
        "budget": budget,
    }


def _read_input(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    parsed = _parse_document(raw)
    parsed["digest"] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return parsed


def _tool_header(digest: str) -> dict:
    return {"tool": {"name": "mlk", "version": __version__}, "input_digest": digest}


def _check_dict(e: CheckEntry) -> dict:
    doc = asdict(e)
    doc["pass"] = doc.pop("passed")
    return doc


def _emit(doc: dict):
    """Write the report; a non-finite number raises ValueError before any output."""
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_bound(args) -> int:
    parsed = _read_input(args.input)
    if args.epsilon is not None:
        parsed["epsilon"] = args.epsilon
    E = EmbeddingSet(parsed["g"], parsed["degree"], parsed["periods"])
    report = height_lower_bound(E, epsilon=parsed["epsilon"])
    doc = _tool_header(parsed["digest"])
    doc.update(
        {
            "command": "bound",
            "g": E.g,
            "degree": E.degree,
            "epsilon": report.epsilon,
            "kappa": report.kappa,
            "per_embedding": [
                {"rho": t.rho, "rho_clamped": t.rho_clamped, "term": t.term}
                for t in report.per_embedding
            ],
            "height_lower_bound": report.total,
            "simplified_lower_bound": report.weak_total,
            "notes": {"clamp_count": report.clamp_count},
        }
    )
    _emit(doc)
    return EXIT_OK


def cmd_rho(args) -> int:
    parsed = _read_input(args.input)
    per = [
        {
            "rho": info.rho,
            "rho_clamped": info.rho_clamped,
            "lambda": info.lam,
            "lambda_matches_rho": info.agrees,
        }
        for info in _per_embedding(parsed["periods"], lambda _, om: lambda_clamped(om))
    ]
    doc = _tool_header(parsed["digest"])
    doc.update({"command": "rho", "g": parsed["g"], "degree": parsed["degree"], "per_embedding": per})
    _emit(doc)
    return EXIT_OK


def _random_spd(rng: np.random.Generator, g: int) -> GramMatrix:
    lam = np.exp(rng.uniform(-1.5, 1.5, g))  # condition number <= e^3 < 1e3
    Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
    Y = (Q * lam) @ Q.T
    return GramMatrix((Y + Y.T) / 2.0)


def _suite_lattice(n: int, seed: int, g: int) -> list[CheckEntry]:
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        Y = _random_spd(rng, g)
        deep = bezout_deep_point(Y)
        lam_dual = Y.inverse().lambda1()
        psi = closest_vector(Y, deep.x).value
        iv = mu_interval(Y, budget=128)
        entries += [
            CheckEntry.at_least(f"deep_point_certificate[{i}]", 2.0 * psi * lam_dual, 1.0, 1e-9),
            CheckEntry.at_least(f"covering_product[{i}]", 2.0 * iv.lo * lam_dual, 1.0, 1e-10),
            CheckEntry.at_least(f"enclosure[{i}]", iv.hi, iv.lo, 0.0),
        ]
    return entries


def _suite_integrals(n: int, seed: int, g: int) -> list[CheckEntry]:
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        Y = _random_spd(rng, g)
        r = integral_psi_sq(Y, 64)
        lo = mu_interval(Y, budget=128).lo
        entries.append(CheckEntry.at_least(f"second_moment[{i}]", r.value + r.error_estimate,
                                           lo * lo / 3.0, 1e-9, r.error_estimate))
        for t in (0.5, 1.0, 2.0):
            r = integral_ln_f(Y, t)
            entries.append(CheckEntry.at_most(f"log_mean_bound[{i},t={t}]",
                                              r.value - r.error_estimate, -(g / 2.0) * math.log(t),
                                              1e-9, r.error_estimate))
    return entries


def _suite_chain(parsed, seed: int) -> list[CheckEntry]:
    E = EmbeddingSet(parsed["g"], parsed["degree"], parsed["periods"])
    report = verify_chain(E, budget=parsed["budget"], seed=seed)
    return list(report.entries)


def _suite_oracle(seed: int) -> list[CheckEntry]:
    entries = []
    for y in (1.0, 2.0, 5.0, 10.0, 50.0):
        ht = faltings_height_ec(complex(0.0, y))
        term = height_term(1.0 / math.sqrt(y), 1)
        entries += [CheckEntry.at_least(f"height_gap[y={y:g}]", ht, term, 0.0),
                    CheckEntry.at_most(f"height_gap_upper[y={y:g}]", ht - term, 1.0, 0.0)]
    rng = np.random.default_rng(seed)
    for i in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
        a, b = 1, rng.integers(-5, 6)
        # tau -> tau + b then inversion: both leave |Delta| (Im)^6 fixed
        t2 = -1.0 / (tau + b)
        entries.append(CheckEntry.equal(f"weight12_invariance[{i}]",
                                        log_abs_delta(tau) + 6.0 * math.log(tau.imag),
                                        log_abs_delta(t2) + 6.0 * math.log(t2.imag), 1e-9))
    return entries


def _default_chain_input():
    parsed = _parse_document(b'{"g": 1, "embeddings": [{"re": [[0.0]], "im": [[1.0]]}]}')
    parsed["digest"] = "sha256:" + hashlib.sha256(b"builtin:tau=i").hexdigest()
    return parsed


def cmd_verify(args) -> int:
    if args.input is not None:
        parsed = _read_input(args.input)
    elif args.suite in ("chain", "all"):
        parsed = _default_chain_input()
    else:
        parsed = {"digest": "sha256:" + hashlib.sha256(b"builtin:random").hexdigest()}
    if args.budget is not None:
        parsed["budget"] = args.budget
    chain_g1 = args.suite in ("chain", "all") and parsed["g"] == 1
    if chain_g1 and (parsed["budget"] or 0) > _MAX_GAUSS_NODES:
        raise InputError(f"budget {parsed['budget']} exceeds {_MAX_GAUSS_NODES}, the most Gauss "
                         "nodes per axis of a g = 1 chain")

    n = args.random
    entries: list[CheckEntry] = []
    if args.suite in ("lattice", "all"):
        entries += _suite_lattice(n, args.seed, args.dim)
    if args.suite in ("integrals", "all"):
        entries += _suite_integrals(max(1, n // 10), args.seed, min(args.dim, 2))
    if args.suite in ("chain", "all"):
        entries += _suite_chain(parsed, args.seed)
    if args.suite in ("oracle", "all"):
        entries += _suite_oracle(args.seed)

    all_passed = all(e.passed for e in entries)
    doc = _tool_header(parsed["digest"])
    doc.update(
        {
            "command": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "checks": [_check_dict(e) for e in entries],
            "all_passed": all_passed,
        }
    )
    _emit(doc)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _int_at_least(lowest: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lowest}, got {value}")
        return value

    return parse


def _epsilon(text: str) -> float:
    """--epsilon as options.epsilon: a float in (0, 1), so not nan or inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mlk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="height lower bounds from a period-data file")
    p_bound.add_argument("input")
    p_bound.add_argument("--epsilon", type=_epsilon, default=None,
                         help="epsilon for the simplified bound (default: from file or 0.5)")
    p_bound.set_defaults(func=cmd_bound)

    p_rho = sub.add_parser("rho", help="injectivity diameters and clamped minima")
    p_rho.add_argument("input")
    p_rho.set_defaults(func=cmd_rho)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("input", nargs="?", default=None)
    p_verify.add_argument("--suite", choices=_SUITES, default="all")
    p_verify.add_argument("--random", type=_int_at_least(1), default=50, metavar="N",
                          help="number of random matrices for the lattice/integrals suites")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0)
    p_verify.add_argument("--dim", type=_int_at_least(1), default=3)
    p_verify.add_argument("--budget", type=_int_at_least(1), default=None,
                          help="cap on the chain invariant, which doubles until its check "
                               "is decided at value +- estimate: QMC points per shift at "
                               "g >= 2, from 32; Gauss nodes per axis, max(budget, 4), at "
                               "g = 1, from 32, where a budget above 256 is an error")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EnumerationLimitError, ConditionLimitError, QuadratureError, ThetaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (DataError, BoundsError, SiegelError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
