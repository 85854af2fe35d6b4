"""The benchmark's own tests; kept out of the tier-1 suite (pytest collects
``tests/`` by default). Each runs the benchmark at ``--tiny`` size:

    python3 -m pytest -q perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COMMON = {"setup_s": "s", "wall_s": "s", "failed_frac": "ratio", "peak_rss_mb": "MB"}
NAMED = {
    "chain": {**COMMON, "chain_g1_s": "s", "chain_g2_s": "s", "chain_g3_s": "s",
              "checks_failed": "count", "oracle_err_ratio": "ratio"},
    "lattice": {**COMMON, "cert_g6_ms": "ms", "cert_g8_ms": "ms", "enum_cap_errors": "count"},
    "cli": {**COMMON, "cli_bound_s": "s", "cli_rho_s": "s", "cli_verify_s": "s"},
}
EXACT_UNITS = ("count", "calls/embedding")


def run(workload: str, trace: int, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("report "):]), proc.stdout


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric(workload):
    result, report, stdout = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == len(report["op_seconds"])
    assert result["failed"] / result["attempted"] == report["named"]["failed_frac"]["value"]
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in NAMED[workload].items():
        assert report["named"][name]["unit"] == unit
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", stdout, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    (a, report_a, _), (b, report_b, _) = run(workload, trace=1), run(workload, trace=1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(a["metrics"]) == spec
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    exact = [name for name, unit in spec.items() if unit in EXACT_UNITS]
    assert {k: a["metrics"][k]["value"] for k in exact} == \
        {k: b["metrics"][k]["value"] for k in exact}
    for name in ("checks_failed", "enum_cap_errors", "failed_frac"):
        if name in report_a["named"]:
            assert report_a["named"][name] == report_b["named"][name]
    shares = [v["value"] for k, v in a["metrics"].items()
              if k.startswith("layer.") or k == "bench.op.self_pct"]
    assert sum(shares) == pytest.approx(100.0)


def test_known_defects_show_at_seed_zero():
    _, chain, _ = run("chain", trace=0)
    assert chain["named"]["checks_failed"]["value"] > 0
    _, lattice, _ = run("lattice", trace=0)
    assert lattice["named"]["enum_cap_errors"]["value"] > 0
    assert lattice["named"]["failed_frac"]["value"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_brute_force_references():
    Y = np.diag([1.0, 2.0, 3.0])
    assert refs.brute_shortest(Y) == pytest.approx(1.0)
    assert refs.brute_closest(Y, [0.5, 0.5, 0.5]) == pytest.approx(math.sqrt(6.0) / 2.0)
    assert refs.rho_product([2j, 1j]) == pytest.approx(1.0 / math.sqrt(2.0))
