"""Smoke runs of the example scripts: each exits 0 and reports no failed check,
and chain_demo exits 1 when a check fails."""

import importlib.util
import os
import subprocess
import sys

import pytest

import mlk
import mlk.bounds

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script,args", [("gap_scan.py", ["--points", "3"]),
                                         ("chain_demo.py", ["--budget", "256"])])
def test_script_runs_clean(script, args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mlk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "FAIL" not in proc.stdout


def test_chain_demo_exits_1_on_a_failed_check(monkeypatch, capsys):
    # a tolerance of -1 fails every check whose slack is below 1
    path = os.path.join(SCRIPTS, "chain_demo.py")
    spec = importlib.util.spec_from_file_location("chain_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    verify_chain = mlk.bounds.verify_chain
    monkeypatch.setattr(demo, "verify_chain",
                        lambda E, budget: verify_chain(E, budget=budget, tolerance=-1.0))
    monkeypatch.setattr(sys, "argv", ["chain_demo.py", "--budget", "16"])
    assert demo.main() == 1
    assert "FAIL" in capsys.readouterr().out
