"""Smoke runs of the example scripts: each exits 0 and reports no failed check."""

import os
import subprocess
import sys

import pytest

import mlk

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
