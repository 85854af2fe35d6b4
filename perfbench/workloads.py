"""The three workloads: seeded inputs, the timed operations, and their checks.

* ``chain``   -- ``bounds.verify_chain`` on reduced period matrices (in process).
* ``lattice`` -- the deep-point certificate of ``mlk verify --suite lattice``
  on random Gram matrices at g = 4, 6, 8, 10 (in process).
* ``cli``     -- one fresh ``python -m mlk.cli`` process at a time.

Inputs depend only on the seed; their shape (how many operations, at which
g and degree) is fixed, so that run-to-run differences come from the values,
not from the amount of work. The program only ever sees the generated
inputs. Each operation is ``prepare`` (untimed: fresh objects, so no cache
of an earlier operation is reused) followed by ``call`` (timed).
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import mlk.cli
from mlk import bounds, lattice, oracle, siegel

import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    key: str                       # unique within the workload
    group: str                     # the named metric this operation feeds
    divisor: int                   # the metric takes its time over this (chain: degree)
    prepare: Callable[[], Any]     # untimed
    call: Callable[[Any, Any], Any]  # timed: call(prepared, tracer or None)
    data: dict = field(default_factory=dict)  # what the reference check needs
    in_wall: bool = True           # False: run once after the timed loop, outside wall_s


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    maxrss_kb: int

    def __eq__(self, other):  # the peak RSS of a process is not part of its output
        return (self.returncode, self.stdout) == (other.returncode, other.stdout)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[Op, Any], list[str]]
    in_process: bool = True


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _reduced_tau(rng) -> complex:
    """tau in the standard fundamental domain, 1 <= Im tau <= 1.5."""
    while True:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.5))
        if abs(tau) >= 1.0:
            return tau


def _unimodular(rng, g: int) -> np.ndarray:
    """Product of 2g elementary column operations: an element of GL_g(Z)."""
    U = np.eye(g, dtype=np.int64)
    for _ in range(2 * g if g > 1 else 0):
        i, j = rng.choice(g, size=2, replace=False)
        U[:, j] += int(rng.choice((-1, 1))) * U[:, i]
    return U


def _conjugated_product(rng, taus):
    """(X, Y) of U^T diag(taus) U: the same torus as diag(taus), not diagonal."""
    U = _unimodular(rng, len(taus)).astype(float)
    X = U.T @ np.diag([t.real for t in taus]) @ U
    Y = U.T @ np.diag([t.imag for t in taus]) @ U
    return (X + X.T) / 2.0, (Y + Y.T) / 2.0


def _generic_reduced(rng, g: int):
    """(X, Y) of a reduced period matrix that is not a product."""
    lam = rng.uniform(1.0, 3.0, g)
    Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
    Y = (Q * lam) @ Q.T
    X = rng.uniform(-0.5, 0.5, (g, g))
    om = siegel.reduce(siegel.validate_period_matrix((X + X.T) / 2.0, (Y + Y.T) / 2.0))
    return om.X, om.Y.entries


def _timed_out(signum, frame):
    raise TimeoutError("child process exceeded its time limit")


def run_child(argv: list[str], env: dict, out_path: Path) -> CliResult:
    """Run one process to completion; its wall time is the caller's to take.

    ``os.wait4`` reaps the child and returns its peak RSS; a SIGALRM bounds
    the wait without starting a thread.
    """
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out_path.read_bytes(), usage.ru_maxrss)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MLK_THREADS"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------------- chain

def _chain_call(periods_and_budget, tracer):
    E, budget, seed = periods_and_budget
    return bounds.verify_chain(E, budget=budget, seed=seed)


def build_chain(seed: int, tiny: bool = False) -> Workload:
    """verify_chain at g = 1 (tau = i, a seeded reduced tau, and a degree-2
    set), g = 2 and g = 3 (products of x_k + i with seeded x_k, conjugated by
    a seeded unimodular U, then reduced). Budgets: default at g <= 2, 1024
    at g = 3."""
    budgets = {1: 64, 2: 64, 3: 64} if tiny else {1: None, 2: None, 3: 1024}
    rng = _rng(seed, 1)
    tau_b = _reduced_tau(rng)
    specs = [("g1.i", [[1j]]), ("g1.tau", [[tau_b]]), ("g1.pair", [[1j], [tau_b]])]
    for g in (2, 3):  # Im tau = 1: Y reduces to the identity, so the cost does not vary
        specs.append((f"g{g}.product", [[complex(rng.uniform(-0.5, 0.5), 1.0)
                                          for _ in range(g)]]))
    ops = []
    for key, factor_sets in specs:
        g = len(factor_sets[0])
        arrays = []
        for taus in factor_sets:
            X, Y = _conjugated_product(rng, taus)
            om = siegel.reduce(siegel.validate_period_matrix(X, Y))
            if not om.is_reduced:
                raise RuntimeError(f"{key}: reduce() did not reach a reduced period matrix")
            arrays.append((om.X, om.Y.entries))

        def prepare(arrays=arrays, g=g):
            periods = [siegel.validate_period_matrix(X, Y) for X, Y in arrays]
            return bounds.EmbeddingSet(g, len(periods), periods), budgets[g], seed

        ops.append(Op(key, f"chain_g{g}_s", len(arrays), prepare, _chain_call,
                      {"factor_sets": factor_sets}))
    return Workload("chain", ops, _check_chain)


def chain_oracle_ratios(op: Op, report) -> list[float]:
    """|I - I_exact| / error_estimate per embedding, I from theta_invariant_lower."""
    ratios = []
    for idx, taus in enumerate(op.data["factor_sets"]):
        entry = next(e for e in report.entries if e.name == f"theta_invariant_lower[{idx}]")
        diff = abs(entry.lhs / 2.0 - refs.invariant_exact(taus, oracle.log_abs_delta))
        err = entry.error_estimate / 2.0
        ratios.append(diff / err if err > 0.0 else math.inf)
    return ratios


def _check_chain(op: Op, report) -> list[str]:
    problems = [f"{op.key}: |I - I_exact| = {r:.3g} x error_estimate"
                for r in chain_oracle_ratios(op, report) if not r <= 1.0]
    height = next(e for e in report.entries if e.name == "height_chain")
    if height.slack < 0.0:
        problems.append(f"{op.key}: height_chain slack {height.slack:.3g} < 0")
    return problems


# ------------------------------------------------------------------- lattice

LATTICE_DIMS = (4, 6, 8, 10)
BRUTE_MAX_G = 6


def _certify(entries, tracer):
    """The per-matrix calls of ``mlk verify --suite lattice``."""
    Y = lattice.GramMatrix(entries)
    deep = lattice.bezout_deep_point(Y)
    dual = lattice.shortest_vector(Y.inverse())
    psi = lattice.closest_vector(Y, deep.x).value
    iv = lattice.mu_interval(Y, budget=128)
    return (tuple(deep.x), dual.value, psi, iv.lo, iv.hi)


def build_lattice(seed: int, tiny: bool = False) -> Workload:
    """Gram matrices from ``cli._random_spd`` (condition number <= e^3).

    The g = 10 matrices are certified once each after the timed loop and
    counted in ``attempted`` and ``failed`` like the others, but kept out of
    ``wall_s`` and ``peak_rss_mb``: most of them hit the enumeration cap
    within ~30 ms, while one that fits under the cap takes ~3 s and ~200 MB,
    so whichever seed draws one would dominate both."""
    per_dim = {4: 1, 6: 1, 8: 1, 10: 1} if tiny else {4: 100, 6: 100, 8: 80, 10: 5}
    ops = []
    for g in LATTICE_DIMS:
        rng = _rng(seed, 2, g)
        for i in range(per_dim[g]):
            entries = np.array(mlk.cli._random_spd(rng, g).entries)
            ops.append(Op(f"g{g}.{i}", f"cert_g{g}_ms", 1, lambda e=entries: e, _certify,
                          {"entries": entries}, in_wall=g != 10))
    return Workload("lattice", ops, _check_lattice)


def _check_lattice(op: Op, out) -> list[str]:
    x, lam_dual, psi, lo, hi = out
    problems = []
    if not 2.0 * psi * lam_dual >= 1.0 - 1e-9:
        problems.append(f"{op.key}: 2 psi lambda_1(Y^-1) = {2.0 * psi * lam_dual!r} < 1")
    if not lo <= hi:
        problems.append(f"{op.key}: mu enclosure lo {lo!r} > hi {hi!r}")
    Y = op.data["entries"]
    if Y.shape[0] <= BRUTE_MAX_G:
        Yi = np.linalg.inv(Y)
        ref = refs.brute_shortest((Yi + Yi.T) / 2.0)
        if not refs.close(lam_dual, ref):
            problems.append(f"{op.key}: lambda_1(Y^-1) {lam_dual!r} != brute force {ref!r}")
        ref = refs.brute_closest(Y, np.array(x))
        if not refs.close(psi, ref):
            problems.append(f"{op.key}: psi(deep point) {psi!r} != brute force {ref!r}")
    return problems


# ----------------------------------------------------------------------- cli

def _tau_moved(rng, tau: complex) -> complex:
    """tau under a seeded element of SL_2(Z): -1 / (tau + k)."""
    return -1.0 / (tau + int(rng.integers(-2, 3)))


def cli_documents(seed: int, tiny: bool):
    """(name, check data) for the period files.

    Fixed shape, seeded values: products conjugated by a unimodular U, or
    moved by SL_2(Z) at g = 1, and generic reduced period matrices. The
    check data holds the document, the reduced factors of each product and,
    at g = 1, lambda_1(Y^-1) of each moved tau, clamped (rho is invariant
    under the move, lambda is not).
    """
    shape = [(1, 2, "product"), (2, 2, "product")] if tiny else [
        (1, 2, "product"), (2, 1, "generic"), (3, 3, "product"),
        (4, 4, "product"), (5, 1, "generic"), (6, 2, "product"),
    ]
    docs = []
    for g, degree, kind in shape:
        rng = _rng(seed, 3, g)
        embeddings, factor_sets, lambdas = [], [], []
        for _ in range(degree):
            if kind == "generic":
                X, Y = _generic_reduced(rng, g)
            elif g == 1:
                tau = _reduced_tau(rng)
                moved = _tau_moved(rng, tau)
                factor_sets.append([tau])
                lambdas.append(min(1.0 / math.sqrt(moved.imag), math.sqrt(math.pi / 3.0)))
                X, Y = np.array([[moved.real]]), np.array([[moved.imag]])
            else:
                taus = [_reduced_tau(rng) for _ in range(g)]
                factor_sets.append(taus)
                X, Y = _conjugated_product(rng, taus)
            embeddings.append({"re": np.asarray(X).tolist(), "im": np.asarray(Y).tolist()})
        doc = {"g": g, "degree": degree, "embeddings": embeddings}
        data = {"g": g, "doc": doc, "factor_sets": factor_sets or None, "lambdas": lambdas}
        docs.append((f"g{g}_d{degree}_{kind}", data))
    return docs


def validate_documents(docs):
    for _, data in docs:
        doc = data["doc"]
        periods = [siegel.validate_period_matrix(e["re"], e["im"]) for e in doc["embeddings"]]
        bounds.EmbeddingSet(data["g"], doc["degree"], periods)


def _cli_call(argv, tracer):
    """One ``mlk`` process; traced, it runs through ``child.py``."""
    args, out_path = argv
    env = child_env()
    if tracer is None:
        return run_child([sys.executable, "-m", "mlk.cli", *args], env, out_path)
    spans_path = out_path.with_suffix(".spans.json")
    sid = tracer.begin("cli.process")
    try:
        return run_child([sys.executable, str(HERE / "child.py"), str(spans_path), *args],
                         env, out_path)
    finally:
        tracer.end(sid)
        if spans_path.exists():
            tracer.adopt(json.loads(spans_path.read_text()), parent=sid)
            spans_path.unlink()


def build_cli(seed: int, tiny: bool, workdir: Path) -> Workload:
    docs = cli_documents(seed, tiny)
    validate_documents(docs)
    ops = []
    for name, data in docs:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data["doc"]))
        for cmd in ("bound", "rho"):
            out = workdir / f"{name}.{cmd}.out"
            ops.append(Op(f"{cmd}.{name}", f"cli_{cmd}_s", 1,
                          lambda a=[cmd, str(path)], o=out: (a, o), _cli_call,
                          {**data, "command": cmd}))
    verify = ["verify", "--suite", "all"] + (["--random", "2", "--budget", "64"] if tiny else [])
    ops.append(Op("verify.all", "cli_verify_s", 1,
                  lambda a=verify, o=workdir / "verify.out": (a, o), _cli_call,
                  {"command": "verify"}))
    return Workload("cli", ops, _check_cli, in_process=False)


def _check_cli(op: Op, res: CliResult) -> list[str]:
    if res.returncode != 0:
        return [f"{op.key}: exit code {res.returncode}"]
    try:
        doc = json.loads(res.stdout)
    except ValueError as exc:
        return [f"{op.key}: output is not JSON ({exc})"]
    data = op.data
    if doc.get("command") != data["command"]:
        return [f"{op.key}: report is for command {doc.get('command')!r}"]
    if data["command"] == "verify":
        return [] if doc["all_passed"] and doc["checks"] else [f"{op.key}: checks did not pass"]
    problems = []
    per = doc["per_embedding"]
    if len(per) != data["doc"]["degree"]:
        return [f"{op.key}: {len(per)} embeddings reported"]
    g, factor_sets = data["g"], data["factor_sets"]
    clamp = math.sqrt(math.pi / (3.0 * g))
    for i, item in enumerate(per):
        rho = refs.rho_product(factor_sets[i]) if factor_sets else item["rho"]
        if factor_sets and not refs.close(item["rho"], rho):
            problems.append(f"{op.key}[{i}]: rho {item['rho']!r} != {rho!r} from the factors")
        if data["command"] == "rho":
            # lambda_1(Y^-1) of a conjugated product or a reduced input is rho,
            # up to the clamp; at g = 1 it is that of the moved tau
            lam = data["lambdas"][i] if data["lambdas"] else min(rho, clamp)
            agrees = abs(lam - min(rho, clamp)) <= 1e-9
            if not refs.close(item["lambda"], lam) or item["lambda_matches_rho"] is not agrees:
                problems.append(f"{op.key}[{i}]: lambda {item['lambda']!r} "
                                f"(matches rho: {item['lambda_matches_rho']}), expected {lam!r}")
        if data["command"] == "bound":
            if not refs.close(item["term"], refs.height_term(item["rho"], g)):
                problems.append(f"{op.key}[{i}]: term {item['term']!r} != closed form")
            if g == 1 and not item["term"] <= oracle.faltings_height_ec(factor_sets[i][0]):
                problems.append(f"{op.key}[{i}]: term exceeds the Faltings height")
    if data["command"] == "bound":
        mean = sum(item["term"] for item in per) / len(per)
        if not refs.close(doc["height_lower_bound"], mean):
            problems.append(f"{op.key}: bound is not the mean of the terms")
        if g == 1:
            height = sum(oracle.faltings_height_ec(fs[0]) for fs in factor_sets) / len(per)
            if not doc["height_lower_bound"] <= height:
                problems.append(f"{op.key}: bound {doc['height_lower_bound']!r} > height {height!r}")
    return problems


def build(name: str, seed: int, tiny: bool = False, workdir: Path | None = None) -> Workload:
    if name == "chain":
        return build_chain(seed, tiny)
    if name == "lattice":
        return build_lattice(seed, tiny)
    if name == "cli":
        return build_cli(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
