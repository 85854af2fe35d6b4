"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single pass line on success (pytest prints the failure
line otherwise), so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Tolerances and runtime budgets are fixed here, not calibrated.
"""

import json
import math
import time

import numpy as np

from mlk.bounds import (
    EmbeddingSet,
    height_lower_bound,
    height_term,
    kappa,
    log_gaussian_bound,
    rho_clamp,
    verify_chain,
    weakened_height_bound,
)
from mlk.cli import main
from mlk.lattice import (
    GramMatrix,
    bezout_deep_point,
    closest_vector,
    mu_interval,
    psi_sq_batch,
    shortest_vector,
)
from mlk.oracle import faltings_height_ec
from mlk.quadrature import integral_ln_f, integral_psi_sq, integrate_cube
from mlk.siegel import (
    injectivity_diameter,
    lambda_clamped,
    reduce as siegel_reduce,
    validate_period_matrix,
)
from mlk.theta import cube_norm_batch, f_series_batch

from conftest import make_lll_gram as lll_gram, make_reduced_period, make_spd

GAP_LIMIT = 0.1764852083106725867  # (1/2) ln(pi e / 6)
TERM_TAU_2I = -1.3137383138033930


def report(num, name):
    print(f"[acceptance] criterion {num:2d} ({name}): PASS")


def om_of(tau: complex):
    return validate_period_matrix([[tau.real]], [[tau.imag]])


def test_01_deep_point_certificates():
    start = time.time()
    rng = np.random.default_rng(1)
    for g in range(1, 7):
        for _ in range(500):
            Y = make_spd(rng, g, cond_max=1e3)
            deep = bezout_deep_point(Y)
            psi = closest_vector(Y, deep.x).value
            lam_dual = shortest_vector(Y.inverse()).value
            assert 2.0 * psi * lam_dual >= 1.0 - 1e-9
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"suite took {elapsed:.1f}s"
    report(1, "deep-point certificates, 500 x g=1..6")


def test_02_second_moment_bound():
    start = time.time()
    for c in (0.5, 1.0, 4.0):
        Y = GramMatrix([[c]])
        r = integral_psi_sq(Y, 256)
        assert abs(r.value - c / 12.0) <= 1e-10
        lo = mu_interval(Y).lo
        assert abs(r.value - lo * lo / 3.0) <= 1e-10
    rng = np.random.default_rng(2)
    for _ in range(100):
        Y = lll_gram(rng, 2)
        r = integral_psi_sq(Y)
        lo = mu_interval(Y, budget=256).lo
        assert r.value + r.error_estimate >= lo * lo / 3.0
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"suite took {elapsed:.1f}s"
    report(2, "distance second moment vs covering radius")


def test_03_weighted_gaussian_sum_monotone_in_t():
    rng = np.random.default_rng(3)
    ts = 0.1 * 2.0 ** np.arange(0, 9)
    for i in range(50):
        g = 1 + i % 3
        Y = lll_gram(rng, g)
        xs = rng.uniform(0.0, 1.0, (20, g))
        psi2 = psi_sq_batch(Y, xs)
        prev = None
        for t in ts:
            vals = f_series_batch(Y, t, xs)[0] * np.exp(math.pi * t * psi2)
            if prev is not None:
                assert np.all(vals <= prev * (1 + 1e-9))
            prev = vals
    report(3, "weighted Gaussian sums non-increasing in t")


def test_04_log_gaussian_integral_bounds():
    rng = np.random.default_rng(4)
    # g = 1
    for _ in range(10):
        Y = lll_gram(rng, 1, lo=0.7, hi=4.0)
        lam = min(shortest_vector(Y.inverse()).value, rho_clamp(1))
        for t in (0.5, 1.0, 2.0, 4.0):
            r = integral_ln_f(Y, t)
            assert r.value - r.error_estimate <= -0.5 * math.log(t)
        r2 = integral_ln_f(Y, 2.0)
        assert r2.value - r2.error_estimate <= log_gaussian_bound(lam, 1)
    # pinned value check at Y = [1]
    r = integral_ln_f(GramMatrix([[1.0]]), 2.0)
    assert r.value <= -0.347049 + 1e-6
    # g = 2
    for _ in range(2):
        Y = lll_gram(rng, 2, lo=0.8, hi=3.0)
        lam = min(shortest_vector(Y.inverse()).value, rho_clamp(2))
        for t in (0.5, 1.0, 2.0, 4.0):
            r = integral_ln_f(Y, t)
            assert r.value - r.error_estimate <= -1.0 * math.log(t)
            if t == 2.0:
                assert r.value - r.error_estimate <= log_gaussian_bound(lam, 2)
    report(4, "log-Gaussian integral upper bounds")


def _norm_sq_integral(om, budget=65536):
    def f_sq(P):
        vals, _ = cube_norm_batch(om, P)
        return vals * vals

    return integrate_cube(f_sq, 2 * om.g, budget)


CHAIN_CASES = [
    (om_of(1j), 1e-6),
    (om_of(0.5 + 1j), 1e-6),
    (om_of(2j), 1e-6),
    (validate_period_matrix(np.zeros((2, 2)), np.eye(2)), 1e-3),
]


def test_05_section_norm_normalization():
    for om, tol in CHAIN_CASES:
        r = _norm_sq_integral(om)
        got = 0.5 * math.log(r.value)
        assert abs(got - (-(om.g / 4.0) * math.log(2.0))) <= tol, (om.g, got)
    report(5, "norm-square integral equals 2^(-g/2)")


def test_06_inequality_chain():
    for om, _tol in CHAIN_CASES:
        E = EmbeddingSet(om.g, 1, [om])
        rep = verify_chain(E)
        for entry in rep.entries:
            assert entry.slack >= -1e-6, (om.g, entry)
        assert rep.all_passed
    report(6, "full inequality chain with slack >= -1e-6")


def test_07_height_oracle_gap():
    start = time.time()
    for y in (1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        rho = injectivity_diameter(om_of(1j * y))
        gap = faltings_height_ec(1j * y) - height_term(rho, 1)
        assert 0.0 <= gap <= 1.0, (y, gap)
        if y == 100.0:
            assert abs(gap - 0.17648) <= 1e-3
            assert abs(gap - GAP_LIMIT) <= 1e-3
    elapsed = time.time() - start
    assert elapsed <= 10.0, f"suite took {elapsed:.1f}s"
    report(7, "height oracle gap in [0, 1], limit 0.17649")


def test_08_weakened_bound_derivation():
    k = kappa()
    rhos = np.logspace(-2, 2, 25)
    epss = np.linspace(0.05, 0.95, 20)
    checked = 0
    for g in range(1, 21):
        clamp = rho_clamp(g)
        for rho in rhos:
            rc = min(rho, clamp)
            base = math.pi / (6 * rc * rc) + g * math.log(k * rc * math.sqrt(g))
            for eps in epss:
                lhs = base + (g / 2.0) * math.log(2 * math.pi**2 / eps)
                assert lhs >= (1 - eps) * math.pi / (6 * rc * rc) - 1e-10
                checked += 1
    assert checked == 10_000
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        E = EmbeddingSet(g, d, [make_reduced_period(rng, g) for _ in range(d)])
        eps = float(rng.uniform(0.05, 0.95))
        assert height_lower_bound(E).total >= weakened_height_bound(E, eps) - 1e-10
    report(8, "per-term derivation identity and bound dominance")


def test_09_clamped_minimum_agreement():
    rng = np.random.default_rng(9)
    for i in range(200):
        g = 1 + i % 3
        om = make_reduced_period(rng, g)
        lam, rho_c, ok, _ = lambda_clamped(om)
        assert ok and abs(lam - rho_c) <= 1e-9
        # invariance of the diameter under reduction, from a skewed start
        if g == 1:
            raw = om_of(complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0)))
        else:
            X = rng.uniform(-2, 2, (g, g))
            lamy = rng.uniform(0.5, 3.0, g)
            Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
            Y = (Q * lamy) @ Q.T
            raw = validate_period_matrix((X + X.T) / 2, (Y + Y.T) / 2)
        a = injectivity_diameter(raw)
        b = injectivity_diameter(siegel_reduce(raw))
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
    report(9, "clamped dual minimum equals clamped diameter")


def test_10_cli_golden(tmp_path, capsys):
    path = tmp_path / "tau2i.json"
    path.write_text(json.dumps({"g": 1, "degree": 1,
                                "embeddings": [{"re": [[0.0]], "im": [[2.0]]}]}))
    assert main(["bound", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["height_lower_bound"] - TERM_TAU_2I) <= 1e-5

    path2 = tmp_path / "incomplete.json"
    path2.write_text(json.dumps({"g": 1, "degree": 2,
                                 "embeddings": [{"re": [[0.0]], "im": [[2.0]]}]}))
    assert main(["bound", str(path2)]) == 3
    assert "incomplete embedding data" in capsys.readouterr().err

    path3 = tmp_path / "empty.json"
    path3.write_text(json.dumps({"g": 1, "degree": 1, "embeddings": []}))
    assert main(["bound", str(path3)]) == 2
    capsys.readouterr()
    report(10, "CLI golden totals and exit codes")
