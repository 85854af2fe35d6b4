import math

import mpmath as mp
import numpy as np
import pytest

from mlk.bounds import height_term
from mlk.oracle import OracleError, delta_modular, faltings_height_ec, log_abs_delta

# mpmath, 40 digits
DELTA_10I = 5.157900062542840350418480162363051111e-28
DELTA_I = 0.0017853698506421519043430549603422623106  # (Gamma(1/4) / (2 pi^{3/4}))^24
H_I = -1.3105329259115095182522750833047286680
GAP_LIMIT = 0.1764852083106725866654749964861782195  # (1/2) ln(pi e / 6)


def random_unimodular(rng, coeff_bound=20):
    """Random SL2(Z) element with bounded entries, as a word in T and S."""
    while True:
        M = np.eye(2, dtype=np.int64)
        T = np.array([[1, 1], [0, 1]], dtype=np.int64)
        S = np.array([[0, -1], [1, 0]], dtype=np.int64)
        for _ in range(int(rng.integers(1, 7))):
            M = M @ np.linalg.matrix_power(T, int(rng.integers(-3, 4)))
            M = M @ S
        if np.max(np.abs(M)) <= coeff_bound:
            return M


def moebius(M, tau):
    a, b, c, d = int(M[0, 0]), int(M[0, 1]), int(M[1, 0]), int(M[1, 1])
    return (a * tau + b) / (c * tau + d)


class TestDeltaModular:
    def test_frozen_value_10i(self):
        assert delta_modular(10j) == pytest.approx(DELTA_10I, rel=1e-12)

    def test_chowla_selberg_point(self):
        want = float((mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf("0.75"))) ** 24)
        assert delta_modular(1j) == pytest.approx(want, rel=1e-12)
        assert delta_modular(1j) == pytest.approx(DELTA_I, rel=1e-12)

    def test_weight_12_invariance(self):
        tau = 0.3 + 1.7j
        inv_tau = -1.0 / tau
        lhs = delta_modular(inv_tau) * inv_tau.imag**6
        rhs = delta_modular(tau) * tau.imag**6
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_inversion_fixed_point(self):
        assert delta_modular(-1.0 / 1j) == pytest.approx(delta_modular(1j), rel=1e-14)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(OracleError):
            delta_modular(1.0 - 0.5j)
        with pytest.raises(OracleError):
            log_abs_delta(0.3)

    @pytest.mark.parametrize("tau, tol, message", [
        (complex(math.nan, 1.0), 1e-12, "finite"),
        (complex(0.0, math.inf), 1e-12, "finite"),
        (1j, 0.0, "tol must be positive"),
        (0.1 + 1e-9j, 1e-12, "too close to the real axis"),
    ], ids=["nan", "inf", "tol-0", "near-real-axis"])
    def test_log_abs_delta_rejects(self, tau, tol, message):
        with pytest.raises(OracleError, match=message):
            log_abs_delta(tau, tol)

    def test_log_form_handles_huge_imaginary_part(self):
        # |Delta| underflows near Im tau ~ 113; the log form keeps going
        assert delta_modular(150j) == 0.0
        assert log_abs_delta(150j) == pytest.approx(-300 * math.pi, abs=1e-12)
        assert log_abs_delta(60j) == pytest.approx(-120 * math.pi, abs=1e-12)


class TestFaltingsHeight:
    def test_frozen_value_at_i(self):
        assert faltings_height_ec(1j) == pytest.approx(H_I, abs=1e-12)

    def test_modular_invariance_random_transforms(self, rng):
        for _ in range(100):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 2.5))
            M = random_unimodular(rng)
            assert faltings_height_ec(moebius(M, tau)) == pytest.approx(
                faltings_height_ec(tau), abs=1e-10
            )

    def test_asymptotic_along_imaginary_axis(self):
        y = 20.0
        residual = faltings_height_ec(1j * y) - (math.pi * y / 6.0 - 0.5 * math.log(y))
        assert residual == pytest.approx(-math.log(2 * math.pi), abs=1e-10)

    def test_gap_to_height_term_limit(self):
        for y in (50.0, 100.0):
            gap = faltings_height_ec(1j * y) - height_term(1.0 / math.sqrt(y), 1)
            assert gap == pytest.approx(GAP_LIMIT, abs=1e-6)

    def test_gap_positive_and_bounded_window(self):
        ys = np.concatenate([np.linspace(1.0, 10.0, 25), np.linspace(12, 100, 23)])
        for y in ys:
            gap = faltings_height_ec(1j * y) - height_term(1.0 / math.sqrt(y), 1)
            assert 0.0 <= gap <= 1.0
