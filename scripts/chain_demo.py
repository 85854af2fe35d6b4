#!/usr/bin/env python3
"""Run the full inequality chain on a few period matrices and print slacks.

Usage: python scripts/chain_demo.py [--budget N]

Each check prints its lhs, rhs, slack and error estimate. Omega = 20 i I_3
is a large-Y case: its log-Gaussian check has a slack near 20, decided on
the first grid k/8 against an estimate of about 3. The last case is
Omega = i U^T U for a unimodular U far from the identity: a reduced period
matrix of the torus of i I_3 in a skewed basis.

--budget caps the 2g-dimensional invariant: Gauss nodes per axis at g = 1
(at most 256), from which the rule doubles from 32, and points per shift at
g >= 2, from which the set doubles from 2^5. Either stops once its check is
decided at value +- estimate, and so does the log-Gaussian mean, so the
printed invariant and log-Gaussian are only as precise as those decisions
need. By default the library chooses. Exits 1 when any check fails.
"""

import argparse
import sys

import numpy as np

from mlk.bounds import EmbeddingSet, verify_chain
from mlk.siegel import validate_period_matrix

SKEW = np.array([[1.0, 0.0, 0.0], [16.0, 1.0, 0.0], [50.0, 13.0, 1.0]])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=None)
    args = ap.parse_args()

    cases = {
        "tau = i": (1, validate_period_matrix([[0.0]], [[1.0]])),
        "tau = 1/2 + i": (1, validate_period_matrix([[0.5]], [[1.0]])),
        "tau = 2i": (1, validate_period_matrix([[0.0]], [[2.0]])),
        "Omega = i I_2": (2, validate_period_matrix(np.zeros((2, 2)), np.eye(2))),
        "Omega = 20 i I_3": (3, validate_period_matrix(np.zeros((3, 3)), 20.0 * np.eye(3))),
        "Omega = i U^T U, a skewed basis of i I_3": (3, validate_period_matrix(np.zeros((3, 3)),
                                                                           SKEW.T @ SKEW)),
    }
    all_passed = True
    for label, (g, om) in cases.items():
        report = verify_chain(EmbeddingSet(g, 1, [om]), budget=args.budget)
        print(f"\n== {label} ==")
        for e in report.entries:
            print(f"  {e.name:28s} lhs={e.lhs:+12.8f} rhs={e.rhs:+12.8f} "
                  f"slack={e.slack:+10.3e} err={e.error_estimate:9.2e} "
                  f"{'ok' if e.passed else 'FAIL'}")
        print(f"  all passed: {report.all_passed}")
        all_passed &= report.all_passed
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
