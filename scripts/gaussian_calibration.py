#!/usr/bin/env python3
"""Calibrate the EER/AUC implementation against the analytic Gaussian model.

For two unit-variance Gaussian score classes separated by d', the true
operating points are known in closed form:

    EER = Phi(-d'/2)        AUC = Phi(d'/sqrt(2))

This sweeps d' over a grid, draws seeded samples, and reports the empirical
minus analytic gap. Values should shrink roughly like 1/sqrt(n).

Usage: python scripts/gaussian_calibration.py [n_per_class]
"""

import math
import sys

import numpy as np

from df_arena.metrics import auc, eer, roc
from df_arena.protocol import JoinResult


def phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    rng = np.random.default_rng(2025)
    print(f"n per class = {n}\n")
    print(f"{'d-prime':>8} {'EER emp':>10} {'EER true':>10} {'gap':>9} "
          f"{'AUC emp':>10} {'AUC true':>10} {'gap':>9}")
    for d_prime in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        half = d_prime / 2.0
        bona = rng.normal(half, 1.0, n)
        spoof = rng.normal(-half, 1.0, n)
        is_bonafide = np.arange(2 * n) < n
        curve = roc(JoinResult(is_bonafide, np.concatenate([bona, spoof])))
        e_emp = eer(curve)[0]
        a_emp = auc(curve)
        e_true = phi(-half)
        a_true = phi(d_prime / math.sqrt(2.0))
        print(f"{d_prime:8.2f} {e_emp:10.5f} {e_true:10.5f} {e_emp - e_true:+9.5f} "
              f"{a_emp:10.5f} {a_true:10.5f} {a_emp - a_true:+9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
