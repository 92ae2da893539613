"""Two equivalent formulas for the Lyapunov density.

The density L(u, p) for gradient-dependent reactions f(u, p) = fbar(u, p^2/2)
can be written either as a double integral over the convexity weight
exp(F_q) or in a reduced form built from the characteristic flow.  By
Cauchy's formula for repeated integrals the double integral is evaluated
as the single integral of (p - s) * exp(F_q(u, s^2/2)) over s in [0, p],
with F_q from its own transport solves.  The two forms agree identically
and share no computation, so their gap measures the numerical error.
This script evaluates both on a sample grid, reports the worst relative
gap, and times the two code paths.

Usage:  python3 lagrangian_forms.py [--lam 2.0] [--c 1.0]
"""

import argparse
import time

import numpy as np

from circlyap.charflow import NonlinearityO2
from circlyap.lagrangian import (
    DOUBLE_INTEGRAL,
    GAUSS_LEGENDRE,
    LagrangianEvaluator,
    QuadratureConfig,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lam", type=float, default=2.0)
    ap.add_argument("--c", type=float, default=1.0,
                    help="strength of the gradient coupling q*u")
    args = ap.parse_args()

    lam, c = args.lam, args.c
    nl = NonlinearityO2(
        f_bar=lambda u, q: lam * u * (1.0 - u * u) + c * q * u,
        f_bar_q=lambda u, q: c * u + 0.0 * q,
        label="cubic + gradient coupling")

    qc = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=16)
    ev_double = LagrangianEvaluator(nl, quad_cfg=qc, form=DOUBLE_INTEGRAL)
    ev_reduced = LagrangianEvaluator(nl, quad_cfg=qc)

    us = np.linspace(-1.5, 1.5, 7)
    ps = np.linspace(-2.0, 2.0, 7)

    t0 = time.perf_counter()
    Ld = np.array([[ev_double.L(u, p) for p in ps] for u in us])
    t_double = time.perf_counter() - t0

    t0 = time.perf_counter()
    Lr = np.array([[ev_reduced.L(u, p) for p in ps] for u in us])
    t_reduced = time.perf_counter() - t0

    gap = np.max(np.abs(Ld - Lr) / np.maximum(1.0, np.abs(Lr)))
    print(f"grid: {len(us)} x {len(ps)} points, "
          f"fbar = {lam}*u*(1-u^2) + {c}*q*u")
    print(f"double-integral form: {t_double:.2f}s")
    print(f"reduced form:         {t_reduced:.2f}s")
    print(f"worst relative gap:   {gap:.3e}")

    print()
    print("convexity weight L_pp = exp(F_q) along p at u = 0.5:")
    for p in ps:
        print(f"  p = {p:+.2f}   L_pp = {ev_reduced.L_pp(0.5, p):.6f}")
    print("positivity of L_pp is what makes V a Lyapunov function.")


if __name__ == "__main__":
    main()
