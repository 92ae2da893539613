"""The separated-boundary-condition construction and its periodic failure.

On an interval with Dirichlet conditions, a Lyapunov density L(x, u, p)
exists for arbitrary smooth f(x, u, p): the convexity weight exp g is
transported along backward x-characteristics starting from g(0,.,.) = 0.
On the circle the same recipe requires the weight to return to itself
after one loop, i.e. the integral of f_p along every closed
characteristic orbit must vanish -- an overdetermined condition that
generic f violates.  The integrability defect measured here is exactly
that loop integral; for f = omega^2 u + eps p it equals eps.

This script (1) runs the Dirichlet construction along a simulated
trajectory and shows the decay identity holding, then (2) measures the
loop defect for a drifted linear center and for a rotation-reflection
invariant reaction, where symmetry forces the defect to cancel.

Usage:  python3 separated_bc.py [--eps 0.5]
"""

import argparse

import numpy as np

from circlyap.harness import ScenarioConfig, run_scenario
from circlyap.lagrangian import QuadratureConfig
from circlyap.matano import integrability_defect
from circlyap.pde import GeneralNonlinearity, SolverConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", type=float, default=0.5,
                    help="strength of the advection term eps*u_x")
    args = ap.parse_args()
    eps = args.eps

    print("# Part 1: decay identity under Dirichlet conditions")
    n, dt_save = 256, 2e-3
    m = int(np.ceil(dt_save / (0.4 / n**2)))
    cfg = ScenarioConfig(
        scenario="matano_separated",
        params={"lam": 5.0, "eps": eps, "burn_in": 0.05},
        initial={"kind": "random_smooth", "seed": 3},
        solver=SolverConfig(n=n, dt=dt_save / m, t_end=0.05, save_every=m),
        quadrature=QuadratureConfig(panels=16))
    traj, extras = run_scenario(cfg, write=False)
    print(f"{'t':>8} {'V':>14} {'dissipation':>14} {'residual':>12}")
    for k, t in enumerate(traj.times):
        res = extras["residual"][k]
        res_s = f"{res:.3e}" if np.isfinite(res) else ""
        print(f"{t:8.4f} {extras['V'][k]:14.8f} "
              f"{extras['dissipation'][k]:14.6f} {res_s:>12}")
    scale = max(1.0, np.nanmax(np.abs(extras["dissipation"])))
    print(f"max residual / max|dV/dt| = "
          f"{np.nanmax(extras['residual']) / scale:.3e}")

    print()
    print("# Part 2: the periodic compatibility condition")
    center = GeneralNonlinearity(
        f=lambda x, u, p: (2 * np.pi) ** 2 * u + eps * p,
        f_p=lambda x, u, p: np.full_like(np.asarray(p, dtype=float), eps),
        x_periodic=False)
    defect = integrability_defect(center, (0.3, 0.1))
    print(f"drifted linear center, f = (2 pi)^2 u + {eps} p:")
    print(f"  loop integral of f_p = {defect:.8f}  (predicted: eps = {eps})")
    print("  nonzero defect: the periodic construction is obstructed.")

    # rotation-reflection invariant gradient dependence: the same loop
    # integral cancels identically around closed characteristic orbits
    omega, beta, amp = 6.0, 30.0, 2.0
    sym = GeneralNonlinearity(
        f=lambda x, u, p: omega**2 * u + beta * u**3 + amp * u * p * p / 2.0,
        f_p=lambda x, u, p: amp * u * np.asarray(p, dtype=float),
        x_periodic=False)
    defect_sym, (u0, p0) = integrability_defect(
        sym, (0.4, 0.0), max_iter=200, tol=1e-8, return_orbit=True)
    print(f"invariant form, f = {omega}^2 u + {beta} u^3 + {amp} u p^2/2:")
    print(f"  period-1 orbit through (u, p) = ({u0:+.4f}, {p0:+.4f})")
    print(f"  loop integral of f_p = {defect_sym:.2e}  (symmetry forces 0)")


if __name__ == "__main__":
    main()
