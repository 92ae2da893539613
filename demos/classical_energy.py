"""Recovering the textbook energy from the characteristic construction.

For a reaction f(u) with no gradient dependence, the general construction
of the Lyapunov density L(u, p) collapses to the classical form

    L(u, p) = p^2 / 2 - F(u),        F' = f,

and V = \\int L dx is the usual energy of the scalar parabolic equation
u_t = u_xx + f(u).  This script builds L through the characteristic flow
(never using the closed form), compares it against p^2/2 - F on a grid,
and then watches V decay monotonically along a simulated trajectory.

Usage:  python3 classical_energy.py [--lam 2.0] [--n 128] [--t-end 0.5]
"""

import argparse

import numpy as np

from circlyap.functional import field_report
from circlyap.harness import ScenarioConfig, chafee_infante_nl, run_scenario
from circlyap.lagrangian import LagrangianEvaluator
from circlyap.pde import SolverConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lam", type=float, default=2.0,
                    help="cubic reaction strength lam*u*(1-u^2)")
    ap.add_argument("--n", type=int, default=128, help="grid points")
    ap.add_argument("--t-end", type=float, default=0.5)
    args = ap.parse_args()

    nl = chafee_infante_nl(args.lam)
    ev = LagrangianEvaluator(nl)

    print("# Part 1: L(u,p) vs the classical p^2/2 - F(u)")
    uu, pp = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-3, 3, 9))
    fe = ev.field_eval(uu.ravel(), pp.ravel())
    F = args.lam * (uu.ravel() ** 2 / 2.0 - uu.ravel() ** 4 / 4.0)
    err = np.max(np.abs(fe["L"] - (0.5 * pp.ravel() ** 2 - F)))
    print(f"max deviation on a 9x9 grid: {err:.3e}")

    print()
    print("# Part 2: V(t) along a Chafee-Infante trajectory")
    cfg = ScenarioConfig(
        scenario="chafee_infante",
        params={"lam": args.lam},
        initial={"kind": "random_smooth", "seed": 1},
        solver=SolverConfig(n=args.n, t_end=args.t_end, save_every=200))
    traj, extras = run_scenario(cfg, write=False)
    print(f"{'t':>8}  {'V':>14}  {'dV (to previous save)':>22}")
    V = extras["V"]
    for k, t in enumerate(traj.times):
        dv = "" if k == 0 else f"{V[k] - V[k - 1]:+.3e}"
        print(f"{t:8.4f}  {V[k]:14.8f}  {dv:>22}")
    print(f"monotone nonincreasing: {bool(np.all(np.diff(V) <= 0))}")

    # sanity: the functional agrees with a fresh evaluation of the
    # final snapshot
    check = field_report(ev, traj.snapshots[-1], traj.u_t_snapshots[-1]).V
    print(f"recomputed V at final time: {check:.8f}")


if __name__ == "__main__":
    main()
