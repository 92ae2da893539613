"""A fully x-dependent reaction with a genuinely periodic PDE orbit.

The Lyapunov construction needs f to depend on the gradient only through
p^2 (equivalently, to be invariant under rotations and reflection of the
circle).  Drop that and the gradient structure can disappear entirely:
any reflection-symmetric planar vector field (g, h) embeds into a
reaction f(x, u, u_x) so that the span of cos x and sin x is invariant
and carries exactly the planar dynamics.  Choosing a planar center gives
a PDE whose orbit is a closed loop -- no Lyapunov function exists.

This script integrates the planar ODE as the oracle, runs the embedded
PDE for one period, and compares the two mode by mode.

Usage:  python3 planar_counterexample.py [--n 2048] [--dt 1e-2]
"""

import argparse

import numpy as np

from circlyap.harness import (
    ScenarioConfig,
    center_planar_field,
    planar_orbit,
    run_scenario,
)
from circlyap.pde import SolverConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2048)
    ap.add_argument("--dt", type=float, default=1e-2)
    args = ap.parse_args()

    pf = center_planar_field()
    pf.verify_symmetry()
    _, period = planar_orbit(pf, 0.2, 1.1)
    print(f"planar center field g = (1 - b^2)/2, h = a*b")
    print(f"oracle orbit through (a, b) = (0.2, 1.1): period T = "
          f"{period:.4f}")
    print()

    cfg = ScenarioConfig(
        scenario="planar_embedding",
        solver=SolverConfig(n=args.n, dt=args.dt, t_end=1.0, save_every=40,
                            scheme="etdrk4"))
    traj, extras = run_scenario(cfg, write=False)

    print(f"{'t':>8} {'a (PDE)':>10} {'a (ODE)':>10} "
          f"{'b (PDE)':>10} {'b (ODE)':>10} {'off-span':>10}")
    for k, t in enumerate(traj.times):
        a_p, b_p = extras["ab_pde"][k]
        a_o, b_o = extras["ab_ode"][k]
        print(f"{t:8.3f} {a_p:10.6f} {a_o:10.6f} "
              f"{b_p:10.6f} {b_o:10.6f} {extras['off_mode_residual'][k]:10.2e}")
    print()
    print(f"worst Fourier-mode gap to the planar oracle: "
          f"{extras['fourier_match']:.2e}")
    print(f"period-return error |u(T) - u(0)| / |u(0)|:   "
          f"{extras['period_return']:.2e}")
    print("the orbit closes: this PDE is not a gradient system.")


if __name__ == "__main__":
    main()
