"""Separated-boundary-condition Lagrange function and its periodic obstruction.

For general reaction terms f(x, u, u_x) under Dirichlet (or Neumann)
boundary conditions, the convexity exponent g(x, u, p) of the Lagrange
function solves a first-order linear PDE by the method of characteristics:
along du/dx = p, dp/dx = -f the exponent accumulates f_p, normalized to
g = 0 at x = 0. The Lagrange function is the double p-integral of exp g
minus F(x, u); by Cauchy's formula for repeated integrals,

    int_0^p int_0^p1 exp g(x, u, p2) dp2 dp1 = int_0^p (p - s) exp g(x, u, s) ds,

so it takes one backward characteristic per node of a single quadrature
rule over [0, p]. A snapshot's V, dissipation and min L_pp are assembled by
:mod:`circlyap.functional`, and a trajectory's decay residual by the one
series function of :mod:`circlyap.harness`, as for the circle construction.

Under periodic boundary conditions the same recipe demands that the
accumulated f_p vanish around every 1-periodic characteristic orbit; the
``integrability_defect`` routine locates such an orbit by Newton shooting
on the period-1 return map and reports that integral. A nonzero value
certifies the obstruction. Both run their characteristics as lanes of
:func:`circlyap.charflow.solve_profile_flow`.
"""

from __future__ import annotations

import numpy as np

from .charflow import DEFAULT_CONFIG, CharflowConfig, solve_profile_flow
from .functional import (PERIODIC, FunctionalReport, ScalarField, gradient,
                         snapshot_report)
from .lagrangian import QuadratureConfig, cauchy_assembly
from .pde import GeneralNonlinearity


class SeparatedEvaluator:
    """Evaluator of the separated-BC Lagrange function L(x, u, p).

    Every query is one backward solve of ``g_batch``, whose value at a
    sample is the convexity exponent g(x, u, p), normalized to vanish at
    x = 0. ``eval_samples`` assembles L, L_pp and F of paired samples on
    it; the scalar ``L`` is ``eval_samples`` of one sample and ``L_pp`` is
    one characteristic. A query keeps nothing, so a value depends only on
    its arguments.
    """

    def __init__(self, nl: GeneralNonlinearity,
                 charflow_cfg: CharflowConfig = DEFAULT_CONFIG,
                 quad_cfg: QuadratureConfig | None = None):
        self.nl = nl
        self.charflow_cfg = charflow_cfg
        self.quad_cfg = quad_cfg or QuadratureConfig()

    def L(self, x, u, p) -> float:
        return float(self.eval_samples([x], [u], [p])["L"][0])

    def L_pp(self, x, u, p) -> float:
        return float(np.exp(self.g_batch([x], [u], [p])[0]))

    def g_batch(self, xs, us, ps) -> np.ndarray:
        """g at paired samples with varying x, in a single backward solve.

        Each span [x_k, 0] is rescaled to a common parameter s in [1, 0],
        so characteristics from every sample advance together.
        """
        return self._g(xs, us, ps, "batched backward characteristics")

    def _g(self, xs, us, ps, label):
        # an escape is named by ``label``, as solve_profile_flow takes it
        return -solve_profile_flow(self.nl.f, xs, us, ps, (1.0, 0.0),
                                   self.charflow_cfg, label,
                                   f_p=self.nl.f_p)[2]

    def eval_samples(self, xs, us, ps):
        """L, L_pp and F at paired samples (x_i, u_i, p_i), in one fused
        solve: :func:`circlyap.lagrangian.cauchy_assembly` on g, each
        sample's lanes at its own x_i. An escape names the sample.
        """
        x = np.asarray(xs, dtype=float).ravel()
        u = np.asarray(us, dtype=float).ravel()
        p = np.asarray(ps, dtype=float).ravel()

        def exponent(i, u_lanes, p_lanes):
            def sample(k, s):
                j = i[k]
                return (f"separated-BC field evaluation: sample {j} at "
                        f"(x, u, p) = ({x[j]:.6g}, {u[j]:.6g}, {p[j]:.6g}), "
                        f"stopped at x={x[j] * s:.6g}")

            return self._g(x[i], u_lanes, p_lanes, sample)

        def reaction(u_nodes):
            x_nodes = np.repeat(x, u_nodes.shape[1]).reshape(u_nodes.shape)
            return self.nl.f(x_nodes, u_nodes, np.zeros(u_nodes.shape))

        L, L_pp, F, _ = cauchy_assembly(u, p, self.quad_cfg.panels, exponent,
                                        reaction)
        return {"L": L, "L_pp": L_pp, "F": F}

    def field_eval(self, fld: ScalarField):
        """L, L_pp and F over a whole gridded field: ``eval_samples`` at
        its grid points and finite-difference slopes."""
        return self.eval_samples(fld.grid(), fld.values, gradient(fld).values)


def field_report(ev: SeparatedEvaluator, fld: ScalarField,
                 u_t: ScalarField) -> FunctionalReport:
    """V, dissipation and min L_pp of one interval snapshot from a single
    fused solve, assembled as the circle construction assembles its own."""
    if fld.bc == PERIODIC:
        raise ValueError("the separated-BC construction needs an interval "
                         "field")
    fe = ev.field_eval(fld)
    return snapshot_report(fld, u_t, fe["L"], fe["L_pp"])


def integrability_defect(nl: GeneralNonlinearity,
                         periodic_orbit_seed: tuple[float, float],
                         cfg: CharflowConfig = DEFAULT_CONFIG,
                         max_iter: int = 50,
                         tol: float = 1e-10,
                         return_orbit: bool = False):
    """Accumulated f_p around a 1-periodic characteristic orbit.

    Locates the orbit by Newton iteration on the period-1 return map,
    starting from the seed; the Jacobian is finite-differenced and solved
    by least squares (the phase direction of an orbit family is neutral).
    Each iteration is one solve of the iterate and its four neighbours as
    lanes carrying f_p, so the solve that closes the orbit gives the
    integral of f_p along it, which is returned. A nonzero value is the
    obstruction to the separated-BC construction on the circle.
    """
    z = np.array(periodic_orbit_seed, dtype=float)
    for _ in range(max_iter + 1):
        # z, z + h_0 e_0, z - h_0 e_0, z + h_1 e_1, z - h_1 e_1
        h = 1e-7 * np.maximum(1.0, np.abs(z))
        starts = z[:, None] + [[0, 1, -1, 0, 0], [0, 0, 0, 1, -1]] * h[:, None]
        u, p, g = solve_profile_flow(nl.f, np.ones(5), *starts, (0.0, 1.0),
                                     cfg, "flow map", f_p=nl.f_p)
        # the return map's residual Phi(z) - z at each start
        res = np.array([u, p]) - starts
        r = res[:, 0]
        if np.max(np.abs(r)) < tol:
            break
        J = (res[:, 1::2] - res[:, 2::2]) / (2 * h)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        # damp overly long steps along the neutral phase direction
        z = z + step * (1.0 / max(1.0, np.linalg.norm(step)))
    else:
        raise RuntimeError(
            f"shooting failed to locate a 1-periodic characteristic orbit "
            f"in {max_iter} iterations (residual {np.max(np.abs(r)):.3g})")
    defect = float(g[0])
    return (defect, (float(z[0]), float(z[1]))) if return_orbit else defect
