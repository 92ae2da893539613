"""Separated-boundary-condition Lagrange function and its periodic obstruction.

For general reaction terms f(x, u, u_x) under Dirichlet (or Neumann)
boundary conditions, the convexity exponent g(x, u, p) of the Lagrange
function solves a first-order linear PDE by the method of characteristics:
along du/dx = p, dp/dx = -f the exponent accumulates f_p, normalized to
g = 0 at x = 0. The Lagrange function is the double p-integral of exp g
minus F(x, u); by Cauchy's formula for repeated integrals,

    int_0^p int_0^p1 exp g(x, u, p2) dp2 dp1 = int_0^p (p - s) exp g(x, u, s) ds,

so it takes one backward characteristic per node of a single quadrature
rule over [0, p]. A snapshot's V, dissipation and min L_pp, and the decay
residual of a trajectory, are assembled by :mod:`circlyap.functional`, as
for the circle construction.

Under periodic boundary conditions the same recipe demands that the
accumulated f_p vanish around every 1-periodic characteristic orbit; the
``integrability_defect`` routine locates such an orbit by single shooting
and reports that integral. A nonzero value certifies the obstruction.
"""

from __future__ import annotations

import numpy as np

from .charflow import DEFAULT_CONFIG, CharflowConfig, solve_characteristics
from .functional import (DIRICHLET, FunctionalReport, ScalarField,
                         decay_residual, gradient, snapshot_report)
from .lagrangian import QuadratureConfig, _unit_rule
from .pde import GeneralNonlinearity, TrajectoryRecord


class SeparatedEvaluator:
    """Evaluator of the separated-BC Lagrange function L(x, u, p).

    Every query is one backward solve of ``g_batch``: ``L`` and ``F`` are
    ``eval_samples`` of one sample, ``L_pp`` is one characteristic. A query
    keeps nothing, so a value depends only on its arguments.
    """

    def __init__(self, nl: GeneralNonlinearity,
                 charflow_cfg: CharflowConfig = DEFAULT_CONFIG,
                 quad_cfg: QuadratureConfig | None = None):
        self.nl = nl
        self.charflow_cfg = charflow_cfg
        self.quad_cfg = quad_cfg or QuadratureConfig()

    def F(self, x, u) -> float:
        return float(self.eval_samples([x], [u], [0.0])["F"][0])

    def L(self, x, u, p) -> float:
        return float(self.eval_samples([x], [u], [p])["L"][0])

    def L_pp(self, x, u, p) -> float:
        return float(np.exp(self.g_batch([x], [u], [p])[0]))

    def g_batch(self, xs, us, ps) -> np.ndarray:
        """g at paired samples with varying x, in a single backward solve.

        Each span [x_k, 0] is rescaled to a common parameter s in [1, 0],
        so characteristics from every sample advance together.
        """
        xs = np.asarray(xs, dtype=float).ravel()
        us = np.asarray(us, dtype=float).ravel()
        ps = np.asarray(ps, dtype=float).ravel()
        m = xs.size
        nl, cfg = self.nl, self.charflow_cfg
        neg_xs = -xs

        def rhs(s, y):
            # a fresh array per call: the integrator keeps the derivative
            u, p = y[:m], y[m:2 * m]
            pos = xs * s
            out = np.empty(3 * m)
            np.multiply(xs, p, out=out[:m])
            np.multiply(neg_xs, nl.f(pos, u, p), out=out[m:2 * m])
            np.multiply(xs, nl.f_p(pos, u, p), out=out[2 * m:])
            return out

        y = solve_characteristics(
            rhs, (1.0, 0.0), np.concatenate([us, ps, np.zeros(m)]), cfg,
            2 * m,
            lambda k, s: f"batched backward characteristics: sample {k % m} "
                         f"at (x, u, p) = ({xs[k % m]:.6g}, {us[k % m]:.6g}, "
                         f"{ps[k % m]:.6g}), stopped at x={xs[k % m] * s:.6g}",
            var="s")
        return -y[2 * m:]

    def eval_samples(self, xs, us, ps):
        """L, L_pp and F at paired samples (x_i, u_i, p_i), in one fused
        solve.

        Builds every node of the (p - s)-weighted p-integral and of the
        F-integral for all samples, evaluates g on the full batch, and
        assembles the Lagrange function values.
        """
        x = np.asarray(xs, dtype=float).ravel()
        u = np.asarray(us, dtype=float).ravel()
        p = np.asarray(ps, dtype=float).ravel()
        n = x.size
        frac, wfrac = _unit_rule(self.quad_cfg.panels)
        m = frac.size

        # nodes s_j = frac_j * p with weights w_j * (p - s_j)
        p_nodes = p[:, None] * frac[None, :]                  # (n, m)
        wL = (p * p)[:, None] * (wfrac * (1.0 - frac))[None, :]
        u_nodes = u[:, None] * frac[None, :]                  # (n, m) for F
        wF = u[:, None] * wfrac[None, :]

        xm = np.repeat(x, m)
        xs = np.concatenate([xm, xm, x])
        us = np.concatenate([np.repeat(u, m), u_nodes.ravel(), u])
        ps = np.concatenate([p_nodes.ravel(), np.zeros(n * m), p])
        g_all = self.g_batch(xs, us, ps)
        g_L = g_all[:n * m].reshape(n, m)
        g_F = g_all[n * m:2 * n * m].reshape(n, m)
        g_star = g_all[2 * n * m:]

        f0 = np.asarray(self.nl.f(xm, u_nodes.ravel(),
                                  np.zeros(n * m)), dtype=float).reshape(n, m)
        F_vals = np.sum(wF * f0 * np.exp(g_F), axis=1)
        L_vals = np.sum(wL * np.exp(g_L), axis=1) - F_vals
        return {"L": L_vals, "L_pp": np.exp(g_star), "F": F_vals}

    def field_eval(self, fld: ScalarField):
        """L, L_pp and F over a whole gridded field: ``eval_samples`` at
        its grid points and finite-difference slopes."""
        return self.eval_samples(fld.grid(), fld.values, gradient(fld).values)


def g_value(nl: GeneralNonlinearity, x: float, u: float, p: float,
            cfg: CharflowConfig = DEFAULT_CONFIG) -> float:
    """Convexity exponent g(x, u, p), normalized to vanish at x = 0:
    ``g_batch`` of one sample."""
    return float(SeparatedEvaluator(nl, cfg).g_batch([x], [u], [p])[0])


def L_separated(nl: GeneralNonlinearity, x: float, u: float, p: float,
                charflow_cfg: CharflowConfig = DEFAULT_CONFIG,
                quad_cfg: QuadratureConfig | None = None) -> float:
    """One-shot evaluation of the separated-BC Lagrange function."""
    return SeparatedEvaluator(nl, charflow_cfg, quad_cfg).L(x, u, p)


def field_report(ev: SeparatedEvaluator, fld: ScalarField,
                 u_t: ScalarField) -> FunctionalReport:
    """V, dissipation and min L_pp of one snapshot from a single fused
    solve, assembled as the circle construction assembles its own."""
    fe = ev.field_eval(fld)
    return snapshot_report(fld, u_t, fe["L"], fe["L_pp"])


def decay_identity_residual(nl: GeneralNonlinearity, trajectory: TrajectoryRecord,
                            charflow_cfg: CharflowConfig = DEFAULT_CONFIG,
                            quad_cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Centered-difference check of dV/dt against the dissipation integral.

    Expects a Dirichlet trajectory. Returns one residual per interior save
    point, as ``functional.decay_residual`` computes it; the residuals
    shrink at second order under grid and save-density refinement.
    """
    if trajectory.snapshots[0].bc != DIRICHLET:
        raise ValueError("decay identity check expects a Dirichlet trajectory")
    ev = SeparatedEvaluator(nl, charflow_cfg, quad_cfg)
    V, D, _ = np.array([field_report(ev, s, ut) for s, ut in
                        zip(trajectory.snapshots,
                            trajectory.u_t_snapshots)]).T
    return decay_residual(trajectory.times, V, D)[1:-1]


def _flow_map(nl: GeneralNonlinearity, z: np.ndarray,
              cfg: CharflowConfig, with_fp: bool = False):
    """Characteristic flow over x in [0, 1] from initial state z = (u, p)."""

    def rhs(x, y):
        u, p = y[0], y[1]
        out = [p, -float(nl.f(x, u, p))]
        if with_fp:
            out.append(float(nl.f_p(x, u, p)))
        return out

    y0 = list(z) + ([0.0] if with_fp else [])
    return solve_characteristics(
        rhs, (0.0, 1.0), y0, cfg, 2,
        lambda k, _: f"flow map from (u, p) = ({z[0]:.6g}, {z[1]:.6g})",
        var="x")


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
    Returns the integral of f_p along the located orbit. A nonzero value
    is the obstruction to the separated-BC construction on the circle.
    """
    z = np.array(periodic_orbit_seed, dtype=float)

    def residual(zz):
        return _flow_map(nl, zz, cfg)[:2] - zz

    converged = False
    for _ in range(max_iter):
        r = residual(z)
        if np.max(np.abs(r)) < tol:
            converged = True
            break
        J = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * max(1.0, abs(z[j]))
            e = np.zeros(2)
            e[j] = h
            J[:, j] = (residual(z + e) - residual(z - e)) / (2 * h)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        # damp overly long steps along the neutral phase direction
        norm = np.linalg.norm(step)
        if norm > 1.0:
            step *= 1.0 / norm
        z = z + step
    if not converged and np.max(np.abs(residual(z))) >= tol:
        raise RuntimeError(
            f"shooting failed to locate a 1-periodic characteristic orbit "
            f"in {max_iter} iterations (residual {np.max(np.abs(residual(z))):.3g})")

    defect = float(_flow_map(nl, z, cfg, with_fp=True)[2])
    if return_orbit:
        return defect, (float(z[0]), float(z[1]))
    return defect
