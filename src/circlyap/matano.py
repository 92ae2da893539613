"""Separated-boundary-condition Lagrange function and its periodic obstruction.

For general reaction terms f(x, u, u_x) under Dirichlet (or Neumann)
boundary conditions, the convexity exponent g(x, u, p) of the Lagrange
function solves a first-order linear PDE by the method of characteristics:
along du/dx = p, dp/dx = -f the exponent accumulates f_p, normalized to
g = 0 at x = 0. The Lagrange function is the double p-integral of exp g
minus F(x, u); by Cauchy's formula for repeated integrals,

    int_0^p int_0^p1 exp g(x, u, p2) dp2 dp1 = int_0^p (p - s) exp g(x, u, s) ds,

so it takes one backward characteristic per node of a single quadrature
rule over [0, p].

Under periodic boundary conditions the same recipe demands that the
accumulated f_p vanish around every 1-periodic characteristic orbit; the
``integrability_defect`` routine locates such an orbit by single shooting
and reports that integral. A nonzero value certifies the obstruction.
"""

from __future__ import annotations

import numpy as np

from .charflow import DEFAULT_CONFIG, CharflowConfig, solve_characteristics
from .functional import DIRICHLET, ScalarField, gradient, quadrature_weights
from .lagrangian import QuadratureConfig, _unit_rule, quad_nodes_weights
from .pde import GeneralNonlinearity, TrajectoryRecord


def _char_batch(nl: GeneralNonlinearity, x: float, us: np.ndarray,
                ps: np.ndarray, cfg: CharflowConfig) -> np.ndarray:
    """g(x, u_k, p_k) for batched states, one backward solve to x = 0."""
    us = np.asarray(us, dtype=float)
    ps = np.asarray(ps, dtype=float)
    m = us.size
    if x == 0.0:
        return np.zeros(m)

    def rhs(s, y):
        # a fresh array per call: the integrator keeps the derivative
        u, p = y[:m], y[m:2 * m]
        out = np.empty(3 * m)
        out[:m] = p
        np.negative(nl.f(s, u, p), out=out[m:2 * m])
        out[2 * m:] = nl.f_p(s, u, p)
        return out

    y = solve_characteristics(
        rhs, (x, 0.0), np.concatenate([us, ps, np.zeros(m)]), cfg, 2 * m,
        lambda k, _: f"backward characteristic from x={x:.6g}: sample "
                     f"{k % m} at (u, p) = ({us[k % m]:.6g}, {ps[k % m]:.6g})",
        var="x")
    # accumulated integral runs from x down to 0; g is its negative
    return -y[2 * m:]


def g_value(nl: GeneralNonlinearity, x: float, u: float, p: float,
            cfg: CharflowConfig = DEFAULT_CONFIG) -> float:
    """Convexity exponent g(x, u, p), normalized to vanish at x = 0."""
    return float(_char_batch(nl, x, np.array([u]), np.array([p]), cfg)[0])


class SeparatedEvaluator:
    """Evaluator of the separated-BC Lagrange function L(x, u, p).

    Queries are independent: each makes its own backward solve and keeps
    nothing, so a value depends only on its arguments.
    """

    def __init__(self, nl: GeneralNonlinearity,
                 charflow_cfg: CharflowConfig = DEFAULT_CONFIG,
                 quad_cfg: QuadratureConfig | None = None):
        self.nl = nl
        self.charflow_cfg = charflow_cfg
        self.quad_cfg = quad_cfg or QuadratureConfig()

    def _integrals(self, x, u, p):
        """(p-integral, F) at (x, u, p): the (p - s)-weighted integral of
        exp g over [0, p] and the F-integral over [0, u], from one backward
        solve over the p-nodes (u, s_j) and the F-nodes (u_k, 0)."""
        qc = self.quad_cfg
        s, ws = quad_nodes_weights(qc.panels, 0.0, p)
        uk, wk = quad_nodes_weights(qc.panels, 0.0, u)
        if s.size + uk.size == 0:
            return 0.0, 0.0
        zeros = np.zeros_like(uk)
        g = _char_batch(self.nl, x, np.concatenate([np.full(s.size, u), uk]),
                        np.concatenate([s, zeros]), self.charflow_cfg)
        f0 = np.asarray(self.nl.f(x, uk, zeros), dtype=float)
        return (float(np.dot(ws * (p - s), np.exp(g[:s.size]))),
                float(np.dot(wk, f0 * np.exp(g[s.size:]))))

    def F(self, x, u) -> float:
        return self._integrals(x, u, 0.0)[1]

    def L(self, x, u, p) -> float:
        double, F = self._integrals(x, u, p)
        return double - F

    def L_pp(self, x, u, p) -> float:
        return float(np.exp(g_value(self.nl, x, u, p, self.charflow_cfg)))

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

    def field_eval(self, fld: ScalarField):
        """L, L_pp and F over a whole gridded field in one fused solve.

        Builds every node of the (p - s)-weighted p-integral and of the
        F-integral for all grid points, evaluates g on the full batch, and
        assembles the Lagrange function values.
        """
        x = fld.grid()
        u = fld.values
        p = gradient(fld).values
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


def L_separated(nl: GeneralNonlinearity, x: float, u: float, p: float,
                charflow_cfg: CharflowConfig = DEFAULT_CONFIG,
                quad_cfg: QuadratureConfig | None = None) -> float:
    """One-shot evaluation of the separated-BC Lagrange function."""
    return SeparatedEvaluator(nl, charflow_cfg, quad_cfg).L(x, u, p)


def field_report(ev: SeparatedEvaluator, fld: ScalarField,
                 u_t: ScalarField):
    """(V, dissipation, min L_pp) of one snapshot from a single fused solve."""
    fe = ev.field_eval(fld)
    w = quadrature_weights(fld)
    V = float(np.dot(w, fe["L"]))
    diss = -float(np.dot(w, fe["L_pp"] * u_t.values**2))
    return V, diss, float(np.min(fe["L_pp"]))


def decay_identity_residual(nl: GeneralNonlinearity, trajectory: TrajectoryRecord,
                            charflow_cfg: CharflowConfig = DEFAULT_CONFIG,
                            quad_cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Centered-difference check of dV/dt against the dissipation integral.

    Expects a Dirichlet trajectory. Returns one residual per interior save
    point; the residuals shrink at second order under grid and save-density
    refinement.
    """
    if trajectory.snapshots[0].bc != DIRICHLET:
        raise ValueError("decay identity check expects a Dirichlet trajectory")
    ev = SeparatedEvaluator(nl, charflow_cfg, quad_cfg)
    ts = trajectory.times
    VD = [field_report(ev, s, ut) for s, ut in
          zip(trajectory.snapshots, trajectory.u_t_snapshots)]
    Vs = np.array([v for v, _, _ in VD])
    Ds = np.array([d for _, d, _ in VD])
    res = []
    for k in range(1, len(ts) - 1):
        dVdt = (Vs[k + 1] - Vs[k - 1]) / (ts[k + 1] - ts[k - 1])
        res.append(abs(dVdt - Ds[k]))
    return np.array(res)


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
