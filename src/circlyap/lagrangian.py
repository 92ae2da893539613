"""Lagrange function for the reflection-symmetric construction.

Builds the integrand L(u, p) of the Lyapunov functional, its convexity
weight L_pp = exp(Fq), and the ingredients Fq, F and the auxiliary phi,
in two equivalent forms:

* ``double_integral``: the double p-integral of exp(Fq) minus F(u),
  evaluated by Cauchy's formula for repeated integrals as the single
  integral of (p - s) * exp(Fq(u, s^2/2)) over s in [0, p],
* ``reduced``: p * phi(u, p) - Psi^{0,u}(p^2/2),

where Psi is the characteristic evolution from :mod:`circlyap.charflow`.

Every quantity comes from one characteristic solve, ``_lanes``: lanes
through (u_k, q_k) run together down to u = 0 in a common rescaled
parameter, each co-integrating either its sensitivity to q_k (for phi) or
the transport equation dg/du = fbar_q(u, q(u)) (for Fq, normalized to
g = 0 at u = 0). ``field_eval`` stacks the lanes of a whole batch of
samples; a scalar ``L`` is ``field_eval`` of one sample, and ``F_q`` and
``L_pp`` are one transport lane.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .charflow import (
    DEFAULT_CONFIG,
    CharflowConfig,
    NonlinearityO2,
    _eval_vec,
    solve_characteristics,
)

GAUSS_LEGENDRE = "gauss_legendre"

DOUBLE_INTEGRAL = "double_integral"
REDUCED = "reduced"


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre node count for every p- and u-integral.

    The integrands (exp Fq and the evolution sensitivity along p,
    fbar * exp Fq along u) are smooth, so Gauss-Legendre converges fast:
    against a 48-node reference, 16 nodes give F(u) to about 3e-15 and
    field values of L (|p| up to 7) to 5e-13. Simpson's rule with 64
    panels, four times the characteristic lanes, was off by up to 4e-8 in
    F; it was retired for that reason.

    ``rule`` and ``nested_panels`` are accepted so that configs written
    earlier still parse; neither is stored or serialized. ``rule`` must be
    ``"gauss_legendre"``. ``nested_panels`` is ignored: it sized the nested
    quadratures that once evaluated the double p-integrals.
    """

    panels: int = 16
    rule: InitVar[str] = GAUSS_LEGENDRE
    nested_panels: InitVar[int | None] = None

    def __post_init__(self, rule, nested_panels):
        if rule != GAUSS_LEGENDRE:
            why = ("was retired; use 'gauss_legendre'" if rule == "simpson"
                   else "is unknown")
            raise ValueError(f"quadrature rule {rule!r} {why}")
        if self.panels < 2:
            raise ValueError("panels must be >= 2")


@lru_cache(maxsize=None)
def _leggauss(panels: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per panel
    count and shared, hence read-only."""
    x, w = leggauss(panels)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _unit_rule(panels: int):
    """Gauss-Legendre nodes and weights on [0, 1]; scale nodes by an
    endpoint to cover [0, b] with weights scaled by the same factor."""
    xg, wg = _leggauss(panels)
    return 0.5 * (xg + 1.0), 0.5 * wg


@dataclass
class LagrangianEvaluator:
    """Evaluator of L and its ingredients for one nonlinearity.

    Queries are independent: each makes its own characteristic solves and
    keeps nothing, so a value depends only on its arguments, never on the
    queries the evaluator answered before.
    """

    nl: NonlinearityO2
    charflow_cfg: CharflowConfig = DEFAULT_CONFIG
    quad_cfg: QuadratureConfig = field(default_factory=QuadratureConfig)
    form: str = REDUCED

    def __post_init__(self):
        if self.form not in (DOUBLE_INTEGRAL, REDUCED):
            raise ValueError(f"unknown Lagrangian form: {self.form!r}")

    # -- the characteristic solve ----------------------------------------

    def _lanes(self, scale, q0, n_sens, lane):
        """Characteristics of dq/du = -fbar(u, q) from (scale_k, q0_k) down
        to u = 0, all lanes in one solve over the rescaled parameter
        s in [1, 0] (u = scale_k * s).

        The first ``n_sens`` lanes co-integrate the sensitivity eta of q to
        q0 (eta = 1 at s = 1); the others co-integrate the transport
        equation dg/du = fbar_q(u, q), normalized to g = 0 at u = 0. Every
        q is watched; ``lane(k, s)`` names lane k in an escape. Returns
        q at u = 0, eta, and Fq = -g(0) of the transport lanes.
        """
        nq = scale.size
        nl = self.nl
        neg_scale = -scale
        neg_sens = neg_scale[:n_sens]
        transport = scale[n_sens:]

        def rhs(s, y):
            # one f_bar and one f_bar_q call over every lane; a fresh
            # array per call: the integrator keeps the derivative
            q = y[:nq]
            at = scale * s
            fbq = _eval_vec(nl.f_bar_q, at, q)
            out = np.empty(2 * nq)
            np.multiply(neg_scale, _eval_vec(nl.f_bar, at, q), out=out[:nq])
            np.multiply(neg_sens * fbq[:n_sens], y[nq:nq + n_sens],
                        out=out[nq:nq + n_sens])
            np.multiply(transport, fbq[n_sens:], out=out[nq + n_sens:])
            return out

        y0 = np.concatenate([q0, np.ones(n_sens), np.zeros(nq - n_sens)])
        y = solve_characteristics(rhs, (1.0, 0.0), y0, self.charflow_cfg,
                                  nq, lane, var="s")
        return y[:nq], y[nq:nq + n_sens], -y[nq + n_sens:]

    # -- ingredients ------------------------------------------------------

    def F_q(self, u: float, q: float) -> float:
        """Accumulated partial derivative exponent Fq(u, q), from one
        transport lane; q may be negative."""
        u, q = float(u), float(q)
        _, _, fq = self._lanes(
            np.array([u]), np.array([q]), 0,
            lambda k, s: f"transport solve: sample 0 at (u, q) = "
                         f"({u:.6g}, {q:.6g}), stopped at u={u * s:.6g}")
        return float(fq[0])

    def F(self, u: float) -> float:
        """F(u) by quadrature of fbar(u1, 0) * exp(Fq(u1, 0)) over [0, u],
        with the transport lanes of all u-nodes u_k = u * frac_k in one
        solve."""
        if u == 0.0:
            return 0.0
        frac, wfrac = _unit_rule(self.quad_cfg.panels)
        un = u * frac
        _, _, fq = self._lanes(
            un, np.zeros(un.size), 0,
            lambda k, s: f"F quadrature: node {k} at u={un[k]:.6g}, "
                         f"stopped at u={un[k] * s:.6g}")
        f0 = _eval_vec(self.nl.f_bar, un, np.zeros(un.size))
        return float(np.dot(u * wfrac, f0 * np.exp(fq)))

    # -- Lagrange function ------------------------------------------------

    def L(self, u: float, p: float) -> float:
        """L(u, p) in this evaluator's form: ``field_eval`` of one sample."""
        return float(self.field_eval([u], [p])["L"][0])

    def L_pp(self, u: float, p: float) -> float:
        """Convexity weight exp(Fq(u, p^2/2)); strictly positive."""
        return math.exp(self.F_q(u, 0.5 * p * p))

    def field_eval(self, u_arr, p_arr):
        """L, L_pp and F_q over paired sample arrays, in one solve, with
        phi and Psi ("psi") in the reduced form or F in the double form.

        Every characteristic span [u_i, 0] is rescaled to a common
        parameter s in [1, 0] and the lanes of all samples run as one
        stacked system: the quadrature nodes s_j = p_i * frac_j of the
        p-integral, and one star lane through (u_i, p_i^2/2) whose
        transport exponent gives F_q and L_pp. In the reduced form the node
        lanes carry their sensitivities (phi) and the star lane gives Psi;
        in the double-integral form the node lanes carry transport
        exponents, and the transport lanes of the F-nodes u_i * frac_k
        join them.

        A scalar ``L`` is this evaluation of one sample. A sample inside a
        larger batch shares the batch's step sizes, so its values may
        differ from the one-sample evaluation in the last digits.
        """
        u_arr = np.asarray(u_arr, dtype=float)
        p_arr = np.asarray(p_arr, dtype=float)
        npts = u_arr.size
        frac, wfrac = _unit_rule(self.quad_cfg.panels)
        m = frac.size
        nm = npts * m

        nodes = p_arr[:, None] * frac[None, :]          # (npts, m)
        q_star = 0.5 * p_arr**2
        un = np.repeat(u_arr, m)
        # lanes run sample-major: p-node lanes, in the double form the
        # F-node lanes, then one star lane per sample
        if self.form == REDUCED:
            scale = np.concatenate([un, u_arr])
            q0 = np.concatenate([(0.5 * nodes**2).ravel(), q_star])
            n_sens = n_nodes = nm
        else:
            u_nodes = (u_arr[:, None] * frac[None, :]).ravel()
            scale = np.concatenate([un, u_nodes, u_arr])
            q0 = np.concatenate([(0.5 * nodes**2).ravel(), np.zeros(nm),
                                 q_star])
            n_sens, n_nodes = 0, 2 * nm

        def sample(k, s):
            i = (k % nm) // m if k < n_nodes else k - n_nodes
            return (f"batched field evaluation: sample {i} at (u, p) = "
                    f"({u_arr[i]:.6g}, {p_arr[i]:.6g}), "
                    f"stopped at u={scale[k] * s:.6g}")

        q_end, eta, fq = self._lanes(scale, q0, n_sens, sample)
        fq_star = fq[fq.size - npts:]
        out = {"L_pp": np.exp(fq_star), "F_q": fq_star}
        if self.form == REDUCED:
            psi_star = q_end[nm:]
            weights = p_arr[:, None] * wfrac[None, :]
            phi = np.sum(weights * eta.reshape(npts, m), axis=1)
            out.update(L=p_arr * phi - psi_star, phi=phi, psi=psi_star)
        else:
            # Cauchy's formula: weights w_j * (p - s_j) on the nodes s_j
            wL = (p_arr * p_arr)[:, None] * (wfrac * (1.0 - frac))[None, :]
            wF = u_arr[:, None] * wfrac[None, :]
            f0 = _eval_vec(self.nl.f_bar, u_nodes, np.zeros(nm))
            g_L = fq[:nm].reshape(npts, m)
            g_F = fq[nm:2 * nm].reshape(npts, m)
            F_vals = np.sum(wF * f0.reshape(npts, m) * np.exp(g_F), axis=1)
            L_vals = np.sum(wL * np.exp(g_L), axis=1) - F_vals
            out.update(L=L_vals, F=F_vals)
        return out


def effective_nonlinearity(f_bar: NonlinearityO2, a_bar: NonlinearityO2) -> NonlinearityO2:
    """Quotient nonlinearity fbar / abar for the quasilinear construction.

    The diffusion coefficient ``a_bar`` must be positive wherever it is
    sampled; a non-positive value raises ValueError at evaluation time.
    """

    def _check_positive(av):
        if np.any(np.asarray(av) <= 0.0):
            raise ValueError("diffusion coefficient must be uniformly positive")

    def quotient(u, q):
        av = a_bar.f_bar(u, q)
        _check_positive(av)
        return f_bar.f_bar(u, q) / av

    def quotient_q(u, q):
        av = a_bar.f_bar(u, q)
        _check_positive(av)
        return (f_bar.f_bar_q(u, q) * av - f_bar.f_bar(u, q) * a_bar.f_bar_q(u, q)) / av**2

    label = f"({f_bar.label or 'f'})/({a_bar.label or 'a'})"
    return NonlinearityO2(quotient, quotient_q, label)
