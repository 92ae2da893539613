"""Lagrange function for the reflection-symmetric construction.

Builds the integrand L(u, p) of the Lyapunov functional, its convexity
weight L_pp = exp(Fq), and the ingredients Fq, F and the auxiliary phi,
in two equivalent forms:

* ``double_integral``: the double p-integral of exp(Fq) minus F(u),
  evaluated by Cauchy's formula for repeated integrals as the single
  integral of (p - s) * exp(Fq(u, s^2/2)) over s in [0, p],
* ``reduced``: p * phi(u, p) - Psi^{0,u}(p^2/2),

where Psi is the characteristic evolution from :mod:`circlyap.charflow`.

Fq(u, q) is obtained by co-integrating the scalar transport equation
dg/du = fbar_q(u, q(u)) along a single characteristic through (u, q),
normalized to g = 0 at u = 0. This is one integration pass per (u, q)
instead of one characteristic solve per quadrature node.
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
    evolve_batch,
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


def quad_nodes_weights(panels: int, a: float, b: float):
    """Gauss-Legendre nodes and weights for integrating over [a, b] (b may
    lie below a)."""
    if a == b:
        return np.empty(0), np.empty(0)
    x, w = _leggauss(panels)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


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

    # -- characteristic solves -------------------------------------------

    def _transport_solve(self, u: float, qs: np.ndarray) -> np.ndarray:
        """Integrate (q, g) from u down to 0; returns Fq = -g(0)."""
        if u == 0.0:
            return np.zeros_like(qs)
        nl = self.nl
        m = qs.size

        def rhs(s, y):
            q = y[:m]
            return np.concatenate([-_eval_vec(nl.f_bar, s, q),
                                   _eval_vec(nl.f_bar_q, s, q)])

        y = solve_characteristics(
            rhs, (u, 0.0), np.concatenate([qs, np.zeros(m)]),
            self.charflow_cfg, m,
            lambda k, _: f"transport solve: sample {k} at (u, q) = "
                         f"({u:.6g}, {qs[k]:.6g})")
        return -y[m:]

    # -- ingredients ------------------------------------------------------

    def F_q(self, u: float, q: float) -> float:
        """Accumulated partial derivative exponent Fq(u, q)."""
        return float(self._transport_solve(u, np.array([float(q)]))[0])

    def F(self, u: float) -> float:
        """F(u) by quadrature of fbar(u1, 0) * exp(Fq(u1, 0)) over [0, u].

        The transport equations of all u-nodes u_k = u * frac_k run as one
        solve: each span [u_k, 0] is rescaled to s in [1, 0], as in
        ``field_eval``.
        """
        if u == 0.0:
            return 0.0
        frac, wfrac = _unit_rule(self.quad_cfg.panels)
        un = u * frac
        m = un.size
        nl = self.nl

        def rhs(s, y):
            q = y[:m]
            return np.concatenate([-un * _eval_vec(nl.f_bar, un * s, q),
                                   un * _eval_vec(nl.f_bar_q, un * s, q)])

        y = solve_characteristics(
            rhs, (1.0, 0.0), np.zeros(2 * m), self.charflow_cfg, m,
            lambda k, s: f"F quadrature: node {k} at u={un[k]:.6g}, "
                         f"stopped at u={un[k] * s:.6g}",
            var="s")
        fq = -y[m:]
        f0 = _eval_vec(nl.f_bar, un, np.zeros(m))
        return float(np.dot(u * wfrac, f0 * np.exp(fq)))

    def phi(self, u: float, p: float) -> float:
        """Antiderivative in p of the evolution sensitivity at q = p^2/2."""
        nodes, w = quad_nodes_weights(self.quad_cfg.panels, 0.0, p)
        if nodes.size == 0:
            return 0.0
        _, sens = evolve_batch(self.nl, u, 0.0, 0.5 * nodes**2,
                               self.charflow_cfg)
        return float(np.dot(w, sens))

    # -- Lagrange function ------------------------------------------------

    def L(self, u: float, p: float) -> float:
        if self.form == REDUCED:
            vals, _ = evolve_batch(self.nl, u, 0.0, np.array([0.5 * p * p]),
                                   self.charflow_cfg)
            return p * self.phi(u, p) - float(vals[0])
        return self._L_double(u, p)

    def _L_double(self, u: float, p: float) -> float:
        """Double p-integral of exp(Fq) minus F(u), with Fq from the
        transport solve, as one (p - s)-weighted integral over [0, p]."""
        nodes, w = quad_nodes_weights(self.quad_cfg.panels, 0.0, p)
        if nodes.size == 0:
            return -self.F(u)
        fq = self._transport_solve(u, 0.5 * nodes**2)
        return float(np.dot(w * (p - nodes), np.exp(fq))) - self.F(u)

    def L_pp(self, u: float, p: float) -> float:
        """Convexity weight exp(Fq(u, p^2/2)); strictly positive."""
        return math.exp(self.F_q(u, 0.5 * p * p))

    def field_eval(self, u_arr, p_arr):
        """Reduced-form L and L_pp over paired sample arrays, in one solve.

        Rescales every characteristic span [u_i, 0] to a common parameter
        s in [1, 0] and integrates all quadrature-node characteristics,
        their sensitivities and the transport exponents as one stacked
        system. Its F_q carries the error of the stacked solve, so it may
        differ in the last digits from a pointwise ``F_q`` query, which
        makes its own transport solve.
        """
        u_arr = np.asarray(u_arr, dtype=float)
        p_arr = np.asarray(p_arr, dtype=float)
        npts = u_arr.size
        frac, wfrac = _unit_rule(self.quad_cfg.panels)
        m = frac.size

        nodes = p_arr[:, None] * frac[None, :]          # (npts, m)
        weights = p_arr[:, None] * wfrac[None, :]
        q_nodes = 0.5 * nodes**2
        q_star = 0.5 * p_arr**2

        # stacked state: node characteristics, star characteristics (the
        # watched lanes), node sensitivities, star transport exponents
        un = np.repeat(u_arr, m)
        nm = npts * m
        nq = nm + npts
        nl = self.nl
        scale = np.concatenate([un, u_arr])
        neg_scale = -scale
        neg_un = neg_scale[:nm]

        def rhs(s, y):
            # one f_bar and one f_bar_q call over the node and star lanes;
            # a fresh array per call: the integrator keeps the derivative
            q = y[:nq]
            at = scale * s
            fbq = _eval_vec(nl.f_bar_q, at, q)
            out = np.empty(2 * nq)
            np.multiply(neg_scale, _eval_vec(nl.f_bar, at, q), out=out[:nq])
            np.multiply(neg_un * fbq[:nm], y[nq:nq + nm], out=out[nq:nq + nm])
            np.multiply(u_arr, fbq[nm:], out=out[nq + nm:])
            return out

        def sample(k, s):
            # node lanes run sample-major, then one star lane per sample
            i = k // m if k < nm else k - nm
            return (f"batched field evaluation: sample {i} at (u, p) = "
                    f"({u_arr[i]:.6g}, {p_arr[i]:.6g}), "
                    f"stopped at u={u_arr[i] * s:.6g}")

        y0 = np.concatenate([q_nodes.ravel(), q_star, np.ones(nm),
                             np.zeros(npts)])
        yf = solve_characteristics(rhs, (1.0, 0.0), y0, self.charflow_cfg,
                                   nq, sample, var="s")
        psi_star = yf[nm:nq]
        eta = yf[nq:nq + nm].reshape(npts, m)
        fq_star = -yf[nq + nm:]
        phi = np.sum(weights * eta, axis=1)
        L_vals = p_arr * phi - psi_star
        lpp = np.exp(fq_star)
        return {"L": L_vals, "L_pp": lpp, "phi": phi, "psi": psi_star,
                "F_q": fq_star}


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
