"""Lagrange function for the reflection-symmetric construction.

Builds the integrand L(u, p) of the Lyapunov functional, its convexity
weight L_pp = exp(Fq), and the ingredients Fq, F and the auxiliary phi,
in two equivalent forms:

* ``double_integral``: the double p-integral of exp(Fq) minus F(u),
  evaluated by Cauchy's formula for repeated integrals as the single
  integral of (p - s) * exp(Fq(u, s^2/2)) over s in [0, p],
* ``reduced``: p * phi(u, p) - Psi^{0,u}(p^2/2),

where Psi is the characteristic evolution from :mod:`circlyap.charflow`.

Every quantity comes from one solve of :func:`circlyap.charflow.solve_q_flow`:
lanes through (u_k, q_k) run together down to u = 0 in a common rescaled
parameter, each co-integrating either its sensitivity to q_k (for phi) or
the transport equation dg/du = fbar_q(u, q(u)) (for Fq = -g, normalized to
0 at u = 0). ``field_eval`` stacks the lanes of a whole batch of samples; a
scalar ``L`` is ``field_eval`` of one sample, and ``F_q`` and ``L_pp`` are
one transport lane. The double-integral form is :func:`cauchy_assembly`,
which the separated-BC construction of :mod:`circlyap.matano` shares.
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
    check_numbers,
    solve_q_flow,
)

GAUSS_LEGENDRE = "gauss_legendre"

DOUBLE_INTEGRAL = "double_integral"
REDUCED = "reduced"


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre node count for every p- and u-integral.

    The integrands (exp Fq and the evolution sensitivity along p,
    fbar * exp Fq along u) are smooth: against a 48-node reference, 16
    nodes give F(u) to about 3e-15. Where fbar is nonlinear in q, the
    16-node rule, not the characteristic tolerance, sets the error of V:
    relative to a 128-node rule it is 8.0e-7 on the tanh circle field of
    tools/work_precision.py at amplitude 1 (max |p| 6.8), 3.3e-5 at
    amplitude 2 (max |p| 13.6) and 2.7e-5 on its separated-BC field (3.9e-7
    with 64 nodes). The dissipation reads L_pp at the point itself and
    stays within 4e-14. Simpson's rule with 64 panels, four times the
    characteristic lanes, was off by up to 4e-8 in F; it was retired for
    that reason.

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
        check_numbers(self, counts=("panels",))
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


def cauchy_assembly(u, p, panels: int, exponent, reaction):
    """L = int_0^p (p - s) exp g(u, s) ds - F(u) at paired samples
    (u_i, p_i), by Cauchy's formula for the double p-integral, with
    F(u) = int_0^u f(u1, 0) exp g(u1, 0) du1 and ``panels`` Gauss-Legendre
    nodes in each integral, for the exponent g of either construction.

    ``exponent(i, us, ps)`` gives g on every lane in one call: sample-major
    p-nodes (u_i, p_i frac_j), F-nodes (u_i frac_j, 0), then one star lane
    (u_i, p_i) per sample, i being each lane's sample. ``reaction(u_nodes)``
    gives f at p = 0 on the (samples, nodes) F-nodes. Returns L,
    L_pp = exp g, F and g of the star lanes.
    """
    frac, wfrac = _unit_rule(panels)
    n, m = u.size, frac.size
    nm = n * m
    u_nodes = u[:, None] * frac[None, :]
    at_nodes = np.repeat(np.arange(n), m)
    g = exponent(np.concatenate([at_nodes, at_nodes, np.arange(n)]),
                 np.concatenate([np.repeat(u, m), u_nodes.ravel(), u]),
                 np.concatenate([(p[:, None] * frac[None, :]).ravel(),
                                 np.zeros(nm), p]))
    # weights w_j * (p - s_j) on the nodes s_j = p frac_j, u w_j on u frac_j
    wL = (p * p)[:, None] * (wfrac * (1.0 - frac))[None, :]
    wF = u[:, None] * wfrac[None, :]
    F = np.sum(wF * reaction(u_nodes) * np.exp(g[nm:2 * nm].reshape(n, m)),
               axis=1)
    L = np.sum(wL * np.exp(g[:nm].reshape(n, m)), axis=1) - F
    return L, np.exp(g[2 * nm:]), F, g[2 * nm:]


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

    # -- ingredients ------------------------------------------------------

    def F_q(self, u: float, q: float) -> float:
        """Accumulated partial derivative exponent Fq(u, q), from one
        transport lane; q may be negative."""
        u, q = float(u), float(q)
        _, _, g = solve_q_flow(
            self.nl, np.array([u]), np.array([q]), 0, (1.0, 0.0),
            self.charflow_cfg,
            lambda k, s: f"transport solve: sample 0 at (u, q) = "
                         f"({u:.6g}, {q:.6g}), stopped at u={u * s:.6g}")
        return float(-g[0])

    def F(self, u: float) -> float:
        """F(u) by quadrature of fbar(u1, 0) * exp(Fq(u1, 0)) over [0, u],
        with the transport lanes of all u-nodes u_k = u * frac_k in one
        solve."""
        if u == 0.0:
            return 0.0
        frac, wfrac = _unit_rule(self.quad_cfg.panels)
        un = u * frac
        _, _, g = solve_q_flow(
            self.nl, un, np.zeros(un.size), 0, (1.0, 0.0), self.charflow_cfg,
            lambda k, s: f"F quadrature: node {k} at u={un[k]:.6g}, "
                         f"stopped at u={un[k] * s:.6g}")
        f0 = self.nl.f_bar(un, np.zeros(un.size))
        return float(np.dot(u * wfrac, f0 * np.exp(-g)))

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
        the double-integral form is :func:`cauchy_assembly` on transport
        lanes, whose F-nodes u_i * frac_k join them.

        A scalar ``L`` is this evaluation of one sample. A sample inside a
        larger batch shares the batch's step sizes, so its values may
        differ from the one-sample evaluation in the last digits.
        """
        u_arr = np.asarray(u_arr, dtype=float)
        p_arr = np.asarray(p_arr, dtype=float)
        npts = u_arr.size

        def lanes(i, us, q0, n_sens):
            # lane k belongs to sample i[k] and runs along u = us[k] * s
            def sample(k, s):
                return (f"batched field evaluation: sample {i[k]} at (u, p) "
                        f"= ({u_arr[i[k]]:.6g}, {p_arr[i[k]]:.6g}), "
                        f"stopped at u={us[k] * s:.6g}")

            return solve_q_flow(self.nl, us, q0, n_sens, (1.0, 0.0),
                                self.charflow_cfg, sample)

        if self.form == DOUBLE_INTEGRAL:
            L, L_pp, F, fq_star = cauchy_assembly(
                u_arr, p_arr, self.quad_cfg.panels,
                lambda i, us, ps: -lanes(i, us, 0.5 * ps**2, 0)[2],
                lambda un: self.nl.f_bar(un, np.zeros(un.shape)))
            return {"L_pp": L_pp, "F_q": fq_star, "L": L, "F": F}
        # sample-major p-node lanes with sensitivities, then the star lanes
        frac, wfrac = _unit_rule(self.quad_cfg.panels)
        m = frac.size
        nm = npts * m
        nodes = p_arr[:, None] * frac[None, :]          # (npts, m)
        q_end, eta, g = lanes(
            np.concatenate([np.repeat(np.arange(npts), m), np.arange(npts)]),
            np.concatenate([np.repeat(u_arr, m), u_arr]),
            np.concatenate([(0.5 * nodes**2).ravel(), 0.5 * p_arr**2]), nm)
        psi_star = q_end[nm:]
        phi = np.sum(p_arr[:, None] * wfrac[None, :] * eta.reshape(npts, m),
                     axis=1)
        return {"L_pp": np.exp(-g), "F_q": -g, "L": p_arr * phi - psi_star,
                "phi": phi, "psi": psi_star}


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
