"""Characteristic flow of the gradient variable.

The reflection-symmetric nonlinearity enters all Lagrangian formulas through
the nonautonomous scalar ODE

    dq/du = -fbar(u, q),    q(u0) = q0,

whose solution operator we call the *evolution* of the characteristic flow.
This module integrates that ODE adaptively, co-integrating the sensitivity
of the solution with respect to the initial value q0 (the linearized
equation d(eta)/du = -fbar_q(u, q) * eta, eta(u0) = 1).

Negative q is allowed throughout; the flow is not stopped at q = 0.

Every characteristic solve in the package, here and in
:mod:`circlyap.lagrangian` and :mod:`circlyap.matano`, runs through one
driver, :func:`solve_characteristics`. It runs the 8th-order DOP853
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.10) in its own loop, over
scipy's tableau vendored as :mod:`circlyap._dop853`, with scipy's
first-step rule, error norm, step-size controller and interpolant repeated
operation for operation, so its values equal scipy's bit for bit wherever
scipy's error norm is not NaN. It needs numpy only: scipy's ``brentq``
is imported to locate an escape, and nowhere else. It returns the final
state only; a caller that needs the solution at several points solves
them as lanes. It calls the right-hand side directly and owns
the failure policy: a non-finite right-hand side or more than
``max_steps`` steps is an :class:`IntegrationFailure`; an escape past
``escape_bound``, located on the interpolant of the step that crossed it,
or a step-size collapse is a :class:`CharacteristicEscape` that names the
lane.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _dop853 as _DOP


class IntegrationFailure(RuntimeError):
    """Adaptive integration of the characteristic ODE broke down.

    Raised on a non-finite right-hand side or step-count exhaustion.
    ``u_reached`` is the last abscissa the integrator saw.
    """

    def __init__(self, message: str, u_reached: float):
        super().__init__(f"{message} (u reached: {u_reached:.6g})")
        self.u_reached = u_reached


class CharacteristicEscape(RuntimeError):
    """A characteristic left the configured bound before completion, or
    blew up in finite time so that the step size collapsed.

    ``at`` is where the solve stopped, as a value of its independent
    variable ``var`` (u, x, or the rescaled parameter s of a batched
    solve); ``state`` is the solver state there, when known.
    """

    def __init__(self, at: float, context: str = "", state=None,
                 var: str = "u"):
        msg = f"characteristic escaped its bound at {var}={at:.6g}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.at = at
        self.var = var
        self.state = state


@dataclass(frozen=True)
class NonlinearityO2:
    """Reflection-symmetric nonlinearity fbar(u, q) with q = p^2/2.

    ``f_bar_q`` is the partial derivative of ``f_bar`` in its second
    argument. Callables should accept numpy arrays in ``u`` and ``q``;
    scalar-only callables are called once per sample, at a cost.
    """

    f_bar: Callable[[float, float], float]
    f_bar_q: Callable[[float, float], float]
    label: str = ""

    def check_consistency(self, u_samples, q_samples, rel_tol: float = 1e-5) -> None:
        """Verify f_bar_q against a central difference of f_bar.

        Raises ValueError at the first sample where the relative mismatch
        exceeds ``rel_tol``.
        """
        for u in np.atleast_1d(u_samples):
            for q in np.atleast_1d(q_samples):
                h = 1e-6 * max(1.0, abs(q))
                fd = (self.f_bar(u, q + h) - self.f_bar(u, q - h)) / (2 * h)
                an = self.f_bar_q(u, q)
                scale = max(1.0, abs(an), abs(fd))
                if abs(fd - an) > rel_tol * scale:
                    raise ValueError(
                        f"f_bar_q inconsistent at (u={u}, q={q}): "
                        f"analytic {an:.8g} vs finite difference {fd:.8g}"
                    )


@dataclass(frozen=True)
class CharflowConfig:
    """Settings of every characteristic solve.

    ``rel_tol`` and ``abs_tol`` are the error tolerances of scipy's DOP853
    stepped in the driver's own loop (``rel_tol`` below 100 eps is raised
    to it, with a warning, as scipy does); a watched component beyond
    ``escape_bound`` is an escape; a solve that needs more than
    ``max_steps`` accepted steps fails.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    escape_bound: float = 1e12
    max_steps: int = 10**6

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (self.escape_bound > 0 and self.max_steps > 0):
            raise ValueError("escape_bound and max_steps must be positive")


@dataclass(frozen=True)
class EvolutionResult:
    value: float
    sensitivity: float


DEFAULT_CONFIG = CharflowConfig()
_EPS = np.finfo(float).eps

# DOP853 as scipy tabulates it (vendored in _dop853): stages 1..11 of a
# step (row, coefficients on the earlier stages, abscissa), the
# interpolant's three extra stages, and the step-size controller's constants
_STAGES = [(s, _DOP.A[s, :s], _DOP.C[s]) for s in range(1, _DOP.N_STAGES)]
_EXTRA_STAGES = [(s, _DOP.A[s, :s], _DOP.C[s])
                 for s in range(_DOP.N_STAGES + 1, _DOP.N_STAGES_EXTENDED)]
_ERROR_ORDER = 7
_EXPONENT = -1 / (_ERROR_ORDER + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


def _eval_vec(fn, u, q):
    """Evaluate fn(u, q) over an array q (u a scalar or an array of q's
    shape), calling a scalar-only fn once per broadcast (u, q) pair."""
    try:
        out = np.asarray(fn(u, q), dtype=float)
    except (TypeError, ValueError):
        uq = np.broadcast_arrays(u, q)
        out = np.array([fn(a, b) for a, b in zip(uq[0].ravel(), uq[1].ravel())],
                       dtype=float).reshape(uq[1].shape)
    if out.shape != np.shape(q):
        out = np.broadcast_to(out, np.shape(q)).copy()
    return out


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """DOP853's first step size (Hairer, Norsett & Wanner, II.4), as
    scipy's ``select_initial_step`` computes it; one right-hand side."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = np.linalg.norm(y0 / scale) / y0.size ** 0.5
    d1 = np.linalg.norm(f0 / scale) / y0.size ** 0.5
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = np.linalg.norm((f1 - f0) / scale) / y0.size ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _squared_norm(x):
    # np.linalg.norm(x) ** 2, computed as np.linalg.norm computes it
    return np.sqrt(x.dot(x)) ** 2


def _interpolant(fun, t_old, t, y_old, y, f, h, K):
    """DOP853's 7th-order interpolant over the step from (t_old, y_old) to
    (t, y) just taken with stages ``K``: three more stages, as scipy's
    ``DOP853.dense_output`` computes them."""
    for s, a, c in _EXTRA_STAGES:
        K[s] = fun(t_old + c * h, y_old + np.dot(K[:s].T, a) * h)
    F = np.empty((_DOP.INTERPOLATOR_POWER, y.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(_DOP.D, K)
    return _Step(t_old, t, y_old, F)


class _Step:
    """The interpolant of one step at a scalar ``t``, evaluated as scipy's
    ``Dop853DenseOutput`` evaluates it, operation for operation."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old = t_old
        self.h = t - t_old
        self.F = F
        self.y_old = y_old

    def __call__(self, t):
        x = (t - self.t_old) / self.h
        y = np.zeros_like(self.y_old)
        for i, f in enumerate(reversed(self.F)):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old
        return y


def solve_characteristics(rhs, span, y0, cfg: CharflowConfig, watch: int,
                          lane, var: str = "u"):
    """Integrate a stack of characteristics over ``span``; the one driver
    of every characteristic solve.

    ``rhs(t, y)`` is the vectorised right-hand side of the stacked state
    ``y``, whose independent variable is named ``var`` in messages; it
    returns a fresh array per call. Its first ``watch`` components are the
    characteristics proper and are held to ``cfg.escape_bound``; the
    components after them (sensitivities, accumulated exponents) are not.

    It runs DOP853 in its own loop at ``cfg.rel_tol``/``cfg.abs_tol``:
    scipy's tableau (vendored in :mod:`circlyap._dop853`), first-step
    rule, error norm, step-size controller (with its ``min_step`` clamp and
    100 eps floor on rel_tol) and interpolant, operation for operation, so
    every value equals scipy's bit for bit. The one departure: an error
    estimate whose 5th-order part is 0 has norm 0, where scipy's formula
    can give 0/0. Failure policy:

    * a non-finite initial state: ValueError;
    * a non-finite right-hand side, or a solve that needs more than
      ``cfg.max_steps`` steps: :class:`IntegrationFailure`;
    * a watched component beyond the escape bound, at the start or on the
      way, or a step size that collapses (finite-time blow-up):
      :class:`CharacteristicEscape`, whose context ``lane(k, t)`` names
      the lane of the watched component k of largest modulus at the
      parameter value t where the solve stopped, followed by the reason on
      a collapse. A crossing of the bound is located on the interpolant of
      the step that made it.

    Returns the final state. scipy is imported only for ``brentq``, when
    an escape is located.
    """
    y = np.asarray(y0, dtype=float)
    t, t_bound = float(span[0]), float(span[1])
    bound = cfg.escape_bound
    if np.abs(y[:watch]).max(initial=0.0) > bound:
        k = int(np.argmax(np.abs(y[:watch])))
        raise CharacteristicEscape(t, lane(k, t), state=y, var=var)
    if not np.isfinite(y).all():
        raise ValueError("the initial state must be finite")
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    if rtol < 100 * _EPS:
        warnings.warn(f"rel_tol {rtol:g} is below DOP853's floor; using "
                      f"{100 * _EPS:g}", stacklevel=2)
        rtol = 100 * _EPS
    ones = np.ones(y.size)

    def fun(t, y):
        dy = np.asarray(rhs(t, y), dtype=float)
        # a finite sum (dy @ ones) rules out NaN and inf; an overflowing
        # one is confirmed element by element
        if not math.isfinite(dy @ ones) and not np.isfinite(dy).all():
            raise IntegrationFailure("non-finite right-hand side", float(t))
        return dy

    def escaped(t, y, note=""):
        k = int(np.argmax(np.abs(y[:watch])))
        return CharacteristicEscape(t, lane(k, t) + note, state=y, var=var)

    f = fun(t, y)
    if y.size == 0 or t == t_bound:
        return y
    direction = np.sign(t_bound - t)
    h_abs = _initial_step(fun, t, y, t_bound, f, direction, rtol, atol)
    # stage k in row k; the rows after the 13th serve the interpolant
    K_ext = np.empty((_DOP.N_STAGES_EXTENDED, y.size))
    K = K_ext[:_DOP.N_STAGES + 1]
    stages = [(s, K[:s].T, a, c) for s, a, c in _STAGES]
    K_sol, K_err = K[:-1].T, K.T
    for _ in range(cfg.max_steps):
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise escaped(float(t), y, "; Required step size is less "
                                           "than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, K_s, a, c in stages:
                K[s] = fun(t + c * h, y + np.dot(K_s, a) * h)
            y_new = y + h * np.dot(K_sol, _DOP.B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = _squared_norm(np.dot(K_err, _DOP.E5) / scale)
            err3 = _squared_norm(np.dot(K_err, _DOP.E3) / scale)
            # scipy's norm, but 0 whenever err5 is: where 0.01 * err3
            # underflows, scipy's formula gives 0/0, and a NaN norm
            # rejects every attempt until the step size collapses
            if err5 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / np.sqrt((err5 + 0.01 * err3)
                                                    * y.size)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else min(
                    _MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if np.abs(y[:watch]).max(initial=0.0) >= bound:
            # the crossing on this step's interpolant, to the tolerances
            # scipy uses for a terminal event
            from scipy.optimize import brentq
            step = _interpolant(fun, t_old, t, y_old, y, f, h, K_ext)
            t = brentq(lambda s: np.max(np.abs(step(s)[:watch])) - bound,
                       t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
            raise escaped(float(t), step(t))
        if direction * (t - t_bound) >= 0:
            break
    else:
        raise IntegrationFailure("step budget exhausted", float(t))
    return y


def evolve(
    nl: NonlinearityO2,
    u0: float,
    u1: float,
    q0: float,
    cfg: CharflowConfig = DEFAULT_CONFIG,
) -> EvolutionResult:
    """Evolution of the characteristic ODE from u0 to u1 (either direction).

    Returns the terminal value q(u1) together with its sensitivity to q0.
    If |q| exceeds ``cfg.escape_bound`` on the way, it raises
    :class:`CharacteristicEscape`, as every characteristic solve does.
    """
    for v in (u0, u1, q0):
        if not np.isfinite(v):
            raise ValueError("evolve requires finite inputs")
    if u0 == u1:
        return EvolutionResult(float(q0), 1.0)

    def rhs(u, y):
        q, eta = y
        return (-nl.f_bar(u, q), -nl.f_bar_q(u, q) * eta)

    y = solve_characteristics(
        rhs, (u0, u1), (float(q0), 1.0), cfg, 1,
        lambda k, _: f"evolution from (u, q) = ({u0:.6g}, {q0:.6g})")
    return EvolutionResult(float(y[0]), float(y[1]))


def evolve_batch(
    nl: NonlinearityO2,
    u0: float,
    u1: float,
    q0: np.ndarray,
    cfg: CharflowConfig = DEFAULT_CONFIG,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evolution for many initial values over the same u-span.

    Returns (values, sensitivities). Escapes raise CharacteristicEscape
    naming the sample: batched callers need all characteristics to
    complete.
    """
    q0 = np.asarray(q0, dtype=float)
    if q0.size == 0:
        return q0.copy(), np.ones_like(q0)
    if u0 == u1:
        return q0.copy(), np.ones_like(q0)
    m = q0.size
    qs = q0.ravel()

    def rhs(u, y):
        q = y[:m]
        eta = y[m:]
        return np.concatenate([-_eval_vec(nl.f_bar, u, q),
                               -_eval_vec(nl.f_bar_q, u, q) * eta])

    y = solve_characteristics(
        rhs, (u0, u1), np.concatenate([qs, np.ones(m)]), cfg, m,
        lambda k, _: f"evolution to u={u1:.6g}: sample {k} at (u, q) = "
                     f"({u0:.6g}, {qs[k]:.6g})")
    return y[:m].reshape(q0.shape), y[m:].reshape(q0.shape)


def compose_check(
    nl: NonlinearityO2,
    u0: float,
    u1: float,
    u2: float,
    q0: float,
    cfg: CharflowConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Two-leg versus direct evolution from u0 to u2.

    Returns (two-leg value, direct value); the evolution property says they
    agree up to integration error.
    """
    leg1 = evolve(nl, u0, u1, q0, cfg)
    leg2 = evolve(nl, u1, u2, leg1.value, cfg)
    direct = evolve(nl, u0, u2, q0, cfg)
    return leg2.value, direct.value


def verify_equilibrium_first_integral(
    nl: NonlinearityO2,
    u_init: float,
    p_init: float,
    x_span: float,
    cfg: CharflowConfig = DEFAULT_CONFIG,
    n_check: int = 64,
) -> float:
    """First-integral defect of the characteristic flow along an equilibrium.

    Integrates the stationary profile ODE u'' = -fbar(u, u'^2/2) from
    (u_init, p_init) to each of ``n_check - 1`` equally spaced abscissae
    x_k in (0, x_span], in one solve of lanes x = x_k * s over s in [0, 1],
    and compares q(x_k) = u'(x_k)^2/2 against the characteristic evolution
    started from q = p_init^2/2 at u_init. Returns the maximum absolute
    mismatch; a small value confirms that the evolution is a first
    integral of the equilibrium ODE.
    """
    if p_init == 0:
        raise ValueError("p_init must be nonzero (positivity domain of q)")
    xs = np.linspace(0.0, x_span, n_check)[1:]
    m = xs.size

    def rhs(s, y):
        u, p = y[:m], y[m:]
        return np.concatenate([xs * p, -xs * _eval_vec(nl.f_bar, u,
                                                        0.5 * p * p)])

    y = solve_characteristics(
        rhs, (0.0, 1.0),
        np.concatenate([np.full(m, float(u_init)), np.full(m, float(p_init))]),
        cfg, 2 * m,
        lambda k, s: f"equilibrium from (u, p) = ({u_init:.6g}, "
                     f"{p_init:.6g}) to x={xs[k % m]:.6g}, stopped at "
                     f"x={xs[k % m] * s:.6g}",
        var="s")

    defect = 0.0
    q0 = 0.5 * p_init * p_init
    for u, p in zip(y[:m], y[m:]):
        res = evolve(nl, u_init, float(u), q0, cfg)
        defect = max(defect, abs(0.5 * p * p - res.value))
    return defect
