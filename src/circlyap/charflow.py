"""Characteristic flow of the gradient variable.

The reflection-symmetric nonlinearity enters all Lagrangian formulas through
the nonautonomous scalar ODE

    dq/du = -fbar(u, q),    q(u0) = q0,

whose solution operator we call the *evolution* of the characteristic flow.
This module integrates that ODE adaptively, co-integrating the sensitivity
of the solution with respect to the initial value q0 (the linearized
equation d(eta)/du = -fbar_q(u, q) * eta, eta(u0) = 1).

Negative q is allowed throughout; the flow is not stopped at q = 0.

fbar and fbar_q are numpy callables that broadcast, as every nonlinearity
of the package is: a solve calls each once per right-hand side over all its
lanes, and a result of u alone, or a constant, broadcasts into place.

Every ODE solve in the package, here and in :mod:`circlyap.lagrangian`,
:mod:`circlyap.matano` and :mod:`circlyap.harness`, runs through one
driver, :func:`solve_characteristics`. It runs the 8th-order DOP853
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.10) in its own loop, over
the step and error tables of scipy's tableau, vendored as
:mod:`circlyap._dop853`, with scipy's first-step rule, error norm and
step-size controller repeated operation for operation, so its values
equal scipy's bit for bit wherever scipy's error norm is not NaN. It needs
numpy only and returns the final state only; a caller that needs the
solution at several points solves them as lanes. It calls the right-hand
side directly and owns the input and failure policy (see its docstring):
an escape past ``escape_bound`` or a step-size collapse is a
:class:`CharacteristicEscape` that names the lane.

Two lane helpers build every right-hand side the driver sees: the q-flow
runs lanes of :func:`solve_q_flow` (the scalar :func:`evolve` is a batch
of one), and every other system lanes of the private runner
:func:`_solve_lanes`, which :func:`solve_profile_flow` wraps for the
profile flow u' = p, p' = -f and the planar oracle of
:mod:`circlyap.harness` calls directly.
"""

from __future__ import annotations

import math
import numbers
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


def check_partial(fn, partial, name: str, samples: dict,
                  rel_tol: float = 1e-5) -> None:
    """Verify ``partial`` against a central difference of ``fn`` in its
    last argument over the grid of all combinations of ``samples``
    (argument name -> values, in order), in one call of each; raises
    ValueError at the first sample whose relative mismatch exceeds
    ``rel_tol``, the one consistency check of every nonlinearity type."""
    grid = np.meshgrid(*map(np.atleast_1d, samples.values()), indexing="ij")
    *head, v = grid
    h = 1e-6 * np.maximum(1.0, np.abs(v))
    fd = (fn(*head, v + h) - fn(*head, v - h)) / (2 * h)
    an = partial(*grid)
    bad = np.abs(fd - an) > rel_tol * np.maximum(np.maximum(1.0, np.abs(an)),
                                                 np.abs(fd))
    if bad.any():
        i = int(np.argmax(bad))
        at = [g.flat[i] for g in grid]
        where = ", ".join(f"{k}={x}" for k, x in zip(samples, at))
        raise ValueError(
            f"{name} inconsistent at ({where}): analytic "
            f"{partial(*at):.8g} vs finite difference {fd.flat[i]:.8g}")


def check_numbers(cfg, finite=(), counts=()) -> None:
    """Raise ValueError at the first field of ``cfg`` named in ``finite``
    that is not a finite number, or in ``counts`` that is not an integer;
    a bool is neither. The config check of every solver setting."""
    for name in (*finite, *counts):
        v, count = getattr(cfg, name), name in counts
        if isinstance(v, bool) or not isinstance(
                v, numbers.Integral if count else numbers.Real) \
                or not (count or math.isfinite(v)):
            raise ValueError(f"{type(cfg).__name__}.{name} = {v!r} is not "
                             f"{'an integer' if count else 'a finite number'}")


@dataclass(frozen=True)
class NonlinearityO2:
    """Reflection-symmetric nonlinearity fbar(u, q) with q = p^2/2.

    ``f_bar_q`` is the partial derivative of ``f_bar`` in its second
    argument. Both are numpy callables that broadcast over arrays in u
    and q, as :class:`circlyap.pde.GeneralNonlinearity`'s do; a result of
    u alone, or a constant, serves as well as one shaped like q.
    """

    f_bar: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f_bar_q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = ""

    def check_consistency(self, u_samples, q_samples, rel_tol: float = 1e-5) -> None:
        """Verify f_bar_q against a central difference of f_bar; raises
        ValueError at the first sample where they disagree."""
        check_partial(self.f_bar, self.f_bar_q, "f_bar_q",
                      {"u": u_samples, "q": q_samples}, rel_tol)


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
        check_numbers(self, ("rel_tol", "abs_tol"), ("max_steps",))
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
# step (row, coefficients on the earlier stages, abscissa) and the
# step-size controller's constants
_STAGES = [(s, _DOP.A[s, :s], _DOP.C[s]) for s in range(1, _DOP.N_STAGES)]
_ERROR_ORDER = 7
_EXPONENT = -1 / (_ERROR_ORDER + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


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
    scipy's tableau (its step and error tables, in :mod:`circlyap._dop853`),
    first-step rule, error norm and step-size controller (with its
    ``min_step`` clamp and 100 eps floor on rel_tol), operation for
    operation, so every value equals scipy's bit for bit. The one
    departure: an error estimate whose 5th-order part is 0 has norm 0,
    where scipy's formula can give 0/0. Policy, in this order:

    * a non-finite span, then a non-finite initial state: ValueError;
    * an empty state or a zero-length span: the start, returned before
      any right-hand side is evaluated;
    * a watched component beyond the escape bound, at the start or on the
      way, or a step size that collapses (finite-time blow-up):
      :class:`CharacteristicEscape`, whose context ``lane(k, t)`` names
      the lane of watched component k at the parameter value t where the
      solve stopped: the component of largest modulus, or on a collapse
      of largest scaled error in the last rejected attempt, followed by
      the reason. A crossing of the bound is bisected to 4 eps, as scipy's
      terminal events are, with steps from the start of the step that made
      it; the state reported there is beyond the bound;
    * a non-finite right-hand side, or a solve that needs more than
      ``cfg.max_steps`` steps: :class:`IntegrationFailure`.

    Returns the final state.
    """
    y = np.asarray(y0, dtype=float)
    t, t_bound = float(span[0]), float(span[1])
    if not (math.isfinite(t) and math.isfinite(t_bound)):
        raise ValueError("the span must be finite")
    if not np.isfinite(y).all():
        raise ValueError("the initial state must be finite")
    if y.size == 0 or t == t_bound:
        return y

    def escaped(t, y, by, note=""):
        k = int(np.argmax(np.abs(by[:watch])))
        return CharacteristicEscape(t, lane(k, t) + note, state=y, var=var)

    bound = cfg.escape_bound
    if np.abs(y[:watch]).max(initial=0.0) > bound:
        raise escaped(t, y, y)
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

    f = fun(t, y)
    direction = np.sign(t_bound - t)
    h_abs = _initial_step(fun, t, y, t_bound, f, direction, rtol, atol)
    K = np.empty((_DOP.N_STAGES + 1, y.size))  # stage k in row k
    stages = [(s, K[:s].T, a, c) for s, a, c in _STAGES]
    K_sol, K_err = K[:-1].T, K.T

    def step(t, y, f, h):
        """One DOP853 step h from (t, y), f = rhs(t, y): stages 0..11 in K."""
        K[0] = f
        for s, K_s, a, c in stages:
            K[s] = fun(t + c * h, y + np.dot(K_s, a) * h)
        return y + h * np.dot(K_sol, _DOP.B)

    for _ in range(cfg.max_steps):
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise escaped(float(t), y, err, "; Required step size is "
                              "less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new = step(t, y, f, h)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = np.dot(K_err, _DOP.E5) / scale
            err5 = _squared_norm(err)
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
        if np.abs(y_new[:watch]).max(initial=0.0) >= bound:
            # bisect the crossing, to brentq's 4 eps, with steps from the
            # start of the step that made it; y_new stays beyond the bound
            lo, hi = t, t_new
            while abs(hi - lo) > 4 * _EPS * (1 + abs(hi)):
                mid = 0.5 * (lo + hi)
                y_mid = step(t, y, f, mid - t)
                if np.abs(y_mid[:watch]).max() >= bound:
                    hi, y_new = mid, y_mid
                else:
                    lo = mid
            raise escaped(float(hi), y_new, y_new)
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            break
    else:
        raise IntegrationFailure("step budget exhausted", float(t))
    return y


def solve_q_flow(nl: NonlinearityO2, scale, q0, n_sens: int, span,
                 cfg: CharflowConfig, lane, var: str = "s"):
    """Lanes of the q-flow dq/du = -fbar(u, q) in one solve, lane k along
    u = scale_k * s over ``span`` of s from q0_k (a float ``scale`` of 1.0
    makes u the parameter). The first ``n_sens`` lanes carry the
    sensitivity eta to q0_k from 1, the others the transport equation
    dg/du = fbar_q(u, q) from 0; every q is watched, and ``lane(k, s)``
    names lane k in an escape. Returns q, eta and g at the end of the span.
    """
    nq = q0.size
    neg_scale = -scale
    # d(eta)/ds = -scale * fbar_q * eta, dg/ds = scale * fbar_q
    signed = np.where(np.arange(nq) < n_sens, neg_scale, scale)

    def rhs(s, y):
        # one f_bar and one f_bar_q call over all lanes, into a fresh array
        q = y[:nq]
        at = scale * s
        out = np.empty(2 * nq)
        np.multiply(neg_scale, nl.f_bar(at, q), out=out[:nq])
        np.multiply(signed, nl.f_bar_q(at, q), out=out[nq:])
        out[nq:nq + n_sens] *= y[nq:nq + n_sens]
        return out

    y0 = np.concatenate([q0, np.ones(n_sens), np.zeros(nq - n_sens)])
    y = solve_characteristics(rhs, span, y0, cfg, nq, lane, var=var)
    return y[:nq], y[nq:nq + n_sens], y[nq + n_sens:]


def evolve(
    nl: NonlinearityO2,
    u0: float,
    u1: float,
    q0: float,
    cfg: CharflowConfig = DEFAULT_CONFIG,
) -> EvolutionResult:
    """Evolution of the characteristic ODE from u0 to u1 (either direction).

    Returns the terminal value q(u1) together with its sensitivity to q0:
    :func:`evolve_batch` of one sample, whose escape it raises.
    """
    q, eta = evolve_batch(nl, u0, u1, [q0], cfg)
    return EvolutionResult(float(q[0]), float(eta[0]))


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
    qs = q0.ravel()
    q, eta, _ = solve_q_flow(
        nl, 1.0, qs, qs.size, (u0, u1), cfg,
        lambda k, _: f"evolution to u={u1:.6g}: sample {k} at (u, q) = "
                     f"({u0:.6g}, {qs[k]:.6g})", var="u")
    return q.reshape(q0.shape), eta.reshape(q0.shape)


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


def _solve_lanes(rows, scale, starts, span, cfg: CharflowConfig, label,
                 names: str):
    """Lanes of a system in one solve, lane k along v = scale_k * s over
    ``span`` of s. ``rows`` holds a pair (sign, fn) per row: the row
    starts from ``starts[i]``, broadcast to the lanes, and advances by
    (sign * scale_k) * fn(v, a, b) per unit s, where a and b are the first
    two rows, the watched ones. ``names`` names v, a and b (as "x, u, p");
    an escape names ``label``, the lane's start and where it stopped, or is
    named by ``label(k, s)`` when ``label`` is callable. Returns the final
    rows, each shaped as scale.
    """
    scale = np.asarray(scale, dtype=float)
    shape, scale = scale.shape, scale.ravel()
    m = scale.size
    y0 = np.array([np.broadcast_to(np.ravel(v), m) for v in starts], float)
    row = [slice(i * m, (i + 1) * m) for i in range(len(rows))]
    signed = [(r, sign * scale, fn) for r, (sign, fn) in zip(row, rows)]

    def rhs(s, y):
        # a fresh array per call: the integrator keeps the derivative
        at = scale * s
        a, b = y[row[0]], y[row[1]]
        out = np.empty(y.size)
        for r, factor, fn in signed:
            np.multiply(factor, fn(at, a, b), out=out[r])
        return out

    def lane(k, s):
        k %= m
        if callable(label):
            return label(k, s)
        return (f"{label}: sample {k} at ({names}) = "
                f"({scale[k] * span[0]:.6g}, {y0[0, k]:.6g}, {y0[1, k]:.6g}), "
                f"stopped at {names.split(', ')[0]}={scale[k] * s:.6g}")

    y = solve_characteristics(rhs, span, y0.ravel(), cfg, 2 * m, lane,
                              var="s")
    return y.reshape((len(rows),) + shape)


def solve_profile_flow(f, xs, u0, p0, span, cfg: CharflowConfig, label,
                       f_p=None) -> np.ndarray:
    """Lanes of the profile flow du/dx = p, dp/dx = -f(x, u, p), with the
    exponent dg/dx = f_p from g = 0 when ``f_p`` is given, in one solve.

    Lane k runs along x = xs[k] * s over ``span`` of s from (u0, p0), which
    broadcast to the lanes; u and p are watched, and an escape names
    ``label`` and the lane, or is named by ``label(k, s)`` when ``label``
    is callable. Returns the final rows u, p[, g].
    """
    rows, starts = [(1, lambda x, u, p: p), (-1, f)], [u0, p0]
    if f_p is not None:
        rows.append((1, f_p))
        starts.append(0.0)
    return _solve_lanes(rows, np.ravel(xs), starts, span, cfg, label,
                        "x, u, p")

