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
driver, :func:`solve_characteristics`. It steps scipy's 8th-order DOP853
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.10) in its own loop and
owns the failure policy: a non-finite right-hand side or more than
``max_steps`` steps is an :class:`IntegrationFailure`; an escape past
``escape_bound``, located on the interpolant of the step that crossed it,
or a step-size collapse is a :class:`CharacteristicEscape` that names the
lane.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.optimize import brentq


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


class Status(enum.Enum):
    COMPLETED = "completed"
    ESCAPED_BOUND = "escaped_bound"


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

    ``rel_tol`` and ``abs_tol`` are DOP853's error tolerances; a watched
    component beyond ``escape_bound`` is an escape; a solve that needs more
    than ``max_steps`` accepted steps fails.
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
    status: Status
    u_at_escape: float | None = None


DEFAULT_CONFIG = CharflowConfig()
_EPS = np.finfo(float).eps


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


def solve_characteristics(rhs, span, y0, cfg: CharflowConfig, watch: int,
                          lane, dense_output: bool = False, var: str = "u"):
    """Integrate a stack of characteristics over ``span``; the one driver
    of every characteristic solve.

    ``rhs(t, y)`` is the vectorised right-hand side of the stacked state
    ``y``, whose independent variable is named ``var`` in messages. Its
    first ``watch`` components are the characteristics proper and are held
    to ``cfg.escape_bound``; the components after them (sensitivities,
    accumulated exponents) are not. scipy's DOP853 runs at
    ``cfg.rel_tol``/``cfg.abs_tol``, one ``step()`` at a time. Failure
    policy:

    * a non-finite right-hand side, or a solve that needs more than
      ``cfg.max_steps`` steps: :class:`IntegrationFailure`;
    * a watched component beyond the escape bound, at the start or on the
      way, or a step size that collapses (finite-time blow-up):
      :class:`CharacteristicEscape`, whose context ``lane(k, t)`` names
      the lane of the watched component k of largest modulus at the
      parameter value t where the solve stopped, followed by the solver's
      message on a collapse. A crossing of the bound is located on the
      interpolant of the step that made it.

    Returns the final state, or with ``dense_output`` an
    :class:`~scipy.integrate.OdeSolution` over ``span`` built from the
    interpolant of every step.
    """
    y0 = np.asarray(y0, dtype=float)
    t0, t1 = float(span[0]), float(span[1])
    start = np.abs(y0[:watch])
    if np.max(start) > cfg.escape_bound:
        k = int(np.argmax(start))
        raise CharacteristicEscape(t0, lane(k, t0), state=y0, var=var)

    def checked(t, y):
        dy = rhs(t, y)
        if not np.isfinite(dy).all():
            raise IntegrationFailure("non-finite right-hand side", float(t))
        return dy

    def escaped(t, y, note=""):
        k = int(np.argmax(np.abs(y[:watch])))
        return CharacteristicEscape(t, lane(k, t) + note, state=y, var=var)

    # bound before __init__, which already evaluates the right-hand side,
    # so that the finally block below also takes apart a solver whose
    # construction failed
    solver = DOP853.__new__(DOP853)
    ts, interpolants = [t0], []
    try:
        solver.__init__(checked, t0, y0, t1, rtol=cfg.rel_tol,
                        atol=cfg.abs_tol)
        for _ in range(cfg.max_steps):
            message = solver.step()
            if solver.status == "failed":
                raise escaped(float(solver.t), solver.y, f"; {message}")
            if np.max(np.abs(solver.y[:watch])) >= cfg.escape_bound:
                # the crossing on this step's interpolant, to the
                # tolerances scipy uses for a terminal event
                step = solver.dense_output()
                t = brentq(lambda s: np.max(np.abs(step(s)[:watch]))
                           - cfg.escape_bound, solver.t_old, solver.t,
                           xtol=4 * _EPS, rtol=4 * _EPS)
                raise escaped(float(t), step(t))
            if dense_output:
                ts.append(solver.t)
                interpolants.append(solver.dense_output())
            if solver.status == "finished":
                break
        else:
            raise IntegrationFailure("step budget exhausted", float(solver.t))
        y = solver.y
    finally:
        # the solver refers to itself through its wrapped right-hand side;
        # left alone it waits, stage vectors and all, for the cyclic
        # garbage collector, and peak memory depends on when that runs
        solver.__dict__.clear()
    return OdeSolution(ts, interpolants) if dense_output else y


def evolve(
    nl: NonlinearityO2,
    u0: float,
    u1: float,
    q0: float,
    cfg: CharflowConfig = DEFAULT_CONFIG,
) -> EvolutionResult:
    """Evolution of the characteristic ODE from u0 to u1 (either direction).

    Returns the terminal value q(u1) together with its sensitivity to q0.
    If |q| exceeds ``cfg.escape_bound`` on the way, the result carries
    status ESCAPED_BOUND and the abscissa of the escape.
    """
    for v in (u0, u1, q0):
        if not np.isfinite(v):
            raise ValueError("evolve requires finite inputs")
    if u0 == u1:
        return EvolutionResult(float(q0), 1.0, Status.COMPLETED)

    def rhs(u, y):
        q, eta = y
        return (-nl.f_bar(u, q), -nl.f_bar_q(u, q) * eta)

    try:
        y = solve_characteristics(
            rhs, (u0, u1), (float(q0), 1.0), cfg, 1,
            lambda k, _: f"evolution from (u, q) = ({u0:.6g}, {q0:.6g})")
    except CharacteristicEscape as esc:
        return EvolutionResult(float(esc.state[0]), float(esc.state[1]),
                               Status.ESCAPED_BOUND, esc.at)
    return EvolutionResult(float(y[0]), float(y[1]), Status.COMPLETED)


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
    if leg1.status is not Status.COMPLETED:
        raise CharacteristicEscape(leg1.u_at_escape, "compose_check leg u0->u1")
    leg2 = evolve(nl, u1, u2, leg1.value, cfg)
    if leg2.status is not Status.COMPLETED:
        raise CharacteristicEscape(leg2.u_at_escape, "compose_check leg u1->u2")
    direct = evolve(nl, u0, u2, q0, cfg)
    if direct.status is not Status.COMPLETED:
        raise CharacteristicEscape(direct.u_at_escape, "compose_check direct leg")
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
    (u_init, p_init) over [0, x_span] and compares q(x) = u'(x)^2/2 against
    the characteristic evolution started from q = p_init^2/2 at u_init.
    Returns the maximum absolute mismatch over the trajectory; a small value
    confirms that the evolution is a first integral of the equilibrium ODE.
    """
    if p_init == 0:
        raise ValueError("p_init must be nonzero (positivity domain of q)")

    def rhs(x, y):
        u, p = y
        return (p, -nl.f_bar(u, 0.5 * p * p))

    sol = solve_characteristics(
        rhs, (0.0, x_span), (float(u_init), float(p_init)), cfg, 2,
        lambda k, _: f"equilibrium from (u, p) = "
                     f"({u_init:.6g}, {p_init:.6g})",
        dense_output=True, var="x")

    xs = np.linspace(0.0, x_span, n_check)
    defect = 0.0
    q0 = 0.5 * p_init * p_init
    for x in xs[1:]:
        u, p = sol(x)
        res = evolve(nl, u_init, float(u), q0, cfg)
        if res.status is not Status.COMPLETED:
            raise CharacteristicEscape(res.u_at_escape, f"first integral at x={x:.4g}")
        defect = max(defect, abs(0.5 * p * p - res.value))
    return defect
