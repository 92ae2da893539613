"""Method-of-lines integrator for u_t = a * u_xx + f(x, u, u_x).

Second-order central stencils in space; explicit RK4 or an IMEX scheme
(Crank-Nicolson diffusion, Adams-Bashforth 2 reaction) in time. The IMEX
path needs a constant diffusion coefficient.

Each solve builds one semi-discrete operator on plain arrays, with the grid,
2h, h^2 and the derivative buffers fixed; the RK4 stages, the IMEX reaction
term, the saved u_t snapshots and the public ``rhs`` all evaluate it, so
the stencils exist once. The operator pins Dirichlet ends and names the
grid index of a non-finite right-hand side. A run stops with a blow-up
record, which keeps the snapshots saved so far and says what happened and
when, if max|u| exceeds 1e6, the state turns non-finite or the right-hand
side does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .functional import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    FunctionalReport,
    ScalarField,
    central_difference,
)

BLOWUP_THRESHOLD = 1e6

RK4 = "rk4"
IMEX = "imex"


@dataclass(frozen=True)
class GeneralNonlinearity:
    """Reaction term f(x, u, p) with its advection partial f_p.

    Callables must broadcast over numpy arrays in all three arguments.
    """

    f: Callable
    f_p: Callable
    x_periodic: bool = True

    def check_consistency(self, x_samples, u_samples, p_samples,
                          rel_tol: float = 1e-5) -> None:
        for x in np.atleast_1d(x_samples):
            for u in np.atleast_1d(u_samples):
                for p in np.atleast_1d(p_samples):
                    h = 1e-6 * max(1.0, abs(p))
                    fd = (self.f(x, u, p + h) - self.f(x, u, p - h)) / (2 * h)
                    an = self.f_p(x, u, p)
                    scale = max(1.0, abs(an), abs(fd))
                    if abs(fd - an) > rel_tol * scale:
                        raise ValueError(
                            f"f_p inconsistent at (x={x}, u={u}, p={p}): "
                            f"analytic {an:.8g} vs finite difference {fd:.8g}")


@dataclass
class SolverConfig:
    n: int = 256
    dt: float | None = None  # default 0.4 * (l/n)^2 / a
    t_end: float = 1.0
    save_every: int = 100
    scheme: str = RK4

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("need at least 8 grid points")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.scheme not in (RK4, IMEX):
            raise ValueError(f"unknown scheme: {self.scheme!r}")


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    snapshots: list
    u_t_snapshots: list
    reports: list | None = None
    blew_up: bool = False
    blowup_time: float | None = None
    message: str | None = None


def second_difference(u: np.ndarray, h2: float, bc: str,
                      out: np.ndarray) -> np.ndarray:
    """Second-order u_xx of the samples ``u`` into ``out``; ``h2`` is the
    squared spacing. Dirichlet ends read 0 (the values there are pinned),
    Neumann ends mirror the ghost values. Each value is computed as
    ((u[i+1] - 2 u[i]) + u[i-1]) / h2; tests hold that order bit for bit."""
    mid = out[1:-1]
    np.multiply(u[1:-1], 2, out=mid)
    np.subtract(u[2:], mid, out=mid)
    mid += u[:-2]
    mid /= h2
    if bc == PERIODIC:
        out[0] = (u[1] - 2 * u[0] + u[-1]) / h2
        out[-1] = (u[0] - 2 * u[-1] + u[-2]) / h2
    elif bc == DIRICHLET:
        out[0] = out[-1] = 0.0
    else:
        out[0] = 2 * (u[1] - u[0]) / h2
        out[-1] = 2 * (u[-2] - u[-1]) / h2
    return out


class _SemiDiscrete:
    """The semi-discrete operator u -> a * u_xx + f(x, u, u_x) on plain arrays.

    Built once per solve from the grid ``x``, the spacing ``h`` and the
    boundary tag: the grid, 2h, h^2 and the derivative buffers are fixed, so
    one evaluation costs the two stencils, the user's callables and one
    finiteness check. ``a`` is None (unit coefficient), a constant or a
    callable a(x, u, p).
    """

    def __init__(self, nl: GeneralNonlinearity, a, x: np.ndarray, h: float,
                 bc: str):
        self.f = nl.f
        self.a = float(a) if np.isscalar(a) else a
        self.x = x
        self.bc = bc
        self.two_h = 2 * h
        self.h2 = h**2
        self._p = np.empty(x.size)
        self._uxx = np.empty(x.size)
        self._ones = np.ones(x.size)

    def reaction(self, u: np.ndarray) -> np.ndarray:
        """f(x, u, u_x), zero at pinned Dirichlet ends.

        The slope goes into a new array: f may return it, and the caller
        keeps each result for the next step.
        """
        p = central_difference(u, self.two_h, self.bc, np.empty(u.size))
        out = self.f(self.x, u, p)
        if self.bc == DIRICHLET:
            out = np.array(out, dtype=float)
            out[0] = out[-1] = 0.0
        return out

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """a * u_xx + f(x, u, u_x) as a new array.

        Raises FloatingPointError naming the first grid index whose value
        is not finite.
        """
        x, a = self.x, self.a
        p = central_difference(u, self.two_h, self.bc, self._p)
        uxx = second_difference(u, self.h2, self.bc, self._uxx)
        if a is None:
            out = uxx + self.f(x, u, p)
        elif callable(a):
            out = a(x, u, p) * uxx + self.f(x, u, p)
        else:
            out = a * uxx + self.f(x, u, p)
        if self.bc == DIRICHLET:
            out[0] = out[-1] = 0.0
        # a finite sum (out @ ones) rules out NaN and inf; an overflowing
        # one is confirmed element by element
        if not math.isfinite(out @ self._ones):
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                raise FloatingPointError(
                    f"non-finite right-hand side at grid index {bad[0]}")
        return out


def laplacian(field: ScalarField) -> np.ndarray:
    return second_difference(field.values, field.dx**2, field.bc,
                             np.empty(field.n))


def rhs(nl: GeneralNonlinearity, a, field: ScalarField) -> ScalarField:
    """Semi-discrete right-hand side a * u_xx + f(x, u, u_x)."""
    op = _SemiDiscrete(nl, a, field.grid(), field.dx, field.bc)
    return field.like(op(field.values))


def _diffusion_matrix(n: int, h: float, bc: str) -> sp.csc_matrix:
    h2 = h * h
    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    A = sp.diags([off, main, off], (-1, 0, 1), format="lil")
    if bc == PERIODIC:
        A[0, -1] = 1.0
        A[-1, 0] = 1.0
    elif bc == DIRICHLET:
        A[0, :] = 0.0
        A[-1, :] = 0.0
    else:  # Neumann, mirrored ghosts
        A[0, 0], A[0, 1] = -2.0, 2.0
        A[-1, -1], A[-1, -2] = -2.0, 2.0
    return sp.csc_matrix(A / h2)


def integrate(nl: GeneralNonlinearity, a, u0: ScalarField,
              cfg: SolverConfig) -> TrajectoryRecord:
    """Advance the semi-discrete system and record snapshots.

    Snapshots and the discrete right-hand side are stored every
    ``save_every`` steps. Integration stops early with a blow-up record if
    max|u| exceeds 1e6, the state turns non-finite or the right-hand side
    does; the record keeps the snapshots saved so far and says in
    ``message`` what happened, where and when.
    """
    if a is None:
        a_const = 1.0
    elif np.isscalar(a):
        a_const = float(a)
    else:
        a_const = None
    h = u0.dx
    a_scale = a_const if a_const is not None else 1.0
    dt = cfg.dt if cfg.dt is not None else 0.4 * h * h / a_scale
    if cfg.scheme == RK4 and a_const is not None and dt * 4 * a_const / (h * h) > 2.8:
        warnings.warn("time step exceeds the explicit diffusion stability limit",
                      stacklevel=2)
    if cfg.scheme == IMEX and a_const is None:
        raise ValueError("IMEX stepping needs a constant diffusion coefficient")

    # tolerate round-off when t_end is an exact multiple of dt
    n_steps = int(np.ceil(cfg.t_end / dt - 1e-9))
    u = u0.values.copy()
    make = u0.like
    op = _SemiDiscrete(nl, a, u0.grid(), h, u0.bc)

    times, snaps, rhs_snaps = [], [], []

    def record(t, uv):
        """Save the state and its u_t, or say why u_t cannot be saved."""
        fld = make(uv.copy())
        try:
            u_t = rhs(nl, a, fld)
        except FloatingPointError as exc:
            return f"{exc} at t={t:.6g}"
        times.append(t)
        snaps.append(fld)
        rhs_snaps.append(u_t)
        return None

    def finish(message=None, t_blow=None):
        return TrajectoryRecord(np.array(times), snaps, rhs_snaps,
                                blew_up=message is not None,
                                blowup_time=t_blow, message=message)

    def blowup_reason(uv, t):
        """Why the state at t ends the run, or None while it is sound."""
        peak = np.abs(uv).max()  # NaN or inf make this comparison fail
        if peak <= BLOWUP_THRESHOLD:
            return None
        if not np.isfinite(peak):
            return f"state turned non-finite at t={t:.6g}"
        return f"max|u| = {peak:.3g} exceeds {BLOWUP_THRESHOLD:g} at t={t:.6g}"

    why = record(0.0, u)
    if why is not None:
        return finish(why, 0.0)

    if cfg.scheme == IMEX:
        A = _diffusion_matrix(u0.n, h, u0.bc) * a_const
        eye = sp.identity(u0.n, format="csc")
        lhs = splu(sp.csc_matrix(eye - 0.5 * dt * A))
        explicit = eye + 0.5 * dt * A
        N_prev = None
        for k in range(1, n_steps + 1):
            N_cur = op.reaction(u)
            if k == 1:
                expl = N_cur  # first step: IMEX Euler start
            else:
                expl = 1.5 * N_cur - 0.5 * N_prev
            u = lhs.solve(explicit @ u + dt * expl)
            if u0.bc == DIRICHLET:
                u[0] = u[-1] = 0.0
            N_prev = N_cur
            t = k * dt
            why = blowup_reason(u, t)
            if why is None and (k % cfg.save_every == 0 or k == n_steps):
                why = record(t, u)
            if why is not None:
                return finish(why, t)
        return finish()

    # explicit RK4
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    for k in range(1, n_steps + 1):
        t = k * dt
        try:
            k1 = op(u)
            k2 = op(u + half_dt * k1)
            k3 = op(u + half_dt * k2)
            k4 = op(u + dt * k3)
        except FloatingPointError as exc:
            return finish(f"{exc} in the step from t={(k - 1) * dt:.6g} "
                          f"to t={t:.6g}", t)
        u = u + sixth_dt * (k1 + 2 * k2 + 2 * k3 + k4)
        why = blowup_reason(u, t)
        if why is None and (k % cfg.save_every == 0 or k == n_steps):
            why = record(t, u)
        if why is not None:
            return finish(why, t)
    return finish()
