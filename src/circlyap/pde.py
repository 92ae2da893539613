"""Method-of-lines integrator for u_t = a * u_xx + f(x, u, u_x).

Second-order central stencils in space. In time, one of two schemes:

* ``rk4``: explicit RK4, the reference; any coefficient a(x, u, u_x);
* ``etdrk4``: the exponential integrator of Cox & Matthews (J. Comput.
  Phys. 176, 2002). The linear part a * u_xx, with the same
  second-difference matrix, is applied exactly in the basis that
  diagonalises it (``scipy.fft``: real FFT on the circle, DST-I on the
  Dirichlet interior, DCT-I for Neumann's mirrored ghosts); the reaction
  f(x, u, u_x) stays explicit through the same central difference.
  Non-zero Dirichlet end values enter as a constant forcing. So it
  integrates the same semi-discrete ODE as RK4, at steps far above RK4's
  stability limit. Its phi-functions come from Kassam & Trefethen's
  contour integrals (SIAM J. Sci. Comput. 26, 2005), once per solve and
  step size. The initial transient changes faster than a large step
  resolves, so each step is checked against two half steps and covered
  in halved steps until the two agree to 1e-9, until a whole step passes;
  plain steps follow. It needs a constant diffusion coefficient and an
  explicit step ``dt``.

Each solve builds one semi-discrete operator on plain arrays, with the grid,
2h, h^2 and the derivative buffers fixed; the RK4 stages, the ETDRK4
reaction terms and the saved u_t snapshots all evaluate it, and the public
``rhs`` builds one per call, so the stencils exist once. The operator pins
Dirichlet ends and names the grid index of a non-finite right-hand side or
reaction term.
A run stops with a blow-up record, which keeps the snapshots saved so far
and says what happened and when, if max|u| exceeds 1e6, the state turns
non-finite or the right-hand side does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .functional import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    ScalarField,
    central_difference,
)

BLOWUP_THRESHOLD = 1e6
# ETDRK4 step doubling in the initial transient: a step and its two
# halves must agree to this, relative to max(1, max|u|)
ETDRK4_TOL = 1e-9
ETDRK4_MAX_SUBSTEPS = 128

RK4 = "rk4"
ETDRK4 = "etdrk4"


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
    dt: float | None = None  # default 0.4 * (l/n)^2 / a; etdrk4 needs it
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
        if self.scheme not in (RK4, ETDRK4):
            why = ("was retired; use 'etdrk4' with an explicit dt (constant "
                   "diffusion coefficient)" if self.scheme == "imex"
                   else "is unknown")
            raise ValueError(f"scheme {self.scheme!r} {why}")
        if self.scheme == ETDRK4 and self.dt is None:
            raise ValueError("ETDRK4 stepping needs an explicit dt")


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    snapshots: list
    u_t_snapshots: list
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
        keeps each result for the next step. Raises FloatingPointError
        naming the first grid index whose value is not finite.
        """
        p = central_difference(u, self.two_h, self.bc, np.empty(u.size))
        out = self.f(self.x, u, p)
        if self.bc == DIRICHLET:
            out = np.array(out, dtype=float)
            out[0] = out[-1] = 0.0
        return self._finite(out, "reaction term")

    def _finite(self, out: np.ndarray, what: str) -> np.ndarray:
        # a finite sum (out @ ones) rules out NaN and inf; an overflowing
        # one is confirmed element by element
        if not math.isfinite(out @ self._ones):
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                raise FloatingPointError(
                    f"non-finite {what} at grid index {bad[0]}")
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
        return self._finite(out, "right-hand side")


def laplacian(field: ScalarField) -> np.ndarray:
    return second_difference(field.values, field.dx**2, field.bc,
                             np.empty(field.n))


def rhs(nl: GeneralNonlinearity, a, field: ScalarField) -> ScalarField:
    """Semi-discrete right-hand side a * u_xx + f(x, u, u_x)."""
    op = _SemiDiscrete(nl, a, field.grid(), field.dx, field.bc)
    return field.like(op(field.values))


def constant_coefficient(a) -> float | None:
    """The diffusion coefficient as a number (1 for None), or None for a
    callable a(x, u, p)."""
    if a is None:
        return 1.0
    if np.isscalar(a):
        return float(a)
    return None


def time_step(cfg: SolverConfig, h: float, a) -> float:
    """The configured step, or by default 0.4 h^2 / a (a = 1 if callable)."""
    if cfg.dt is not None:
        return cfg.dt
    a_const = constant_coefficient(a)
    return 0.4 * h * h / (a_const if a_const is not None else 1.0)


def _diagonalised_second_difference(n: int, h: float, bc: str):
    """Eigenvalues of the ``second_difference`` matrix and the transform
    pair that diagonalises it, acting on the points that move: all of
    them, or the Dirichlet interior. The eigenvalues are
    -4 sin^2(theta_k / 2) / h^2 for the real FFT (theta_k = 2 pi k / n),
    DST-I (theta_k = pi k / (n - 1), k = 1 .. n - 2) and DCT-I
    (theta_k = pi k / (n - 1), k = 0 .. n - 1). ``scipy.fft`` is imported
    here, its one user, once per ETDRK4 solve."""
    import scipy.fft as sfft

    if bc == PERIODIC:
        half = np.pi * np.arange(n // 2 + 1) / n
        fwd, inv = sfft.rfft, (lambda v: sfft.irfft(v, n))
    elif bc == DIRICHLET:
        half = 0.5 * np.pi * np.arange(1, n - 1) / (n - 1)
        fwd, inv = (lambda w: sfft.dst(w, type=1)), \
            (lambda v: sfft.idst(v, type=1))
    else:
        half = 0.5 * np.pi * np.arange(n) / (n - 1)
        fwd, inv = (lambda w: sfft.dct(w, type=1)), \
            (lambda v: sfft.idct(v, type=1))
    return -4.0 * np.sin(half) ** 2 / (h * h), fwd, inv


def _etdrk4_coefficients(z: np.ndarray, dt: float, points: int = 32):
    """exp(z), exp(z/2) and Cox & Matthews' Q, f1, f2, f3 (each times dt)
    for z = dt * eigenvalue, as Kassam & Trefethen's means over a circle of
    radius 1 around each z, which avoid the cancellation near z = 0."""
    r = np.exp(1j * np.pi * (np.arange(points) + 0.5) / points)
    Z = z[:, None] + r[None, :]
    eZ = np.exp(Z)
    Z3 = Z ** 3

    def mean(vals):
        return dt * np.mean(vals, axis=1).real

    Q = mean((np.exp(0.5 * Z) - 1.0) / Z)
    f1 = mean((-4.0 - Z + eZ * (4.0 - 3.0 * Z + Z * Z)) / Z3)
    f2 = mean((2.0 + Z + eZ * (Z - 2.0)) / Z3)
    f3 = mean((-4.0 - 3.0 * Z - Z * Z + eZ * (4.0 - Z)) / Z3)
    return np.exp(z), np.exp(0.5 * z), Q, f1, f2, f3


def integrate(nl: GeneralNonlinearity, a, u0: ScalarField,
              cfg: SolverConfig) -> TrajectoryRecord:
    """Advance the semi-discrete system and record snapshots.

    Snapshots and the discrete right-hand side are stored every
    ``save_every`` steps. Integration stops early with a blow-up record if
    max|u| exceeds 1e6, the state turns non-finite or the right-hand side
    (for ETDRK4: the reaction term) does; the record keeps the
    snapshots saved so far and says in ``message`` what happened, where
    and when.
    """
    a_const = constant_coefficient(a)
    h = u0.dx
    dt = time_step(cfg, h, a)
    if cfg.scheme == RK4 and a_const is not None and dt * 4 * a_const / (h * h) > 2.8:
        warnings.warn("time step exceeds the explicit diffusion stability limit",
                      stacklevel=2)
    if cfg.scheme == ETDRK4 and a_const is None:
        raise ValueError("ETDRK4 stepping needs a constant diffusion "
                         "coefficient")

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
            u_t = make(op(fld.values))
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

    def stepped(k, uv):
        """Check the state after step k and save it when due; returns why
        the run ends, or None."""
        t = k * dt
        why = blowup_reason(uv, t)
        if why is None and (k % cfg.save_every == 0 or k == n_steps):
            why = record(t, uv)
        return why

    def failed_step(exc, k):
        return finish(f"{exc} in the step from t={(k - 1) * dt:.6g} "
                      f"to t={k * dt:.6g}", k * dt)

    why = record(0.0, u)
    if why is not None:
        return finish(why, 0.0)

    if cfg.scheme == ETDRK4:
        lam, fwd, inv = _diagonalised_second_difference(u0.n, h, u0.bc)
        moving = slice(1, -1) if u0.bc == DIRICHLET else slice(None)
        # pinned Dirichlet end values reach their neighbours through u_xx
        ends = np.zeros(u[moving].size)
        if u0.bc == DIRICHLET:
            ends[0], ends[-1] = u[0], u[-1]
        forcing = fwd(ends * (a_const / (h * h)))
        coefficients = {}

        def N(uv):
            """Transformed reaction term plus the end forcing."""
            return fwd(op.reaction(uv)[moving]) + forcing

        def physical(v):
            uv = u0.values.copy()  # keeps the pinned ends
            uv[moving] = inv(v)
            return uv

        def advance(v, uv, m):
            """Cover one step dt in m ETDRK4 steps of dt / m; returns the
            transformed and the physical state."""
            if m not in coefficients:
                coefficients[m] = _etdrk4_coefficients(
                    a_const * (dt / m) * lam, dt / m)
            E, E2, Q, f1, f2, f3 = coefficients[m]
            for _ in range(m):
                Nu = N(uv)
                sa = E2 * v + Q * Nu
                Na = N(physical(sa))
                sb = E2 * v + Q * Na
                Nb = N(physical(sb))
                sc = E2 * sa + Q * (2.0 * Nb - Nu)
                Nc = N(physical(sc))
                v = E * v + f1 * Nu + 2.0 * f2 * (Na + Nb) + f3 * Nc
                uv = physical(v)
            return v, uv

        # In the initial transient the reaction term changes faster than a
        # step dt resolves. Until one step dt agrees with two of dt / 2,
        # every step is checked that way (step doubling) and covered in
        # halved steps until the two agree; then plain steps dt follow.
        v, m, checking = fwd(u[moving]), 1, True
        for k in range(1, n_steps + 1):
            try:
                if not checking:
                    v, u = advance(v, u, 1)
                else:
                    coarse = advance(v, u, m)
                    while True:
                        fine = advance(v, u, 2 * m)
                        gap = np.abs(coarse[1] - fine[1]).max()
                        scale = max(1.0, np.abs(fine[1]).max())
                        if (gap <= ETDRK4_TOL * scale
                                or 2 * m >= ETDRK4_MAX_SUBSTEPS):
                            break
                        coarse, m = fine, 2 * m
                    (v, u), checking, m = fine, m > 1, max(1, m // 2)
            except FloatingPointError as exc:
                return failed_step(exc, k)
            why = stepped(k, u)
            if why is not None:
                return finish(why, k * dt)
        return finish()

    # explicit RK4
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    for k in range(1, n_steps + 1):
        try:
            k1 = op(u)
            k2 = op(u + half_dt * k1)
            k3 = op(u + half_dt * k2)
            k4 = op(u + dt * k3)
        except FloatingPointError as exc:
            return failed_step(exc, k)
        u = u + sixth_dt * (k1 + 2 * k2 + 2 * k3 + k4)
        why = stepped(k, u)
        if why is not None:
            return finish(why, k * dt)
    return finish()
