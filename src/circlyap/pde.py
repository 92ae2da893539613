"""Method-of-lines integrator for u_t = a * u_xx + f(x, u, u_x).

Second-order central stencils in space. In time, one of two schemes:

* ``rk4``: explicit RK4, the reference; any coefficient a(x, u, u_x);
* ``etdrk4``: the exponential integrator of Cox & Matthews (J. Comput. Phys.
  176, 2002). The linear part a * u_xx, with the same second-difference
  matrix, is applied exactly in the basis that diagonalises it
  (``numpy.fft``: real FFT on the circle, DST-I on the Dirichlet interior,
  DCT-I for Neumann's mirrored ghosts, both as the real FFT of the odd or
  even extension); the reaction f(x, u, u_x) stays explicit through the same
  central difference. An interval transform of at most 256 points is a dense
  matrix product, tabulated once per solve, as it is faster there than the
  FFT of the extension. So it integrates the same semi-discrete ODE as RK4,
  at steps far above RK4's stability limit. Its phi-functions come from
  Kassam & Trefethen's contour integrals (SIAM J. Sci. Comput. 26, 2005),
  once per solve and step size. The initial transient changes faster than a
  large step resolves, so each step is checked against two half steps and
  covered in halved steps until the two agree to 1e-9, until a whole step
  passes; plain steps follow. All attempts at a step share its first
  reaction term, evaluated once. It needs a constant diffusion coefficient
  and an explicit step ``dt``.

Each solve builds one semi-discrete operator on preallocated buffers: it
copies the state between two ghost values (the far ends on the circle) and
writes u_x and u_xx from that copy into fixed arrays, in the operation order
of ``functional.central_difference`` and ``second_difference``, which tests
hold it to bit for bit. The RK4 stages, the ETDRK4 reaction terms and the
saved u_t snapshots all evaluate it, and the public ``rhs`` builds one per
call. The operator pins Dirichlet ends and names the grid index of a
non-finite right-hand side or reaction term. RK4 reuses two buffers in
every step. ETDRK4 stores its coefficient tables in the dtype of the
transformed state (complex on the circle, real on an interval), so that no
product casts; on a Dirichlet grid it transforms the interior and pads
each physical state with the two zero ends.

Each scheme only builds a ``step(u) -> u``. One loop in ``integrate`` owns
the time, the saves and the end of a run: a blow-up record, which keeps
the snapshots saved so far and says what happened and when, if max|u|
exceeds 1e6, the state turns non-finite or a step fails on a non-finite
right-hand side or reaction term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .charflow import check_numbers, check_partial
from .functional import DIRICHLET, NEUMANN, PERIODIC, ScalarField

BLOWUP_THRESHOLD = 1e6
# ETDRK4 step doubling in the initial transient: a step and its two
# halves must agree to this, relative to max(1, max|u|)
ETDRK4_TOL = 1e-9
ETDRK4_MAX_SUBSTEPS = 128
# ETDRK4 applies an interval transform of at most this many points as a
# tabulated matrix product: the measured break-even with the FFT of the
# extension (3 against 21 us per transform at N = 126, 10 against 12 at
# 254, 55 against 20 at 510)
TABULATED_TRANSFORM_MAX = 256

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
        check_partial(self.f, self.f_p, "f_p",
                      {"x": x_samples, "u": u_samples, "p": p_samples},
                      rel_tol)


@dataclass
class SolverConfig:
    n: int = 256
    dt: float | None = None  # default 0.4 * (l/n)^2 / a; etdrk4 needs it
    t_end: float = 1.0
    save_every: int = 100
    scheme: str = RK4

    def __post_init__(self):
        check_numbers(self, ("t_end",) if self.dt is None else ("t_end", "dt"),
                      ("n", "save_every"))
        if self.n < 8:
            raise ValueError("need at least 8 grid points")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.save_every < 1:
            raise ValueError("save_every must be >= 1")
        if self.scheme not in (RK4, ETDRK4):
            raise ValueError(f"scheme {self.scheme!r} is unknown")
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
    ((u[i+1] - 2 u[i]) + u[i-1]) / h2. It is the reference that tests hold
    the solver's buffered stencil to, bit for bit."""
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
    boundary tag: the grid, 2h, h^2 and the buffers are fixed. Each
    evaluation copies u between two ghost values (the far ends of the
    circle; interval ends are set apart) and takes u_x and u_xx from that
    copy into the derivative buffers, in the operation order of
    ``central_difference`` and ``second_difference``, bit for bit. Then
    come the user's callables and one finiteness check. ``a`` is None
    (unit coefficient), a constant or a callable a(x, u, p).
    """

    def __init__(self, nl: GeneralNonlinearity, a, x: np.ndarray, h: float,
                 bc: str):
        self.f = nl.f
        self.a = float(a) if np.isscalar(a) else a
        self.x = x
        self.bc = bc
        self.two_h = 2 * h
        self.h2 = h**2
        # interval ends are overwritten, so their ghosts stay 0
        self._pad = np.zeros(x.size + 2)
        self._p = np.empty(x.size)
        self._uxx = np.empty(x.size)
        self._ones = np.ones(x.size)

    def _slope(self, u: np.ndarray) -> np.ndarray:
        """u_x into the slope buffer, from the ghost-padded copy of u."""
        pad, p = self._pad, self._p
        pad[1:-1] = u
        if self.bc == PERIODIC:
            pad[0], pad[-1] = u[-1], u[0]
        np.subtract(pad[2:], pad[:-2], out=p)
        p /= self.two_h
        if self.bc != PERIODIC:
            p[0] = (-3 * u[0] + 4 * u[1] - u[2]) / self.two_h
            p[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / self.two_h
        return p

    def _second(self, u: np.ndarray) -> np.ndarray:
        """u_xx into its buffer, from the padded copy ``_slope`` made."""
        pad, uxx, h2 = self._pad, self._uxx, self.h2
        np.multiply(u, 2, out=uxx)
        np.subtract(pad[2:], uxx, out=uxx)
        uxx += pad[:-2]
        uxx /= h2
        if self.bc == DIRICHLET:
            uxx[0] = uxx[-1] = 0.0
        elif self.bc == NEUMANN:
            uxx[0] = 2 * (u[1] - u[0]) / h2
            uxx[-1] = 2 * (u[-2] - u[-1]) / h2
        return uxx

    def reaction(self, u: np.ndarray) -> np.ndarray:
        """f(x, u, u_x), zero at pinned Dirichlet ends.

        f may return the slope buffer itself, so the result is only valid
        until the next evaluation. Raises FloatingPointError naming the
        first grid index whose value is not finite.
        """
        out = self.f(self.x, u, self._slope(u))
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
        p = self._slope(u)
        uxx = self._second(u)
        if a is None:
            out = uxx + self.f(x, u, p)
        elif callable(a):
            out = a(x, u, p) * uxx + self.f(x, u, p)
        else:
            out = a * uxx + self.f(x, u, p)
        if self.bc == DIRICHLET:
            out[0] = out[-1] = 0.0
        return self._finite(out, "right-hand side")


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


def _interval_transform(w: np.ndarray, dirichlet: bool) -> np.ndarray:
    """Unnormalised DST-I (``dirichlet``) or DCT-I of ``w`` along axis 0:
    the real FFT of its odd or even extension, as pocketfft computes them."""
    if dirichlet:
        zero = np.zeros((1,) + w.shape[1:])
        z = np.concatenate([zero, w, zero, -w[::-1]])
        return -np.fft.rfft(z, axis=0).imag[1:-1]
    return np.fft.rfft(np.concatenate([w, w[-2:0:-1]]), axis=0).real


def _diagonalised_second_difference(n: int, h: float, bc: str):
    """Eigenvalues of the ``second_difference`` matrix and the transform
    pair that diagonalises it, acting on the points that move: all of
    them, or the Dirichlet interior. The eigenvalues are
    -4 sin^2(theta_k / 2) / h^2 for the real FFT (theta_k = 2 pi k / n),
    DST-I (theta_k = pi k / (n - 1), k = 1 .. n - 2) and DCT-I
    (theta_k = pi k / (n - 1), k = 0 .. n - 1); each interval transform is
    its own inverse up to the factor 1 / (2 (n - 1)). An interval pair of
    at most ``TABULATED_TRANSFORM_MAX`` points is two dense matrices, the
    transforms of the identity's columns."""
    if bc == PERIODIC:
        half = np.pi * np.arange(n // 2 + 1) / n
        fwd, inv = np.fft.rfft, (lambda v: np.fft.irfft(v, n))
    else:
        dirichlet = bc == DIRICHLET
        k = np.arange(1, n - 1) if dirichlet else np.arange(n)
        half = 0.5 * np.pi * k / (n - 1)
        scale = 1.0 / (2 * (n - 1))
        fwd, inv = (lambda w: _interval_transform(w, dirichlet)), \
            (lambda v: _interval_transform(v, dirichlet) * scale)
        if k.size <= TABULATED_TRANSFORM_MAX:
            # C-contiguous: a strided F changes F @ w in the last bits
            F = np.ascontiguousarray(fwd(np.eye(k.size)))
            G = F * scale
            fwd, inv = (lambda w: F @ w), (lambda v: G @ v)
    return -4.0 * np.sin(half) ** 2 / (h * h), fwd, inv


def _etdrk4_coefficients(z: np.ndarray, dt: float, dtype):
    """exp(z), exp(z/2) and Cox & Matthews' Q, f1, 2 f2, f3 (each times dt)
    for z = dt * eigenvalue, as Kassam & Trefethen's means over 32 points of
    a circle of radius 1 around each z, which avoid cancellation at z = 0.
    The tables come in ``dtype``, that of the transformed state, so that
    products with it cast nothing; a real table stored as complex gives
    the same products bit for bit."""
    r = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)
    Z = z[:, None] + r[None, :]
    eZ = np.exp(Z)
    Z3 = Z ** 3

    def mean(vals):
        return dt * np.mean(vals, axis=1).real

    Q = mean((np.exp(0.5 * Z) - 1.0) / Z)
    f1 = mean((-4.0 - Z + eZ * (4.0 - 3.0 * Z + Z * Z)) / Z3)
    f2 = mean((2.0 + Z + eZ * (Z - 2.0)) / Z3)
    f3 = mean((-4.0 - 3.0 * Z - Z * Z + eZ * (4.0 - Z)) / Z3)
    return tuple(c.astype(dtype) for c in
                 (np.exp(z), np.exp(0.5 * z), Q, f1, 2.0 * f2, f3))


def _rk4_step(op: _SemiDiscrete, dt: float, u: np.ndarray):
    """Explicit RK4 steps of ``op`` as ``step(u) -> u``, in place, on two
    buffers that every step reuses: the stage state and the slope sum."""
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    stage, total = np.empty_like(u), np.empty_like(u)

    def step(u):
        k1 = op(u)
        k2 = op(np.add(u, np.multiply(half_dt, k1, out=stage), out=stage))
        k3 = op(np.add(u, np.multiply(half_dt, k2, out=stage), out=stage))
        k4 = op(np.add(u, np.multiply(dt, k3, out=stage), out=stage))
        # k1 + 2 k2 + 2 k3 + k4, summed left to right as tests hold it
        np.multiply(2, k2, out=total)
        np.add(total, k1, out=total)
        np.add(total, np.multiply(2, k3, out=stage), out=total)
        np.add(total, k4, out=total)
        np.multiply(total, sixth_dt, out=total)
        return np.add(u, total, out=u)

    return step


def _etdrk4_step(op: _SemiDiscrete, u0: ScalarField, a: float, dt: float):
    """ETDRK4 steps dt of ``op`` from ``u0`` on, as ``step(u) -> u``, for
    the constant diffusion coefficient ``a``. In the initial transient the
    reaction term changes faster than a step dt resolves: until one step
    dt agrees with two of dt / 2, every step is checked that way (step
    doubling) and covered in halved steps until the two agree; then plain
    steps dt follow. All attempts share the step's first reaction term."""
    lam, fwd, physical = _diagonalised_second_difference(u0.n, u0.dx, u0.bc)
    if u0.bc == DIRICHLET:
        # the ends are exact zeros (ScalarField stores them so) and stay
        # so: the pair acts on the interior, its inverse padded by them
        fwd_interior, inv_interior, zero = fwd, physical, np.zeros(1)
        fwd, physical = (lambda w: fwd_interior(w[1:-1])), \
            (lambda v: np.concatenate([zero, inv_interior(v), zero]))

    def N(uv):
        """The transformed reaction term."""
        return fwd(op.reaction(uv))

    v, coefficients = fwd(u0.values), {}

    def advance(v, Nu, m):
        """Cover one step dt in m ETDRK4 steps of dt / m from the
        transformed state v, whose reaction term is Nu; returns the
        transformed and the physical state."""
        if m not in coefficients:
            coefficients[m] = _etdrk4_coefficients(
                a * (dt / m) * lam, dt / m, v.dtype)
        E, E2, Q, f1, f2_twice, f3 = coefficients[m]
        for i in range(m):
            if i:
                Nu = N(uv)
            E2v = E2 * v
            sa = E2v + Q * Nu
            Na = N(physical(sa))
            sb = E2v + Q * Na
            Nb = N(physical(sb))
            sc = E2 * sa + Q * (2.0 * Nb - Nu)
            Nc = N(physical(sc))
            v = E * v + f1 * Nu + f2_twice * (Na + Nb) + f3 * Nc
            uv = physical(v)
        return v, uv

    m, checking = 1, True

    def step(uv):
        nonlocal v, m, checking
        Nu = N(uv)
        if not checking:
            v, uv = advance(v, Nu, 1)
            return uv
        coarse = advance(v, Nu, m)
        while True:
            fine = advance(v, Nu, 2 * m)
            gap = np.abs(coarse[1] - fine[1]).max()
            scale = max(1.0, np.abs(fine[1]).max())
            if gap <= ETDRK4_TOL * scale or 2 * m >= ETDRK4_MAX_SUBSTEPS:
                break
            coarse, m = fine, 2 * m
        (v, uv), checking, m = fine, m > 1, max(1, m // 2)
        return uv

    return step


def integrate(nl: GeneralNonlinearity, a, u0: ScalarField,
              cfg: SolverConfig) -> TrajectoryRecord:
    """Advance the semi-discrete system and record snapshots.

    Snapshots and the discrete right-hand side are stored every
    ``save_every`` steps. Integration stops early with a blow-up record if
    max|u| exceeds 1e6, the state turns non-finite or the right-hand side
    (for ETDRK4: the reaction term) does; the record keeps the
    snapshots saved so far and says in ``message`` what happened, where
    and when, also where numpy's warnings are errors.
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
    op = _SemiDiscrete(nl, a, u0.grid(), h, u0.bc)

    times, snaps, rhs_snaps = [], [], []

    def record(t, uv):
        """Save the state and its u_t, or say why u_t cannot be saved."""
        fld = u0.like(uv.copy())
        try:
            u_t = u0.like(op(fld.values))
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

    with np.errstate(over="ignore", invalid="ignore"):
        why = record(0.0, u)
        if why is not None:
            return finish(why, 0.0)
        step = (_etdrk4_step(op, u0, a_const, dt) if cfg.scheme == ETDRK4
                else _rk4_step(op, dt, u))
        for k in range(1, n_steps + 1):
            t = k * dt
            try:
                u = step(u)
            except FloatingPointError as exc:
                return finish(f"{exc} in the step from t={(k - 1) * dt:.6g} "
                              f"to t={t:.6g}", t)
            peak = np.abs(u).max()
            if not peak <= BLOWUP_THRESHOLD:  # NaN fails the test too
                why = (f"max|u| = {peak:.3g} exceeds {BLOWUP_THRESHOLD:g} at "
                       f"t={t:.6g}" if np.isfinite(peak) else
                       f"state turned non-finite at t={t:.6g}")
            elif k % cfg.save_every == 0 or k == n_steps:
                why = record(t, u)
            if why is not None:
                return finish(why, t)
    return finish()
