"""Method-of-lines integrator for u_t = a * u_xx + f(x, u, u_x).

Second-order central stencils in space. In time, one of two schemes:

* ``rk4``: explicit RK4, the reference; any coefficient a(x, u, u_x);
* ``etdrk4``: the exponential integrator of Cox & Matthews (J. Comput. Phys.
  176, 2002) with Kassam & Trefethen's contour-integral phi-functions (SIAM
  J. Sci. Comput. 26, 2005). It applies a * u_xx exactly in the basis that
  diagonalises the second difference (``numpy.fft``: real FFT on the
  circle, DST-I on the Dirichlet interior, DCT-I for Neumann's mirrored
  ghosts) and keeps the reaction f(x, u, u_x) explicit, so it integrates the
  same semi-discrete ODE as RK4 at steps far above RK4's stability limit.
  Step doubling covers the initial transient (see ``_etdrk4_step``). It
  needs a constant diffusion coefficient and an explicit step ``dt``.

Each solve builds one semi-discrete operator, which takes u_x and u_xx
from the ``functional.Stencils`` that also gives the functionals their
u_x; this module keeps only the eigenvalues of that stencil. The RK4
stages, the ETDRK4 reaction terms and the saved u_t snapshots all evaluate
the operator, and the public ``rhs`` builds one per call. It pins
Dirichlet ends and names the grid index of a non-finite right-hand side or
reaction term. On a Dirichlet grid ETDRK4 transforms the interior, of the
state and of the reaction term, and pads each physical state with the two
zero ends.

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
from .functional import DIRICHLET, PERIODIC, ScalarField, Stencils

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


class _SemiDiscrete:
    """The semi-discrete operator u -> a * u_xx + f(x, u, u_x) on plain arrays.

    Built once per solve from the grid ``x``, the spacing ``h`` and the
    boundary tag, with one ``functional.Stencils`` for u_x and u_xx; then
    come the user's callables and one finiteness check. ``a`` is None
    (unit coefficient), a constant or a callable a(x, u, p).
    """

    def __init__(self, nl: GeneralNonlinearity, a, x: np.ndarray, h: float,
                 bc: str):
        self.f = nl.f
        self.a = float(a) if np.isscalar(a) else a
        self.x = x
        self.bc = bc
        self.stencils = Stencils(x.size, h, bc)
        self._ones = np.ones(x.size)

    def reaction(self, u: np.ndarray) -> np.ndarray:
        """f(x, u, u_x) at the points that move: all of them, or the
        Dirichlet interior, whose pinned ends are neither kept nor checked.

        f may return the slope buffer itself, so the result is only valid
        until the next evaluation. Raises FloatingPointError naming the
        first grid index whose value is not finite.
        """
        out = self.f(self.x, u, self.stencils.slope(u))
        if self.bc == DIRICHLET:
            return self._finite(out[1:-1], "reaction term", 1)
        return self._finite(out, "reaction term")

    def _finite(self, out: np.ndarray, what: str, first=0) -> np.ndarray:
        # a finite sum (out @ ones) rules out NaN and inf; an overflowing
        # one is confirmed element by element; out[0] is grid index first
        if not math.isfinite(out @ self._ones[:out.size]):
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                raise FloatingPointError(
                    f"non-finite {what} at grid index {bad[0] + first}")
        return out

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """a * u_xx + f(x, u, u_x) as a new array.

        Raises FloatingPointError naming the first grid index whose value
        is not finite.
        """
        x, a = self.x, self.a
        p = self.stencils.slope(u)
        uxx = self.stencils.second(u)
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
    """Eigenvalues of the matrix of ``Stencils.second`` and the transform
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
    start = u0.values
    if u0.bc == DIRICHLET:
        # the ends are exact zeros (ScalarField stores them so) and stay
        # so: the pair acts on the interior, its inverse padded by them
        inv, zero, start = physical, np.zeros(1), start[1:-1]
        physical = lambda v: np.concatenate([zero, inv(v), zero])

    def N(uv):
        """The transformed reaction term."""
        return fwd(op.reaction(uv))

    v, coefficients = fwd(start), {}

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
