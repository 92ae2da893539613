"""Discrete fields and the Lyapunov functional over them.

Evaluates V(u) = integral of L(u, u_x) and the dissipation integral on
uniformly gridded fields. Periodic fields use the rectangle rule, which is
spectrally accurate for smooth periodic integrands; interval fields use the
trapezoid rule. ``Stencils`` is the one finite-difference kernel: the PDE
operator takes u_x and u_xx from it, and ``gradient`` its u_x.

Both constructions, the O(2) Lagrangian on the circle (``field_report``)
and the separated-BC one (``matano.field_report``), turn their grid values
into a :class:`FunctionalReport` through ``snapshot_report``, and check the
decay identity dV/dt = -int L_pp u_t^2 dx along a trajectory through
``decay_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charflow import NonlinearityO2
from .lagrangian import LagrangianEvaluator

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_BCS = (PERIODIC, DIRICHLET, NEUMANN)


@dataclass
class ScalarField:
    """Samples of u on a uniform grid with a boundary-condition tag.

    Periodic grids carry n points x_i = i * l / n (the endpoint x = l is
    identified with x = 0); interval grids carry n points x_i = i*l/(n-1).
    Dirichlet ends within 1e-12 of 0 (a sine series' rounding) are stored
    as exact zeros, on a copy; any other end is a ValueError.
    """

    values: np.ndarray
    domain_length: float
    bc: str = PERIODIC

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 8:
            raise ValueError("field needs a 1-D array of at least 8 samples")
        if self.domain_length <= 0:
            raise ValueError("domain_length must be positive")
        if self.bc not in _BCS:
            raise ValueError(f"unknown boundary condition tag: {self.bc!r}")
        if self.bc == DIRICHLET and self.values[[0, -1]].any():
            if not abs(self.values[[0, -1]]).max() <= 1e-12:  # NaN fails too
                raise ValueError("Dirichlet fields must vanish at both ends")
            self.values = np.concatenate([[0.0], self.values[1:-1], [0.0]])

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        if self.bc == PERIODIC:
            return self.domain_length / self.n
        return self.domain_length / (self.n - 1)

    def grid(self) -> np.ndarray:
        if self.bc == PERIODIC:
            return np.arange(self.n) * self.dx
        return np.linspace(0.0, self.domain_length, self.n)

    def like(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(np.asarray(values, dtype=float),
                           self.domain_length, self.bc)


class FunctionalReport(NamedTuple):
    """V, the signed dissipation integral and min L_pp of one snapshot."""

    V: float
    dissipation: float
    convexity_min: float


class Stencils:
    """The grid's second-order finite differences, on fixed buffers.

    ``slope(u)`` copies u between two ghost values (the far ends of the
    circle; interval ends are set apart) and writes u_x into ``p``:
    central differences inside, one-sided three-point slopes at interval
    ends. ``second(u)`` writes u_xx into ``uxx`` from the padded copy that
    ``slope`` made: 0 at Dirichlet ends (the values there are pinned),
    mirrored ghosts at Neumann ends. Each result lives until the next
    call. The PDE operator and ``gradient`` share it, so the functionals
    difference a state as the solver does.
    """

    def __init__(self, n: int, h: float, bc: str):
        self.bc = bc
        self.two_h = 2 * h
        self.h2 = h**2
        # interval ends are overwritten, so their ghosts stay 0
        self._pad = np.zeros(n + 2)
        self.p = np.empty(n)
        self.uxx = np.empty(n)

    def slope(self, u: np.ndarray) -> np.ndarray:
        pad, p = self._pad, self.p
        pad[1:-1] = u
        if self.bc == PERIODIC:
            pad[0], pad[-1] = u[-1], u[0]
        np.subtract(pad[2:], pad[:-2], out=p)
        p /= self.two_h
        if self.bc != PERIODIC:
            p[0] = (-3 * u[0] + 4 * u[1] - u[2]) / self.two_h
            p[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / self.two_h
        return p

    def second(self, u: np.ndarray) -> np.ndarray:
        pad, uxx, h2 = self._pad, self.uxx, self.h2
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


def gradient(field: ScalarField) -> np.ndarray:
    """The field's u_x from ``Stencils``, as a new array; at Dirichlet ends
    it need not vanish."""
    return Stencils(field.n, field.dx, field.bc).slope(field.values)


def quadrature_weights(field: ScalarField) -> np.ndarray:
    h = field.dx
    if field.bc == PERIODIC:
        return np.full(field.n, h)
    w = np.full(field.n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def snapshot_report(
    field: ScalarField,
    u_t: ScalarField,
    L_vals: np.ndarray,
    lpp: np.ndarray,
    p: np.ndarray | None = None,
    weight_a: NonlinearityO2 | None = None,
) -> FunctionalReport:
    """The report of one snapshot from its grid values of L and L_pp: V,
    the dissipation -int w * L_pp * u_t^2 dx and min L_pp; the one report
    assembly of both constructions. The weight w is 1, or with
    ``weight_a`` and the grid slope ``p`` it is 1/abar(u, p^2/2)."""
    if field.n != u_t.n or field.bc != u_t.bc:
        raise ValueError("field and u_t must share grid and boundary condition")
    w = quadrature_weights(field)
    weighted = lpp
    if weight_a is not None:
        av = weight_a.f_bar(field.values, 0.5 * p * p)
        if np.any(av <= 0):
            raise ValueError("diffusion coefficient must be positive on the grid")
        weighted = (1.0 / av) * lpp
    return FunctionalReport(
        V=float(np.dot(w, L_vals)),
        dissipation=-float(np.dot(w, weighted * u_t.values**2)),
        convexity_min=float(np.min(lpp)),
    )


def decay_residual(times: np.ndarray, V: np.ndarray,
                   D: np.ndarray) -> np.ndarray:
    """|centred dV/dt - D| at each save of a series, NaN at the first and
    last, where no centred difference exists."""
    res = np.full(len(times), np.nan)
    res[1:-1] = np.abs((V[2:] - V[:-2]) / (times[2:] - times[:-2]) - D[1:-1])
    return res


def field_report(
    ev: LagrangianEvaluator,
    field: ScalarField,
    u_t: ScalarField,
    weight_a: NonlinearityO2 | None = None,
) -> FunctionalReport:
    """V, the dissipation (weighted as in ``snapshot_report``) and min L_pp
    of one periodic snapshot with velocity ``u_t``, from a single
    ``field_eval`` in the evaluator's form; the circle construction's one
    entry point. Pass a zero ``u_t`` when only V is wanted."""
    if field.bc != PERIODIC:
        raise ValueError("the circle construction needs a periodic field")
    p = gradient(field)
    fe = ev.field_eval(field.values, p)
    return snapshot_report(field, u_t, fe["L"], fe["L_pp"], p, weight_a)
