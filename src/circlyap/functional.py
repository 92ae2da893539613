"""Discrete fields and the Lyapunov functional over them.

Evaluates V(u) = integral of L(u, u_x) and the dissipation integral on
uniformly gridded fields. Periodic fields use the rectangle rule, which is
spectrally accurate for smooth periodic integrands; interval fields use the
trapezoid rule.

Both constructions, the O(2) Lagrangian on the circle and the separated-BC
one of :mod:`circlyap.matano`, turn their grid values into a
:class:`FunctionalReport` through ``snapshot_report``, and check the decay
identity dV/dt = -int L_pp u_t^2 dx along a trajectory through
``decay_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charflow import NonlinearityO2, _eval_vec
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
        if self.bc == DIRICHLET:
            if abs(self.values[0]) > 1e-12 or abs(self.values[-1]) > 1e-12:
                raise ValueError("Dirichlet fields must vanish at both ends")

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


def central_difference(u: np.ndarray, two_h: float, bc: str,
                       out: np.ndarray) -> np.ndarray:
    """Second-order first derivative of the samples ``u`` into ``out``.

    Central differences inside; periodic ends wrap around, interval ends
    use the one-sided three-point formulas. ``two_h`` is twice the grid
    spacing. This is the one first-derivative stencil of the package: the
    PDE right-hand side and the functionals both call it. It divides by
    ``two_h`` rather than multiplying by its inverse; tests hold the
    results bit for bit.
    """
    out[1:-1] = (u[2:] - u[:-2]) / two_h
    if bc == PERIODIC:
        out[0] = (u[1] - u[-1]) / two_h
        out[-1] = (u[0] - u[-2]) / two_h
    else:
        out[0] = (-3 * u[0] + 4 * u[1] - u[2]) / two_h
        out[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / two_h
    return out


def gradient(field: ScalarField) -> ScalarField:
    """Second-order finite-difference derivative of the field."""
    u = field.values
    out = ScalarField.__new__(ScalarField)
    out.values = central_difference(u, 2 * field.dx, field.bc, np.empty_like(u))
    out.domain_length = field.domain_length
    out.bc = field.bc  # derivative of a Dirichlet field need not vanish at ends
    return out


def quadrature_weights(field: ScalarField) -> np.ndarray:
    h = field.dx
    if field.bc == PERIODIC:
        return np.full(field.n, h)
    w = np.full(field.n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _circle_values(ev: LagrangianEvaluator, field: ScalarField):
    """(u_x, L, L_pp) on the grid of a periodic field, from one
    ``field_eval`` in the evaluator's form."""
    if field.bc != PERIODIC:
        raise ValueError("the circle construction needs a periodic field")
    p = gradient(field).values
    fe = ev.field_eval(field.values, p)
    return p, fe["L"], fe["L_pp"]


def _check_velocity(field: ScalarField, u_t: ScalarField) -> None:
    if field.n != u_t.n or field.bc != u_t.bc:
        raise ValueError("field and u_t must share grid and boundary condition")


def _dissipation(field: ScalarField, p: np.ndarray | None, lpp: np.ndarray,
                 u_t: ScalarField, weight_a: NonlinearityO2 | None) -> float:
    w = lpp
    if weight_a is not None:
        av = _eval_vec(weight_a.f_bar, field.values, 0.5 * p * p)
        if np.any(av <= 0):
            raise ValueError("diffusion coefficient must be positive on the grid")
        w = (1.0 / av) * lpp
    return -float(np.dot(quadrature_weights(field), w * u_t.values**2))


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
    _check_velocity(field, u_t)
    return FunctionalReport(
        V=float(np.dot(quadrature_weights(field), L_vals)),
        dissipation=_dissipation(field, p, lpp, u_t, weight_a),
        convexity_min=float(np.min(lpp)),
    )


def decay_residual(times: np.ndarray, V: np.ndarray,
                   D: np.ndarray) -> np.ndarray:
    """|centred dV/dt - D| at each save of a series, NaN at the first and
    last, where no centred difference exists."""
    res = np.full(len(times), np.nan)
    res[1:-1] = np.abs((V[2:] - V[:-2]) / (times[2:] - times[:-2]) - D[1:-1])
    return res


def evaluate_V(ev: LagrangianEvaluator, field: ScalarField) -> FunctionalReport:
    """Lyapunov functional of a periodic field under the O(2) construction.

    The dissipation slot of the report is left at zero; ``field_report``
    fills it from the same evaluation.
    """
    _, L_vals, lpp = _circle_values(ev, field)
    return FunctionalReport(
        V=float(np.dot(quadrature_weights(field), L_vals)),
        dissipation=0.0,
        convexity_min=float(np.min(lpp)),
    )


def dissipation_rate(
    ev: LagrangianEvaluator,
    field: ScalarField,
    u_t: ScalarField,
    weight_a: NonlinearityO2 | None = None,
) -> float:
    """Signed dissipation integral -int w * L_pp(u, u_x) * u_t^2 dx.

    ``weight_a`` supplies the quasilinear weight 1/abar(u, u_x^2/2); omit it
    in the semilinear case. The return value is always <= 0. L_pp comes
    from one solve of the transport lanes through (u_i, u_x,i^2/2), one
    lane per grid point, as the scalar ``L_pp`` computes it; unlike
    ``field_report`` it integrates no p-node lanes, so the two agree to
    integration error rather than bit for bit.
    """
    _check_velocity(field, u_t)
    u, p = field.values, gradient(field).values
    _, _, fq = ev._lanes(
        u, 0.5 * p * p, 0,
        lambda k, s: f"dissipation rate: grid point {k} at (u, p) = "
                     f"({u[k]:.6g}, {p[k]:.6g}), stopped at u={u[k] * s:.6g}")
    return _dissipation(field, p, np.exp(fq), u_t, weight_a)


def field_report(
    ev: LagrangianEvaluator,
    field: ScalarField,
    u_t: ScalarField,
    weight_a: NonlinearityO2 | None = None,
) -> FunctionalReport:
    """V, dissipation (as in ``dissipation_rate``) and min L_pp of one
    periodic snapshot with velocity ``u_t``, from a single ``field_eval``."""
    p, L_vals, lpp = _circle_values(ev, field)
    return snapshot_report(field, u_t, L_vals, lpp, p, weight_a)
