"""Scenario registry tying solver, Lagrange machinery and monitors together.

Each scenario integrates a PDE, attaches functional reports at the save
points (with the construction appropriate to the scenario), and emits a CSV
time series, per-save snapshot files and a JSON run manifest. A scenario
names its report, ``functional.field_report`` on the circle or
``matano.field_report`` under separated boundary conditions, and one
series function turns the reports of either construction into the series.
The planar embedding scenario realizes a prescribed reflection-symmetric
planar vector field inside the first Fourier modes and checks the resulting
time-periodic PDE orbit against direct planar integration.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .charflow import (
    CharacteristicEscape,
    CharflowConfig,
    IntegrationFailure,
    NonlinearityO2,
    _solve_lanes,
    solve_profile_flow,
)
from .functional import (
    DIRICHLET,
    PERIODIC,
    ScalarField,
    decay_residual,
    field_report,
)
from .lagrangian import (
    LagrangianEvaluator,
    QuadratureConfig,
    effective_nonlinearity,
)
from . import matano
from .pde import (
    ETDRK4,
    GeneralNonlinearity,
    SolverConfig,
    TrajectoryRecord,
    constant_coefficient,
    integrate,
    time_step,
)

FORMAT_VERSION = 1
OUTPUT_ROOT_ENV = "CIRCLYAP_OUTPUT_ROOT"
# the characteristic tolerances of a scenario run, looser than the library
# default CharflowConfig() (1e-10/1e-12): the loosest at which V and the
# dissipation of every case of tools/work_precision.py stay within 1e-9,
# relative, of a rel_tol 1e-12 reference; a monitored run checks its decay
# residual at 1e-3
SCENARIO_CHARFLOW = CharflowConfig(rel_tol=1e-8, abs_tol=1e-10)

# each scenario's description and every parameter it reads, with its
# default; parsing checks a config's params against these and fills them in
SCENARIOS = {
    "chafee_infante": ("cubic nonlinearity lam*u*(1-u^2) on the circle",
                       {"lam": 15.0, "ell": 1.0, "burn_in": 0.0}),
    "frozen_wave": ("nonhomogeneous equilibrium profile held frozen on the "
                    "circle", {"lam": 50.0, "ell": 1.0, "burn_in": 0.0}),
    "rotating_wave": ("frozen profile advected by an SO(2)-only drift term",
                      {"lam": 50.0, "c": 1.0, "ell": 1.0, "burn_in": 0.0}),
    "gradient_quadratic": ("nonlinearity a(u) + b*q, quadratic in the "
                           "gradient", {"b": 1.0, "slope": -1.0, "ell": 1.0,
                                        "burn_in": 0.0}),
    "qlinear": ("quasilinear run with constant diffusion coefficient abar",
                {"lam": 15.0, "a_const": 2.0, "ell": 1.0, "burn_in": 0.0}),
    # no burn-in: the monitors follow the planar orbit from t = 0
    "planar_embedding": ("planar center field embedded in the first Fourier "
                         "modes of the 2*pi circle, run for one period",
                         {"a0": 0.2, "b0": 1.1}),
    "matano_separated": ("separated-BC construction for f0(u) + eps*u_x "
                         "(Dirichlet); a slope above about 3 leaves its "
                         "domain, so the default start needs burn_in 0.05",
                         {"lam": 5.0, "eps": 0.5, "ell": 1.0,
                          "burn_in": 0.0}),
}
# scenarios that build their own start: a config's ``initial`` is an error
OWN_START = frozenset({"frozen_wave", "rotating_wave", "planar_embedding"})


# ---------------------------------------------------------------------------
# nonlinearity builders

def chafee_infante_nl(lam: float) -> NonlinearityO2:
    return NonlinearityO2(
        f_bar=lambda u, q: lam * u * (1.0 - u * u),
        f_bar_q=lambda u, q: 0.0,
        label=f"chafee_infante(lam={lam})",
    )


def gradient_quadratic_nl(b: float, slope: float) -> NonlinearityO2:
    """fbar(u, q) = slope * u + b * q, quadratic in the gradient."""
    return NonlinearityO2(
        f_bar=lambda u, q: slope * u + b * q,
        f_bar_q=lambda u, q: b,
        label=f"gradient_quadratic(b={b}, slope={slope})",
    )


def constant_coefficient_nl(value: float) -> NonlinearityO2:
    return NonlinearityO2(
        f_bar=lambda u, q: value,
        f_bar_q=lambda u, q: 0.0,
        label=f"const({value})",
    )


def general_from_o2(nl: NonlinearityO2) -> GeneralNonlinearity:
    """Reaction term f(x, u, p) = fbar(u, p^2/2)."""
    return GeneralNonlinearity(
        f=lambda x, u, p: nl.f_bar(u, 0.5 * p * p),
        f_p=lambda x, u, p: nl.f_bar_q(u, 0.5 * p * p) * p,
        x_periodic=True,
    )


# ---------------------------------------------------------------------------
# planar embedding

@dataclass(frozen=True)
class PlanarField:
    """Planar vector field (a, b) -> (g, h) with reflection symmetry
    g(a, -b) = g(a, b), h(a, -b) = -h(a, b)."""

    g: Callable[[float, float], float]
    h: Callable[[float, float], float]

    def verify_symmetry(self) -> None:
        """Check both symmetries at 64 seeded points of [-2, 2]^2."""
        pts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(64, 2))
        for a, b in pts:
            if abs(self.g(a, -b) - self.g(a, b)) > 1e-12:
                raise ValueError(f"g is not even in b at (a={a:.4g}, b={b:.4g})")
            if abs(self.h(a, -b) + self.h(a, b)) > 1e-12:
                raise ValueError(f"h is not odd in b at (a={a:.4g}, b={b:.4g})")


def center_planar_field() -> PlanarField:
    """The reference counterexample field: a center around (a, b) = (0, 1)."""
    return PlanarField(g=lambda a, b: 0.5 * (1.0 - b * b), h=lambda a, b: a * b)


def embed_planar(pf: PlanarField) -> GeneralNonlinearity:
    """Reaction term realizing the planar field inside span{cos x, sin x}.

    The returned nonlinearity satisfies the single reflection symmetry
    f(-x, u, -p) = f(x, u, p) and, on the circle of length 2*pi, reduces
    the PDE restricted to the first Fourier modes to the planar system.
    """
    pf.verify_symmetry()
    g, h = pf.g, pf.h
    fd_step = 1e-6

    def _ab(x, u, p):
        c, s = np.cos(x), np.sin(x)
        return u * c - p * s, u * s + p * c, c, s

    def f(x, u, p):
        a, b, c, s = _ab(x, u, p)
        return (a + g(a, b)) * c + (b + h(a, b)) * s

    def f_p(x, u, p):
        a, b, c, s = _ab(x, u, p)
        ga = (g(a + fd_step, b) - g(a - fd_step, b)) / (2 * fd_step)
        gb = (g(a, b + fd_step) - g(a, b - fd_step)) / (2 * fd_step)
        ha = (h(a + fd_step, b) - h(a - fd_step, b)) / (2 * fd_step)
        hb = (h(a, b + fd_step) - h(a, b - fd_step)) / (2 * fd_step)
        # da/dp = -s, db/dp = c
        return ((-s) * (1 + ga) + c * gb) * c + ((-s) * ha + (c) * (1 + hb)) * s

    return GeneralNonlinearity(f=f, f_p=f_p, x_periodic=True)


def fourier_project(fld: ScalarField, mode: int) -> tuple[float, float]:
    """Cosine and sine coefficients of the given mode on a 2*pi circle."""
    if fld.bc != PERIODIC:
        raise ValueError("Fourier projection needs a periodic field")
    if abs(fld.domain_length - 2 * np.pi) > 1e-9:
        raise ValueError("Fourier projection is defined on a circle of length 2*pi")
    x = fld.grid()
    h = fld.dx
    a = float(np.dot(fld.values, np.cos(mode * x)) * h / np.pi)
    b = float(np.dot(fld.values, np.sin(mode * x)) * h / np.pi)
    return a, b


def planar_orbit(pf: PlanarField, a0: float, b0: float):
    """The planar solution through (a0, b0) and its return period.

    Returns ``(at, period)``: ``at(t)`` gives the rows a, b at the times t
    (any shape), lane k along t_k * s for s in [0, 1] of one
    :func:`circlyap.charflow._solve_lanes`. The period is the first return
    to the section a = a0 in the start's direction within t = 50: bracketed
    on a t-grid over [0, 10], or [0, 50] if that holds none, then Newton on
    a(T) = a0.
    """
    rows = [(1, lambda t, a, b: pf.g(a, b)), (1, lambda t, a, b: pf.h(a, b))]
    at = partial(_solve_lanes, rows, starts=(a0, b0), span=(0.0, 1.0),
                 cfg=_PROFILE_CFG, label="planar orbit", names="t, a, b")
    direction = np.sign(pf.g(a0, b0))
    for ts in (np.linspace(0.0, 10.0, 101), np.linspace(0.0, 50.0, 501)):
        gap = (at(ts)[0] - a0) * direction
        hits = np.flatnonzero((gap[:-1] < 0) & (gap[1:] >= 0))
        if hits.size:
            break
    else:
        raise RuntimeError("planar orbit did not return to the section; not periodic?")
    period = float(ts[hits[0] + 1])
    for _ in range(20):
        a, b = at(period)
        step = (a - a0) / pf.g(a, b)
        period -= step
        if abs(step) <= 1e-12 * period:
            break
    return at, float(period)


# ---------------------------------------------------------------------------
# equilibrium profiles on the circle

_PROFILE_CFG = CharflowConfig(rel_tol=1e-12, abs_tol=1e-14)


def equilibrium_profile(lam: float, ell: float, n: int) -> np.ndarray:
    """One-lap stationary profile of u'' + lam*u*(1-u^2) = 0 with period
    ``ell``, from its maximum (A, 0), sampled on the periodic grid of n
    points; it exists for lam > (2*pi/ell)^2.

    Each solve runs 64 amplitudes to x = ell/2 as lanes of
    :func:`circlyap.charflow.solve_profile_flow`; the bracket becomes the
    largest one that has turned back (p(ell/2) > 0) and its upper
    neighbour, down to 1e-12. The half profile on [0, ell/2] decreases
    strictly for lam * ell^2 up to about 1800. Beyond, 1 - A nears
    rounding: a profile of more than one lap, or one whose half rises by
    more than 1e-12 anywhere, is a RuntimeError.
    """
    if lam <= (2 * np.pi / ell) ** 2:
        raise ValueError("no nonconstant profile: lam must exceed (2*pi/ell)^2")
    f = general_from_o2(chafee_infante_nl(lam)).f
    label = f"lam={lam:g} equilibrium profile"
    # 64 lanes between the ends, first spread evenly in -log(1 - A), in
    # which the half period grows about linearly, so that one lane's lies
    # in (ell/4, ell/2)
    grid = -np.expm1(-np.linspace(0.0, 36.0, 66))
    while True:
        _, p = solve_profile_flow(f, np.full(64, 0.5 * ell), grid[1:-1], 0.0,
                                  (0.0, 1.0), _PROFILE_CFG, label)
        # grid[0] is 0 or turned on an earlier solve
        turned = np.flatnonzero(p > 0)
        j = turned[-1] + 1 if turned.size else 0
        lo, hi = grid[j], grid[j + 1]
        if hi - lo < 1e-12:
            break
        grid = np.linspace(lo, hi, 66)
    # even about x = 0 and ell-periodic, so u(ell - x) = u(x)
    half = solve_profile_flow(f, np.arange(n // 2 + 1) * (ell / n),
                              0.5 * (lo + hi), 0.0, (0.0, 1.0),
                              _PROFILE_CFG, label)[0]
    # a one-lap profile changes sign at most once on [0, ell/2]
    if np.count_nonzero(np.diff(half > 0)) > 1:
        raise RuntimeError(f"the lam={lam:g} profile found is not one-lap")
    # and decreases from its maximum at 0 to its minimum at ell/2
    rise = np.diff(half).max()
    if rise > 1e-12:
        raise RuntimeError(f"the lam={lam:g} profile found rises by "
                           f"{rise:.3g} on [0, ell/2]")
    return np.concatenate([half, half[(n - 1) // 2:0:-1]])


# ---------------------------------------------------------------------------
# initial conditions

# the keys each initial-condition kind reads besides "kind"
_INITIAL_KEYS = {"fourier_modes": {"modes"},
                 "random_smooth": {"seed", "amplitude", "n_modes"},
                 "from_file": {"path"}}


def make_initial(spec: dict, n: int, ell: float, bc: str) -> ScalarField:
    """Named initial-condition generators.

    kinds: ``fourier_modes`` (explicit mode table; an interval takes sine
    coefficients only), ``random_smooth`` (seeded truncated random Fourier
    series with quadratic decay), ``from_file`` (snapshot CSV of a prior
    run, interpolated to the grid). A key the kind does not read is a
    ValueError.
    """
    kind = spec.get("kind", "random_smooth")
    if kind not in _INITIAL_KEYS:
        raise ValueError(f"unknown initial-condition kind: {kind!r}")
    unread = sorted(set(spec) - {"kind"} - _INITIAL_KEYS[kind])
    if unread:
        raise ValueError(f"initial kind {kind!r} has no key {unread[0]!r}; "
                         f"it reads {sorted(_INITIAL_KEYS[kind])}")
    x = ScalarField(np.zeros(n), ell, bc).grid()

    if kind == "fourier_modes":
        u = np.zeros(n)
        for mode, (ca, sa) in spec.get("modes", {}).items():
            k = int(mode)
            if bc == PERIODIC:
                u += ca * np.cos(2 * np.pi * k * x / ell) \
                    + sa * np.sin(2 * np.pi * k * x / ell)
            elif ca:
                raise ValueError(f"mode {mode}: a cosine coefficient needs "
                                 f"the circle; an interval takes sine modes")
            else:
                u += sa * np.sin(np.pi * k * x / ell)
        return ScalarField(u, ell, bc)

    if kind == "random_smooth":
        rng = np.random.default_rng(int(spec.get("seed", 0)))
        amp = float(spec.get("amplitude", 0.5))
        m = int(spec.get("n_modes", 8))
        u = np.zeros(n)
        for k in range(1, m + 1):
            ca, sa = rng.standard_normal(2)
            decay = amp / k**2
            if bc == PERIODIC:
                u += decay * (ca * np.cos(2 * np.pi * k * x / ell)
                              + sa * np.sin(2 * np.pi * k * x / ell))
            else:
                u += decay * sa * np.sin(np.pi * k * x / ell)
        return ScalarField(u, ell, bc)

    data = np.loadtxt(spec["path"], delimiter=",", skiprows=1)
    u = np.interp(x, data[:, 0], data[:, 1],
                  period=ell if bc == PERIODIC else None)
    if bc == DIRICHLET:
        u[0] = u[-1] = 0.0
    return ScalarField(u, ell, bc)


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ScenarioConfig:
    scenario: str
    params: dict = field(default_factory=dict)
    solver: SolverConfig = field(default_factory=SolverConfig)
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    charflow: CharflowConfig = SCENARIO_CHARFLOW
    # None for the scenarios in OWN_START; the others default to a seeded
    # random_smooth field
    initial: dict | None = None
    output_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"known: {sorted(SCENARIOS)}")
        defaults = SCENARIOS[self.scenario][1]
        for k, v in self.params.items():
            if k not in defaults:
                raise ValueError(f"scenario {self.scenario!r} has no "
                                 f"parameter {k!r}; it reads {list(defaults)}")
            if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                    or not math.isfinite(v):
                raise ValueError(f"params.{k} = {v!r} is not a finite number")
            if v <= 0 and k in ("ell", "a_const") or v < 0 and k == "burn_in":
                raise ValueError(f"params.{k} = {v!r} is out of range (ell "
                                 f"and a_const > 0, burn_in >= 0)")
        self.params = {k: float(self.params.get(k, v))
                       for k, v in defaults.items()}
        if self.scenario in OWN_START:
            if self.initial is not None:
                raise ValueError(f"scenario {self.scenario!r} builds its own "
                                 f"start and reads no 'initial'")
        elif self.initial is None:
            self.initial = {"kind": "random_smooth", "seed": 0}

    def to_dict(self) -> dict:
        d = {
            "format_version": FORMAT_VERSION,
            "scenario": self.scenario,
            "params": self.params,
            "solver": asdict(self.solver),
            "quadrature": asdict(self.quadrature),
            "charflow": asdict(self.charflow),
            "output_path": self.output_path,
        }
        if self.initial is not None:
            d["initial"] = self.initial
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        known = ["format_version"] + [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(known))
        if unknown:
            raise ValueError(f"config has no key {unknown[0]!r}; its keys "
                             f"are {known}")
        version = d.get("format_version", FORMAT_VERSION)
        if isinstance(version, bool) or version != FORMAT_VERSION:
            raise ValueError(f"format_version {version!r} is not "
                             f"{FORMAT_VERSION}, the one this code reads")
        initial = d.get("initial")
        return cls(
            scenario=d["scenario"],
            params=dict(d.get("params", {})),
            solver=SolverConfig(**d.get("solver", {})),
            quadrature=QuadratureConfig(**d.get("quadrature", {})),
            # a partial section keeps the scenario tolerances for the rest
            charflow=replace(SCENARIO_CHARFLOW, **d.get("charflow", {})),
            initial=None if initial is None else dict(initial),
            output_path=d.get("output_path"),
        )


def parse_config(path) -> ScenarioConfig:
    return ScenarioConfig.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# monitors

def shift_match(u_ref: np.ndarray, u: np.ndarray, ell: float):
    """Best cyclic alignment of u against u_ref.

    Returns (theta, sup_mismatch): the estimated right-shift of the profile
    in (-ell/2, ell/2] (sub-grid, by parabolic refinement of the
    cross-correlation peak) and the sup-norm mismatch at the best integer
    grid shift.
    """
    n = u_ref.size
    h = ell / n
    corr = np.real(np.fft.ifft(np.fft.fft(u) * np.conj(np.fft.fft(u_ref))))
    s0 = int(np.argmax(corr))
    cm, c0, cp = corr[(s0 - 1) % n], corr[s0], corr[(s0 + 1) % n]
    denom = cm - 2 * c0 + cp
    frac = 0.0 if denom == 0 else 0.5 * (cm - cp) / denom
    theta = ((s0 + frac) * h) % ell
    if theta > ell / 2:
        theta -= ell
    mismatch = float(np.min([np.max(np.abs(u - np.roll(u_ref, s)))
                             for s in range(n)]))
    return theta, mismatch


def _lyapunov_series(traj: TrajectoryRecord, report) -> dict:
    """V, dissipation, min L_pp and the centred decay residual at every
    save, from ``report(snapshot, u_t)``; rows of NaN where ``report`` is
    None. A characteristic escape or integration failure is re-raised as it
    is, with "at save k, t=..." added to its message."""
    ts = traj.times
    if report is None:
        rows = np.full((len(ts), 3), np.nan)
    else:
        rows = []
        for k, (t, snap, ut) in enumerate(zip(ts, traj.snapshots,
                                              traj.u_t_snapshots)):
            try:
                rows.append(report(snap, ut))
            except (CharacteristicEscape, IntegrationFailure) as exc:
                exc.args = (f"{exc} at save {k}, t={t:.6g}",)
                raise
    V, D, convexity_min = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
    return {
        "V": V,
        "dissipation": D,
        "residual": decay_residual(ts, V, D),
        "convexity_min": convexity_min,
        "ut_inf": np.array([np.max(np.abs(ut.values))
                            for ut in traj.u_t_snapshots]),
    }


# ---------------------------------------------------------------------------
# scenario execution

def _build_scenario(cfg: ScenarioConfig):
    """Returns (general nonlinearity, diffusion coeff, initial field,
    report, extras builder, solver config).

    ``report(snapshot, u_t)`` gives the snapshot's ``FunctionalReport``
    under the scenario's construction, or is None where no Lyapunov
    functional applies; the extras builder maps a trajectory to its
    scenario-specific monitors, or is None. Evaluators are built here,
    once per run.
    """
    p = cfg.params
    n = cfg.solver.n

    if cfg.scenario == "planar_embedding":
        pf = center_planar_field()
        gen = embed_planar(pf)
        x = np.arange(n) * (2 * np.pi / n)
        c, s = np.cos(x), np.sin(x)
        u0 = ScalarField(p["a0"] * c + p["b0"] * s, 2 * np.pi, PERIODIC)
        at, period = planar_orbit(pf, p["a0"], p["b0"])
        # land the final step exactly on the orbit period
        steps = int(np.ceil(period / (cfg.solver.dt or 2e-3)))
        solver = replace(cfg.solver, t_end=period, dt=period / steps)

        def extras(traj):
            ab_pde, off_e = [], []
            for snap in traj.snapshots:
                a, b = fourier_project(snap, 1)
                ab_pde.append((a, b))
                resid = snap.values - a * c - b * s
                nrm = np.linalg.norm(snap.values) or 1.0
                off_e.append(np.linalg.norm(resid) / nrm)
            ab_pde, ab_ode = np.array(ab_pde), at(traj.times).T
            u_start = traj.snapshots[0].values
            u_end = traj.snapshots[-1].values
            return {
                "period": period,
                "ab_pde": ab_pde,
                "ab_ode": ab_ode,
                "fourier_match": float(np.max(np.abs(ab_pde - ab_ode))),
                "off_mode_residual": np.array(off_e),
                "period_return": float(np.max(np.abs(u_end - u_start))
                                       / np.max(np.abs(u_start))),
            }

        return gen, None, u0, None, extras, solver

    ell = p["ell"]

    def circle(nl, a_const=None, u0=None, gen=None, reported=True,
               extras=None):
        # fbar on the circle, unless ``gen`` replaces it; with a_const, L is
        # built on fbar / a_const and the dissipation weighed by 1 / a_const
        a_bar = None if a_const is None else constant_coefficient_nl(a_const)
        report = None
        if reported:
            ev = LagrangianEvaluator(
                nl if a_bar is None else effective_nonlinearity(nl, a_bar),
                cfg.charflow, cfg.quadrature)
            report = partial(field_report, ev, weight_a=a_bar)
        return (gen or general_from_o2(nl), a_const,
                u0 or make_initial(cfg.initial, n, ell, PERIODIC), report,
                extras, cfg.solver)

    if cfg.scenario == "chafee_infante":
        return circle(chafee_infante_nl(p["lam"]))

    if cfg.scenario == "gradient_quadratic":
        return circle(gradient_quadratic_nl(p["b"], p["slope"]))

    if cfg.scenario == "qlinear":
        return circle(chafee_infante_nl(p["lam"]), p["a_const"])

    if cfg.scenario in ("frozen_wave", "rotating_wave"):
        frozen = cfg.scenario == "frozen_wave"

        def extras(traj):
            u_start = traj.snapshots[0].values
            theta, mismatch = map(np.array, zip(*(
                shift_match(u_start, snap.values, ell)
                for snap in traj.snapshots)))
            out = {"theta": theta, "shift_mismatch": mismatch}
            t_final = traj.times[-1]
            if frozen:
                out["profile_drift"] = float(
                    np.max(np.abs(traj.snapshots[-1].values - u_start)))
            elif t_final > 0:
                out["speed_estimate"] = (np.unwrap(theta, period=ell)[-1]
                                         / t_final)
            return out

        nl = chafee_infante_nl(p["lam"])
        gen = None
        if not frozen:
            # the drift term - c * u_x breaks the reflection symmetry: no
            # Lyapunov series
            base, c = general_from_o2(nl), p["c"]
            gen = GeneralNonlinearity(
                f=lambda x, u, pp: base.f(x, u, pp) - c * pp,
                f_p=lambda x, u, pp: base.f_p(x, u, pp) - c)
        return circle(nl, u0=ScalarField(equilibrium_profile(p["lam"], ell, n),
                                         ell, PERIODIC),
                      gen=gen, reported=frozen, extras=extras)

    # matano_separated
    lam, eps = p["lam"], p["eps"]
    gen = GeneralNonlinearity(
        f=lambda x, u, pp: lam * u * (1.0 - u * u) + eps * pp,
        f_p=lambda x, u, pp: eps,
        x_periodic=False,
    )
    u0 = make_initial(cfg.initial, n, ell, DIRICHLET)
    ev = matano.SeparatedEvaluator(gen, cfg.charflow, cfg.quadrature)
    return gen, None, u0, partial(matano.field_report, ev), None, cfg.solver


def _resolve_output_dir(cfg: ScenarioConfig) -> Path:
    """Where a run's files go: the config's ``output_path``, else
    ``$CIRCLYAP_OUTPUT_ROOT/<scenario>``, else ``runs/<scenario>``."""
    if cfg.output_path:
        return Path(cfg.output_path)
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
    return root / cfg.scenario


def _write_csv(path: Path, header: str, columns: list) -> None:
    """The formatted ``columns`` under ``header`` as csv.writer writes them:
    no field of a run needs quoting, and lines end in CRLF."""
    lines = [header, *map(",".join, zip(*columns))]
    path.write_text("\r\n".join(lines) + "\r\n", newline="")


def _write_outputs(out_dir: Path, cfg: ScenarioConfig, traj: TrajectoryRecord,
                   extras: dict) -> None:
    """Every file of a run, from its trajectory and the extras
    :func:`run_scenario` fills in; ``error.json`` where the run failed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "t,V,dissipation,residual,convexity_min,ut_inf"
    columns = [traj.times, *(extras[k] for k in header.split(",")[1:])]
    if "ab_pde" in extras:
        header += ",a_mode,b_mode"
        columns += list(np.asarray(extras["ab_pde"]).T)
    _write_csv(out_dir / "series.csv", header,
               [[f"{v:.12g}" if math.isfinite(v) else ""
                 for v in np.asarray(col, dtype=float).tolist()]
                for col in columns])
    # one grid for every snapshot of a trajectory
    snaps = traj.snapshots
    grid = [f"{x:.12g}" for x in snaps[0].grid().tolist()] if snaps else []
    for k, snap in enumerate(snaps):
        _write_csv(out_dir / f"snapshot_{k:04d}.csv", "x,u",
                   [grid, [f"{u:.17g}" for u in snap.values.tolist()]])
    manifest = {
        "format_version": FORMAT_VERSION,
        "status": extras["status"],
        "config": cfg.to_dict(),
        "n_saves": len(traj.times),
        "t_final": float(traj.times[-1]) if len(traj.times) else None,
        "blowup_time": traj.blowup_time,
    }
    scalar_extras = {k: float(v) for k, v in extras.items()
                     if isinstance(v, (int, float, np.floating, np.integer))}
    if scalar_extras:
        manifest["extras"] = scalar_extras
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if "error" in extras:
        record = {"status": extras["status"], "error": extras["error"]}
        if traj.blew_up:
            # a failed construction must not hide the blow-up before it
            record.update(blowup=traj.message, blowup_time=traj.blowup_time)
        (out_dir / "error.json").write_text(json.dumps(record, indent=2) + "\n")


def burn_in_config(solver_cfg: SolverConfig, burn_in: float, a_coeff,
                   h: float) -> SolverConfig:
    """Solver config of the discarded burn-in to t = ``burn_in``.

    With a constant diffusion coefficient the burn-in runs ETDRK4 at the
    monitored run's save interval, shortened to divide ``burn_in``, so it
    lands exactly there; a callable coefficient keeps the configured
    scheme and step. ``h`` is the grid spacing, for the default step.
    """
    if constant_coefficient(a_coeff) is None:
        return replace(solver_cfg, t_end=burn_in, save_every=10**9)
    interval = solver_cfg.save_every * time_step(solver_cfg, h, a_coeff)
    # tolerate round-off when burn_in is an exact multiple of the interval
    steps = math.ceil(burn_in / interval - 1e-9)
    return replace(solver_cfg, scheme=ETDRK4, dt=burn_in / steps,
                   t_end=burn_in, save_every=10**9)


class ConfigError(ValueError):
    """A config that parses, for a scenario that cannot be built."""


def run_scenario(cfg: ScenarioConfig, write: bool = True):
    """Integrate a scenario and attach its monitors.

    Returns (trajectory, extras). ``extras['status']`` is one of "ok",
    "blowup" or "construction_failure"; on failure the partial series is
    still emitted together with a machine-readable error record
    (``error.json``) that says what failed, where and when. A scenario
    that cannot be built raises :class:`ConfigError`, also where the
    equilibrium profile or the planar orbit it starts from is not found.
    """
    try:
        gen, a_coeff, u0, report, extras_fn, solver_cfg = _build_scenario(cfg)
    except (ValueError, KeyError, RuntimeError) as exc:
        raise ConfigError(f"scenario {cfg.scenario!r}: {exc}") from exc
    # None where the scenario declares no burn-in
    burn_in = cfg.params.get("burn_in")
    traj = None
    if burn_in:
        # evolve past the fast initial transient before monitoring starts,
        # so the centered time differences see a resolved signal
        pre_cfg = burn_in_config(solver_cfg, burn_in, a_coeff, u0.dx)
        pre = integrate(gen, a_coeff, u0, pre_cfg)
        if pre.blew_up:
            # nothing left to monitor
            traj, report, extras_fn = pre, None, None
        else:
            u0 = pre.snapshots[-1]
    if traj is None:
        traj = integrate(gen, a_coeff, u0, solver_cfg)
    status = "blowup" if traj.blew_up else "ok"
    error = traj.message
    try:
        series = _lyapunov_series(traj, report)
        extras = extras_fn(traj) if extras_fn else {}
    except (CharacteristicEscape, IntegrationFailure) as exc:
        status, error = "construction_failure", str(exc)
        series = _lyapunov_series(traj, None)
        extras = {}
    extras = {**series, **extras, "status": status}
    if error:
        extras["error"] = error
    if write:
        out_dir = _resolve_output_dir(cfg)
        _write_outputs(out_dir, cfg, traj, extras)
        extras["output_dir"] = str(out_dir)
    return traj, extras
