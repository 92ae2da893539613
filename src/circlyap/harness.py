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

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .charflow import (
    DEFAULT_CONFIG,
    CharacteristicEscape,
    CharflowConfig,
    IntegrationFailure,
    NonlinearityO2,
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

SCENARIOS = {
    "classical": "gradient reaction-diffusion with a q-independent nonlinearity",
    "chafee_infante": "cubic nonlinearity lam*u*(1-u^2) on the circle",
    "frozen_wave": "nonhomogeneous equilibrium profile held frozen on the circle",
    "rotating_wave": "frozen profile advected by an SO(2)-only drift term",
    "gradient_quadratic": "nonlinearity a(u) + b*q, quadratic in the gradient",
    "qlinear": "quasilinear run with constant diffusion coefficient abar",
    "planar_embedding": "planar center field embedded in the first Fourier modes",
    "matano_separated": "separated-BC construction for f0(u) + eps*u_x (Dirichlet)",
}


# ---------------------------------------------------------------------------
# nonlinearity builders

def chafee_infante_nl(lam: float) -> NonlinearityO2:
    return NonlinearityO2(
        f_bar=lambda u, q: lam * u * (1.0 - u * u),
        f_bar_q=lambda u, q: np.zeros_like(np.asarray(q, dtype=float)),
        label=f"chafee_infante(lam={lam})",
    )


def gradient_quadratic_nl(b: float = 1.0, slope: float = -1.0) -> NonlinearityO2:
    """fbar(u, q) = slope * u + b * q, quadratic in the gradient."""
    return NonlinearityO2(
        f_bar=lambda u, q: slope * u + b * np.asarray(q, dtype=float),
        f_bar_q=lambda u, q: np.full_like(np.asarray(q, dtype=float), b),
        label=f"gradient_quadratic(b={b}, slope={slope})",
    )


def constant_coefficient_nl(value: float) -> NonlinearityO2:
    return NonlinearityO2(
        f_bar=lambda u, q: np.full_like(np.asarray(q, dtype=float), value),
        f_bar_q=lambda u, q: np.zeros_like(np.asarray(q, dtype=float)),
        label=f"const({value})",
    )


def general_from_o2(nl: NonlinearityO2, drift: float = 0.0) -> GeneralNonlinearity:
    """Reaction term f(x, u, p) = fbar(u, p^2/2) - drift * p."""
    return GeneralNonlinearity(
        f=lambda x, u, p: nl.f_bar(u, 0.5 * p * p) - drift * p,
        f_p=lambda x, u, p: nl.f_bar_q(u, 0.5 * p * p) * p - drift,
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

    def verify_symmetry(self, n_samples: int = 64, seed: int = 0,
                        tol: float = 1e-12) -> None:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2.0, 2.0, size=(n_samples, 2))
        for a, b in pts:
            if abs(self.g(a, -b) - self.g(a, b)) > tol:
                raise ValueError(f"g is not even in b at (a={a:.4g}, b={b:.4g})")
            if abs(self.h(a, -b) + self.h(a, b)) > tol:
                raise ValueError(f"h is not odd in b at (a={a:.4g}, b={b:.4g})")


def center_planar_field() -> PlanarField:
    """The reference counterexample field: a center around (a, b) = (0, 1)."""
    return PlanarField(g=lambda a, b: 0.5 * (1.0 - b * b), h=lambda a, b: a * b)


def embed_planar(pf: PlanarField, fd_step: float = 1e-6) -> GeneralNonlinearity:
    """Reaction term realizing the planar field inside span{cos x, sin x}.

    The returned nonlinearity satisfies the single reflection symmetry
    f(-x, u, -p) = f(x, u, p) and, on the circle of length 2*pi, reduces
    the PDE restricted to the first Fourier modes to the planar system.
    """
    pf.verify_symmetry()
    g, h = pf.g, pf.h

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


def planar_orbit(pf: PlanarField, a0: float, b0: float,
                 t_max: float = 50.0, rtol: float = 1e-11):
    """Dense planar solution through (a0, b0) and its return period.

    The period is detected as the first return to the section a = a0 with
    the velocity direction of the start point.
    """
    from scipy.integrate import solve_ivp

    g0 = pf.g(a0, b0)
    direction = 1.0 if g0 > 0 else -1.0

    def rhs(t, y):
        return [pf.g(y[0], y[1]), pf.h(y[0], y[1])]

    def section(t, y):
        return y[0] - a0

    section.direction = direction

    sol = solve_ivp(rhs, (0.0, t_max), (a0, b0), method="RK45",
                    rtol=rtol, atol=1e-13, dense_output=True, events=section)
    hits = sol.t_events[0]
    hits = hits[hits > 1e-6]
    if hits.size == 0:
        raise RuntimeError("planar orbit did not return to the section; not periodic?")
    return sol, float(hits[0])


# ---------------------------------------------------------------------------
# equilibrium profiles on the circle

def equilibrium_profile(lam: float, ell: float, n: int,
                        tol: float = 1e-12) -> np.ndarray:
    """Nonconstant stationary profile of u'' + lam*u*(1-u^2) = 0 with
    period ``ell``, sampled on the periodic grid of n points.

    Exists for lam > (2*pi/ell)^2; found by bisection on the amplitude of
    the conservative profile equation (the half period grows monotonically
    with amplitude).
    """
    if lam <= (2 * np.pi / ell) ** 2:
        raise ValueError("no nonconstant profile: lam must exceed (2*pi/ell)^2")
    from scipy.integrate import solve_ivp

    def half_period(A):
        def rhs(x, y):
            return [y[1], -lam * y[0] * (1.0 - y[0] ** 2)]

        def turning(x, y):
            return y[1]

        turning.terminal = True
        turning.direction = 1.0
        sol = solve_ivp(rhs, (0.0, 10.0 * ell), (A, 0.0), method="RK45",
                        rtol=1e-12, atol=1e-14, events=turning)
        if sol.t_events[0].size == 0:
            return np.inf
        return float(sol.t_events[0][0])

    lo, hi = 1e-6, 1.0 - 1e-9
    target = 0.5 * ell
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if half_period(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    A = 0.5 * (lo + hi)

    def rhs(x, y):
        return [y[1], -lam * y[0] * (1.0 - y[0] ** 2)]

    sol = solve_ivp(rhs, (0.0, ell), (A, 0.0), method="RK45",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    xs = np.arange(n) * (ell / n)
    return sol.sol(xs)[0]


# ---------------------------------------------------------------------------
# initial conditions

def make_initial(spec: dict, n: int, ell: float, bc: str) -> ScalarField:
    """Named initial-condition generators.

    kinds: ``fourier_modes`` (explicit mode table), ``random_smooth``
    (seeded truncated random Fourier series with quadratic decay),
    ``from_file`` (snapshot CSV of a prior run, interpolated to the grid).
    """
    kind = spec.get("kind", "random_smooth")
    if bc == PERIODIC:
        x = np.arange(n) * (ell / n)
    else:
        x = np.linspace(0.0, ell, n)

    if kind == "fourier_modes":
        u = np.zeros(n)
        for mode, (ca, sa) in spec.get("modes", {}).items():
            k = int(mode)
            if bc == PERIODIC:
                u += ca * np.cos(2 * np.pi * k * x / ell) \
                    + sa * np.sin(2 * np.pi * k * x / ell)
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

    if kind == "from_file":
        data = np.loadtxt(spec["path"], delimiter=",", skiprows=1)
        u = np.interp(x, data[:, 0], data[:, 1],
                      period=ell if bc == PERIODIC else None)
        if bc == DIRICHLET:
            u[0] = u[-1] = 0.0
        return ScalarField(u, ell, bc)

    raise ValueError(f"unknown initial-condition kind: {kind!r}")


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ScenarioConfig:
    scenario: str
    params: dict = field(default_factory=dict)
    solver: SolverConfig = field(default_factory=SolverConfig)
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    charflow: CharflowConfig = field(default_factory=CharflowConfig)
    initial: dict = field(default_factory=lambda: {"kind": "random_smooth", "seed": 0})
    output_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"known: {sorted(SCENARIOS)}")

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "scenario": self.scenario,
            "params": self.params,
            "solver": asdict(self.solver),
            "quadrature": asdict(self.quadrature),
            "charflow": asdict(self.charflow),
            "initial": self.initial,
            "output_path": self.output_path,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        return cls(
            scenario=d["scenario"],
            params=dict(d.get("params", {})),
            solver=SolverConfig(**d.get("solver", {})),
            quadrature=QuadratureConfig(**d.get("quadrature", {})),
            charflow=CharflowConfig(**d.get("charflow", {})),
            initial=dict(d.get("initial", {"kind": "random_smooth", "seed": 0})),
            output_path=d.get("output_path"),
        )


def emit_config(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def parse_config(path) -> ScenarioConfig:
    return ScenarioConfig.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# monitors

def shift_match(u_ref: np.ndarray, u: np.ndarray, ell: float):
    """Best cyclic alignment of u against u_ref.

    Returns (theta, sup_mismatch): the estimated right-shift of the profile
    (sub-grid, by parabolic refinement of the cross-correlation peak) and
    the sup-norm mismatch at the best integer grid shift.
    """
    n = u_ref.size
    h = ell / n
    corr = np.real(np.fft.ifft(np.fft.fft(u) * np.conj(np.fft.fft(u_ref))))
    s0 = int(np.argmax(corr))
    cm, c0, cp = corr[(s0 - 1) % n], corr[s0], corr[(s0 + 1) % n]
    denom = cm - 2 * c0 + cp
    frac = 0.0 if denom == 0 else 0.5 * (cm - cp) / denom
    theta = ((s0 + frac) * h) % ell
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
    ell = float(p.get("ell", 1.0))
    n = cfg.solver.n

    if cfg.scenario in ("classical", "chafee_infante"):
        lam = float(p.get("lam", 1.0 if cfg.scenario == "classical" else 15.0))
        nl = chafee_infante_nl(lam)
        u0 = make_initial(cfg.initial, n, ell, PERIODIC)
        ev = LagrangianEvaluator(nl, cfg.charflow, cfg.quadrature)
        return general_from_o2(nl), None, u0, partial(field_report, ev), \
            None, cfg.solver

    if cfg.scenario == "gradient_quadratic":
        b = float(p.get("b", 1.0))
        slope = float(p.get("slope", -1.0))
        nl = gradient_quadratic_nl(b, slope)
        u0 = make_initial(cfg.initial, n, ell, PERIODIC)
        ev = LagrangianEvaluator(nl, cfg.charflow, cfg.quadrature)
        return general_from_o2(nl), None, u0, partial(field_report, ev), \
            None, cfg.solver

    if cfg.scenario == "qlinear":
        lam = float(p.get("lam", 15.0))
        a_const = float(p.get("a_const", 2.0))
        nl = chafee_infante_nl(lam)
        a_bar = constant_coefficient_nl(a_const)
        eff = effective_nonlinearity(nl, a_bar)
        u0 = make_initial(cfg.initial, n, ell, PERIODIC)
        ev = LagrangianEvaluator(eff, cfg.charflow, cfg.quadrature)
        return general_from_o2(nl), a_const, u0, \
            partial(field_report, ev, weight_a=a_bar), None, cfg.solver

    if cfg.scenario in ("frozen_wave", "rotating_wave"):
        lam = float(p.get("lam", 50.0))
        drift = float(p.get("c", 0.0 if cfg.scenario == "frozen_wave" else 1.0))
        nl = chafee_infante_nl(lam)
        profile = equilibrium_profile(lam, ell, n)
        u0 = ScalarField(profile, ell, PERIODIC)
        ev = LagrangianEvaluator(nl, cfg.charflow, cfg.quadrature)

        def extras(traj):
            out = {}
            u_start = traj.snapshots[0].values
            thetas, mismatches = [], []
            for snap in traj.snapshots:
                th, mm = shift_match(u_start, snap.values, ell)
                thetas.append(th)
                mismatches.append(mm)
            out["theta"] = np.array(thetas)
            out["shift_mismatch"] = np.array(mismatches)
            t_final = traj.times[-1]
            if cfg.scenario == "rotating_wave" and t_final > 0:
                out["speed_estimate"] = out["theta"][-1] / t_final
            if cfg.scenario == "frozen_wave":
                out["profile_drift"] = float(
                    np.max(np.abs(traj.snapshots[-1].values - u_start)))
            return out

        if cfg.scenario == "frozen_wave":
            return general_from_o2(nl), None, u0, partial(field_report, ev), \
                extras, cfg.solver
        # the drift term breaks the reflection symmetry: no Lyapunov series
        return general_from_o2(nl, drift=drift), None, u0, None, extras, \
            cfg.solver

    if cfg.scenario == "planar_embedding":
        pf = center_planar_field()
        gen = embed_planar(pf)
        ell = 2 * np.pi
        a0 = float(p.get("a0", 0.2))
        b0 = float(p.get("b0", 1.1))
        x = np.arange(n) * (ell / n)
        u0 = ScalarField(a0 * np.cos(x) + b0 * np.sin(x), ell, PERIODIC)
        sol, period = planar_orbit(pf, a0, b0)
        if p.get("one_period", True):
            # land the final step exactly on the orbit period
            dt = cfg.solver.dt or 2e-3
            steps = int(np.ceil(period / dt))
            cfg = replace(cfg, solver=replace(cfg.solver, t_end=period,
                                              dt=period / steps))

        def extras(traj):
            c, s = np.cos(x), np.sin(x)
            ab_pde, ab_ode, off_e = [], [], []
            for t, snap in zip(traj.times, traj.snapshots):
                a, b = fourier_project(snap, 1)
                ab_pde.append((a, b))
                ab_ode.append(tuple(sol.sol(min(t, sol.t[-1]))))
                resid = snap.values - a * c - b * s
                nrm = np.linalg.norm(snap.values) or 1.0
                off_e.append(np.linalg.norm(resid) / nrm)
            ab_pde, ab_ode = np.array(ab_pde), np.array(ab_ode)
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

        return gen, None, u0, None, extras, cfg.solver

    if cfg.scenario == "matano_separated":
        lam = float(p.get("lam", 5.0))
        eps = float(p.get("eps", 0.5))
        gen = GeneralNonlinearity(
            f=lambda x, u, pp: lam * u * (1.0 - u * u) + eps * pp,
            f_p=lambda x, u, pp: np.full_like(np.asarray(pp, dtype=float), eps),
            x_periodic=False,
        )
        u0 = make_initial(cfg.initial, n, ell, DIRICHLET)
        ev = matano.SeparatedEvaluator(gen, cfg.charflow, cfg.quadrature)
        return gen, None, u0, partial(matano.field_report, ev), None, \
            cfg.solver

    raise ValueError(f"unknown scenario {cfg.scenario!r}")


def _resolve_output_dir(cfg: ScenarioConfig) -> Path:
    if cfg.output_path:
        return Path(cfg.output_path)
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
    return root / cfg.scenario


def _write_outputs(out_dir: Path, cfg: ScenarioConfig, traj: TrajectoryRecord,
                   series: dict, extras: dict, status: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "series.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        header = ["t", "V", "dissipation", "residual", "convexity_min", "ut_inf"]
        has_modes = "ab_pde" in extras
        if has_modes:
            header += ["a_mode", "b_mode"]
        wr.writerow(header)
        for k, t in enumerate(traj.times):
            row = [t, series["V"][k], series["dissipation"][k],
                   series["residual"][k], series["convexity_min"][k],
                   series["ut_inf"][k]]
            if has_modes:
                row += list(extras["ab_pde"][k])
            wr.writerow([f"{v:.12g}" if np.isfinite(v) else "" for v in row])
    # the bytes csv.writer writes: numbers need no quoting, and rows end in
    # its terminator
    end = csv.excel.lineterminator
    for k, snap in enumerate(traj.snapshots):
        rows = "".join(f"{xi:.12g},{ui:.17g}{end}" for xi, ui in
                       zip(snap.grid().tolist(), snap.values.tolist()))
        with open(out_dir / f"snapshot_{k:04d}.csv", "w", newline="") as fh:
            fh.write(f"x,u{end}{rows}")
    manifest = {
        "format_version": FORMAT_VERSION,
        "status": status,
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


def run_scenario(cfg: ScenarioConfig, write: bool = True):
    """Integrate a scenario and attach its monitors.

    Returns (trajectory, extras). ``extras['status']`` is one of "ok",
    "blowup" or "construction_failure"; on failure the partial series is
    still emitted together with a machine-readable error record
    (``error.json``) that says what failed, where and when.
    """
    gen, a_coeff, u0, report, extras_fn, solver_cfg = _build_scenario(cfg)
    burn_in = float(cfg.params.get("burn_in", 0.0))
    traj = None
    if burn_in > 0.0:
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
    extras = dict(extras)
    extras["status"] = status
    if error:
        extras["error"] = error
    for key in ("V", "dissipation", "residual", "convexity_min", "ut_inf"):
        extras.setdefault(key, series[key])
    if write:
        out_dir = _resolve_output_dir(cfg)
        _write_outputs(out_dir, cfg, traj, series, extras, status)
        if error:
            record = {"status": status, "error": error}
            if traj.blew_up:
                # a failed construction must not hide the blow-up before it
                record.update(blowup=traj.message,
                              blowup_time=traj.blowup_time)
            (out_dir / "error.json").write_text(
                json.dumps(record, indent=2) + "\n")
        extras["output_dir"] = str(out_dir)
    return traj, extras
