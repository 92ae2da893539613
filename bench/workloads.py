"""Workloads of the circlyap benchmark.

Every workload builds its inputs from the benchmark seed, runs one
execution through the library's public entry points and checks the outputs
with the tolerances of the acceptance gate (tests/test_acceptance.py),
unchanged. Why each workload exists, and which layer it leans on, is in
bench/README.md and BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from circlyap import charflow, harness, lagrangian, matano, pde
from circlyap.charflow import NonlinearityO2
from circlyap.functional import DIRICHLET, PERIODIC
from circlyap.pde import GeneralNonlinearity

RESIDUAL_TOL = 1e-3     # decay residual / max(1, |dV/dt|), criteria 04 and 08
IDENTITY_TOL = 1e-6     # form gap, exp F_q and F identities, defect, flow
STENCIL_TOL = 1e-4      # separated-BC defining-equation residual, criterion 08
WRONG_REFERENCE_FACTOR = 1.5


def _solver(n: int, saves: int, dt_save: float | None,
            save_every: int) -> dict:
    """Solver section with a uniform save grid of ``saves`` saves after t=0.

    With ``dt_save`` the step divides the save interval (as in the
    acceptance gate); without it the step is the default 0.4 h^2 and a save
    falls every ``save_every`` steps.
    """
    h2 = (1.0 / n) ** 2
    if dt_save is None:
        dt = 0.4 * h2
        return {"n": n, "dt": dt, "t_end": saves * save_every * dt,
                "save_every": save_every, "scheme": "rk4"}
    m = math.ceil(dt_save / (0.4 * h2))
    return {"n": n, "dt": dt_save / m, "t_end": saves * dt_save,
            "save_every": m, "scheme": "rk4"}


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario workload: ``ics`` scenario runs per execution, each
    from its own random_smooth initial condition."""

    scenario: str
    params: dict
    bc: str
    n: int
    saves: int
    ics: int
    dt_save: float | None = None
    save_every: int = 20
    quadrature: dict | None = None


# The work of the characteristic solves grows with the range of u, so every
# initial condition is scaled to the same sup norm; the seed still picks its
# shape. Several initial conditions per execution average out the rest of
# the seed's effect on the amount of work.
SUP_NORM = 0.5
SPECS = {
    "circle_burnin": ScenarioSpec(
        "chafee_infante", {"lam": 15.0, "burn_in": 0.05}, PERIODIC,
        n=256, saves=10, ics=1, dt_save=5e-4),
    "circle_dense_series": ScenarioSpec(
        "gradient_quadratic", {"b": 1.0, "slope": -1.0, "burn_in": 0.003},
        PERIODIC, n=256, saves=12, ics=4),
    "interval_separated": ScenarioSpec(
        "matano_separated", {"lam": 5.0, "eps": 0.5, "burn_in": 0.05},
        DIRICHLET, n=128, saves=2, ics=3, dt_save=1e-3,
        quadrature={"panels": 16, "nested_panels": 16}),
}
TINY_SPECS = {
    "circle_burnin": replace(SPECS["circle_burnin"], n=128, saves=4),
    "circle_dense_series": replace(SPECS["circle_dense_series"], n=128,
                                   saves=8, ics=1, save_every=10),
    "interval_separated": replace(SPECS["interval_separated"], saves=2,
                                  ics=1, quadrature={"panels": 4,
                                                     "nested_panels": 4}),
}


def scenario_configs(name: str, seed: int, tiny: bool,
                     work_dir: Path) -> list[dict]:
    """Config dictionaries (the JSON a user would write), one per initial
    condition; the seed picks the random_smooth seeds."""
    spec = (TINY_SPECS if tiny else SPECS)[name]
    out = []
    for i in range(spec.ics):
        ic_seed = seed * spec.ics + i
        shape = harness.make_initial(
            {"kind": "random_smooth", "seed": ic_seed, "amplitude": 1.0},
            spec.n, 1.0, spec.bc)
        cfg = {"format_version": harness.FORMAT_VERSION,
               "scenario": spec.scenario,
               "params": dict(spec.params),
               "initial": {"kind": "random_smooth", "seed": ic_seed,
                           "amplitude": SUP_NORM
                           / float(np.max(np.abs(shape.values)))},
               "solver": _solver(spec.n, spec.saves, spec.dt_save,
                                 spec.save_every),
               "output_path": str(work_dir / f"out{i}")}
        if spec.quadrature:
            cfg["quadrature"] = dict(spec.quadrature)
        out.append(cfg)
    return out


@dataclass
class Outcome:
    """Result of checking one execution."""

    errors: list[str]
    accuracy: dict[str, float]
    digest: str
    write_bytes: int = 0


# ---------------------------------------------------------------------------
# scenario workloads

def setup_scenario(name: str, seed: int, tiny: bool, work_dir: Path) -> list:
    """Config parse and scenario build, as a user's run pays them; returns
    the parsed configs."""
    cfgs = []
    for i, cfg_dict in enumerate(scenario_configs(name, seed, tiny,
                                                  work_dir)):
        path = work_dir / f"config{i}.json"
        path.write_text(json.dumps(cfg_dict, indent=2, sort_keys=True) + "\n")
        cfg = harness.parse_config(path)
        harness._build_scenario(cfg)
        cfgs.append(cfg)
    return cfgs


def execute_scenario(cfgs: list) -> list:
    return [harness.run_scenario(cfg, write=True) for cfg in cfgs]


def _residual_ratio(t, V, D) -> float:
    """max |centered dV/dt - D| / max(1, max |D|) over interior saves."""
    if t.size < 3 or not (np.all(np.isfinite(V)) and np.all(np.isfinite(D))):
        return math.inf
    res = np.abs((V[2:] - V[:-2]) / (t[2:] - t[:-2]) - D[1:-1])
    return float(np.max(res) / max(1.0, float(np.max(np.abs(D)))))


def check_scenario(cfgs: list, results: list, ref_factor: float) -> Outcome:
    """Status, decay residual, convexity; digest of the deterministic files.

    The residual is recomputed here from V and the dissipation (the
    reference for dV/dt), not read from the run's own residual column.
    """
    errors, ratio, cmin, written = [], 0.0, math.inf, 0
    digest = hashlib.sha256()
    for cfg, (traj, extras) in zip(cfgs, results):
        where = f"initial seed {cfg.initial['seed']}"
        if extras["status"] != "ok":
            errors.append(f"{where}: status {extras['status']} "
                          f"{extras.get('error', '')}")
        r = _residual_ratio(np.asarray(traj.times, dtype=float),
                            np.asarray(extras["V"], dtype=float),
                            ref_factor * np.asarray(extras["dissipation"],
                                                    dtype=float))
        if not r <= RESIDUAL_TOL:
            errors.append(f"{where}: residual ratio {r:.3e} "
                          f"> {RESIDUAL_TOL:g}")
        c = float(np.min(extras["convexity_min"]))
        if not c > 0.0:
            errors.append(f"{where}: convexity_min {c:.3e} is not positive")
        ratio, cmin = max(ratio, r), min(cmin, c)

        out_dir = Path(cfg.output_path)
        files = sorted(out_dir.glob("snapshot_*.csv"))
        if not files:
            errors.append(f"{where}: no snapshot files written")
        for path in [out_dir / "series.csv"] + files:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        written += sum(p.stat().st_size for p in out_dir.iterdir())
        shutil.rmtree(out_dir)
    return Outcome(errors, {"residual_ratio": ratio, "convexity_min": cmin},
                   digest.hexdigest(), written)


def rhs_us(cfgs: list, n: int, calls: int = 200) -> float:
    """Microseconds per pde.rhs call on the workload's equation at grid n,
    the median of five batches."""
    cfg = replace(cfgs[0], solver=replace(cfgs[0].solver, n=n))
    gen, a_coeff, u0, *_ = harness._build_scenario(cfg)
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            pde.rhs(gen, a_coeff, u0)
        per_call.append((time.perf_counter() - t0) / calls * 1e6)
    return float(np.median(per_call))


# ---------------------------------------------------------------------------
# pointwise queries: the scalar API, no PDE

def _mixed_nl(lam: float = 2.0, c: float = 1.0) -> NonlinearityO2:
    return NonlinearityO2(
        f_bar=lambda u, q: lam * u * (1.0 - u * u) + c * q * u,
        f_bar_q=lambda u, q: c * u + 0.0 * q,
        label=f"mixed(lam={lam},c={c})")


def _const_fp(value: float):
    return lambda x, u, p: np.full_like(np.asarray(p, dtype=float), value)


DRIFT_EPS = 0.5


@dataclass
class PointwisePlan:
    nls: list
    form_u: np.ndarray          # paired (u, p) samples; u values repeat
    form_p: np.ndarray
    ident_uq: np.ndarray        # (k, 2) rows of (u, q)
    flows: list                 # (u0, u1, um, qs) per nonlinearity sample
    stencils: np.ndarray        # (k, 3) rows of (x, u, p)
    separated: GeneralNonlinearity
    center: GeneralNonlinearity
    orbit_seed: tuple
    form_quad: lagrangian.QuadratureConfig
    ident_quad: lagrangian.QuadratureConfig
    stencil_quad: lagrangian.QuadratureConfig


def _strata(rng, lo: float, hi: float, k: int) -> np.ndarray:
    """One uniform draw in each of k equal bins of [lo, hi]: samples cover
    the range evenly, so the cost of a pass varies little with the seed."""
    return lo + (hi - lo) * (np.arange(k) + rng.uniform(size=k)) / k


def setup_pointwise(seed: int, tiny: bool) -> PointwisePlan:
    rng = np.random.default_rng(seed)
    n_u, n_p = (1, 2) if tiny else (3, 2)
    u_vals = _strata(rng, -2.0, 2.0, n_u)
    p_vals = _strata(rng, -3.0, 3.0, n_p)
    n_ident = 2 if tiny else 4
    ident = np.column_stack([_strata(rng, -2.0, 2.0, n_ident),
                             rng.permutation(_strata(rng, 0.0, 4.0,
                                                     n_ident))])
    flows = []
    for _ in range(2 if tiny else 5):
        u0, u1 = rng.uniform(-1.2, 1.2, size=2)
        um = rng.uniform(min(u0, u1), max(u0, u1))
        flows.append((u0, u1, um, rng.uniform(0.0, 2.0, size=100)))
    n_st = 1 if tiny else 4
    stencils = np.column_stack([_strata(rng, 0.2, 0.8, n_st),
                                rng.permutation(_strata(rng, -0.5, 0.5, n_st)),
                                rng.permutation(_strata(rng, -1.2, 1.2,
                                                        n_st))])
    orbit_seed = (float(rng.uniform(0.1, 0.5)), float(rng.uniform(-0.3, 0.3)))
    gl = lagrangian.GAUSS_LEGENDRE
    panels = 4 if tiny else 6
    return PointwisePlan(
        nls=[harness.chafee_infante_nl(2.0), _mixed_nl(2.0, 1.0)],
        form_u=np.repeat(u_vals, n_p), form_p=np.tile(p_vals, n_u),
        ident_uq=ident, flows=flows, stencils=stencils,
        separated=GeneralNonlinearity(
            f=lambda x, u, p: 5.0 * u * (1.0 - u * u) + 0.5 * p,
            f_p=_const_fp(0.5), x_periodic=False),
        center=GeneralNonlinearity(
            f=lambda x, u, p: (2 * np.pi) ** 2 * u + DRIFT_EPS * p,
            f_p=_const_fp(DRIFT_EPS), x_periodic=False),
        orbit_seed=orbit_seed,
        form_quad=lagrangian.QuadratureConfig(rule=gl, panels=16,
                                              nested_panels=16),
        ident_quad=lagrangian.QuadratureConfig(rule=gl, panels=32),
        stencil_quad=lagrangian.QuadratureConfig(panels=panels,
                                                 nested_panels=panels),
    )


def execute_pointwise(plan: PointwisePlan) -> dict:
    """One pass over every scalar query; evaluators are built fresh, so
    each execution starts with empty memo caches."""
    gaps = {"form": 0.0, "fq": 0.0, "F": 0.0, "flow": 0.0}
    values = []
    for nl in plan.nls:
        ev_d = lagrangian.LagrangianEvaluator(nl, quad_cfg=plan.form_quad,
                                              form=lagrangian.DOUBLE_INTEGRAL)
        ev_r = lagrangian.LagrangianEvaluator(nl, quad_cfg=plan.form_quad)
        fe = ev_r.field_eval(plan.form_u, plan.form_p)
        for u, p, L_field in zip(plan.form_u, plan.form_p, fe["L"]):
            L_d, L_r = ev_d.L(u, p), ev_r.L(u, p)
            scale = max(1.0, abs(L_r))
            gaps["form"] = max(gaps["form"], abs(L_d - L_r) / scale,
                               abs(L_field - L_d) / scale)
            values += [L_d, L_r, ev_r.L_pp(u, p)]

        ev = lagrangian.LagrangianEvaluator(nl, quad_cfg=plan.ident_quad)
        for u, q in plan.ident_uq:
            sens = charflow.evolve(nl, u, 0.0, q).sensitivity
            psi0 = charflow.evolve(nl, u, 0.0, 0.0).value
            fq, F = ev.F_q(u, q), ev.F(u)
            gaps["fq"] = max(gaps["fq"], abs(math.exp(fq) - sens))
            gaps["F"] = max(gaps["F"], abs(F - psi0))
            values += [fq, F]

        for u0, u1, um, qs in plan.flows:
            vals, _ = charflow.evolve_batch(nl, u0, u1, qs)
            back, _ = charflow.evolve_batch(nl, u1, u0, vals)
            leg1, _ = charflow.evolve_batch(nl, u0, um, qs)
            leg2, _ = charflow.evolve_batch(nl, um, u1, leg1)
            gaps["flow"] = max(
                gaps["flow"],
                float(np.max(np.abs(back - qs) / np.maximum(1.0, qs))),
                float(np.max(np.abs(leg2 - vals)
                             / np.maximum(1.0, np.abs(vals)))))
            values += list(vals)

    gen = plan.separated
    sev = matano.SeparatedEvaluator(gen, quad_cfg=plan.stencil_quad)
    h, stencil_res = 1e-4, 0.0
    for x, u, p in plan.stencils:
        L = sev.L
        L_u = (L(x, u + h, p) - L(x, u - h, p)) / (2 * h)
        L_xp = (L(x + h, u, p + h) - L(x + h, u, p - h)
                - L(x - h, u, p + h) + L(x - h, u, p - h)) / (4 * h * h)
        L_up = (L(x, u + h, p + h) - L(x, u + h, p - h)
                - L(x, u - h, p + h) + L(x, u - h, p - h)) / (4 * h * h)
        resid = L_u - L_xp - p * L_up + float(gen.f(x, u, p)) * sev.L_pp(x, u, p)
        stencil_res = max(stencil_res, abs(resid))
        values += [L_u, L_xp, L_up]

    defect = matano.integrability_defect(plan.center, plan.orbit_seed)
    values.append(defect)
    return {"gaps": gaps, "stencil_residual": stencil_res, "defect": defect,
            "values": np.asarray(values, dtype=float)}


def check_pointwise(plan: PointwisePlan, result: dict,
                    ref_factor: float) -> Outcome:
    gaps = dict(result["gaps"])
    gaps["defect"] = abs(result["defect"] - ref_factor * DRIFT_EPS)
    identity_err = max(gaps.values())
    errors = []
    if not identity_err <= IDENTITY_TOL:
        worst = max(gaps, key=gaps.get)
        errors.append(f"identity error {identity_err:.3e} ({worst}) "
                      f"> {IDENTITY_TOL:g}")
    stencil = result["stencil_residual"]
    if not stencil <= STENCIL_TOL:
        errors.append(f"defining-equation residual {stencil:.3e} "
                      f"> {STENCIL_TOL:g}")
    if not np.all(np.isfinite(result["values"])):
        errors.append("non-finite query result")
    digest = hashlib.sha256(result["values"].tobytes()).hexdigest()
    return Outcome(errors, {"identity_err": identity_err,
                            "stencil_residual": stencil}, digest)


# ---------------------------------------------------------------------------
# dispatch

def setup(name: str, seed: int, tiny: bool, work_dir: Path):
    if name == "pointwise_queries":
        return setup_pointwise(seed, tiny)
    return setup_scenario(name, seed, tiny, work_dir)


def execute(name: str, plan):
    if name == "pointwise_queries":
        return execute_pointwise(plan)
    return execute_scenario(plan)


def check(name: str, plan, result, ref_factor: float) -> Outcome:
    if name == "pointwise_queries":
        return check_pointwise(plan, result, ref_factor)
    return check_scenario(plan, result, ref_factor)
