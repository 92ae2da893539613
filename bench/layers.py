"""Where the traced run hooks into circlyap, and the per-layer metrics it
derives from the spans.

Each hook sits at the name the caller looks up: ``harness`` calls
``integrate``, ``evaluate_V`` and ``dissipation_rate`` through its own
namespace, ``pde.integrate`` calls ``rhs`` through ``pde``, and every module
that integrates characteristics calls ``solve_ivp`` through its own
namespace. A span is named ``<layer>.<call>``; the layer is the module that
does the work.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from circlyap import charflow, harness, lagrangian, matano, pde

from tracing import Tracer

LAYERS = ("pde", "lagrangian", "functional", "matano", "charflow", "harness",
          "bench")
IVP_MODULES = {"charflow": charflow, "lagrangian": lagrangian,
               "matano": matano}
LAGRANGIAN_SCALAR = ("L", "F", "F_q", "L_pp", "phi")


def _steps(args, kwargs, result):
    """Steps the fixed-step scheme takes: ceil(t_end / dt) as integrate
    computes it, with dt as the config gives it."""
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"pde.steps": math.ceil(cfg.t_end / cfg.dt - 1e-9)}


def _points(args, kwargs, result):
    return {"lagrangian.field_eval_points": np.size(args[1])}


def _ivp(layer):
    def count(args, kwargs, sol):
        lanes = np.size(args[2] if len(args) > 2 else kwargs["y0"])
        return {f"{layer}.ivp_solves": 1,
                f"{layer}.ivp_rhs_evals": sol.nfev,
                f"{layer}.ivp_lane_evals": sol.nfev * lanes}
    return count


def make_tracer() -> Tracer:
    tr = Tracer()
    tr.wrap(harness, "run_scenario", "harness.run_scenario")
    tr.wrap(harness, "_lyapunov_series", "harness.series")
    tr.wrap(harness, "_matano_series", "harness.series")
    tr.wrap(harness, "_write_outputs", "harness.write_outputs")

    tr.wrap(harness, "integrate", "pde.integrate", count=_steps)
    tr.wrap(pde, "rhs", "pde.rhs")

    tr.wrap(harness, "evaluate_V", "functional.evaluate_V")
    tr.wrap(harness, "dissipation_rate", "functional.dissipation_rate")

    LE = lagrangian.LagrangianEvaluator
    tr.wrap(LE, "field_eval", "lagrangian.field_eval", count=_points)
    tr.wrap(LE, "L_pp_field", "lagrangian.L_pp_field")
    for name in LAGRANGIAN_SCALAR:
        tr.wrap(LE, name, f"lagrangian.{name}")
    tr.track_instances(LE)

    tr.wrap(charflow, "evolve", "charflow.evolve")
    tr.wrap(charflow, "evolve_batch", "charflow.evolve_batch")
    tr.wrap(lagrangian, "evolve_batch", "charflow.evolve_batch")

    SE = matano.SeparatedEvaluator
    tr.wrap(matano, "field_report", "matano.field_report")
    tr.wrap(SE, "field_eval", "matano.field_eval")
    tr.wrap(SE, "L", "matano.L")
    tr.wrap(SE, "L_pp", "matano.L_pp")
    tr.wrap(matano, "integrability_defect", "matano.integrability_defect")
    tr.track_instances(SE)

    for layer, mod in IVP_MODULES.items():
        tr.wrap(mod, "solve_ivp", f"{layer}.solve_ivp", count=_ivp(layer))
    return tr


def _cache_entries(instances, cls) -> int:
    """Entries held in the memo caches (dict attributes named *_cache)."""
    return sum(len(v) for obj in instances if isinstance(obj, cls)
               for k, v in vars(obj).items()
               if k.endswith("_cache") and isinstance(v, dict))


def layer_metrics(tr: Tracer, wall_s: float, write_bytes: int) -> dict:
    """Per-layer numbers of one traced execution (see README.md)."""
    totals = tr.totals()
    cnt = tr.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    integ = secs("pde.integrate")
    m["pde.integrate_s"] = integ
    m["pde.steps"] = cnt["pde.steps"]
    m["pde.rhs_calls"] = calls("pde.rhs")
    m["pde.steps_per_s"] = ratio(cnt["pde.steps"], integ)

    fe = secs("lagrangian.field_eval")
    m["lagrangian.field_eval_s"] = fe
    m["lagrangian.field_eval_us_per_point"] = \
        1e6 * ratio(fe, cnt["lagrangian.field_eval_points"])
    m["lagrangian.L_pp_field_s"] = secs("lagrangian.L_pp_field")
    m["lagrangian.scalar_calls"] = sum(calls(f"lagrangian.{n}")
                                       for n in LAGRANGIAN_SCALAR)
    m["lagrangian.cache_entries"] = _cache_entries(
        tr.instances, lagrangian.LagrangianEvaluator)

    m["functional.evaluate_V_s"] = secs("functional.evaluate_V")
    m["functional.dissipation_rate_s"] = secs("functional.dissipation_rate")

    m["matano.field_eval_s_per_snapshot"] = ratio(
        secs("matano.field_eval"), calls("matano.field_eval"))
    m["matano.L_s"] = secs("matano.L")
    m["matano.integrability_defect_s"] = secs("matano.integrability_defect")
    m["matano.cache_entries"] = _cache_entries(tr.instances,
                                               matano.SeparatedEvaluator)

    m["charflow.evolve_calls"] = calls("charflow.evolve")
    m["charflow.evolve_batch_calls"] = calls("charflow.evolve_batch")
    m["charflow.evolve_s"] = secs("charflow.evolve") \
        + secs("charflow.evolve_batch")

    for layer in IVP_MODULES:
        for key in ("ivp_solves", "ivp_rhs_evals", "ivp_lane_evals"):
            m[f"{layer}.{key}"] = cnt[f"{layer}.{key}"]

    # run_scenario integrates twice when it burns in: burn-in, then the
    # monitored run
    burn = main = 0.0
    for durs in tr.children_of("harness.run_scenario", "pde.integrate"):
        if len(durs) > 1:
            burn += durs[0]
        main += durs[-1] if durs else 0.0
    series = secs("harness.series")
    m["harness.burn_in_s"] = burn
    m["harness.integrate_s"] = main
    m["harness.series_s"] = series
    m["harness.extras_write_s"] = (secs("harness.run_scenario") - burn - main
                                   - series) if calls("harness.run_scenario") \
        else 0.0
    m["harness.write_bytes"] = write_bytes

    self_time = defaultdict(float, tr.self_time_by_layer())
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(self_time[layer], wall_s)
    m["trace.spans"] = len(tr.spans)
    return m
