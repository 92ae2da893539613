"""Work-precision table of the characteristic solves behind V and dV/dt.

    PYTHONPATH=src python tools/work_precision.py [--tiny]

Run from the root of a source checkout. For each characteristic tolerance
``rel_tol`` 1e-6 ... 1e-10 (``abs_tol`` = ``rel_tol`` / 100), and for the
tolerance a scenario run uses by default (``harness.SCENARIO_CHARFLOW``),
it evaluates the snapshot reports of a set of cases and compares them with
a ``rel_tol`` 1e-12 reference, in the sense of a work-precision diagram (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.10). Each row gives the right-hand-side
(RHS) calls of the characteristic driver, the seconds of the reports, and
the worst errors over the case's snapshots

    dV = |V - V_ref| / max(1, |V_ref|),   dD = |D - D_ref| / max(1, |D_ref|),

D being the dissipation, scaled as the decay residual scales it. The
cases:

* ``tanh_a1``, ``tanh_a2``: the q-nonlinear circle field
  fbar = 15 u (1 - u^2) + 3 tanh q on the random_smooth start of seed 7 at
  amplitudes 1 and 2, n = 256;
* ``separated_sin2p``: f = 5 u (1 - u^2) + 0.5 p + 0.3 sin 2p under
  Dirichlet conditions, whose exponent g is not linear in x, on the
  random_smooth start of seed 7 scaled to sup norm 0.5, n = 128;
* ``circle_dense_series``, ``interval_separated``: the monitored saves of
  the benchmark's ``gradient_quadratic`` and ``matano_separated`` runs at
  seed 1, as ``bench/workloads.py`` builds them.

``--tiny`` runs every case on a small grid: n = 64 on the circle, 32 on
the interval, and the benchmark's tiny sizes.

One line more gives, for the first three cases, dV and dD of the default
16-node Gauss-Legendre rule against 64 nodes, both at the reference
tolerance: on these integrands the quadrature, not the characteristic
tolerance, sets V's error. The line is information only.
The exit status is 1 if any case breaks the bound 1e-9 at the scenario
default, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from circlyap import charflow, harness, matano, pde
from circlyap.charflow import CharflowConfig, NonlinearityO2
from circlyap.functional import DIRICHLET, PERIODIC, field_report
from circlyap.lagrangian import LagrangianEvaluator, QuadratureConfig

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

BOUND = 1e-9
REFERENCE = CharflowConfig(rel_tol=1e-12, abs_tol=1e-14)
LADDER = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
# a converged rule, against which the default 16 nodes are measured
CONVERGED = QuadratureConfig(panels=64)
QUADRATURE_CASES = ("tanh_a1", "tanh_a2", "separated_sin2p")


@dataclass
class Case:
    """Snapshots (field, u_t) and the report that a tolerance and a
    quadrature rule (None: the case's own) build for them."""

    name: str
    snapshots: list
    report: Callable[[CharflowConfig], Callable]


def tanh_nl() -> NonlinearityO2:
    return NonlinearityO2(
        f_bar=lambda u, q: 15.0 * u * (1.0 - u * u) + 3.0 * np.tanh(q),
        f_bar_q=lambda u, q: 3.0 * (1.0 - np.tanh(q) ** 2),
        label="15u(1-u^2) + 3 tanh q")


def sin2p_nl() -> pde.GeneralNonlinearity:
    return pde.GeneralNonlinearity(
        f=lambda x, u, p: 5.0 * u * (1.0 - u * u) + 0.5 * p
        + 0.3 * np.sin(2.0 * p),
        f_p=lambda x, u, p: 0.5 + 0.6 * np.cos(2.0 * p),
        x_periodic=False)


def tanh_case(amplitude: float, n: int) -> Case:
    nl = tanh_nl()
    fld = harness.make_initial({"kind": "random_smooth", "seed": 7,
                                "amplitude": amplitude}, n, 1.0, PERIODIC)
    u_t = pde.rhs(harness.general_from_o2(nl), None, fld)
    return Case(f"tanh_a{amplitude:g}", [(fld, u_t)],
                lambda cfg, quad=None: partial(
                    field_report, LagrangianEvaluator(
                        nl, cfg, quad or QuadratureConfig())))


def separated_case(n: int) -> Case:
    gen = sin2p_nl()
    shape = harness.make_initial({"kind": "random_smooth", "seed": 7,
                                  "amplitude": 1.0}, n, 1.0, DIRICHLET)
    fld = shape.like(0.5 / np.max(np.abs(shape.values)) * shape.values)
    u_t = pde.rhs(gen, None, fld)
    return Case("separated_sin2p", [(fld, u_t)],
                lambda cfg, quad=None: partial(
                    matano.field_report,
                    matano.SeparatedEvaluator(gen, cfg, quad)))


def benchmark_case(workload: str, tiny: bool) -> Case:
    """The saves of the benchmark workload's first run at seed 1, solved
    once; each tolerance rebuilds only the scenario's report."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up there
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    with tempfile.TemporaryDirectory() as tmp:
        d = workloads.scenario_configs(workload, 1, tiny, Path(tmp))[0]
    scn = harness.ScenarioConfig.from_dict(d)
    traj, _ = harness.run_scenario(scn, write=False)
    return Case(workload, list(zip(traj.snapshots, traj.u_t_snapshots)),
                lambda cfg, quad=None: harness._build_scenario(
                    replace(scn, charflow=cfg,
                            quadrature=quad or scn.quadrature))[3])


def cases(tiny: bool = False) -> list[Case]:
    n_circle, n_interval = (64, 32) if tiny else (256, 128)
    return [tanh_case(1.0, n_circle), tanh_case(2.0, n_circle),
            separated_case(n_interval),
            benchmark_case("circle_dense_series", tiny),
            benchmark_case("interval_separated", tiny)]


@contextmanager
def counted_rhs():
    """Counts the right-hand-side calls of every characteristic solve
    made inside the block, in the list it yields."""
    real = charflow.solve_characteristics
    calls = [0]

    def solve(rhs, *args, **kwargs):
        def counted(t, y):
            calls[0] += 1
            return rhs(t, y)
        return real(counted, *args, **kwargs)

    charflow.solve_characteristics = solve
    try:
        yield calls
    finally:
        charflow.solve_characteristics = real


def measure(case: Case, cfg: CharflowConfig, quad=None):
    """(RHS calls, seconds, V, D) of the case's reports at ``cfg``, with
    the quadrature rule ``quad`` (None: the case's own)."""
    with counted_rhs() as calls:
        t0 = time.perf_counter()
        report = case.report(cfg, quad)
        rows = [report(fld, u_t) for fld, u_t in case.snapshots]
        seconds = time.perf_counter() - t0
    V, D = np.array([(r.V, r.dissipation) for r in rows]).T
    return calls[0], seconds, V, D


def errors(V, D, V_ref, D_ref) -> tuple[float, float]:
    """Worst dV and dD over the snapshots, scaled as the module says."""
    dV = np.abs(V - V_ref) / np.maximum(1.0, np.abs(V_ref))
    dD = np.abs(D - D_ref) / np.maximum(1.0, np.abs(D_ref))
    return float(dV.max()), float(dD.max())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="small grids, for a smoke test")
    args = parser.parse_args(argv)

    default = harness.SCENARIO_CHARFLOW
    tols = sorted(set(LADDER) | {default.rel_tol}, reverse=True)
    worst, quadrature = {}, []
    print(f"{'case':20s} {'rel_tol':>8s} {'abs_tol':>8s} {'rhs_calls':>9s} "
          f"{'seconds':>8s} {'dV':>9s} {'dD':>9s}")
    for case in cases(args.tiny):
        ref_calls, ref_s, V_ref, D_ref = measure(case, REFERENCE)
        for rel_tol in tols:
            cfg = (default if rel_tol == default.rel_tol else
                   CharflowConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100))
            calls, seconds, V, D = measure(case, cfg)
            dV, dD = errors(V, D, V_ref, D_ref)
            worst[rel_tol] = max(worst.get(rel_tol, 0.0), dV, dD)
            print(f"{case.name:20s} {cfg.rel_tol:8.0e} {cfg.abs_tol:8.0e} "
                  f"{calls:9d} {seconds:8.3f} {dV:9.2e} {dD:9.2e}")
        print(f"{case.name:20s} {REFERENCE.rel_tol:8.0e} "
              f"{REFERENCE.abs_tol:8.0e} {ref_calls:9d} {ref_s:8.3f} "
              f"{'(ref)':>9s} {'(ref)':>9s}")
        if case.name in QUADRATURE_CASES:
            *_, V_conv, D_conv = measure(case, REFERENCE, CONVERGED)
            dV, dD = errors(V_ref, D_ref, V_conv, D_conv)
            quadrature.append(f"{case.name} dV {dV:.1e} dD {dD:.1e}")
    print(f"quadrature, {QuadratureConfig().panels} against "
          f"{CONVERGED.panels} nodes at "
          f"rel_tol {REFERENCE.rel_tol:g} (not judged): "
          + ", ".join(quadrature))
    passing = [t for t in tols if worst[t] <= BOUND]
    print(f"loosest rel_tol within {BOUND:g} on every case: "
          f"{max(passing):g}" if passing else
          f"no rel_tol holds every case within {BOUND:g}")
    ok = worst[default.rel_tol] <= BOUND
    print(f"scenario default rel_tol {default.rel_tol:g}, abs_tol "
          f"{default.abs_tol:g}: worst error {worst[default.rel_tol]:.2e} "
          f"{'within' if ok else 'BREAKS'} {BOUND:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
