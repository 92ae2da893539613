"""Run one workload of the circlyap benchmark and print its metrics.

    python3 bench/run.py --workload circle_burnin --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Each process it starts is single-threaded (BLAS/OpenMP threads
set to 1) and runs alone: first a few processes that only set up, for
``setup_s``, then one process that sets up and repeats the workload's
execution for ``--seconds`` seconds, checking every execution.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead, and the spans of one traced execution go to
``.bench_runs/trace-<workload>-seed<seed>.json``. Lines before it give each
metric with its sample count. ``--tiny`` and ``--wrong-reference`` serve
the smoke test (bench/smoke.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("circle_burnin", "circle_dense_series", "interval_separated",
             "pointwise_queries")
SETUP_PROCESSES = 6     # plus the workload process's own set-up
# Times are reported at a reference machine speed: measured seconds times
# CAL_REF_S over the calibration kernel's seconds in the same process
# (worker.calibrate). On shared machines the speed can shift by 1.5x between
# minutes, which would otherwise dominate run-to-run spread.
CAL_REF_S = 0.1
TIME_LIMIT_S = 170.0
SINGLE_THREAD = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "frac", "error_digits": "digits"}

_S, _N = "s", "count"
PER_LAYER = {
    "pde.integrate_s": _S, "pde.steps": _N, "pde.rhs_calls": _N,
    "pde.rhs_us_n256": "us", "pde.rhs_us_n512": "us", "pde.steps_per_s": "1/s",
    "lagrangian.field_eval_s": _S, "lagrangian.field_eval_us_per_point": "us",
    "lagrangian.L_pp_field_s": _S, "lagrangian.scalar_calls": _N,
    "lagrangian.cache_entries": _N,
    "functional.evaluate_V_s": _S, "functional.dissipation_rate_s": _S,
    "matano.field_eval_s_per_snapshot": _S, "matano.L_s": _S,
    "matano.integrability_defect_s": _S, "matano.cache_entries": _N,
    "charflow.evolve_calls": _N, "charflow.evolve_batch_calls": _N,
    "charflow.evolve_s": _S,
    **{f"{m}.{k}": _N for m in ("charflow", "lagrangian", "matano")
       for k in ("ivp_solves", "ivp_rhs_evals", "ivp_lane_evals")},
    "harness.burn_in_s": _S, "harness.integrate_s": _S,
    "harness.series_s": _S, "harness.extras_write_s": _S,
    "harness.write_bytes": "B",
    **{f"{layer}.self_share": "frac" for layer in (
        "pde", "lagrangian", "functional", "matano", "charflow", "harness",
        "bench")},
    "trace.overhead_frac": "frac", "trace.spans": _N,
    "check.residual_ratio": "ratio", "check.convexity_min": "ratio",
    "check.identity_err": "ratio", "check.stencil_residual": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        description="Run one circlyap benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the smoke test")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="check against a deliberately wrong reference")
    return ap.parse_args(argv)


class ChildFailed(RuntimeError):
    pass


def run_child(args, work_dir: Path, deadline: float, extra: list) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(work_dir)]
    cmd += (["--tiny"] if args.tiny else []) \
        + (["--wrong-reference"] if args.wrong_reference else []) + extra
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time limit reached before a child could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker exceeded the time limit: {cmd}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def digits(err: float) -> float:
    """Correct decimal digits of an error measure (-log10, floored)."""
    return -math.log10(max(err, 1e-17))


def summarize(args, setups: list, res: dict):
    """Metrics of one run. ``setups`` holds (setup seconds, calibration
    seconds) per set-up process."""
    acc = res["accuracy"]
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        layer = res.get("layers", {})
        metrics = {k: float(layer.get(k, 0.0)) for k in PER_LAYER}
        walls, traced = res["walls"], res["traced_walls"]
        if walls and traced:
            metrics["trace.overhead_frac"] = \
                statistics.median(traced) / statistics.median(walls) - 1.0
        for key in ("residual_ratio", "convexity_min", "identity_err",
                    "stencil_residual"):
            metrics[f"check.{key}"] = float(acc.get(key, 0.0))
        counts = {k: len(traced) for k in metrics}
        units = PER_LAYER
    else:
        err = acc["identity_err"] if "identity_err" in acc \
            else acc["residual_ratio"]
        wall = statistics.median(res["walls"])
        speed = CAL_REF_S / res["cal_s"]
        print(f"# {args.workload} measured: wall {wall:.6g} s,"
              f" setup {statistics.median(s for s, _ in setups):.6g} s; "
              f"calibration {res['cal_s']:.6g} s")
        metrics = {
            "wall_s": wall * speed,
            "setup_s": statistics.median(s * CAL_REF_S / c for s, c in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "error_digits": digits(err),
        }
        counts = {"wall_s": len(res["walls"]), "setup_s": len(setups),
                  "peak_rss_mb": 1, "ok_frac": attempted,
                  "error_digits": attempted}
        units = END_TO_END
    for k, v in metrics.items():
        print(f"# {args.workload} {k} = {v:.6g} {units[k]} "
              f"(median of {counts[k]})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "circlyap" / "__init__.py").is_file():
        print(f"no circlyap sources under {ROOT / 'src'}; run the benchmark "
              "from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work_dir = ROOT / ".bench_runs" / \
        f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setups = [run_child(args, work_dir, deadline, ["--setup-only"])
                  for _ in range(0 if args.trace else SETUP_PROCESSES)]
        res = run_child(args, work_dir, deadline,
                        ["--trace"] if args.trace else [])
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not (res["walls"] and res["accuracy"]):
        print("benchmark failed: no execution completed and was timed",
              file=sys.stderr)
        return 1
    setups = [(s["setup_s"], s["cal_s"]) for s in setups + [res]]
    print(json.dumps(summarize(args, setups, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
