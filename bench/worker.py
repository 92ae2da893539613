"""One workload process of the circlyap benchmark (started by run.py).

Times set-up (import, config parse, scenario build) from the first line
that touches numpy, then repeats the workload's execution until the
measuring time is used up, checking every execution. The first execution
is a warm-up: checked, but not timed. With ``--trace`` the executions after
it alternate between traced (spans installed) and untraced, so the two can
be compared for the tracing overhead. Prints one JSON object as the last
line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def calibrate() -> float:
    """Seconds for a fixed kernel that does not touch circlyap: adaptive
    solves of a small vectorised ODE (interpreter-bound, like most of the
    library) and elementwise work on a 1.6 MB array (like its largest
    fields). run.py divides by it to factor out the machine's momentary
    speed."""
    import numpy as np
    from scipy.integrate import solve_ivp

    lanes = np.linspace(0.5, 1.5, 64)
    arr = np.linspace(-1.0, 1.0, 200_000)
    t0 = time.perf_counter()
    for _ in range(4):
        solve_ivp(lambda t, y: -lanes * y * np.sin(t), (0.0, 10.0),
                  np.ones(64), rtol=1e-10, atol=1e-12)
    for _ in range(20):
        arr = np.sin(arr) * 0.5 + arr * 0.25
    return time.perf_counter() - t0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--wrong-reference", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    import workloads  # numpy, scipy and circlyap
    plan = workloads.setup(args.workload, args.seed, args.tiny, work_dir)
    setup_s = time.perf_counter() - t0

    root = Path(__file__).resolve().parent.parent
    lib = Path(workloads.harness.__file__).resolve()
    if root / "src" not in lib.parents:
        print(f"circlyap imported from {lib}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "cal_s": calibrate()}))
        return 0

    tracer = None
    if args.trace:
        import layers
        tracer = layers.make_tracer()
    ref = workloads.WRONG_REFERENCE_FACTOR if args.wrong_reference else 1.0
    min_execs = 5 if tracer else 3

    walls, traced_walls, layer_rows = [], [], []
    cals = [calibrate()]
    attempted = failed = 0
    first_digest, spans, peak_rss_mb = None, None, None
    accuracy: dict[str, list] = {}
    perf = time.perf_counter
    start = perf()
    while True:
        # the first execution warms up (and sets the reference digest);
        # after it, traced and untraced executions alternate
        warmup = attempted == 0
        traced = tracer is not None and attempted % 2 == 0 and not warmup
        result, wall = None, 0.0
        gc.collect()  # the previous execution's garbage is not this one's cost
        if traced:
            tracer.reset()
            tracer.install()
        try:
            if traced:
                with tracer.span("bench.execute"):
                    t = perf()
                    result = workloads.execute(args.workload, plan)
                    wall = perf() - t
            else:
                t = perf()
                result = workloads.execute(args.workload, plan)
                wall = perf() - t
        except Exception:
            traceback.print_exc()
        finally:
            if traced:
                tracer.uninstall()
        attempted += 1
        cals.append(calibrate())
        if peak_rss_mb is None:
            # peak of set-up plus one execution; later executions can only
            # add allocator growth
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

        outcome = None
        if result is not None:
            try:
                outcome = workloads.check(args.workload, plan, result, ref)
            except Exception:
                traceback.print_exc()
        if outcome is None:
            failed += 1
        else:
            if first_digest is None:
                first_digest = outcome.digest
            elif outcome.digest != first_digest:
                outcome.errors.append("outputs differ from the first "
                                      "execution with the same seed")
            if outcome.errors:
                failed += 1
                print(f"execution {attempted} failed: "
                      + "; ".join(outcome.errors), file=sys.stderr)
            for key, val in outcome.accuracy.items():
                accuracy.setdefault(key, []).append(val)
            if traced:
                traced_walls.append(wall)
                layer_rows.append(layers.layer_metrics(
                    tracer, wall, outcome.write_bytes))
                if spans is None:
                    spans = tracer.dump()
            elif not warmup:
                walls.append(wall)

        # start another execution only if it should end within the time
        if attempted >= min_execs and perf() - start + wall > args.seconds:
            break

    worst = {k: (min(v) if k == "convexity_min" else max(v))
             for k, v in accuracy.items()}
    out = {"setup_s": setup_s, "cal_s": statistics.median(cals),
           "walls": walls, "traced_walls": traced_walls,
           "attempted": attempted, "failed": failed,
           "peak_rss_mb": peak_rss_mb,
           "accuracy": worst}
    if tracer is not None:
        out["layers"] = {k: statistics.median(r[k] for r in layer_rows)
                         for k in (layer_rows[0] if layer_rows else {})}
        if args.workload in workloads.SPECS:
            for n in (256, 512):
                out["layers"][f"pde.rhs_us_n{n}"] = workloads.rhs_us(plan, n)
        trace_file = work_dir.parent / \
            f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "note": "spans of the first traced execution; times are "
                     "time.perf_counter() seconds",
             **(spans or {})}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
