"""Smoke test of the benchmark: every workload at its tiny size.

    python3 bench/smoke.py

Run from the root of a source checkout. For each workload it checks that
an untraced run prints exactly the end-to-end metrics BENCHMARK.json names,
with their units, and passes every correctness check; that a traced run
prints exactly the per-layer metrics; and that a run against a deliberately
wrong reference value counts failures. It also checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits non-zero on any
mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: list, cwd: Path = ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []

    def expect(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for wl in (w["name"] for w in SPEC["workloads"]):
        base = ["--workload", wl, "--seed", "1", "--seconds", "1", "--tiny"]

        res = result(run(base + ["--trace", "0"]))
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(units == e2e, f"{wl}: end-to-end names and units match")
        expect(res["correct"] and res["failed"] == 0
               and res["metrics"]["ok_frac"]["value"] == 1.0,
               f"{wl}: every execution passes its checks")

        res = result(run(base + ["--trace", "1"]))
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(units == layer, f"{wl}: per-layer names and units match")

        res = result(run(base + ["--trace", "0", "--wrong-reference"]))
        expect(not res["correct"] and res["failed"] > 0
               and res["metrics"]["ok_frac"]["value"] < 1.0,
               f"{wl}: a wrong reference value counts as failed")

    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the library sources the run fails and prints nothing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
