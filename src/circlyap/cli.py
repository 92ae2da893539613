"""Command-line front end for scenario runs and quick self-checks.

Exit codes: 0 on success, 1 if a ``check`` failed, 2 if the PDE run blew
up, 3 if a Lyapunov construction failed (characteristic escape or
integration breakdown), 4 if a config does not parse or validate (for
``sweep``, every job's config is validated before any job starts) or its
scenario cannot be built (a sweep job reports ``bad_config``); the reason
is one line on stderr.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import charflow, harness
from .lagrangian import DOUBLE_INTEGRAL, REDUCED, LagrangianEvaluator
from .functional import PERIODIC, ScalarField, gradient
from .pde import SolverConfig, integrate

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_CONSTRUCTION_FAILURE = 3
EXIT_BAD_CONFIG = 4

# what reading, parsing and validating a config raises
_CONFIG_ERRORS = (ValueError, TypeError, KeyError, OSError)

_STATUS_CODES = {"ok": EXIT_OK, "blowup": EXIT_BLOWUP,
                 "construction_failure": EXIT_CONSTRUCTION_FAILURE,
                 "bad_config": EXIT_BAD_CONFIG}


def _set_path(tree: dict, dotted: str, value):
    *keys, leaf = dotted.split(".")
    node = tree
    for k in keys:
        node = node[k]
        if not isinstance(node, dict):
            raise KeyError(f"{dotted}: {k!r} is not a section of the config")
    if not keys and leaf not in tree:
        raise KeyError(f"{dotted}: no such key in the config")
    old = node.get(leaf)
    if isinstance(old, int):
        node[leaf] = int(value)
    elif isinstance(old, float):
        node[leaf] = float(value)
    else:
        try:
            node[leaf] = float(value)
        except ValueError:
            node[leaf] = value


def _run_one(cfg_dict: dict) -> tuple[str, str]:
    """A sweep job's status, and why its scenario could not be built."""
    cfg = harness.ScenarioConfig.from_dict(cfg_dict)
    try:
        _, extras = harness.run_scenario(cfg)
    except harness.ConfigError as exc:
        return "bad_config", str(exc)
    return extras["status"], ""


def _bad_config(path, exc: Exception) -> int:
    print(f"circlyap: bad config {path}: {type(exc).__name__}: {exc}",
          file=sys.stderr)
    return EXIT_BAD_CONFIG


def cmd_run(args) -> int:
    try:
        cfg = harness.parse_config(args.config)
    except _CONFIG_ERRORS as exc:
        return _bad_config(args.config, exc)
    try:
        _, extras = harness.run_scenario(cfg)
    except harness.ConfigError as exc:
        return _bad_config(args.config, exc)
    print(f"{cfg.scenario}: {extras['status']}"
          + (f" -> {extras.get('output_dir', '')}" if "output_dir" in extras else ""))
    if extras["status"] != "ok" and "error" in extras:
        print(f"  {extras['error']}", file=sys.stderr)
    return _STATUS_CODES[extras["status"]]


def cmd_sweep(args) -> int:
    values = args.values.split(",")
    jobs = []
    try:
        base = harness.parse_config(args.config).to_dict()
        for v in values:
            d = copy.deepcopy(base)
            _set_path(d, args.param, v)
            out = harness._resolve_output_dir(
                harness.ScenarioConfig.from_dict(d))
            d["output_path"] = f"{out}_{args.param.split('.')[-1]}={v}"
            jobs.append(d)
    except _CONFIG_ERRORS as exc:
        return _bad_config(args.config, exc)
    worst = EXIT_OK
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        for v, (status, reason) in zip(values, pool.map(_run_one, jobs)):
            print(f"{args.param}={v}: {status}")
            if reason:
                print(f"circlyap: bad config {args.config} at "
                      f"{args.param}={v}: {reason}", file=sys.stderr)
            worst = max(worst, _STATUS_CODES[status])
    return worst


def cmd_list_scenarios(_args) -> int:
    for name, (doc, params) in sorted(harness.SCENARIOS.items()):
        print(f"{name:20s} {doc}")
        print(" " * 21 + " ".join(f"{k}={v:g}" for k, v in params.items()))
        print(" " * 21 + ("builds its own start; a config's 'initial' is "
                          "an error" if name in harness.OWN_START
                          else "starts from the config's 'initial'"))
    return EXIT_OK


def cmd_check(_args) -> int:
    """Fast built-in invariant suite (a subset of the full test suite)."""
    failures = total = 0

    def check(name, ok):
        nonlocal failures, total
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
        total += 1

    nl = harness.gradient_quadratic_nl(b=1.0, slope=-1.0)
    res = charflow.evolve(nl, 0.7, 0.7, 1.3)
    check("charflow identity", res.value == 1.3 and res.sensitivity == 1.0)

    two_leg, direct = charflow.compose_check(nl, -0.5, 0.3, 0.9, 0.4)
    check("charflow composition",
          abs(two_leg - direct) <= 1e-9 * max(1.0, abs(direct)))

    fwd = charflow.evolve(nl, 0.2, 1.1, 0.6)
    back = charflow.evolve(nl, 1.1, 0.2, fwd.value)
    check("charflow inverse", abs(back.value - 0.6) <= 1e-8)

    ev_d = LagrangianEvaluator(nl, form=DOUBLE_INTEGRAL)
    ev_r = LagrangianEvaluator(nl, form=REDUCED)
    pts = [(0.5, 1.0), (-0.8, 2.0), (1.2, -1.5)]
    ok = all(abs(ev_d.L(u, p) - ev_r.L(u, p))
             <= 1e-6 * max(1.0, abs(ev_r.L(u, p))) for u, p in pts)
    check("Lagrangian form equivalence", ok)

    check("convexity weight positive",
          all(ev_r.L_pp(u, p) > 0 for u, p in pts))

    x = np.arange(256) / 256.0
    fld = ScalarField(np.sin(2 * np.pi * x), 1.0)
    err = np.max(np.abs(gradient(fld) - 2 * np.pi * np.cos(2 * np.pi * x)))
    check("gradient stencil accuracy", err < 2e-3)

    # the burn-in's ETDRK4 at the save interval against RK4 at 0.4 h^2,
    # both landing on t = 0.02
    n, burn_in = 64, 0.02
    u0 = harness.make_initial({"kind": "random_smooth", "seed": 7}, n, 1.0,
                              PERIODIC)
    gen = harness.general_from_o2(harness.chafee_infante_nl(15.0))
    steps = int(np.ceil(burn_in / (0.4 / n**2)))
    monitored = SolverConfig(n=n, dt=burn_in / steps, t_end=burn_in,
                             save_every=steps // 5)
    etd = integrate(gen, None, u0,
                    harness.burn_in_config(monitored, burn_in, None, u0.dx))
    rk = integrate(gen, None, u0, replace(monitored, save_every=10**9))
    gap = np.max(np.abs(etd.snapshots[-1].values - rk.snapshots[-1].values))
    check("ETDRK4 burn-in matches RK4", gap <= 1e-8)

    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{total - failures}/{total} checks passed")
    return EXIT_OK if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="circlyap",
        description="Lyapunov-function scenarios for parabolic PDEs on the circle")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a JSON config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario over a parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path, e.g. params.lam")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run the built-in invariant suite")
    p_check.set_defaults(func=cmd_check)

    p_list = sub.add_parser("list-scenarios", help="list available scenarios")
    p_list.set_defaults(func=cmd_list_scenarios)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
