"""Tests for scenario plumbing, output emission and the command line."""

import csv
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from circlyap import cli, harness, matano
from circlyap.charflow import CharacteristicEscape, CharflowConfig, IntegrationFailure
from circlyap.functional import DIRICHLET, NEUMANN, PERIODIC, ScalarField
from circlyap.harness import (
    PlanarField,
    ScenarioConfig,
    center_planar_field,
    embed_planar,
    emit_config,
    equilibrium_profile,
    fourier_project,
    make_initial,
    parse_config,
    planar_orbit,
    run_scenario,
    shift_match,
)
from circlyap.lagrangian import LagrangianEvaluator, QuadratureConfig
from circlyap.pde import GeneralNonlinearity, SolverConfig, integrate


def tiny_config(tmp_path, scenario="chafee_infante", **overrides):
    cfg = ScenarioConfig(
        scenario=scenario,
        params=overrides.pop("params", {"lam": 5.0}),
        solver=overrides.pop("solver",
                             SolverConfig(n=32, t_end=0.01, save_every=40)),
        initial=overrides.pop("initial", {"kind": "random_smooth", "seed": 2}),
        output_path=str(tmp_path / "out"),
        **overrides,
    )
    return cfg


class TestPlanarField:
    def test_center_field_is_symmetric(self):
        center_planar_field().verify_symmetry()

    def test_asymmetric_field_rejected(self):
        bad = PlanarField(g=lambda a, b: b, h=lambda a, b: a * b)
        with pytest.raises(ValueError):
            bad.verify_symmetry()

    def test_embedding_refuses_asymmetric_field(self):
        bad = PlanarField(g=lambda a, b: b, h=lambda a, b: a * b)
        with pytest.raises(ValueError):
            embed_planar(bad)

    def test_trivial_embedding_reduces_to_identity_reaction(self):
        pf = PlanarField(g=lambda a, b: 0.0 * a, h=lambda a, b: 0.0 * b)
        gen = embed_planar(pf)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, u, p = rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(-1, 1)
            assert float(gen.f(x, u, p)) == pytest.approx(u, abs=1e-12)

    def test_embedded_field_reflection_symmetry(self):
        gen = embed_planar(center_planar_field())
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, u, p = rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(-1, 1)
            assert float(gen.f(-x, u, -p)) == pytest.approx(
                float(gen.f(x, u, p)), abs=1e-12)

    def test_center_orbit_conserves_energy_and_closes(self):
        pf = center_planar_field()
        sol, period = planar_orbit(pf, 0.2, 1.1)

        def energy(a, b):
            return a * a / 2.0 + b * b / 4.0 - 0.5 * np.log(b)

        E0 = energy(0.2, 1.1)
        ts = np.linspace(0.0, period, 200)
        ab = sol.sol(ts)
        assert np.max(np.abs(energy(ab[0], ab[1]) - E0)) <= 1e-8
        end = sol.sol(period)
        assert np.hypot(end[0] - 0.2, end[1] - 1.1) <= 1e-7


class TestFourierProject:
    def test_pure_cosine(self):
        n = 128
        x = np.arange(n) * (2 * np.pi / n)
        fld = ScalarField(3.0 * np.cos(x), 2 * np.pi, PERIODIC)
        a, b = fourier_project(fld, 1)
        assert a == pytest.approx(3.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_mode_orthogonality(self):
        n = 128
        x = np.arange(n) * (2 * np.pi / n)
        fld = ScalarField(2.0 * np.sin(x) + np.cos(2 * x), 2 * np.pi, PERIODIC)
        assert fourier_project(fld, 1) == pytest.approx((0.0, 2.0), abs=1e-12)
        assert fourier_project(fld, 2) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_wrong_domain_rejected(self):
        fld = ScalarField(np.zeros(32), 1.0, PERIODIC)
        with pytest.raises(ValueError):
            fourier_project(fld, 1)


class TestEquilibriumProfile:
    def test_profile_is_discrete_equilibrium(self):
        lam, ell, n = 50.0, 1.0, 256
        prof = equilibrium_profile(lam, ell, n)
        h = ell / n
        uxx = (np.roll(prof, -1) - 2 * prof + np.roll(prof, 1)) / (h * h)
        resid = uxx + lam * prof * (1.0 - prof**2)
        assert np.max(np.abs(prof)) > 0.3  # nonconstant
        assert np.max(np.abs(resid)) <= 5e-3

    def test_subcritical_parameter_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_profile(10.0, 1.0, 64)


class TestMakeInitial:
    def test_random_smooth_is_deterministic(self):
        a = make_initial({"kind": "random_smooth", "seed": 3}, 64, 1.0, PERIODIC)
        b = make_initial({"kind": "random_smooth", "seed": 3}, 64, 1.0, PERIODIC)
        assert np.array_equal(a.values, b.values)

    def test_fourier_mode_table(self):
        fld = make_initial({"kind": "fourier_modes",
                            "modes": {"1": [0.5, 0.0], "2": [0.0, 0.25]}},
                           128, 1.0, PERIODIC)
        x = fld.grid()
        expected = 0.5 * np.cos(2 * np.pi * x) + 0.25 * np.sin(4 * np.pi * x)
        assert np.max(np.abs(fld.values - expected)) <= 1e-12

    def test_dirichlet_uses_sine_series(self):
        fld = make_initial({"kind": "random_smooth", "seed": 0}, 64, 1.0,
                           "dirichlet")
        assert abs(fld.values[0]) <= 1e-14 and abs(fld.values[-1]) <= 1e-14


class TestShiftMatch:
    def test_recovers_integer_roll(self):
        n = 128
        x = np.arange(n) / n
        u_ref = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
        shifted = np.roll(u_ref, 17)
        theta, mismatch = shift_match(u_ref, shifted, 1.0)
        assert theta == pytest.approx(17 / n, abs=1e-6)
        assert mismatch <= 1e-14


class TestConfigRoundTrip:
    def test_parse_emit_identity(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = tmp_path / "config.json"
        emit_config(cfg, path)
        again = parse_config(path)
        assert again == cfg

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="nope")

    def test_nested_panels_in_json_is_ignored(self, tmp_path):
        cfg = tiny_config(tmp_path, scenario="matano_separated")
        d = cfg.to_dict()
        assert "nested_panels" not in d["quadrature"]
        d["quadrature"]["nested_panels"] = 16
        path = tmp_path / "old.json"
        path.write_text(json.dumps(d))
        assert parse_config(path) == cfg


    def test_default_quadrature_written_to_manifest(self, tmp_path):
        d = tiny_config(tmp_path).to_dict()
        del d["quadrature"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        run_scenario(parse_config(path))
        manifest = json.loads((tmp_path / "out" / "run_manifest.json")
                              .read_text())
        assert manifest["config"]["quadrature"] == {"panels": 16}

    def test_old_quadrature_json_parses(self, tmp_path):
        # manifests written while the rule was stored name it
        d = tiny_config(tmp_path).to_dict()
        d["quadrature"] = {"rule": "gauss_legendre", "panels": 16}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(d))
        assert parse_config(path).to_dict()["quadrature"] == {"panels": 16}

    @pytest.mark.parametrize("section, value", [
        ("solver", {"scheme": "imex", "dt": 1e-3}),
        ("quadrature", {"rule": "simpson", "nested_panels": 16}),
    ], ids=["imex", "simpson"])
    def test_retired_values_fail_at_parse_time(self, tmp_path, section,
                                               value):
        d = tiny_config(tmp_path).to_dict()
        d[section].update(value)
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="retired"):
            parse_config(path)


class TestRunScenario:
    def test_output_files_and_manifest(self, tmp_path):
        cfg = tiny_config(tmp_path)
        traj, extras = run_scenario(cfg)
        assert extras["status"] == "ok"
        out = tmp_path / "out"
        assert (out / "series.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["status"] == "ok"
        assert manifest["n_saves"] == len(traj.times)
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert len(snaps) == len(traj.times)

    def test_determinism_bit_identical_outputs(self, tmp_path):
        cfg_a = tiny_config(tmp_path)
        cfg_a.output_path = str(tmp_path / "a")
        cfg_b = tiny_config(tmp_path)
        cfg_b.output_path = str(tmp_path / "b")
        run_scenario(cfg_a)
        run_scenario(cfg_b)
        for name in ["series.csv", "snapshot_0000.csv"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_snapshot_bytes_equal_csv_writer(self, tmp_path):
        # negative, tiny and subnormal values, and values that need all 17
        # significant digits; the periodic grid 2 pi k / 9 needs 12
        values = np.array([-1.0 / 3.0, 0.1 + 0.2, 5e-324, -2.5e-308,
                           1e300, -0.0, 123456789.01234567, -7e-17, 2.0])
        snap = ScalarField(values, 2 * np.pi, PERIODIC)
        traj = harness.TrajectoryRecord(np.array([0.0]), [snap], [snap])
        series = {k: [0.5] for k in ("V", "dissipation", "residual",
                                     "convexity_min", "ut_inf")}
        harness._write_outputs(tmp_path, tiny_config(tmp_path), traj, series,
                               {}, "ok")
        with open(tmp_path / "expected.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["x", "u"])
            for xi, ui in zip(snap.grid(), snap.values):
                wr.writerow([f"{xi:.12g}", f"{ui:.17g}"])
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "snapshot_0000.csv").read_bytes() == expected
        assert b"-0.33333333333333331\r\n" in expected

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLYAP_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = tiny_config(tmp_path)
        cfg.output_path = None
        _, extras = run_scenario(cfg)
        assert extras["output_dir"] == str(tmp_path / "root" / "chafee_infante")
        assert (tmp_path / "root" / "chafee_infante" / "series.csv").exists()

    def test_monotone_V_series(self, tmp_path):
        cfg = tiny_config(tmp_path, params={"lam": 5.0, "burn_in": 0.002})
        _, extras = run_scenario(cfg, write=False)
        V = extras["V"]
        assert np.all(np.diff(V) <= 1e-9 * np.maximum(1.0, np.abs(V[:-1])))

    def test_blowup_is_reported(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            params={"lam": -5.0},
            solver=SolverConfig(n=32, t_end=1.0, save_every=200),
            initial={"kind": "fourier_modes", "modes": {"0": [2.0, 0.0]}},
        )
        traj, extras = run_scenario(cfg)
        assert extras["status"] == "blowup"
        assert traj.blew_up and traj.blowup_time is not None
        manifest = json.loads(
            (tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["status"] == "blowup"
        error = json.loads((tmp_path / "out" / "error.json").read_text())
        assert error["status"] == "blowup"
        assert f"t={traj.blowup_time:.6g}" in error["error"]

    def test_construction_failure_is_reported(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            scenario="gradient_quadratic",
            params={"b": 60.0, "slope": -1.0},
            solver=SolverConfig(n=32, t_end=0.004, save_every=20),
            initial={"kind": "random_smooth", "seed": 1, "amplitude": 1.5},
        )
        traj, extras = run_scenario(cfg)
        assert extras["status"] == "construction_failure"
        # the run blew up first; the failed construction must not hide it
        assert traj.blew_up
        error = json.loads((tmp_path / "out" / "error.json").read_text())
        assert error["status"] == "construction_failure"
        assert error["blowup"] == traj.message
        assert f"t={traj.blowup_time:.6g}" in error["blowup"]
        assert error["blowup_time"] == traj.blowup_time

    def test_planar_embedding_smoke(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="planar_embedding",
            params={},
            solver=SolverConfig(n=256, dt=5e-3, t_end=1.0, save_every=200,
                                scheme="etdrk4"),
            output_path=str(tmp_path / "planar"),
        )
        _, extras = run_scenario(cfg)
        assert extras["status"] == "ok"
        assert extras["period"] == pytest.approx(6.335, abs=5e-3)
        assert extras["fourier_match"] <= 1e-2  # coarse smoke bound
        series = (tmp_path / "planar" / "series.csv").read_text().splitlines()
        assert series[0].endswith("a_mode,b_mode")


def burn_in_field(bc, n=64):
    if bc == PERIODIC:
        x = np.arange(n) / n
        return ScalarField(0.4 * np.sin(2 * np.pi * x)
                           + 0.2 * np.cos(6 * np.pi * x) + 0.1, 1.0, bc)
    x = np.linspace(0.0, 1.0, n)
    if bc == DIRICHLET:
        return ScalarField(0.4 * np.sin(np.pi * x)
                           + 0.1 * np.sin(3 * np.pi * x), 1.0, bc)
    return ScalarField(0.3 * np.cos(np.pi * x) + 0.1 * x * x, 1.0, bc)


def traced_integrate(monkeypatch):
    """Record every (config, trajectory) run_scenario integrates."""
    calls = []

    def wrapped(gen, a, u0, cfg):
        traj = integrate(gen, a, u0, cfg)
        calls.append((cfg, traj))
        return traj

    monkeypatch.setattr(harness, "integrate", wrapped)
    return calls


class TestBurnIn:
    @pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET, NEUMANN])
    @pytest.mark.parametrize("a", [None, 2.0])
    def test_etdrk4_matches_rk4(self, bc, a):
        # reaction and advection, both nonlinear in u_x
        gen = GeneralNonlinearity(
            f=lambda x, u, p: 4.0 * u * (1.0 - u * u) + 0.7 * p
            + 0.3 * np.sin(2 * np.pi * x) * p * p,
            f_p=lambda x, u, p: 0.7 + 0.6 * np.sin(2 * np.pi * x) * p)
        u0 = burn_in_field(bc)
        burn_in = 0.02
        solver = SolverConfig(n=u0.n, t_end=0.01, save_every=25)
        pre_cfg = harness.burn_in_config(solver, burn_in, a, u0.dx)
        assert pre_cfg.scheme == "etdrk4" and pre_cfg.t_end == burn_in
        etd = integrate(gen, a, u0, pre_cfg)
        # RK4 at its default step, shortened to land on burn_in
        dt = 0.4 * u0.dx**2 / (1.0 if a is None else a)
        rk = integrate(gen, a, u0, SolverConfig(
            n=u0.n, dt=burn_in / math.ceil(burn_in / dt), t_end=burn_in,
            save_every=10**9))
        gap = np.max(np.abs(etd.snapshots[-1].values
                            - rk.snapshots[-1].values))
        assert gap <= 1e-8

    def test_step_is_the_save_interval_and_lands_on_burn_in(
            self, tmp_path, monkeypatch):
        calls = traced_integrate(monkeypatch)
        # default step 0.4/32^2 = 3.9e-4; 0.002 is no multiple of it, and a
        # save interval (40 steps) is longer than the burn-in
        cfg = tiny_config(tmp_path, params={"lam": 5.0, "burn_in": 0.002})
        _, extras = run_scenario(cfg, write=False)
        assert extras["status"] == "ok"
        (pre_cfg, pre), (main_cfg, _) = calls
        assert pre_cfg.scheme == "etdrk4" and pre_cfg.dt == 0.002
        assert pre.times[-1] == 0.002
        assert main_cfg == cfg.solver

        calls.clear()
        cfg = tiny_config(tmp_path, params={"lam": 5.0, "burn_in": 0.05},
                          solver=SolverConfig(n=32, dt=1e-4, t_end=0.01,
                                              save_every=30))
        run_scenario(cfg, write=False)
        (pre_cfg, pre), _ = calls
        assert math.ceil(0.05 / pre_cfg.dt - 1e-9) == 17  # ceil(0.05/0.003)
        assert pre.times[-1] == pytest.approx(0.05, rel=1e-15)

    def test_callable_coefficient_keeps_the_rk4_burn_in(
            self, tmp_path, monkeypatch):
        build = harness._build_scenario

        def with_callable_a(cfg):
            gen, _, *rest = build(cfg)
            return (gen, lambda x, u, p: 1.0 + 0.1 * u * u, *rest)

        monkeypatch.setattr(harness, "_build_scenario", with_callable_a)
        calls = traced_integrate(monkeypatch)
        cfg = tiny_config(tmp_path, params={"lam": 5.0, "burn_in": 0.002})
        run_scenario(cfg, write=False)
        (pre_cfg, pre), _ = calls
        assert pre_cfg == replace(cfg.solver, t_end=0.002, save_every=10**9)
        gen, a, u0, *_ = with_callable_a(cfg)
        ref = integrate(gen, a, u0, pre_cfg)
        assert np.array_equal(pre.snapshots[-1].values,
                              ref.snapshots[-1].values)

    def test_blowup_in_the_burn_in_is_reported(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            params={"lam": -5.0, "burn_in": 1.0},
            solver=SolverConfig(n=32, t_end=1.0, save_every=40),
            initial={"kind": "fourier_modes", "modes": {"0": [2.0, 0.0]}},
        )
        with np.errstate(over="ignore", invalid="ignore"):
            traj, extras = run_scenario(cfg)
        assert extras["status"] == "blowup"
        assert traj.blew_up and 0.0 < traj.blowup_time < 1.0
        error = json.loads((tmp_path / "out" / "error.json").read_text())
        assert error["status"] == "blowup"
        assert error["blowup_time"] == traj.blowup_time
        assert f"t={traj.blowup_time:.6g}" in error["error"]


class TestFailuresNameTheSave:
    def test_escape_names_save_and_time(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = harness.field_report

        def escapes_at_third_save(ev, snap, ut, weight_a=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise CharacteristicEscape(0.25, "sample 4", var="s")
            return real(ev, snap, ut, weight_a)

        monkeypatch.setattr(harness, "field_report", escapes_at_third_save)
        cfg = tiny_config(tmp_path, solver=SolverConfig(n=32, t_end=0.01,
                                                        save_every=5))
        traj, extras = run_scenario(cfg)
        assert extras["status"] == "construction_failure"
        error = json.loads((tmp_path / "out" / "error.json").read_text())
        assert error["error"] == (
            "characteristic escaped its bound at s=0.25 (sample 4) "
            f"at save 2, t={traj.times[2]:.6g}")

    def test_separated_series_failure_keeps_its_type(self, tmp_path):
        # a step budget of one ends the first snapshot's characteristic solve
        cfg = tiny_config(
            tmp_path, scenario="matano_separated",
            params={"lam": 5.0, "eps": 0.5},
            solver=SolverConfig(n=32, t_end=0.004, save_every=5),
            charflow=CharflowConfig(max_steps=1))
        gen, _, u0, report, *_ = harness._build_scenario(cfg)
        traj = integrate(gen, None, u0, cfg.solver)
        with pytest.raises(IntegrationFailure,
                           match=r"step budget exhausted.* at save 0, t=0$"):
            harness._lyapunov_series(traj, report)
        _, extras = run_scenario(cfg)
        assert extras["status"] == "construction_failure"
        assert extras["error"].endswith("at save 0, t=0")


class TestLyapunovSeries:
    def test_one_field_eval_per_snapshot(self, tmp_path, monkeypatch):
        calls = {"field_eval": 0, "scalar": 0}
        orig = LagrangianEvaluator.field_eval

        def counted(self, u, p):
            calls["field_eval"] += 1
            return orig(self, u, p)

        def scalar(name):
            fn = getattr(LagrangianEvaluator, name)

            def wrapper(self, *args):
                calls["scalar"] += 1
                return fn(self, *args)
            return wrapper

        monkeypatch.setattr(LagrangianEvaluator, "field_eval", counted)
        for name in ("L", "L_pp", "F_q", "F"):
            monkeypatch.setattr(LagrangianEvaluator, name, scalar(name))
        assert not hasattr(LagrangianEvaluator, "L_pp_field")
        traj, extras = run_scenario(tiny_config(tmp_path), write=False)
        assert extras["status"] == "ok"
        assert calls == {"field_eval": len(traj.times), "scalar": 0}

    def test_separated_residual_is_the_decay_identity_residual(self, tmp_path):
        # one residual function for both constructions: the series column
        # and the separated-BC check agree bit for bit
        cfg = tiny_config(
            tmp_path, scenario="matano_separated",
            params={"lam": 5.0, "eps": 0.5},
            solver=SolverConfig(n=32, t_end=0.008, save_every=5),
            quadrature=QuadratureConfig(panels=8))
        traj, extras = run_scenario(cfg, write=False)
        assert extras["status"] == "ok" and len(traj.times) >= 4
        gen, *_ = harness._build_scenario(cfg)
        ref = matano.decay_identity_residual(gen, traj, cfg.charflow,
                                             cfg.quadrature)
        res = extras["residual"]
        assert np.isnan(res[0]) and np.isnan(res[-1])
        assert np.array_equal(res[1:-1], ref)


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "chafee_infante" in out and "planar_embedding" in out

    def test_check_suite(self, capsys):
        assert cli.main(["check"]) == 0
        assert "7/7 checks passed" in capsys.readouterr().out

    def test_run_exit_zero(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = tmp_path / "cfg.json"
        emit_config(cfg, path)
        assert cli.main(["run", str(path)]) == 0

    def test_run_exit_two_on_blowup(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            params={"lam": -5.0},
            solver=SolverConfig(n=32, t_end=1.0, save_every=200),
            initial={"kind": "fourier_modes", "modes": {"0": [2.0, 0.0]}},
        )
        path = tmp_path / "cfg.json"
        emit_config(cfg, path)
        assert cli.main(["run", str(path)]) == 2

    def test_run_exit_three_on_construction_failure(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            scenario="gradient_quadratic",
            params={"b": 60.0, "slope": -1.0},
            solver=SolverConfig(n=32, t_end=0.004, save_every=20),
            initial={"kind": "random_smooth", "seed": 1, "amplitude": 1.5},
        )
        path = tmp_path / "cfg.json"
        emit_config(cfg, path)
        assert cli.main(["run", str(path)]) == 3

    def test_sweep(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        cfg.output_path = str(tmp_path / "sweep")
        path = tmp_path / "cfg.json"
        emit_config(cfg, path)
        code = cli.main(["sweep", str(path), "--param", "params.lam",
                         "--values", "2.0,5.0", "--workers", "2"])
        assert code == 0
        assert (tmp_path / "sweep_lam=2.0" / "series.csv").exists()
        assert (tmp_path / "sweep_lam=5.0" / "series.csv").exists()
