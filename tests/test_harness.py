"""Tests for scenario plumbing, output emission and the command line."""

import csv
import json
import math
import os
import re
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from circlyap import cli, harness
from circlyap.charflow import CharacteristicEscape, CharflowConfig, IntegrationFailure
from circlyap.functional import (DIRICHLET, NEUMANN, PERIODIC, ScalarField,
                                 gradient)
from circlyap.harness import (
    PlanarField,
    ScenarioConfig,
    center_planar_field,
    embed_planar,
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
        initial=overrides.pop("initial", start_of(scenario)),
        output_path=str(tmp_path / "out"),
        **overrides,
    )
    return cfg


def write_config(cfg, path):
    """Writes ``cfg`` as a config file that ``circlyap run`` reads."""
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def start_of(scenario):
    """A seeded start, for the scenarios that read one."""
    if scenario in harness.OWN_START:
        return None
    return {"kind": "random_smooth", "seed": 2}


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

    def test_embedded_partial_matches_finite_difference(self):
        # f_p differences g and h numerically; no run evaluates it
        embed_planar(center_planar_field()).check_consistency(
            np.linspace(-3.0, 3.0, 7), np.linspace(-1.5, 1.5, 7),
            np.linspace(-1.5, 1.5, 7))

    @pytest.mark.parametrize("omega", [1.0, 0.5])
    def test_period_found_beyond_the_first_bracket(self, omega):
        # a rotation of period 2 pi / omega: 4 pi lies past t = 10, where
        # the bracketing grid widens to t = 50
        pf = PlanarField(g=lambda a, b: -omega * b, h=lambda a, b: omega * a)
        _, period = planar_orbit(pf, 0.0, 1.0)
        assert period == pytest.approx(2 * np.pi / omega, rel=1e-10)

    def test_center_orbit_conserves_energy_and_closes(self):
        pf = center_planar_field()
        at, period = planar_orbit(pf, 0.2, 1.1)

        def energy(a, b):
            return a * a / 2.0 + b * b / 4.0 - 0.5 * np.log(b)

        E0 = energy(0.2, 1.1)
        ts = np.linspace(0.0, period, 200)
        ab = at(ts)
        assert np.max(np.abs(energy(ab[0], ab[1]) - E0)) <= 1e-8
        end = at(period)
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

    @pytest.mark.parametrize("lam", [200.0, 800.0, 1500.0])
    def test_one_lap_where_several_laps_fit(self, lam):
        # ell/2 exceeds two small-amplitude half periods (pi/sqrt(lam)),
        # so amplitudes on 3- and more-lap branches also turn back by
        # ell/2; at 1500 the one-lap amplitudes span less than 1/65
        n = 256
        prof = equilibrium_profile(lam, 1.0, n)
        signs = prof > 0
        assert np.count_nonzero(signs != np.roll(signs, 1)) == 2
        assert np.argmax(prof) == 0
        assert np.max(np.abs(prof[1:] - prof[:0:-1])) <= 1e-9

    def test_non_monotone_profile_is_an_error(self):
        # at lam = 2500 the amplitude is resolved only to rounding in
        # 1 - A: the half profile found is one-lap but rises by about
        # 4e-7 near ell/2
        with pytest.raises(RuntimeError, match=r"lam=2500 profile found "
                                               r"rises by"):
            equilibrium_profile(2500.0, 1.0, 128)

    def test_unresolvable_amplitude_is_an_error(self):
        # 1 - A of the one-lap profile is below rounding at lam = 20000
        with pytest.raises(RuntimeError, match="not one-lap"):
            equilibrium_profile(20000.0, 1.0, 64)

    @staticmethod
    def _reference(lam, ell, n):
        """The profile by scalar bisection of the first turning point,
        each step a solve_ivp solve at rtol 1e-12, integrated forward over
        the whole period."""
        from scipy.integrate import solve_ivp

        def rhs(x, y):
            return [y[1], -lam * y[0] * (1.0 - y[0] ** 2)]

        def turning(x, y):
            return y[1]

        turning.terminal = True
        turning.direction = 1.0

        def half_period(A):
            sol = solve_ivp(rhs, (0.0, 10.0 * ell), (A, 0.0), "DOP853",
                            rtol=1e-12, atol=1e-14, events=turning)
            return sol.t_events[0][0] if sol.t_events[0].size else np.inf

        lo, hi = 1e-6, 1.0 - 1e-9
        while hi - lo >= 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if half_period(mid) < 0.5 * ell else (lo, mid)
        sol = solve_ivp(rhs, (0.0, ell), (0.5 * (lo + hi), 0.0), "DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        return sol.sol(np.arange(n) * (ell / n))[0]

    @pytest.mark.parametrize("lam", [50.0, 200.0])
    def test_matches_solve_ivp_reference(self, lam):
        prof = equilibrium_profile(lam, 1.0, 64)
        assert np.max(np.abs(prof - self._reference(lam, 1.0, 64))) <= 1e-9


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

    def test_neumann_uses_cosine_series(self):
        # a cosine series is flat at both ends, up to the one-sided
        # slope's O(h^2) error; a sine series slopes there by 0.1 to 0.8
        fld = make_initial({"kind": "random_smooth", "seed": 0}, 128, 1.0,
                           NEUMANN)
        slope = gradient(fld)
        assert abs(slope[0]) < 2e-3 and abs(slope[-1]) < 2e-3

    def test_interval_mode_table_takes_its_basis(self):
        modes = {"1": [0.5, 0.0], "2": [0.0, 0.25]}
        fld = make_initial({"kind": "fourier_modes", "modes": modes}, 64,
                           2.0, PERIODIC)
        x = fld.grid()
        assert np.array_equal(fld.values, 0.5 * np.cos(np.pi * x)
                              + 0.25 * np.sin(2 * np.pi * x))
        for bc, basis, other in ((DIRICHLET, np.sin, "1"),
                                 (NEUMANN, np.cos, "2")):
            with pytest.raises(ValueError, match=rf"mode {other}: a {bc} "):
                make_initial({"kind": "fourier_modes", "modes": modes}, 64,
                             2.0, bc)
            table = {k: v for k, v in modes.items() if k != other}
            fld = make_initial({"kind": "fourier_modes", "modes": table}, 64,
                               2.0, bc)
            (k, (c, s)), = table.items()
            expected = (c + s) * basis(np.pi * int(k) * fld.grid() / 2.0)
            assert np.max(np.abs(fld.values - expected)) <= 1e-15


class TestFromFile:
    """The ``from_file`` initial condition reloads a run's snapshot CSV."""

    @staticmethod
    def _last_snapshot(tmp_path, scenario):
        traj, extras = run_scenario(tiny_config(tmp_path, scenario=scenario))
        assert extras["status"] == "ok"
        path = sorted((tmp_path / "out").glob("snapshot_*.csv"))[-1]
        return traj.snapshots[-1].values, {"kind": "from_file",
                                           "path": str(path)}

    def test_periodic_reload_is_exact(self, tmp_path):
        # the grid abscissae are written exactly and u to 17 digits
        u, spec = self._last_snapshot(tmp_path, "chafee_infante")
        fld = make_initial(spec, 32, 1.0, PERIODIC)
        assert fld.bc == PERIODIC
        assert np.array_equal(fld.values, u)

    def test_dirichlet_reload_pins_the_ends(self, tmp_path):
        u, spec = self._last_snapshot(tmp_path, "matano_separated")
        fld = make_initial(spec, 32, 1.0, "dirichlet")
        assert fld.values[0] == 0.0 and fld.values[-1] == 0.0
        # linspace abscissae round in their 12th digit
        assert np.max(np.abs(fld.values[1:-1] - u[1:-1])) <= 1e-12

    def test_finer_grid_interpolates_across_the_seam(self, tmp_path):
        u, spec = self._last_snapshot(tmp_path, "chafee_infante")
        fld = make_initial(spec, 128, 1.0, PERIODIC)
        assert np.array_equal(fld.values[::4], u)
        # beyond the last saved abscissa 31/32, toward u(1) = u(0)
        for j in (1, 2, 3):
            assert fld.values[124 + j] == pytest.approx(
                u[31] + (u[0] - u[31]) * j / 4, rel=1e-14, abs=1e-15)


class TestShiftMatch:
    def test_recovers_integer_roll(self):
        n = 128
        x = np.arange(n) / n
        u_ref = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
        shifted = np.roll(u_ref, 17)
        theta, mismatch = shift_match(u_ref, shifted, 1.0)
        assert theta == pytest.approx(17 / n, abs=1e-6)
        assert mismatch <= 1e-14

    def test_shift_is_signed(self):
        # no shift reads 0, not ell, and a left shift reads negative
        n = 128
        x = np.arange(n) / n
        u_ref = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
        assert abs(shift_match(u_ref, u_ref, 1.0)[0]) <= 1e-12
        theta, _ = shift_match(u_ref, np.roll(u_ref, -17), 1.0)
        assert theta == pytest.approx(-17 / n, abs=1e-6)

    def test_wave_moving_in_minus_x_has_negative_speed(self):
        # criterion 06's settings with c = -1; an unsigned shift read the
        # wave's -1/8 as 7/8, a speed of 7
        cfg = ScenarioConfig(
            scenario="rotating_wave", params={"lam": 50.0, "c": -1.0},
            solver=SolverConfig(n=512, dt=0.125 / 320, t_end=0.125,
                                save_every=40, scheme="etdrk4"))
        _, extras = run_scenario(cfg, write=False)
        assert extras["speed_estimate"] == pytest.approx(-1.0, rel=1e-3)

    @pytest.mark.parametrize("c", [1.0, -1.0])
    def test_speed_unwraps_beyond_half_a_lap(self, c):
        # the wave travels 0.75 * ell; the save interval moves it ell / 16
        cfg = ScenarioConfig(
            scenario="rotating_wave", params={"lam": 50.0, "c": c},
            solver=SolverConfig(n=128, dt=1 / 1024, t_end=0.75,
                                save_every=64, scheme="etdrk4"))
        _, extras = run_scenario(cfg, write=False)
        assert extras["speed_estimate"] == pytest.approx(c, rel=1e-3)


class TestConfigRoundTrip:
    def test_parse_emit_identity(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = write_config(cfg, tmp_path / "config.json")
        assert parse_config(path) == cfg

    @pytest.mark.parametrize("scenario", sorted(harness.SCENARIOS))
    def test_dict_round_trip_of_every_scenario(self, scenario):
        cfg = ScenarioConfig(scenario=scenario)
        assert cfg.params == harness.SCENARIOS[scenario][1]
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_resolved_params_written_to_manifest(self, tmp_path):
        cfg = tiny_config(tmp_path, params={})
        run_scenario(cfg)
        manifest = json.loads((tmp_path / "out" / "run_manifest.json")
                              .read_text())
        assert manifest["config"]["params"] == {"lam": 15.0, "ell": 1.0,
                                                "burn_in": 0.0}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="nope")

    def test_unknown_top_level_key_rejected(self):
        # "param" for "params" once ran chafee_infante at its default lam
        d = {"scenario": "chafee_infante", "param": {"lam": 3.0}}
        with pytest.raises(ValueError) as err:
            ScenarioConfig.from_dict(d)
        msg = str(err.value)
        assert "'param'" in msg
        for key in ("scenario", "params", "solver", "quadrature", "charflow",
                    "initial", "output_path", "format_version"):
            assert f"'{key}'" in msg

    @pytest.mark.parametrize("scenario", sorted(harness.OWN_START))
    def test_explicit_initial_rejected_where_the_start_is_built(
            self, scenario):
        with pytest.raises(ValueError, match="reads no 'initial'"):
            ScenarioConfig(scenario=scenario, initial={"kind": "bogus"})
        with pytest.raises(ValueError, match="reads no 'initial'"):
            ScenarioConfig.from_dict({"scenario": scenario,
                                      "initial": {"kind": "random_smooth"}})
        # the config a manifest records still parses
        d = ScenarioConfig(scenario=scenario).to_dict()
        assert "initial" not in d
        assert ScenarioConfig.from_dict(d).initial is None

    def test_initial_default_where_the_config_gives_none(self):
        cfg = ScenarioConfig.from_dict({"scenario": "chafee_infante"})
        assert cfg.initial == {"kind": "random_smooth", "seed": 0}

    def test_nested_panels_in_json_is_ignored(self, tmp_path):
        cfg = tiny_config(tmp_path, scenario="matano_separated")
        d = cfg.to_dict()
        assert "nested_panels" not in d["quadrature"]
        d["quadrature"]["nested_panels"] = 16
        path = tmp_path / "old.json"
        path.write_text(json.dumps(d))
        assert parse_config(path) == cfg


    def test_library_and_scenario_tolerances(self):
        # criteria 01-03 and 10, criterion 08's h^2 = 1e-8 stencil check and
        # the scalar API solve at the library default; scenario runs at the
        # looser SCENARIO_CHARFLOW (tools/work_precision.py)
        lib = CharflowConfig()
        assert (lib.rel_tol, lib.abs_tol) == (1e-10, 1e-12)
        scn = ScenarioConfig(scenario="chafee_infante").charflow
        assert scn == harness.SCENARIO_CHARFLOW
        assert (scn.rel_tol, scn.abs_tol) == (1e-8, 1e-10)
        assert ScenarioConfig.from_dict(
            {"scenario": "chafee_infante"}).charflow == scn

    def test_partial_charflow_section_keeps_the_scenario_tolerances(
            self, tmp_path):
        d = tiny_config(tmp_path).to_dict()
        d["charflow"] = {"max_steps": 5000}
        cfg = ScenarioConfig.from_dict(d)
        assert cfg.charflow == replace(harness.SCENARIO_CHARFLOW,
                                       max_steps=5000)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
        run_scenario(cfg)
        manifest = json.loads((tmp_path / "out" / "run_manifest.json")
                              .read_text())
        assert manifest["config"]["charflow"] == {
            "rel_tol": 1e-8, "abs_tol": 1e-10, "escape_bound": 1e12,
            "max_steps": 5000}

    @pytest.mark.parametrize("version", [0, 2, "1", 1.5, True, None])
    def test_unknown_format_version_rejected(self, version):
        with pytest.raises(ValueError, match="format_version"):
            ScenarioConfig.from_dict({"scenario": "chafee_infante",
                                      "format_version": version})

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

    @pytest.mark.parametrize("section, value, message", [
        ("solver", {"scheme": "imex", "dt": 1e-3},
         "scheme 'imex' is unknown"),
        ("quadrature", {"rule": "simpson", "nested_panels": 16},
         "quadrature rule 'simpson' is unknown"),
    ], ids=["imex", "simpson"])
    def test_retired_values_fail_at_parse_time(self, tmp_path, section,
                                               value, message):
        d = tiny_config(tmp_path).to_dict()
        d[section].update(value)
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=message):
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

    def test_recorded_library_tolerances_reproduce_the_outputs(
            self, tmp_path):
        # every manifest written while scenario runs solved at the library
        # default records {"rel_tol": 1e-10, "abs_tol": 1e-12}; such a
        # config still writes the bytes a run at the library default writes
        def run(name, **section):
            d = tiny_config(tmp_path, scenario="gradient_quadratic",
                            params={"b": 3.0},
                            solver=SolverConfig(n=32, t_end=0.004,
                                                save_every=4)).to_dict()
            d["charflow"] = section
            d["output_path"] = str(tmp_path / name)
            assert run_scenario(ScenarioConfig.from_dict(d))[1]["status"] \
                == "ok"
            return {p.name: p.read_bytes()
                    for p in (tmp_path / name).glob("*.csv")}

        old = run("old", rel_tol=1e-10, abs_tol=1e-12)
        lib = run("lib", **asdict(CharflowConfig()))
        assert "series.csv" in lib and len(lib) > 3
        assert old == lib
        # at b = 3 the tolerance reaches the series' 12 digits, so the
        # equality above shows that the recorded tolerances ran
        assert run("scenario_default")["series.csv"] != lib["series.csv"]

    def test_snapshot_bytes_equal_csv_writer(self, tmp_path):
        # series.csv and every snapshot file hold the bytes csv.writer
        # writes for the same fields
        def csv_writer_bytes(rows):
            with open(tmp_path / "expected.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            return (tmp_path / "expected.csv").read_bytes()

        # negative, tiny and subnormal values, and values that need all 17
        # significant digits; the periodic grid 2 pi k / 9 needs 12
        values = np.array([-1.0 / 3.0, 0.1 + 0.2, 5e-324, -2.5e-308,
                           1e300, -0.0, 123456789.01234567, -7e-17, 2.0])
        first = ScalarField(values, 2 * np.pi, PERIODIC)
        second = first.like(3.0 * values[::-1])
        keys = ("V", "dissipation", "residual", "convexity_min", "ut_inf")

        def series(saves, **columns):
            cols = {k: values[i:i + saves] for i, k in enumerate(keys)}
            return {**cols, **columns, "status": "ok"}

        cases = {
            "one_save": ([first], series(1)),
            # the files of both saves share the grid column
            "two_saves": ([first, second], series(2)),
            # the centred residual is not defined at the first and last save
            "nan_residual": ([first, second, first],
                             series(3, residual=[np.nan, 2.0, np.nan])),
            # planar_embedding's Fourier mode columns
            "modes": ([first, second],
                      series(2, ab_pde=np.array([[0.2, 1.1],
                                                 [-1.0 / 3.0, 5e-324]]))),
        }
        for name, (snaps, extras) in cases.items():
            times = np.array([0.0, 1.0 / 3.0, 2e-7])[:len(snaps)]
            traj = harness.TrajectoryRecord(times, snaps, snaps)
            out = tmp_path / name
            harness._write_outputs(out, tiny_config(tmp_path), traj, extras)
            header = ["t", *keys]
            rows = [[t, *(extras[k][i] for k in keys)]
                    for i, t in enumerate(times)]
            if "ab_pde" in extras:
                header += ["a_mode", "b_mode"]
                rows = [row + list(ab) for row, ab in zip(rows,
                                                           extras["ab_pde"])]
            assert (out / "series.csv").read_bytes() == csv_writer_bytes(
                [header] + [[f"{v:.12g}" if np.isfinite(v) else ""
                             for v in row] for row in rows]), name
            for k, snap in enumerate(snaps):
                expected = csv_writer_bytes(
                    [["x", "u"]] + [[f"{xi:.12g}", f"{ui:.17g}"]
                                    for xi, ui in zip(snap.grid(),
                                                      snap.values)])
                assert (out / f"snapshot_{k:04d}.csv").read_bytes() \
                    == expected, (name, k)
        assert b"-0.33333333333333331\r\n" in \
            (tmp_path / "one_save" / "snapshot_0000.csv").read_bytes()
        nan_series = (tmp_path / "nan_residual" / "series.csv").read_bytes()
        assert [row.split(b",")[3] for row in nan_series.split(b"\r\n")[1:4]] \
            == [b"", b"2", b""]
        x_columns = [[row.split(b",")[0] for row in (
            tmp_path / "two_saves" / f"snapshot_{k:04d}.csv").read_bytes()
            .split(b"\r\n")] for k in (0, 1)]
        assert x_columns[0] == x_columns[1]

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


# scenarios with a Lyapunov construction; the drift of rotating_wave (any
# c, 0 included) and the planar embedding have none
_WITH_SERIES = {"chafee_infante", "gradient_quadratic", "qlinear",
                "frozen_wave", "matano_separated"}


def every_scenario_config(tmp_path, scenario, **params):
    solver = SolverConfig(n=32, t_end=0.004, save_every=5)
    if scenario == "planar_embedding":
        solver = SolverConfig(n=32, dt=2e-2, save_every=100, scheme="etdrk4")
    return ScenarioConfig(scenario=scenario, params=params, solver=solver,
                          quadrature=QuadratureConfig(panels=4),
                          initial=start_of(scenario),
                          output_path=str(tmp_path / scenario))


class TestEveryScenario:
    @pytest.mark.parametrize("scenario, params", [
        *[(name, {}) for name in sorted(harness.SCENARIOS)],
        ("rotating_wave", {"c": 0.0})])
    def test_series_exactly_where_a_construction_applies(
            self, tmp_path, scenario, params):
        traj, extras = run_scenario(
            every_scenario_config(tmp_path, scenario, **params))
        assert extras["status"] == "ok" and len(traj.times) >= 3
        rows = [extras[k] for k in ("V", "dissipation", "convexity_min")]
        if scenario in _WITH_SERIES:
            assert all(np.isfinite(r).all() for r in rows)
            assert np.isfinite(extras["residual"][1:-1]).all()
        else:
            assert all(np.isnan(r).all() for r in rows + [extras["residual"]])

    def test_frozen_wave_stays_frozen(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="frozen_wave",
            solver=SolverConfig(n=128, dt=1e-4, t_end=0.01, save_every=20,
                                scheme="etdrk4"),
            quadrature=QuadratureConfig(panels=4))
        _, extras = run_scenario(cfg, write=False)
        assert extras["status"] == "ok"
        assert extras["profile_drift"] < 1e-3

    @pytest.mark.parametrize("burn_in, error", [
        (0.0, r"sample 51 at \(x, u, p\) = \(0\.809524, -0\.649872, 4\.2187\)"),
        (0.01, r"sample 57 at \(x, u, p\) = \(0\.904762, -0\.308888, "
               r"3\.24789\)"),
        (0.05, None)])
    def test_matano_separated_domain(self, tmp_path, burn_in, error):
        # the default random_smooth field at seed 3 is steep enough (slope
        # 4.2) that a backward characteristic escapes before x = 0; a
        # burn-in of 0.05 flattens it into the construction's domain
        cfg = ScenarioConfig(
            scenario="matano_separated", params={"burn_in": burn_in},
            solver=SolverConfig(n=64, t_end=0.004, save_every=20),
            initial={"kind": "random_smooth", "seed": 3})
        _, extras = run_scenario(cfg, write=False)
        if error is None:
            assert extras["status"] == "ok"
        else:
            assert extras["status"] == "construction_failure"
            assert re.search(error + r".* at save 0, t=0$", extras["error"])


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


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "chafee_infante" in out and "planar_embedding" in out

    def test_list_scenarios_prints_parameter_defaults(self, capsys):
        cli.main(["list-scenarios"])
        lines = capsys.readouterr().out.splitlines()
        row = [i for i, line in enumerate(lines)
               if line.startswith("chafee_infante ")][0]
        assert lines[row + 1].split() == ["lam=15", "ell=1", "burn_in=0"]

    def test_check_suite(self, capsys):
        assert cli.main(["check"]) == 0
        assert "7/7 checks passed" in capsys.readouterr().out

    def test_run_exit_zero(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = write_config(cfg, tmp_path / "cfg.json")
        assert cli.main(["run", str(path)]) == 0

    def test_run_exit_two_on_blowup(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            params={"lam": -5.0},
            solver=SolverConfig(n=32, t_end=1.0, save_every=200),
            initial={"kind": "fourier_modes", "modes": {"0": [2.0, 0.0]}},
        )
        path = write_config(cfg, tmp_path / "cfg.json")
        assert cli.main(["run", str(path)]) == 2

    def test_run_exit_three_on_construction_failure(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            scenario="gradient_quadratic",
            params={"b": 60.0, "slope": -1.0},
            solver=SolverConfig(n=32, t_end=0.004, save_every=20),
            initial={"kind": "random_smooth", "seed": 1, "amplitude": 1.5},
        )
        path = write_config(cfg, tmp_path / "cfg.json")
        assert cli.main(["run", str(path)]) == 3

    def test_sweep(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        cfg.output_path = str(tmp_path / "sweep")
        path = write_config(cfg, tmp_path / "cfg.json")
        code = cli.main(["sweep", str(path), "--param", "params.lam",
                         "--values", "2.0,5.0", "--workers", "2"])
        assert code == 0
        assert (tmp_path / "sweep_lam=2.0" / "series.csv").exists()
        assert (tmp_path / "sweep_lam=5.0" / "series.csv").exists()

    def test_sweep_follows_the_output_root(self, tmp_path, monkeypatch):
        # without output_path a job goes where a run of its config would,
        # with _<leaf>=<value> appended
        monkeypatch.setenv("CIRCLYAP_OUTPUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        cfg = tiny_config(tmp_path)
        cfg.output_path = None
        path = write_config(cfg, tmp_path / "cfg.json")
        assert cli.main(["sweep", str(path), "--param", "params.lam",
                         "--values", "2.0,5.0", "--workers", "1"]) == 0
        for v in ("2.0", "5.0"):
            assert (tmp_path / "root" / f"chafee_infante_lam={v}"
                    / "series.csv").exists()
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("edit", [
        lambda d: d["solver"].update(save_every=0),
        lambda d: d["solver"].update(n=4),
        lambda d: d["solver"].update(nosuch=1),
        lambda d: d.pop("scenario"),
        lambda d: d.update(scenario="nosuch"),
        lambda d: d["params"].update(lamda=3.0),
        lambda d: d["params"].update(lam="3"),
        lambda d: d.update(scenario="frozen_wave", params={"c": 1.0}),
        lambda d: d.update(scenario="planar_embedding", params={"ell": 1.0}),
        lambda d: d.update(scenario="qlinear", params={"a_const": 0}),
        lambda d: d.update(scenario="qlinear", params={"a_const": -1}),
        lambda d: d["params"].update(burn_in=-1),
        lambda d: d["params"].update(ell=0),
        lambda d: d.update(param=d.pop("params")),
        lambda d: d.update(scenario="frozen_wave", params={}),
        # a scenario whose start the library cannot find (RuntimeError):
        # no one-lap profile resolved at lam = 6000, and an orbit that only
        # touches the section a = a0 at b0 = 1
        lambda d: d.update(scenario="frozen_wave", params={"lam": 6000.0},
                           initial=None),
        lambda d: d.update(scenario="planar_embedding", params={"b0": 1.0},
                           initial=None),
        # a setting that is not a finite number, or a count that is not an
        # integer: each once crashed with a traceback, or ran and exited 0
        lambda d: d["solver"].update(t_end=math.inf),
        lambda d: d["solver"].update(dt=math.nan),
        lambda d: d["solver"].update(scheme="etdrk4", dt=math.inf),
        lambda d: d["solver"].update(n=64.5),
        lambda d: d["solver"].update(save_every=True),
        lambda d: d["solver"].update(save_every=2.5),
        lambda d: d["quadrature"].update(panels=8.0),
        lambda d: d["charflow"].update(max_steps=10.5),
        lambda d: d["charflow"].update(rel_tol=math.inf),
        # an initial value that is not a finite number, or a count that is
        # not an integer: each once blew up at t=0, or was truncated while
        # the manifest recorded it as given
        lambda d: d["initial"].update(amplitude=math.nan),
        lambda d: d["initial"].update(amplitude=math.inf),
        lambda d: d["initial"].update(amplitude="0.5"),
        lambda d: d["initial"].update(amplitude=True),
        lambda d: d.update(initial={"kind": "fourier_modes",
                                    "modes": {"1": [0.1, math.nan]}}),
        lambda d: d["initial"].update(seed=2.7),
        lambda d: d["initial"].update(n_modes=8.5),
        lambda d: d["initial"].update(n_modes=0),
        # a format this code does not know
        lambda d: d.update(format_version=2),
    ], ids=["save_every_0", "n_4", "unknown_solver_key", "no_scenario",
            "unknown_scenario", "lamda_typo", "lam_not_a_number",
            "frozen_wave_c", "planar_embedding_ell", "a_const_0",
            "a_const_negative", "burn_in_negative", "ell_0",
            "param_for_params", "initial_of_frozen_wave",
            "frozen_wave_no_profile", "planar_embedding_no_return",
            "t_end_inf",
            "dt_nan", "etdrk4_dt_inf", "n_fractional", "save_every_bool",
            "save_every_fractional", "panels_float", "max_steps_fractional",
            "rel_tol_inf", "amplitude_nan", "amplitude_inf",
            "amplitude_string", "amplitude_bool", "mode_coefficient_nan",
            "seed_fractional", "n_modes_fractional", "n_modes_0",
            "format_version_2"])
    def test_run_exit_four_on_invalid_config(self, tmp_path, capsys, edit):
        cfg = tiny_config(tmp_path).to_dict()
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_BAD_CONFIG == 4
        err = capsys.readouterr().err
        assert err.startswith(f"circlyap: bad config {path}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_scenario_lists_the_known_ones(self, tmp_path, capsys):
        cfg = dict(tiny_config(tmp_path).to_dict(), scenario="nosuch")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 4
        assert f"known: {sorted(harness.SCENARIOS)}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, edit", [
        ("chafee_infante", {"initial": {"kind": "bogus"}}),
        ("rotating_wave", {"params": {"lam": 10.0}}),
        ("chafee_infante", {"initial": {"kind": "random_smooth", "sed": 3}}),
        ("matano_separated", {"initial": {"kind": "fourier_modes",
                                          "modes": {"1": [0.5, 0.25]}}}),
        ("chafee_infante", {"initial": {"kind": "fourier_modes",
                                        "modes": {"1": 0.5}}}),
        ("chafee_infante", {"initial": {"kind": "fourier_modes",
                                        "modes": [[0.5, 0.1]]}}),
        # a from_file start reads "start.csv" in tmp_path, holding the
        # "csv" lines given here, or no file at all
        ("chafee_infante", {"initial": {"kind": "from_file"}}),
        ("chafee_infante", {"initial": {"kind": "from_file"},
                            "csv": ["x,u", "0.0", "0.5"]}),
        ("chafee_infante", {"initial": {"kind": "from_file"},
                            "csv": ["x,u", "0.0,0.1"]}),
        ("chafee_infante", {"initial": {"kind": "from_file"},
                            "csv": ["x,u", "0.0,0.1", "0.5,nan"]}),
        ("chafee_infante", {"initial": {"kind": "from_file"},
                            "csv": ["x,u"]}),
    ], ids=["unknown_initial_kind", "subcritical_lam", "initial_key_typo",
            "cosine_mode_on_interval", "mode_not_a_pair", "modes_not_a_table",
            "missing_file", "one_column_file", "one_row_file",
            "nan_in_file", "header_only_file"])
    def test_run_exit_four_when_the_scenario_cannot_be_built(
            self, tmp_path, capsys, scenario, edit):
        cfg = tiny_config(tmp_path, scenario=scenario).to_dict()
        edit = dict(edit)
        lines = edit.pop("csv", None)
        if edit.get("initial", {}).get("kind") == "from_file":
            start = tmp_path / "start.csv"
            edit["initial"] = {**edit["initial"], "path": str(start)}
            if lines is not None:
                start.write_text("\n".join(lines) + "\n")
        cfg.update(edit)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        # a warning on the way, as numpy's on a file of its header alone
        # once was, would be a second stderr line, or escape as an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"circlyap: bad config {path}: ConfigError: "
                              f"scenario {scenario!r}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        # library callers still see a ValueError
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig.from_dict(cfg), write=False)

    def test_sweep_reports_a_job_that_cannot_be_built(self, tmp_path,
                                                       capsys):
        cfg = tiny_config(tmp_path, scenario="rotating_wave",
                          params={"lam": 50.0},
                          solver=SolverConfig(n=32, t_end=1e-4,
                                              save_every=10))
        path = write_config(cfg, tmp_path / "cfg.json")
        code = cli.main(["sweep", str(path), "--param", "params.lam",
                         "--values", "10.0,50.0", "--workers", "1"])
        assert code == 4
        out, err = capsys.readouterr()
        assert out.splitlines() == ["params.lam=10.0: bad_config",
                                    "params.lam=50.0: ok"]
        assert len(err.splitlines()) == 1 and "lam must exceed" in err
        assert (tmp_path / "out_lam=50.0" / "series.csv").exists()
        assert not (tmp_path / "out_lam=10.0").exists()

    def test_sweep_reports_a_start_that_is_not_found(self, tmp_path,
                                                      capsys):
        # the library raises RuntimeError for the lam = 6000 profile; the
        # sweep reports that job and runs the other
        cfg = tiny_config(tmp_path, scenario="frozen_wave",
                          params={"lam": 50.0},
                          solver=SolverConfig(n=32, t_end=1e-4,
                                              save_every=10))
        path = write_config(cfg, tmp_path / "cfg.json")
        code = cli.main(["sweep", str(path), "--param", "params.lam",
                         "--values", "50,6000", "--workers", "1"])
        assert code == 4
        out, err = capsys.readouterr()
        assert out.splitlines() == ["params.lam=50: ok",
                                    "params.lam=6000: bad_config"]
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "lam=6000 profile found" in err
        assert (tmp_path / "out_lam=50" / "series.csv").exists()
        assert not (tmp_path / "out_lam=6000").exists()

    def test_sweep_exit_four_on_an_unknown_top_level_key(
            self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a job started before validation ended")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        d = tiny_config(tmp_path).to_dict()
        d["param"] = {"lam": 3.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        code = cli.main(["sweep", str(path), "--param", "params.lam",
                         "--values", "2.0,5.0"])
        assert code == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "'param'" in err

    def test_list_scenarios_says_which_read_initial(self, capsys):
        cli.main(["list-scenarios"])
        lines = capsys.readouterr().out.splitlines()
        for name in harness.SCENARIOS:
            row = [i for i, line in enumerate(lines)
                   if line.startswith(f"{name} ")][0]
            reads = "'initial' is an error" not in lines[row + 2]
            assert reads == (name not in harness.OWN_START), name

    @pytest.mark.parametrize("text", [None, "{not json"],
                             ids=["missing", "malformed"])
    def test_run_exit_four_on_unreadable_config(self, tmp_path, capsys,
                                                text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["run", str(path)]) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("param, values", [
        ("nosuch.lam", "2.0"),
        ("nosuch", "2.0"),
        ("scenario.lam", "2.0"),
        ("solver.nosuch", "2.0"),
        ("solver.save_every", "10,0"),
        ("params.lamda", "3,5"),
        ("format_version", "1,2"),
    ])
    def test_sweep_exit_four_before_any_job(self, tmp_path, capsys,
                                            monkeypatch, param, values):
        def no_pool(*args, **kwargs):
            raise AssertionError("a job started before validation ended")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        path = write_config(tiny_config(tmp_path), tmp_path / "cfg.json")
        code = cli.main(["sweep", str(path), "--param", param,
                         "--values", values])
        assert code == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
