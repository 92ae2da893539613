"""Acceptance gate: one test per headline capability.

Each test prints a single PASS/FAIL line with the measured quantity and
its tolerance, then asserts.  Run with ``pytest tests/test_acceptance.py``.
"""

import time

import numpy as np
import pytest

from circlyap.charflow import (
    CharflowConfig,
    NonlinearityO2,
    compose_check,
    evolve,
    evolve_batch,
)
from circlyap.functional import DIRICHLET, PERIODIC, ScalarField, gradient
from circlyap.harness import (
    ScenarioConfig,
    chafee_infante_nl,
    run_scenario,
)
from circlyap.lagrangian import (
    DOUBLE_INTEGRAL,
    GAUSS_LEGENDRE,
    LagrangianEvaluator,
    QuadratureConfig,
)
from circlyap.matano import SeparatedEvaluator, integrability_defect
from circlyap.pde import GeneralNonlinearity, SolverConfig


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number:02d}] {name}: "
              f"{'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def mixed_nl(lam=2.0, c=1.0):
    return NonlinearityO2(
        f_bar=lambda u, q: lam * u * (1.0 - u * u) + c * q * u,
        f_bar_q=lambda u, q: c * u + 0.0 * q,
        label=f"mixed(lam={lam},c={c})")


def gradient_quadratic_o2(b=0.8, slope=-1.0):
    return NonlinearityO2(f_bar=lambda u, q: slope * u + b * q,
                          f_bar_q=lambda u, q: np.full_like(
                              np.asarray(q, dtype=float), b),
                          label=f"gq(b={b})")


def monitored_solver(n, dt_save, t_end):
    """ETDRK4 at four steps per save, dt_save dividing t_end: its time
    error stays far below the decay residual (the same printed digits at
    dt_save/16), so the refinement drop measures the spatial scheme."""
    return SolverConfig(n=n, dt=dt_save / 4, t_end=t_end, save_every=4,
                        scheme="etdrk4")


def residual_ratio(extras):
    res = np.nanmax(extras["residual"])
    scale = max(1.0, np.nanmax(np.abs(extras["dissipation"])))
    return res / scale


class TestAcceptance:
    def test_01_classical_reduction(self, capsys):
        lam = 2.0
        ev = LagrangianEvaluator(chafee_infante_nl(lam))
        uu, pp = np.meshgrid(np.linspace(-2, 2, 17), np.linspace(-3, 3, 17))
        u, p = uu.ravel(), pp.ravel()
        fe = ev.field_eval(u, p)
        F = lam * (u * u / 2.0 - u**4 / 4.0)
        err = np.max(np.abs(fe["L"] - (0.5 * p * p - F)))
        _report(capsys, 1, "classical reduction", err <= 1e-8,
                f"max|L - (p²/2 - F)| = {err:.3e} (tol 1e-8)")

    def test_02_form_equivalence(self, capsys):
        qc = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=16)
        worst = 0.0
        for nl in (chafee_infante_nl(2.0), mixed_nl(2.0, 1.0),
                   gradient_quadratic_o2(0.8, -1.0)):
            ev_d = LagrangianEvaluator(nl, quad_cfg=qc, form=DOUBLE_INTEGRAL)
            ev_r = LagrangianEvaluator(nl, quad_cfg=qc)
            for u in np.linspace(-2, 2, 5):
                for p in np.linspace(-3, 3, 5):
                    Ld, Lr = ev_d.L(u, p), ev_r.L(u, p)
                    worst = max(worst,
                                abs(Ld - Lr) / max(1.0, abs(Lr)))
        _report(capsys, 2, "double-integral vs reduced form", worst <= 1e-6,
                f"max relative gap over 3 nonlinearities = {worst:.3e} "
                f"(tol 1e-6)")

    def test_03_identity_suite(self, capsys):
        qc = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=32)
        rng = np.random.default_rng(12)
        worst = 0.0
        for nl in (chafee_infante_nl(2.0), mixed_nl(2.0, 1.0)):
            ev = LagrangianEvaluator(nl, quad_cfg=qc)
            for _ in range(20):
                u = rng.uniform(-2.0, 2.0)
                q = rng.uniform(0.0, 4.0)
                sens = evolve(nl, u, 0.0, q).sensitivity
                worst = max(worst, abs(np.exp(ev.F_q(u, q)) - sens))
                worst = max(worst,
                            abs(ev.F(u) - evolve(nl, u, 0.0, 0.0).value))
        _report(capsys, 3, "exp F_q and F identities", worst <= 1e-6,
                f"max deviation on sampled points = {worst:.3e} (tol 1e-6)")

    def test_04_decay_identity_refinement(self, capsys):
        runs = {
            "chafee_infante": dict(params={"lam": 15.0, "burn_in": 0.1},
                                   initial={"kind": "random_smooth",
                                            "seed": 7},
                                   coarse=(256, 2e-3), fine=(512, 1e-3),
                                   t_end=0.02),
            "gradient_quadratic": dict(params={"b": 1.0, "slope": -1.0,
                                               "burn_in": 0.05},
                                       initial={"kind": "random_smooth",
                                                "seed": 11},
                                       coarse=(256, 5e-4), fine=(512, 2.5e-4),
                                       t_end=0.05),
        }
        details, ok = [], True
        for scen, spec in runs.items():
            ratios = []
            for n, dt_save in (spec["coarse"], spec["fine"]):
                cfg = ScenarioConfig(
                    scenario=scen, params=spec["params"],
                    initial=spec["initial"],
                    solver=monitored_solver(n, dt_save, spec["t_end"]))
                _, extras = run_scenario(cfg, write=False)
                assert extras["status"] == "ok"
                ratios.append(residual_ratio(extras))
            drop = ratios[0] / ratios[1]
            ok = ok and ratios[0] <= 1e-3 and 2.5 <= drop <= 6.0
            details.append(f"{scen}: residual/max(1,|V̇|) = {ratios[0]:.2e} "
                           f"(tol 1e-3), refinement drop {drop:.2f}x "
                           f"(expect ≈4x)")
        _report(capsys, 4, "decay identity + 2nd-order convergence", ok,
                "; ".join(details))

    def test_05_monotonicity_and_convergence(self, capsys):
        cfg = ScenarioConfig(
            scenario="chafee_infante",
            params={"lam": 15.0},
            initial={"kind": "random_smooth", "seed": 5},
            solver=SolverConfig(n=128, dt=1e-2, t_end=10.0, save_every=50,
                                scheme="etdrk4"))
        _, extras = run_scenario(cfg, write=False)
        V = extras["V"]
        up_jump = np.max(np.append(
            np.diff(V) - 1e-9 * np.abs(V[:-1]), -np.inf))
        ut_final = extras["ut_inf"][-1]
        ok = extras["status"] == "ok" and up_jump <= 0.0 and ut_final <= 1e-6
        _report(capsys, 5, "V monotone + convergence to equilibrium", ok,
                f"max V increase beyond 1e-9·|V| = {up_jump:.2e}, "
                f"final ‖u_t‖∞ = {ut_final:.2e} (tol 1e-6 by t=10)")

    def test_06_rotating_wave(self, capsys):
        c = 1.0
        # save times chosen so the wave advances a whole number of grid
        # sites between saves (the sup-norm match uses integer rolls)
        cfg = ScenarioConfig(
            scenario="rotating_wave",
            params={"lam": 50.0, "c": c},
            solver=SolverConfig(n=512, dt=0.125 / 320, t_end=0.125,
                                save_every=40, scheme="etdrk4"))
        _, extras = run_scenario(cfg, write=False)
        mismatch = float(np.max(extras["shift_mismatch"]))
        speed = extras["speed_estimate"]
        ok = (extras["status"] == "ok" and mismatch <= 1e-3
              and abs(speed - c) <= 0.05 * abs(c))
        _report(capsys, 6, "rotating wave translates at speed c", ok,
                f"min-shift profile mismatch = {mismatch:.2e} (tol 1e-3), "
                f"θ/t = {speed:.6f} (c = {c}, tol 5%)")

    def test_07_planar_counterexample(self, capsys):
        cfg = ScenarioConfig(
            scenario="planar_embedding",
            solver=SolverConfig(n=2048, dt=1e-2, t_end=1.0, save_every=40,
                                scheme="etdrk4"))
        _, extras = run_scenario(cfg, write=False)
        ret = extras["period_return"]
        four = extras["fourier_match"]
        off = float(np.max(extras["off_mode_residual"]))
        ok = (extras["status"] == "ok" and ret <= 1e-3 and four <= 1e-3
              and off <= 1e-6)
        _report(capsys, 7, "embedded planar center defeats gradient flow", ok,
                f"period-return = {ret:.2e}·‖u‖∞ (tol 1e-3), planar-ODE "
                f"Fourier match = {four:.2e} (tol 1e-3), off-span residual "
                f"= {off:.2e} (tol 1e-6); period T = {extras['period']:.4f}")

    def test_08_separated_bc_construction(self, capsys):
        # decay identity with refinement, as in criterion 4
        qc = QuadratureConfig(panels=16)
        ratios = []
        for n, dt_save in ((256, 2e-3), (512, 1e-3)):
            cfg = ScenarioConfig(
                scenario="matano_separated",
                params={"lam": 5.0, "eps": 0.5, "burn_in": 0.05},
                initial={"kind": "random_smooth", "seed": 3},
                solver=monitored_solver(n, dt_save, 0.05),
                quadrature=qc)
            _, extras = run_scenario(cfg, write=False)
            assert extras["status"] == "ok"
            ratios.append(residual_ratio(extras))
        drop = ratios[0] / ratios[1]

        # pointwise defining-equation residual for the constructed L
        gen = GeneralNonlinearity(
            f=lambda x, u, p: 5.0 * u * (1.0 - u * u) + 0.5 * p,
            f_p=lambda x, u, p: np.full_like(np.asarray(p, dtype=float), 0.5),
            x_periodic=False)
        ev = SeparatedEvaluator(gen)
        h, pde_res = 1e-4, 0.0
        for x, u, p in [(0.4, 0.3, 0.8), (0.7, -0.2, 1.2), (0.25, 0.5, -0.6)]:
            L_u = (ev.L(x, u + h, p) - ev.L(x, u - h, p)) / (2 * h)
            L_xp = (ev.L(x + h, u, p + h) - ev.L(x + h, u, p - h)
                    - ev.L(x - h, u, p + h) + ev.L(x - h, u, p - h)) \
                / (4 * h * h)
            L_up = (ev.L(x, u + h, p + h) - ev.L(x, u + h, p - h)
                    - ev.L(x, u - h, p + h) + ev.L(x, u - h, p - h)) \
                / (4 * h * h)
            resid = (L_u - L_xp - p * L_up
                     + float(gen.f(x, u, p)) * ev.L_pp(x, u, p))
            pde_res = max(pde_res, abs(resid))

        # linear-center characteristics: the obstruction equals the drift
        eps = 0.5
        center = GeneralNonlinearity(
            f=lambda x, u, p: (2 * np.pi) ** 2 * u + eps * p,
            f_p=lambda x, u, p: np.full_like(np.asarray(p, dtype=float), eps),
            x_periodic=False)
        defect = integrability_defect(center, (0.3, 0.1))

        ok = (ratios[0] <= 1e-3 and 2.5 <= drop <= 6.0 and pde_res <= 1e-4
              and abs(defect - eps) <= 1e-6)
        _report(capsys, 8, "separated-BC construction", ok,
                f"decay residual ratio = {ratios[0]:.2e} (tol 1e-3), drop "
                f"{drop:.2f}x (expect ≈4x); defining-eqn residual = "
                f"{pde_res:.2e} (tol 1e-4); periodic-BC integrability defect "
                f"= {defect:.8f} vs drift ε = {eps} (tol 1e-6)")

    def test_09_quasilinear_weighted_decay(self, capsys):
        cfg = ScenarioConfig(
            scenario="qlinear",
            params={"lam": 15.0, "a_const": 2.0, "burn_in": 0.05},
            initial={"kind": "random_smooth", "seed": 11},
            solver=monitored_solver(256, 5e-4, 0.05))
        _, extras = run_scenario(cfg, write=False)
        ratio = residual_ratio(extras)
        ok = extras["status"] == "ok" and ratio <= 1e-3
        _report(capsys, 9, "quasilinear weighted decay identity", ok,
                f"residual/max(1,|V̇|) = {ratio:.2e} with ā ≡ 2 (tol 1e-3)")

    def test_10_charflow_property_suite(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        nls = [NonlinearityO2(f_bar=lambda u, q: 0.8 * q,
                              f_bar_q=lambda u, q: np.full_like(
                                  np.asarray(q, dtype=float), 0.8),
                              label="linear"),
               chafee_infante_nl(2.0),
               mixed_nl(2.0, 1.0)]
        worst, n_cases = 0.0, 0
        for nl in nls:
            for _ in range(10):
                u0, u1 = rng.uniform(-1.2, 1.2, size=2)
                um = rng.uniform(min(u0, u1), max(u0, u1))
                qs = rng.uniform(0.0, 2.0, size=100)
                ident, _ = evolve_batch(nl, u0, u0, qs)
                worst = max(worst, np.max(np.abs(ident - qs)))
                vals, sens = evolve_batch(nl, u0, u1, qs)
                assert np.all(sens > 0.0)
                back, _ = evolve_batch(nl, u1, u0, vals)
                worst = max(worst, np.max(np.abs(back - qs)
                                          / np.maximum(1.0, qs)))
                leg1, _ = evolve_batch(nl, u0, um, qs)
                leg2, _ = evolve_batch(nl, um, u1, leg1)
                worst = max(worst, np.max(np.abs(leg2 - vals)
                                          / np.maximum(1.0, np.abs(vals))))
                n_cases += len(qs)
            # spot-check the co-integrated sensitivity against differences
            for _ in range(5):
                u0, u1 = rng.uniform(-1.2, 1.2, size=2)
                q = rng.uniform(0.1, 2.0)
                d = 1e-6
                sens = evolve(nl, u0, u1, q).sensitivity
                fd = (evolve(nl, u0, u1, q + d).value
                      - evolve(nl, u0, u1, q - d).value) / (2 * d)
                assert abs(fd - sens) <= 1e-3 * max(1.0, abs(sens))
            two_leg, direct = compose_check(nl, -0.7, 0.2, 0.9, 1.3)
            worst = max(worst, abs(two_leg - direct))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-6 and elapsed <= 60.0
        _report(capsys, 10, "characteristic-flow property suite", ok,
                f"{n_cases // len(nls)} randomized cases per nonlinearity, max "
                f"deviation = {worst:.2e} (tol 1e-6), {elapsed:.1f}s "
                f"(limit 60s)")
