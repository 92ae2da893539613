"""Tests for the separated-BC Lagrange function and its periodic obstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from circlyap.charflow import (
    CharacteristicEscape,
    CharflowConfig,
    IntegrationFailure,
    NonlinearityO2,
)
from circlyap.functional import (
    DIRICHLET,
    FunctionalReport,
    ScalarField,
    gradient,
    quadrature_weights,
)
from circlyap.lagrangian import (
    GAUSS_LEGENDRE,
    LagrangianEvaluator,
    QuadratureConfig,
)
from circlyap.matano import (
    SeparatedEvaluator,
    L_separated,
    decay_identity_residual,
    field_report,
    g_value,
    integrability_defect,
)
from circlyap.pde import GeneralNonlinearity, SolverConfig, integrate


def cubic_drift_gen(lam=5.0, eps=0.5):
    """Reaction lam*u*(1-u^2) plus a drift term eps*u_x."""
    return GeneralNonlinearity(
        f=lambda x, u, p: lam * u * (1.0 - u * u) + eps * p,
        f_p=lambda x, u, p: np.full_like(np.asarray(p, dtype=float), eps),
        x_periodic=False,
    )


def cubic_drift_gen_p_dependent():
    """A drift whose f_p varies with p, so exp g varies along the
    p-integral."""
    return GeneralNonlinearity(
        f=lambda x, u, p: 5.0 * u * (1.0 - u * u) + 0.5 * p + 0.3 * p**3,
        f_p=lambda x, u, p: 0.5 + 0.9 * np.asarray(p, dtype=float) ** 2,
        x_periodic=False,
    )


def nested_reference_L(gen, x, u, p, k=12):
    """The double p-integral of exp g minus F, as nested k-point
    Gauss-Legendre sums of scalar g_value calls."""
    xg, wg = leggauss(k)

    def rule(b):
        return 0.5 * b * (xg + 1.0), 0.5 * b * wg

    double = sum(w1 * sum(w2 * np.exp(g_value(gen, x, u, p2))
                          for p2, w2 in zip(*rule(p1)))
                 for p1, w1 in zip(*rule(p)))
    F = sum(w * gen.f(x, u1, 0.0) * np.exp(g_value(gen, x, u1, 0.0))
            for u1, w in zip(*rule(u)))
    return double - F


def cubic_gen(lam=5.0):
    return GeneralNonlinearity(
        f=lambda x, u, p: lam * u * (1.0 - u * u),
        f_p=lambda x, u, p: 0.0 * np.asarray(p, dtype=float),
        x_periodic=False,
    )


def cubic_primitive(lam):
    return lambda u: lam * (u * u / 2.0 - u**4 / 4.0)


def dirichlet_field(n, amplitude=0.3):
    x = np.linspace(0.0, 1.0, n)
    return ScalarField(amplitude * np.sin(np.pi * x)
                       + 0.1 * amplitude * np.sin(3 * np.pi * x), 1.0,
                       DIRICHLET)


class TestGValue:
    def test_zero_without_advection(self):
        gen = cubic_gen()
        for x, u, p in [(0.3, 0.5, 1.0), (0.9, -0.2, -0.5)]:
            assert g_value(gen, x, u, p) == pytest.approx(0.0, abs=1e-10)

    def test_constant_drift_closed_form(self):
        # f_p constant eps accumulates to eps * x along any characteristic
        gen = cubic_drift_gen(lam=5.0, eps=0.5)
        for x, u, p in [(0.4, 0.2, 0.5), (1.0, -0.3, 1.0), (0.7, 0.0, 0.0)]:
            assert g_value(gen, x, u, p) == pytest.approx(0.5 * x, abs=1e-8)

    def test_vanishes_at_x_zero(self):
        gen = cubic_drift_gen()
        for u, p in [(0.5, 1.0), (-0.4, -0.8)]:
            assert g_value(gen, 0.0, u, p) == 0.0


class TestLSeparated:
    def test_classical_reduction(self):
        lam = 3.0
        F = cubic_primitive(lam)
        for x, u, p in [(0.3, 0.5, 1.0), (0.8, -0.4, 0.5)]:
            val = L_separated(cubic_gen(lam), x, u, p)
            assert val == pytest.approx(0.5 * p * p - F(u), abs=1e-6)

    def test_drift_closed_form(self):
        # with g = eps*x the p-integrals collapse to (p^2/2) * exp(eps*x)
        lam, eps = 5.0, 0.5
        gen = cubic_drift_gen(lam, eps)
        ev = SeparatedEvaluator(gen)
        for x, u, p in [(0.4, 0.3, 1.0), (0.9, -0.2, -1.5)]:
            expected = 0.5 * p * p * np.exp(eps * x) - ev.F(x, u)
            assert ev.L(x, u, p) == pytest.approx(expected, abs=1e-6)

    def test_convexity_weight_positive(self):
        gen = cubic_drift_gen()
        ev = SeparatedEvaluator(gen)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(0.0, 1.0)
            u, p = rng.uniform(-0.8, 0.8), rng.uniform(-1.5, 1.5)
            val = ev.L_pp(x, u, p)
            assert np.isfinite(val) and val > 0.0

    def test_defining_pde_residual(self):
        # L_u - L_xp - p*L_up + f*L_pp should vanish for the constructed L
        gen = cubic_drift_gen(lam=5.0, eps=0.5)
        ev = SeparatedEvaluator(gen)
        h = 1e-4
        for x, u, p in [(0.4, 0.3, 0.8), (0.7, -0.2, 1.2)]:
            L_u = (ev.L(x, u + h, p) - ev.L(x, u - h, p)) / (2 * h)
            L_xp = (ev.L(x + h, u, p + h) - ev.L(x + h, u, p - h)
                    - ev.L(x - h, u, p + h) + ev.L(x - h, u, p - h)) / (4 * h * h)
            L_up = (ev.L(x, u + h, p + h) - ev.L(x, u + h, p - h)
                    - ev.L(x, u - h, p + h) + ev.L(x, u - h, p - h)) / (4 * h * h)
            f_val = float(gen.f(x, u, p))
            resid = L_u - L_xp - p * L_up + f_val * ev.L_pp(x, u, p)
            assert abs(resid) <= 1e-4


class TestFieldEval:
    def test_scalar_queries_are_batches_of_one(self):
        gen = cubic_drift_gen_p_dependent()
        ev = SeparatedEvaluator(gen, quad_cfg=QuadratureConfig(panels=8))
        for x, u, p in [(0.4, 0.3, 0.8), (0.7, -0.2, -1.0), (0.9, 0.1, 0.0)]:
            fe = ev.eval_samples([x], [u], [p])
            assert ev.L(x, u, p) == fe["L"][0]
            assert ev.F(x, u) == ev.eval_samples([x], [u], [0.0])["F"][0]
            assert ev.L_pp(x, u, p) == np.exp(ev.g_batch([x], [u], [p])[0])
            assert g_value(gen, x, u, p) == ev.g_batch([x], [u], [p])[0]

    def test_matches_pointwise(self):
        gen = cubic_drift_gen()
        qc = QuadratureConfig(panels=16)
        ev = SeparatedEvaluator(gen, quad_cfg=qc)
        fld = dirichlet_field(32)
        fe = ev.field_eval(fld)
        fresh = SeparatedEvaluator(gen, quad_cfg=qc)
        x = fld.grid()
        p = gradient(fld).values
        for i in range(0, 32, 7):
            assert fe["L"][i] == pytest.approx(
                fresh.L(x[i], fld.values[i], p[i]), abs=1e-8)
            assert fe["L_pp"][i] == pytest.approx(
                fresh.L_pp(x[i], fld.values[i], p[i]), abs=1e-10)


def _queries(ev, x, u, p):
    """F, L and L_pp at one point, or the escape that ended the query.

    Near the corners of the sampled box (x near 0.9, u and p at the same
    sign's extreme) the p**3 drift blows a backward characteristic up
    before it reaches x = 0; the escape is then the answer at that point.
    """
    try:
        return ev.F(x, u), ev.L(x, u, p), ev.L_pp(x, u, p)
    except CharacteristicEscape as exc:
        return type(exc), str(exc)


class TestQueryOrder:
    """A value, or the escape raised in its place, depends on its
    arguments only, never on the queries the evaluator answered before
    it."""

    @settings(max_examples=10, deadline=None)
    @given(x=st.floats(0.1, 0.9), u=st.floats(-0.6, 0.6),
           p=st.floats(-1.0, 1.0), nudge=st.floats(-4e-13, 4e-13),
           others=st.lists(st.tuples(st.floats(0.1, 0.9),
                                     st.floats(-0.6, 0.6),
                                     st.floats(-1.0, 1.0)), max_size=3))
    def test_bit_equal_after_other_queries(self, x, u, p, nudge, others):
        gen = cubic_drift_gen_p_dependent()
        qc = QuadratureConfig(panels=8)
        fresh = _queries(SeparatedEvaluator(gen, quad_cfg=qc), x, u, p)
        ev = SeparatedEvaluator(gen, quad_cfg=qc)
        # neighbours within 1e-12 round to the same 12 digits as (x, u, p)
        for point in others + [(x + nudge, u + nudge, p + nudge),
                               (x, u - nudge, p)]:
            _queries(ev, *point)
        assert _queries(ev, x, u, p) == fresh


class TestPDependentDrift:
    def test_L_matches_nested_reference(self):
        gen = cubic_drift_gen_p_dependent()
        qc = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=16)
        ev = SeparatedEvaluator(gen, quad_cfg=qc)
        fld = dirichlet_field(32)
        fe = ev.field_eval(fld)
        x = fld.grid()
        p = gradient(fld).values
        for i in (3, 12, 20):
            ref = nested_reference_L(gen, x[i], fld.values[i], p[i])
            assert fe["L"][i] == pytest.approx(ref, abs=1e-8)
            assert ev.L(x[i], fld.values[i], p[i]) == pytest.approx(ref,
                                                                    abs=1e-8)


class TestGBatchEscape:
    def test_escape_names_the_sample(self):
        free = GeneralNonlinearity(
            f=lambda x, u, p: 0.0 * np.asarray(u, dtype=float),
            f_p=lambda x, u, p: 0.0 * np.asarray(p, dtype=float),
            x_periodic=False)
        ev = SeparatedEvaluator(free, CharflowConfig(escape_bound=1.0))
        # with f = 0 the backward characteristic from (x, u, p) reaches
        # u - x*p at x = 0: -1.4 for sample 1, inside the bound for the rest
        with pytest.raises(CharacteristicEscape,
                           match=r"sample 1 at \(x, u, p\) = \(1, -0.5, 0.9\)"):
            ev.g_batch([0.5, 1.0, 0.8], [0.1, -0.5, 0.2], [0.1, 0.9, -0.2])

    def test_finite_time_blowup_is_an_escape(self):
        # with f = 5u(1 - u^2) + 0.5p + 0.3p^3 the backward characteristic
        # from the steep right end blows up in finite time: the step size
        # collapses long before |p| reaches escape_bound
        gen = GeneralNonlinearity(
            f=lambda x, u, p: 5.0 * u * (1.0 - u * u) + 0.5 * p + 0.3 * p**3,
            f_p=lambda x, u, p: 0.5 + 0.9 * p * p,
            x_periodic=False)
        n = 64
        x = np.linspace(0.0, 1.0, n)
        fld = ScalarField(0.3 * np.sin(np.pi * x) + 0.05 * np.sin(3 * np.pi * x),
                          1.0, DIRICHLET)
        with pytest.raises(CharacteristicEscape,
                           match=r"sample \d+ at \(x, u, p\) = \(1, "):
            SeparatedEvaluator(gen).field_eval(fld)
        # the scalar path, from the slope at the right end
        with pytest.raises(CharacteristicEscape,
                           match=r"sample 0 at \(x, u, p\) = \(1, 0, -1.42\)"):
            g_value(gen, 1.0, 0.0, -1.42)


class TestConsistencyWithCircleConstruction:
    def test_x_independent_and_equal_for_classical_reaction(self):
        # without advection the separated construction loses its x
        # dependence and coincides with the circle construction
        lam = 3.0
        gen = cubic_gen(lam)
        ev_sep = SeparatedEvaluator(gen)
        nl = NonlinearityO2(f_bar=lambda u, q: lam * u * (1.0 - u * u) + 0.0 * q,
                            f_bar_q=lambda u, q: 0.0 * q, label="cubic")
        ev_o2 = LagrangianEvaluator(nl)
        for u, p in [(0.4, 1.0), (-0.3, 0.6)]:
            vals = [ev_sep.L(x, u, p) for x in (0.0, 0.35, 0.8)]
            assert max(vals) - min(vals) <= 1e-8
            assert vals[0] == pytest.approx(ev_o2.L(u, p), abs=1e-6)


class TestDecayIdentity:
    def test_residual_small_on_trajectory(self):
        n = 96
        # dt divides t_end so the save grid stays uniform
        cfg = SolverConfig(n=n, dt=4e-5, t_end=0.01, save_every=25)
        trajectory = integrate(cubic_drift_gen(), None, dirichlet_field(n),
                               cfg)
        qc = QuadratureConfig(panels=16)
        res = decay_identity_residual(cubic_drift_gen(), trajectory,
                                      quad_cfg=qc)
        assert res.size == len(trajectory.times) - 2
        # compare against the dissipation scale, as the identity is stated
        ev = SeparatedEvaluator(cubic_drift_gen(), quad_cfg=qc)
        for k in range(1, len(trajectory.times) - 1):
            _, diss, _ = field_report(ev, trajectory.snapshots[k],
                                     trajectory.u_t_snapshots[k])
            assert res[k - 1] <= 2e-2 * max(1.0, abs(diss))

    def test_classical_reaction_matches_circle_formulas(self):
        # without advection both constructions share L = p^2/2 - F(u), so
        # the residual series must agree to round-off
        lam = 3.0
        n = 64
        cfg = SolverConfig(n=n, t_end=0.01, save_every=80)
        traj = integrate(cubic_gen(lam), None, dirichlet_field(n), cfg)
        qc = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=12)
        res_sep = decay_identity_residual(cubic_gen(lam), traj, quad_cfg=qc)

        F = cubic_primitive(lam)
        Vs, Ds = [], []
        for snap, ut in zip(traj.snapshots, traj.u_t_snapshots):
            p = gradient(snap).values
            w = quadrature_weights(snap)
            Vs.append(float(np.dot(w, 0.5 * p * p - F(snap.values))))
            Ds.append(-float(np.dot(w, ut.values**2)))
        res_direct = []
        for k in range(1, len(traj.times) - 1):
            dVdt = (Vs[k + 1] - Vs[k - 1]) / (traj.times[k + 1]
                                              - traj.times[k - 1])
            res_direct.append(abs(dVdt - Ds[k]))
        assert np.max(np.abs(res_sep - np.array(res_direct))) <= 1e-10

    def test_equilibrium_gives_roundoff_residual(self):
        n = 64
        u0 = ScalarField(np.zeros(n), 1.0, DIRICHLET)
        cfg = SolverConfig(n=n, t_end=0.01, save_every=40)
        traj = integrate(cubic_drift_gen(), None, u0, cfg)
        qc = QuadratureConfig(panels=8)
        res = decay_identity_residual(cubic_drift_gen(), traj, quad_cfg=qc)
        assert np.max(res) <= 1e-12

    def test_periodic_trajectory_rejected(self):
        n = 64
        x = np.arange(n) / n
        u0 = ScalarField(0.2 * np.sin(2 * np.pi * x), 1.0)
        traj = integrate(cubic_gen(), None, u0,
                         SolverConfig(n=n, t_end=0.005, save_every=40))
        with pytest.raises(ValueError):
            decay_identity_residual(cubic_gen(), traj)

    def test_field_report_consistent_with_parts(self):
        gen = cubic_drift_gen()
        qc = QuadratureConfig(panels=16)
        ev = SeparatedEvaluator(gen, quad_cfg=qc)
        fld = dirichlet_field(32)
        ut = ScalarField(0.1 * np.sin(np.pi * fld.grid()), 1.0, DIRICHLET)
        V, diss, cmin = field_report(ev, fld, ut)
        # the parts, each from a field evaluation of its own
        w = quadrature_weights(fld)
        assert V == pytest.approx(float(np.dot(w, ev.field_eval(fld)["L"])),
                                  abs=1e-12)
        lpp = ev.field_eval(fld)["L_pp"]
        assert diss == pytest.approx(-float(np.dot(w, lpp * ut.values**2)),
                                     abs=1e-12)
        assert cmin > 0.0

    def test_field_report_is_a_functional_report(self):
        # the report the circle construction returns, fields and all
        ev = SeparatedEvaluator(cubic_drift_gen(),
                                quad_cfg=QuadratureConfig(panels=8))
        fld = dirichlet_field(32)
        ut = ScalarField(0.1 * np.sin(np.pi * fld.grid()), 1.0, DIRICHLET)
        rep = field_report(ev, fld, ut)
        assert isinstance(rep, FunctionalReport)
        assert (rep.V, rep.dissipation, rep.convexity_min) == tuple(rep)
        assert rep.dissipation < 0.0 < rep.convexity_min


class TestIntegrabilityDefect:
    def test_zero_without_advection(self):
        gen = GeneralNonlinearity(
            f=lambda x, u, p: (2 * np.pi) ** 2 * u,
            f_p=lambda x, u, p: 0.0 * np.asarray(p, dtype=float),
            x_periodic=False)
        assert integrability_defect(gen, (0.3, 0.1)) == pytest.approx(0.0,
                                                                      abs=1e-10)

    def test_linear_center_defect_equals_drift(self):
        eps = 0.5
        gen = GeneralNonlinearity(
            f=lambda x, u, p: (2 * np.pi) ** 2 * u + eps * p,
            f_p=lambda x, u, p: np.full_like(np.asarray(p, dtype=float), eps),
            x_periodic=False)
        assert integrability_defect(gen, (0.3, 0.1)) == pytest.approx(eps,
                                                                      abs=1e-6)

    def test_reflection_symmetric_form_has_zero_defect(self):
        # gradient-dependence of reflection-symmetric type integrates to
        # zero around the closed characteristic loop
        om, beta, ee = 6.0, 30.0, 2.0
        gen = GeneralNonlinearity(
            f=lambda x, u, p: om**2 * u + beta * u**3 + ee * u * 0.5 * p * p,
            f_p=lambda x, u, p: ee * u * p,
            x_periodic=False)
        defect, z = integrability_defect(gen, (0.4, 0.0), max_iter=200,
                                         tol=1e-8, return_orbit=True)
        assert np.hypot(*z) > 0.1  # a genuinely nonconstant orbit
        assert abs(defect) <= 1e-8

    def test_shooting_failure_raises(self):
        # constant forcing shifts the slope by -1 every period: the return
        # map has no fixed point at all
        gen = GeneralNonlinearity(
            f=lambda x, u, p: np.ones_like(np.asarray(u, dtype=float)),
            f_p=lambda x, u, p: 0.0 * np.asarray(p, dtype=float),
            x_periodic=False)
        with pytest.raises(RuntimeError):
            integrability_defect(gen, (1.0, 1.0), max_iter=10)

    def test_non_finite_flow_raises(self):
        # the restoring force sqrt(1 - u^2) is NaN outside |u| <= 1, where
        # the seed lies: the flow map must stop instead of stepping on NaN
        gen = GeneralNonlinearity(
            f=lambda x, u, p: (2 * np.pi) ** 2 * u * np.sqrt(1.0 - u * u),
            f_p=lambda x, u, p: 0.0 * np.asarray(p, dtype=float),
            x_periodic=False)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(IntegrationFailure,
                              match="non-finite right-hand side"):
            integrability_defect(gen, (1.2, 0.0))
