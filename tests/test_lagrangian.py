"""Tests for the Lagrange function and its ingredients."""

import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlyap.charflow import (
    CharacteristicEscape,
    CharflowConfig,
    IntegrationFailure,
    NonlinearityO2,
    evolve,
)
from circlyap.harness import chafee_infante_nl, gradient_quadratic_nl
from circlyap.lagrangian import (
    DOUBLE_INTEGRAL,
    GAUSS_LEGENDRE,
    REDUCED,
    LagrangianEvaluator,
    QuadratureConfig,
    _leggauss,
    _unit_rule,
    effective_nonlinearity,
)


def cubic_nl(lam=2.0):
    return NonlinearityO2(f_bar=lambda u, q: lam * u * (1.0 - u * u) + 0.0 * q,
                          f_bar_q=lambda u, q: 0.0 * q,
                          label=f"cubic(lam={lam})")


def linear_nl(b=1.0):
    return NonlinearityO2(f_bar=lambda u, q: b * q,
                          f_bar_q=lambda u, q: b + 0.0 * q,
                          label=f"linear(b={b})")


def mixed_nl(lam=2.0):
    return NonlinearityO2(f_bar=lambda u, q: lam * u * (1.0 - u * u) + q * u,
                          f_bar_q=lambda u, q: u + 0.0 * q,
                          label=f"mixed(lam={lam})")


def q_dependent_nl():
    """f_bar_q depends on q, so transport solves of nearby arguments
    differ in their last digits."""
    return NonlinearityO2(
        f_bar=lambda u, q: 2.0 * u * (1.0 - u * u) + q * u + 0.2 * q * q,
        f_bar_q=lambda u, q: u + 0.4 * q, label="q-dependent")


def cubic_primitive(lam):
    return lambda u: lam * (u * u / 2.0 - u**4 / 4.0)


def scaled_rule(panels, b):
    """The unit rule stretched to [0, b], as every caller uses it."""
    frac, wfrac = _unit_rule(panels)
    return b * frac, b * wfrac


class TestQuadRule:
    def test_gauss_exact_on_high_degree(self):
        nodes, w = scaled_rule(8, 3.0)
        assert np.dot(w, nodes**15) == pytest.approx(3.0**16 / 16.0,
                                                     rel=1e-12)

    def test_reversed_interval_flips_sign(self):
        # a negative endpoint (p < 0, u < 0) integrates over [b, 0] with
        # the sign of the oriented integral
        nodes, w = scaled_rule(4, -1.0)
        assert np.dot(w, np.ones_like(nodes)) == pytest.approx(-1.0, abs=1e-12)
        assert np.dot(w, nodes) == pytest.approx(0.5, abs=1e-12)

    def test_empty_interval(self):
        nodes, w = scaled_rule(4, 0.0)
        assert not nodes.any() and not w.any()

    @pytest.mark.parametrize("rule", [
        pytest.param(lambda: _unit_rule(5), id="unit"),
    ])
    def test_rule_is_built_once_and_not_shared_mutably(self, rule):
        first = [a.copy() for a in rule()]
        for a in rule():
            a[:] = np.nan
        assert all(np.array_equal(a, b) for a, b in zip(rule(), first))
        x, w = _leggauss(5)
        assert _leggauss(5)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_nested_panels_accepted_and_ignored(self):
        # configs from before the single (p - s)-weighted rule still parse
        old = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=12,
                               nested_panels=7)
        assert old == QuadratureConfig(panels=12)
        assert asdict(old) == {"panels": 12}

    def test_simpson_is_retired(self):
        with pytest.raises(ValueError, match="retired"):
            QuadratureConfig(rule="simpson", panels=64)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            QuadratureConfig(rule="trapezoid")


class TestDefaultQuadrature:
    """The default rule is sized by its error against a 48-node
    Gauss-Legendre reference."""

    @pytest.mark.parametrize("nl", [
        pytest.param(mixed_nl(2.0), id="mixed"),
        pytest.param(gradient_quadratic_nl(1.0, -1.0), id="gradient_quadratic"),
        pytest.param(chafee_infante_nl(2.0), id="chafee_infante"),
    ])
    def test_within_1e_11_of_reference(self, nl):
        x = np.arange(64) / 64
        u = 0.6 * np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x + 0.4)
        p = np.gradient(u, x)
        ev = LagrangianEvaluator(nl)
        ref = LagrangianEvaluator(
            nl, quad_cfg=QuadratureConfig(rule=GAUSS_LEGENDRE, panels=48))
        np.testing.assert_allclose(ev.field_eval(u, p)["L"],
                                   ref.field_eval(u, p)["L"],
                                   rtol=0, atol=1e-11)
        for v in (0.5, 0.7, 1.0):
            assert abs(ev.F(v) - ref.F(v)) <= 1e-11

    def test_default_is_gauss_legendre_16(self):
        # written as the benchmark builds its pointwise quadrature
        assert QuadratureConfig() == QuadratureConfig(
            rule=GAUSS_LEGENDRE, panels=16, nested_panels=16)
        assert asdict(QuadratureConfig()) == {"panels": 16}


class TestFq:
    def test_zero_when_gradient_independent(self):
        ev = LagrangianEvaluator(cubic_nl(3.0))
        for u, q in [(0.5, 0.1), (-1.0, 2.0), (1.5, 0.0)]:
            assert ev.F_q(u, q) == pytest.approx(0.0, abs=1e-10)

    def test_linear_closed_form(self):
        ev = LagrangianEvaluator(linear_nl(1.0))
        for u, q in [(0.3, 0.5), (-0.8, 1.0), (1.2, 0.0)]:
            assert ev.F_q(u, q) == pytest.approx(u, abs=1e-8)

    def test_exponential_identity_vs_sensitivity(self):
        # the transport integral and the linearized flow must agree:
        # exp(F_q(u, q)) equals the sensitivity of the u -> 0 evolution
        nl = mixed_nl(2.0)
        ev = LagrangianEvaluator(nl)
        for u, q in [(0.4, 0.2), (-0.9, 1.1), (1.3, 0.0), (0.7, -0.3)]:
            sens = evolve(nl, u, 0.0, q).sensitivity
            assert np.exp(ev.F_q(u, q)) == pytest.approx(sens, abs=1e-6)


class TestF:
    def test_vanishes_at_zero(self):
        ev = LagrangianEvaluator(mixed_nl())
        assert ev.F(0.0) == 0.0

    def test_classical_primitive(self):
        lam = 2.0
        ev = LagrangianEvaluator(cubic_nl(lam))
        F = cubic_primitive(lam)
        for u in [-1.0, 0.5, 1.4]:
            assert ev.F(u) == pytest.approx(F(u), abs=1e-8)

    def test_matches_zero_characteristic(self):
        # F(u) must equal the u -> 0 evolution started at q = 0; Gauss
        # nodes keep the quadrature error below the identity tolerance
        nl = mixed_nl(2.0)
        qc = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=32)
        ev = LagrangianEvaluator(nl, quad_cfg=qc)
        for u in [-1.0, 0.5, 1.0]:
            assert ev.F(u) == pytest.approx(evolve(nl, u, 0.0, 0.0).value,
                                            abs=1e-8)

    @pytest.mark.parametrize("panels", [16, 32])
    @pytest.mark.parametrize("nl", [
        pytest.param(mixed_nl(2.0), id="mixed"),
        pytest.param(chafee_infante_nl(2.0), id="chafee_infante"),
    ])
    def test_matches_per_node_loop(self, nl, panels):
        # one transport solve per u-node, as F was computed before its
        # nodes were solved together
        qc = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=panels)
        ev = LagrangianEvaluator(nl, quad_cfg=qc)
        for u in [-1.3, -0.6, 0.2, 0.7, 1.0, 1.4]:
            nodes, w = scaled_rule(panels, u)
            ref = sum(wi * nl.f_bar(ui, 0.0) * math.exp(ev.F_q(ui, 0.0))
                      for ui, wi in zip(nodes, w))
            got = ev.F(u)
            assert type(got) is float
            assert abs(got - ref) <= 1e-14

    def test_escape_names_the_node(self):
        # with f_bar = -(1 + q^2) the characteristic of node u_k is
        # q = tan(u - u_k) on its way down from u_k: nodes above pi/2 blow
        # up at u = u_k - pi/2; the largest node, 15, goes first
        nl = NonlinearityO2(f_bar=lambda u, q: -1.0 - q * q,
                            f_bar_q=lambda u, q: -2.0 * q, label="tan")
        ev = LagrangianEvaluator(nl, CharflowConfig(escape_bound=1e6))
        with pytest.raises(CharacteristicEscape,
                           match=r"F quadrature: node 15 at u=") as err:
            ev.F(3.0)
        msg = str(err.value)
        u_k = float(re.search(r"node 15 at u=([^,]+),", msg).group(1))
        stop = float(re.search(r"stopped at u=([^)\s]+)", msg).group(1))
        assert err.value.var == "s"
        assert stop == pytest.approx(u_k - math.pi / 2, abs=1e-3)


def phi(ev, u, p):
    return ev.field_eval([u], [p])["phi"][0]


class TestPhi:
    def test_gradient_independent_gives_p(self):
        ev = LagrangianEvaluator(cubic_nl(2.0))
        for u, p in [(0.5, 1.0), (-1.0, -2.0), (0.0, 0.7)]:
            assert phi(ev, u, p) == pytest.approx(p, abs=1e-8)

    def test_zero_at_p_zero(self):
        ev = LagrangianEvaluator(mixed_nl())
        assert phi(ev, 0.8, 0.0) == 0.0

    def test_linear_closed_form(self):
        ev = LagrangianEvaluator(linear_nl(1.0))
        for u, p in [(0.5, 1.0), (-0.7, 2.0), (1.1, -1.5)]:
            assert phi(ev, u, p) == pytest.approx(p * np.exp(u), abs=1e-8)


class TestL:
    def test_classical_reduction(self):
        lam = 2.0
        F = cubic_primitive(lam)
        for form in (REDUCED, DOUBLE_INTEGRAL):
            ev = LagrangianEvaluator(cubic_nl(lam), form=form)
            for u, p in [(0.5, 1.0), (-1.2, 2.0), (1.0, -0.5)]:
                assert ev.L(u, p) == pytest.approx(0.5 * p * p - F(u), abs=1e-8)

    def test_linear_closed_form_both_forms(self):
        for form in (REDUCED, DOUBLE_INTEGRAL):
            ev = LagrangianEvaluator(linear_nl(1.0), form=form)
            for u, p in [(0.5, 1.0), (-0.8, 2.0), (1.2, -1.5)]:
                assert ev.L(u, p) == pytest.approx(0.5 * p * p * np.exp(u),
                                                   abs=1e-7)

    def test_value_at_p_zero_is_minus_F(self):
        # exact for the double-integral form (empty p-integrals); the
        # reduced form replaces the quadrature for F by a characteristic
        # solve and agrees up to quadrature error
        ev_d = LagrangianEvaluator(mixed_nl(), form=DOUBLE_INTEGRAL)
        for u in [-1.0, 0.3, 0.9]:
            assert ev_d.L(u, 0.0) == pytest.approx(-ev_d.F(u), abs=1e-12)
        ev_r = LagrangianEvaluator(mixed_nl(), form=REDUCED)
        for u in [-1.0, 0.3, 0.9]:
            assert ev_r.L(u, 0.0) == pytest.approx(-ev_r.F(u), abs=1e-6)

    def test_form_equivalence_on_grid(self):
        nl = mixed_nl(2.0)
        qc = QuadratureConfig(rule=GAUSS_LEGENDRE, panels=16)
        ev_r = LagrangianEvaluator(nl, quad_cfg=qc, form=REDUCED)
        ev_d = LagrangianEvaluator(nl, quad_cfg=qc, form=DOUBLE_INTEGRAL)
        for u in [-1.0, 0.0, 1.0]:
            for p in [-2.0, 0.5, 1.5]:
                a, b = ev_d.L(u, p), ev_r.L(u, p)
                assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_even_in_p(self):
        ev = LagrangianEvaluator(mixed_nl())
        for u, p in [(0.5, 1.0), (-0.8, 2.0), (1.2, 0.3)]:
            assert ev.L(u, p) == pytest.approx(ev.L(u, -p), abs=1e-13)

    def test_second_derivative_consistency(self):
        ev = LagrangianEvaluator(mixed_nl())
        h = 1e-3
        for u, p in [(0.4, 1.0), (-0.6, 1.5)]:
            fd = (ev.L(u, p + h) - 2 * ev.L(u, p) + ev.L(u, p - h)) / (h * h)
            assert ev.L_pp(u, p) == pytest.approx(fd, rel=1e-3)

    def test_defining_pde_residual(self):
        # L_u - p * L_up + fbar(u, p^2/2) * L_pp should vanish
        nl = mixed_nl(2.0)
        ev = LagrangianEvaluator(nl)
        h = 1e-5
        for u, p in [(0.3, 0.8), (-0.5, 1.2)]:
            L_u = (ev.L(u + h, p) - ev.L(u - h, p)) / (2 * h)
            L_up = (ev.L(u + h, p + h) - ev.L(u + h, p - h)
                    - ev.L(u - h, p + h) + ev.L(u - h, p - h)) / (4 * h * h)
            resid = L_u - p * L_up + nl.f_bar(u, 0.5 * p * p) * ev.L_pp(u, p)
            assert abs(resid) <= 1e-4


class TestLpp:
    def test_unity_for_gradient_independent(self):
        ev = LagrangianEvaluator(cubic_nl(2.0))
        for u, p in [(0.5, 1.0), (-1.0, 0.0), (1.3, -2.0)]:
            assert ev.L_pp(u, p) == pytest.approx(1.0, abs=1e-9)

    def test_linear_closed_form(self):
        ev = LagrangianEvaluator(linear_nl(1.0))
        for u, p in [(0.5, 1.0), (-0.7, 2.0)]:
            assert ev.L_pp(u, p) == pytest.approx(np.exp(u), abs=1e-8)

    def test_positive_everywhere_sampled(self):
        rng = np.random.default_rng(12)
        ev = LagrangianEvaluator(mixed_nl())
        for _ in range(20):
            u, p = rng.uniform(-1.2, 1.2), rng.uniform(-2.0, 2.0)
            assert ev.L_pp(u, p) > 0.0


class TestFieldEval:
    def test_matches_pointwise(self):
        rng = np.random.default_rng(3)
        ev = LagrangianEvaluator(mixed_nl())
        u = rng.uniform(-1.0, 1.0, 24)
        p = rng.uniform(-2.0, 2.0, 24)
        fe = ev.field_eval(u, p)
        fresh = LagrangianEvaluator(mixed_nl())
        for i in range(u.size):
            assert fe["L"][i] == pytest.approx(fresh.L(u[i], p[i]), abs=1e-8)
            assert fe["L_pp"][i] == pytest.approx(fresh.L_pp(u[i], p[i]),
                                                  abs=1e-8)

    @pytest.mark.parametrize("form", [REDUCED, DOUBLE_INTEGRAL])
    def test_scalar_L_is_a_batch_of_one(self, form):
        ev = LagrangianEvaluator(q_dependent_nl(), form=form)
        for u, p in [(0.6, 1.3), (-0.9, 2.0), (0.2, -0.5), (0.4, 0.0)]:
            assert ev.L(u, p) == ev.field_eval([u], [p])["L"][0]

    def test_double_form_matches_pointwise(self):
        # the double form's batch: node transport lanes, F lanes and star
        # lanes of 24 samples in one solve, against one-sample evaluations
        rng = np.random.default_rng(4)
        nl = q_dependent_nl()
        ev = LagrangianEvaluator(nl, form=DOUBLE_INTEGRAL)
        u = rng.uniform(-1.0, 1.0, 24)
        p = rng.uniform(-2.0, 2.0, 24)
        fe = ev.field_eval(u, p)
        reduced = LagrangianEvaluator(nl).field_eval(u, p)
        for i in range(u.size):
            assert fe["L"][i] == pytest.approx(ev.L(u[i], p[i]), abs=1e-10)
            assert fe["F"][i] == pytest.approx(ev.F(u[i]), abs=1e-10)
            assert fe["L_pp"][i] == pytest.approx(ev.L_pp(u[i], p[i]),
                                                  abs=1e-10)
        # the reduced form, from other lanes, agrees to quadrature error
        np.testing.assert_allclose(fe["L"], reduced["L"], rtol=0, atol=1e-8)

    def test_non_finite_f_bar_q_raises_where_it_occurs(self):
        nl = NonlinearityO2(
            f_bar=lambda u, q: -u + 0.0 * q,
            f_bar_q=lambda u, q: np.full_like(np.asarray(q, dtype=float),
                                              np.nan),
            label="nan partial")
        ev = LagrangianEvaluator(nl)
        with pytest.raises(IntegrationFailure) as err:
            ev.field_eval(np.array([0.5, -0.3]), np.array([0.4, 1.0]))
        # caught at the first evaluation, not after NaN reached the solver
        assert np.isfinite(err.value.u_reached)

    def test_escape_names_the_sample(self):
        # with f_bar = q every characteristic of sample k grows by e^{u_k}
        # on its way to u = 0: only sample 1 (u = 3, q = 4.5) passes the
        # bound, where 4.5 e^{3 - u} = 10; the batched solve runs in the
        # rescaled s = u / 3 and the message gives both
        nl = NonlinearityO2(f_bar=lambda u, q: q,
                            f_bar_q=lambda u, q: 1.0 + 0.0 * q, label="exp")
        ev = LagrangianEvaluator(nl, CharflowConfig(escape_bound=10.0))
        with pytest.raises(CharacteristicEscape,
                           match=r"sample 1 at \(u, p\) = \(3, 3\)") as err:
            ev.field_eval(np.array([0.1, 3.0, 0.2]), np.array([0.5, 3.0, 1.0]))
        msg = str(err.value)
        s = float(re.search(r"at s=(\S+) ", msg).group(1))
        u = float(re.search(r"stopped at u=([^)\s]+)", msg).group(1))
        assert err.value.var == "s" and err.value.at == pytest.approx(s,
                                                                      rel=1e-5)
        assert u == pytest.approx(3.0 * s, rel=1e-5)
        assert u == pytest.approx(3.0 - math.log(10.0 / 4.5), abs=1e-3)

    def test_leaves_pointwise_queries_unchanged(self):
        # F_q from the batched solve differs from the pointwise transport
        # solve in its last digits
        nl = q_dependent_nl()
        fresh = LagrangianEvaluator(nl)
        ev = LagrangianEvaluator(nl)
        ev.field_eval([0.2, 0.6, -0.9], [0.5, 1.3, 2.0])
        assert ev.L_pp(0.6, 1.3) == fresh.L_pp(0.6, 1.3)
        assert ev.F_q(0.6, 0.5 * 1.3**2) == fresh.F_q(0.6, 0.5 * 1.3**2)

    def test_sensitivities_are_not_watched(self):
        # the sensitivities eta grow to e^{u_k} (about 20 for u = 3), the
        # characteristics q stay below 0.5: the evaluation completes
        nl = NonlinearityO2(f_bar=lambda u, q: q,
                            f_bar_q=lambda u, q: 1.0 + 0.0 * q, label="exp")
        ev = LagrangianEvaluator(nl, CharflowConfig(escape_bound=0.5))
        u, p = np.array([0.1, 3.0]), np.array([0.5, 0.2])
        fe = ev.field_eval(u, p)
        # closed form for f_bar = q: L = p^2/2 e^u, L_pp = e^u
        np.testing.assert_allclose(fe["L"], 0.5 * p * p * np.exp(u),
                                   rtol=1e-8)
        np.testing.assert_allclose(fe["L_pp"], np.exp(u), rtol=1e-8)

    def test_scalar_callables_match_vectorised(self):
        vec = NonlinearityO2(f_bar=lambda u, q: 2.0 * np.sin(u) + q * np.cos(u),
                             f_bar_q=lambda u, q: np.cos(u) + 0.0 * q)
        scalar = NonlinearityO2(
            f_bar=lambda u, q: 2.0 * math.sin(u) + q * math.cos(u),
            f_bar_q=lambda u, q: math.cos(u))
        u = np.array([0.7, -0.4, 1.1, 0.0])
        p = np.array([0.3, -1.2, 0.8, 0.5])
        want = LagrangianEvaluator(vec).field_eval(u, p)
        got = LagrangianEvaluator(scalar).field_eval(u, p)
        for key in ("L", "L_pp"):
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12)


def _queries(ev, u, p):
    """F, F_q, L_pp and L at one point."""
    return ev.F(u), ev.F_q(u, 0.5 * p * p), ev.L_pp(u, p), ev.L(u, p)


class TestQueryOrder:
    """A value depends on its arguments only, never on the queries the
    evaluator answered before it."""

    @pytest.mark.parametrize("form", [REDUCED, DOUBLE_INTEGRAL])
    @settings(max_examples=10, deadline=None)
    @given(u=st.floats(-1.2, 1.2), p=st.floats(-1.5, 1.5),
           nudge=st.floats(-4e-13, 4e-13),
           others=st.lists(st.tuples(st.floats(-1.2, 1.2),
                                     st.floats(-1.5, 1.5)), max_size=3))
    def test_bit_equal_after_other_queries(self, form, u, p, nudge, others):
        nl = q_dependent_nl()
        fresh = _queries(LagrangianEvaluator(nl, form=form), u, p)
        ev = LagrangianEvaluator(nl, form=form)
        # neighbours within 1e-12 round to the same 12 digits as (u, p)
        for a, b in others + [(u + nudge, p + nudge), (u - nudge, p)]:
            _queries(ev, a, b)
        assert _queries(ev, u, p) == fresh


class TestTransportEscape:
    def test_escape_names_the_sample(self):
        # with f_bar = q^2 the characteristic from (u, q) = (2, 1) blows up
        # at u = 1 on its way down to 0
        nl = NonlinearityO2(f_bar=lambda u, q: q * q,
                            f_bar_q=lambda u, q: 2.0 * q, label="blowup")
        ev = LagrangianEvaluator(nl, CharflowConfig(escape_bound=1e6))
        with pytest.raises(CharacteristicEscape,
                           match=r"transport solve: sample 0 at "
                                 r"\(u, q\) = \(2, 1\)"):
            ev.F_q(2.0, 1.0)


class TestEffectiveNonlinearity:
    def test_unit_coefficient_is_identity(self):
        nl = mixed_nl()
        one = NonlinearityO2(f_bar=lambda u, q: 1.0 + 0.0 * q,
                             f_bar_q=lambda u, q: 0.0 * q, label="one")
        eff = effective_nonlinearity(nl, one)
        for u, q in [(0.4, 0.3), (-1.0, 1.2)]:
            assert eff.f_bar(u, q) == pytest.approx(nl.f_bar(u, q), abs=1e-14)
            assert eff.f_bar_q(u, q) == pytest.approx(nl.f_bar_q(u, q),
                                                      abs=1e-14)

    def test_constant_two_halves_the_reaction(self):
        lam = 2.0
        nl = cubic_nl(lam)
        two = NonlinearityO2(f_bar=lambda u, q: 2.0 + 0.0 * q,
                             f_bar_q=lambda u, q: 0.0 * q, label="two")
        eff = effective_nonlinearity(nl, two)
        ev = LagrangianEvaluator(eff)
        F_half = cubic_primitive(lam / 2.0)
        for u, p in [(0.5, 1.0), (-1.1, 0.4)]:
            assert ev.L(u, p) == pytest.approx(0.5 * p * p - F_half(u),
                                               abs=1e-8)

    def test_quotient_partial_matches_finite_difference(self):
        nl = mixed_nl()
        a_bar = NonlinearityO2(f_bar=lambda u, q: 2.0 + 0.1 * q,
                               f_bar_q=lambda u, q: 0.1 + 0.0 * q,
                               label="a")
        eff = effective_nonlinearity(nl, a_bar)
        eff.check_consistency(u_samples=[-0.8, 0.2, 1.0],
                              q_samples=[0.0, 0.5, 2.0])

    def test_nonpositive_coefficient_rejected(self):
        nl = cubic_nl()
        bad = NonlinearityO2(f_bar=lambda u, q: -1.0 + 0.0 * q,
                             f_bar_q=lambda u, q: 0.0 * q, label="bad")
        eff = effective_nonlinearity(nl, bad)
        with pytest.raises(ValueError):
            eff.f_bar(0.5, 0.1)
