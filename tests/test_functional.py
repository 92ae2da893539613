"""Tests for discrete fields and the Lyapunov functional over them."""

import numpy as np
import pytest

from circlyap import charflow
from circlyap.charflow import (
    CharflowConfig,
    NonlinearityO2,
    evolve_batch,
    solve_profile_flow,
)
from circlyap.functional import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    ScalarField,
    field_report,
    gradient,
    quadrature_weights,
)
from circlyap.lagrangian import (
    DOUBLE_INTEGRAL,
    REDUCED,
    LagrangianEvaluator,
    effective_nonlinearity,
)


def harmonic_nl():
    return NonlinearityO2(f_bar=lambda u, q: -u + 0.0 * q,
                          f_bar_q=lambda u, q: 0.0 * q,
                          label="harmonic")


def cubic_nl(lam=2.0):
    return NonlinearityO2(f_bar=lambda u, q: lam * u * (1.0 - u * u) + 0.0 * q,
                          f_bar_q=lambda u, q: 0.0 * q,
                          label=f"cubic(lam={lam})")


def mixed_nl():
    return NonlinearityO2(f_bar=lambda u, q: 2.0 * u * (1.0 - u * u) + q * u,
                          f_bar_q=lambda u, q: u + 0.0 * q,
                          label="mixed")


def q_dependent_nl():
    return NonlinearityO2(
        f_bar=lambda u, q: 2.0 * u * (1.0 - u * u) + q * u + 0.2 * q * q,
        f_bar_q=lambda u, q: u + 0.4 * q, label="q-dependent")


def smooth_field(n, ell=1.0, bc=PERIODIC):
    if bc == PERIODIC:
        x = np.arange(n) * (ell / n)
    else:
        x = np.linspace(0.0, ell, n)
    return ScalarField(0.4 * np.sin(2 * np.pi * x / ell)
                       + 0.1 * np.sin(4 * np.pi * x / ell), ell, bc)


def V_report(ev, fld):
    """The report of a snapshot at rest: V and min L_pp, dissipation 0."""
    return field_report(ev, fld, fld.like(np.zeros(fld.n)))


class TestScalarField:
    def test_rejects_short_arrays(self):
        with pytest.raises(ValueError):
            ScalarField(np.zeros(4), 1.0)

    def test_rejects_bad_bc(self):
        with pytest.raises(ValueError):
            ScalarField(np.zeros(16), 1.0, "robin")

    def test_dirichlet_requires_vanishing_ends(self):
        vals = np.linspace(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            ScalarField(vals, 1.0, DIRICHLET)

    def test_grid_spacing(self):
        per = ScalarField(np.zeros(10), 2.0, PERIODIC)
        assert per.dx == pytest.approx(0.2)
        iv = ScalarField(np.zeros(11), 2.0, NEUMANN)
        assert iv.dx == pytest.approx(0.2)
        assert iv.grid()[-1] == pytest.approx(2.0)


class TestGradient:
    def test_constant_field(self):
        fld = ScalarField(np.full(32, 1.7), 1.0)
        assert np.max(np.abs(gradient(fld))) == 0.0

    def test_periodic_sine(self):
        n = 256
        x = np.arange(n) / n
        fld = ScalarField(np.sin(2 * np.pi * x), 1.0)
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        assert np.max(np.abs(gradient(fld) - exact)) <= 1e-3

    def test_interval_linear_ramp(self):
        n = 32
        x = np.linspace(0.0, 1.0, n)
        fld = ScalarField(3.0 * x, 1.0, NEUMANN)
        assert np.max(np.abs(gradient(fld) - 3.0)) <= 1e-10

    def test_dirichlet_ends_are_one_sided_slopes(self):
        # the slope of a Dirichlet field need not vanish where u does
        n = 64
        x = np.linspace(0.0, 1.0, n)
        fld = ScalarField(np.sin(np.pi * x), 1.0, DIRICHLET)
        p = gradient(fld)
        assert type(p) is np.ndarray and p.shape == (n,)
        assert abs(p[0] - np.pi) <= 1e-2 and abs(p[-1] + np.pi) <= 1e-2
        assert not np.shares_memory(p, gradient(fld))


class TestEvaluateV:
    def test_constant_field_closed_form(self):
        # for the harmonic reaction, L(c, 0) = c^2 / 2
        ev = LagrangianEvaluator(harmonic_nl())
        c, ell = 0.7, 1.0
        fld = ScalarField(np.full(64, c), ell)
        rep = V_report(ev, fld)
        assert rep.V == pytest.approx(ell * c * c / 2.0, abs=1e-8)

    def test_zero_field_gives_zero(self):
        ev = LagrangianEvaluator(mixed_nl())
        rep = V_report(ev, ScalarField(np.zeros(64), 1.0))
        assert rep.V == pytest.approx(0.0, abs=1e-10)

    def test_classical_energy(self):
        # gradient-independent reaction: V is the textbook energy
        lam = 2.0
        ev = LagrangianEvaluator(cubic_nl(lam))
        fld = smooth_field(128)
        p = gradient(fld)
        F = lam * (fld.values**2 / 2.0 - fld.values**4 / 4.0)
        w = quadrature_weights(fld)
        expected = float(np.dot(w, 0.5 * p * p - F))
        assert V_report(ev, fld).V == pytest.approx(expected, abs=1e-8)

    def test_requires_periodic(self):
        ev = LagrangianEvaluator(mixed_nl())
        with pytest.raises(ValueError):
            V_report(ev, smooth_field(64, bc=NEUMANN))

    def test_translation_invariance(self):
        ev = LagrangianEvaluator(mixed_nl())
        fld = smooth_field(64)
        V0 = V_report(ev, fld).V
        rolled = fld.like(np.roll(fld.values, 17))
        assert V_report(ev, rolled).V == pytest.approx(V0, abs=1e-12)

    def test_reflection_invariance(self):
        ev = LagrangianEvaluator(mixed_nl())
        fld = smooth_field(64)
        V0 = V_report(ev, fld).V
        reflected = fld.like(fld.values[::-1].copy())
        assert V_report(ev, reflected).V == pytest.approx(V0, abs=1e-12)

    def test_resolution_convergence_is_second_order(self):
        ev = LagrangianEvaluator(mixed_nl())
        Vs = {n: V_report(ev, smooth_field(n)).V for n in (32, 64, 128)}
        e1 = abs(Vs[32] - Vs[64])
        e2 = abs(Vs[64] - Vs[128])
        assert e2 <= e1 / 3.0  # about 4x per doubling

    def test_convexity_min_positive(self):
        ev = LagrangianEvaluator(mixed_nl())
        assert V_report(ev, smooth_field(64)).convexity_min > 0.0

    def test_double_integral_form_matches_reduced(self):
        # the double-integral form stacks its node, F and star lanes in
        # one field_eval; the reduced form uses sensitivity lanes instead
        fld = smooth_field(64)
        rep = V_report(LagrangianEvaluator(mixed_nl(), form=DOUBLE_INTEGRAL),
                       fld)
        ref = V_report(LagrangianEvaluator(mixed_nl(), form=REDUCED), fld)
        assert abs(rep.V - ref.V) <= 1e-8
        assert rep.convexity_min > 0.0

    @pytest.mark.parametrize("form", [REDUCED, DOUBLE_INTEGRAL])
    def test_one_characteristic_solve_per_field(self, form, monkeypatch):
        calls = []
        real = charflow.solve_characteristics

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(charflow, "solve_characteristics", counted)
        ev = LagrangianEvaluator(mixed_nl(), form=form)
        for n in (32, 64):
            calls.clear()
            V_report(ev, smooth_field(n))
            assert len(calls) == 1


def dissipation(ev, fld, ut, weight_a=None):
    return field_report(ev, fld, ut, weight_a=weight_a).dissipation


class TestDissipationRate:
    def test_zero_velocity(self):
        ev = LagrangianEvaluator(mixed_nl())
        fld = smooth_field(64)
        zero = fld.like(np.zeros(64))
        assert dissipation(ev, fld, zero) == 0.0

    def test_classical_case_is_minus_norm(self):
        ev = LagrangianEvaluator(cubic_nl())
        fld = smooth_field(64)
        ut = fld.like(0.3 * np.cos(2 * np.pi * fld.grid()))
        w = quadrature_weights(fld)
        expected = -float(np.dot(w, ut.values**2))
        assert dissipation(ev, fld, ut) == pytest.approx(expected, abs=1e-8)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(9)
        ev = LagrangianEvaluator(mixed_nl())
        fld = smooth_field(64)
        for _ in range(5):
            ut = fld.like(rng.standard_normal(64))
            assert dissipation(ev, fld, ut) <= 0.0

    def test_quasilinear_weight(self):
        ev = LagrangianEvaluator(cubic_nl())
        fld = smooth_field(64)
        ut = fld.like(np.ones(64))
        two = NonlinearityO2(f_bar=lambda u, q: 2.0 + 0.0 * q,
                             f_bar_q=lambda u, q: 0.0 * q, label="two")
        plain = dissipation(ev, fld, ut)
        weighted = dissipation(ev, fld, ut, weight_a=two)
        assert weighted == pytest.approx(plain / 2.0, abs=1e-10)

    def test_mismatched_grids_rejected(self):
        ev = LagrangianEvaluator(cubic_nl())
        with pytest.raises(ValueError):
            dissipation(ev, smooth_field(64), smooth_field(32))


class TestFieldReport:
    """One field_eval per snapshot gives V, the dissipation and min L_pp;
    none of them depends on what the evaluator computed before."""

    def test_matches_separate_calls(self):
        fld = smooth_field(64)
        ut = fld.like(0.3 * np.cos(2 * np.pi * fld.grid()))
        rep = field_report(LagrangianEvaluator(mixed_nl()), fld, ut)
        fe = LagrangianEvaluator(mixed_nl()).field_eval(
            fld.values, gradient(fld))
        w = quadrature_weights(fld)
        assert rep.V == float(np.dot(w, fe["L"]))
        assert rep.convexity_min == float(np.min(fe["L_pp"]))
        assert rep.dissipation == \
            -float(np.dot(w, fe["L_pp"] * ut.values**2))

    def test_dissipation_independent_of_cache_state(self):
        # f_bar_q depends on q, so F_q from different solves differs in
        # its last digits
        nl = q_dependent_nl()
        fld = smooth_field(64)
        ut = fld.like(0.3 * np.cos(2 * np.pi * fld.grid()))
        fresh_report = field_report(LagrangianEvaluator(nl), fld, ut)
        # an unrelated batch that holds the same samples among others
        # computes their F_q in another solve first
        ev = LagrangianEvaluator(nl)
        u, p = fld.values, gradient(fld)
        ev.field_eval(np.concatenate([np.linspace(-1.0, 1.0, 40), u]),
                      np.concatenate([np.linspace(2.0, -2.0, 40), p]))
        assert field_report(ev, fld, ut).dissipation == \
            fresh_report.dissipation

    def test_quasilinear_weight_matches_pointwise_loop(self):
        a_bar = NonlinearityO2(f_bar=lambda u, q: 2.0 + 0.1 * q + 0.3 * u * u,
                               f_bar_q=lambda u, q: 0.1 + 0.0 * q, label="a")
        ev = LagrangianEvaluator(effective_nonlinearity(mixed_nl(), a_bar))
        fld = smooth_field(64)
        ut = fld.like(0.3 * np.cos(2 * np.pi * fld.grid()))
        u, p = fld.values, gradient(fld)
        # the per-point loop the weight used to be computed by
        av = np.array([a_bar.f_bar(ui, 0.5 * pi * pi) for ui, pi in zip(u, p)])
        lpp = ev.field_eval(u, p)["L_pp"]
        ref = -float(np.dot(quadrature_weights(fld), (1.0 / av) * lpp
                            * ut.values**2))
        assert field_report(ev, fld, ut, weight_a=a_bar).dissipation == \
            pytest.approx(ref, rel=1e-14)

    def test_interval_field_rejected(self):
        fld = smooth_field(64, bc=NEUMANN)
        with pytest.raises(ValueError):
            field_report(LagrangianEvaluator(mixed_nl()), fld, fld)


def _full(fn):
    """The twin of ``fn`` whose result has q's shape."""
    return lambda u, q: np.full_like(q, fn(u, q))


# nonlinearities whose results only broadcast against q: Python floats,
# f_bar of u alone, f_bar_q a Python float, f_bar_q of u alone
_LEAN = {
    "constant": (lambda u, q: 1.5, lambda u, q: 0.0),
    "f_bar_of_u": (lambda u, q: 2.0 * np.sin(u) - 0.5 * u,
                   lambda u, q: 0.0),
    "f_bar_q_float": (lambda u, q: 0.5 * q - u, lambda u, q: 0.5),
    "f_bar_q_of_u": (lambda u, q: 2.0 * np.sin(u) + q * np.cos(u),
                     lambda u, q: np.cos(u)),
}


class TestBroadcastingContract:
    """A nonlinearity whose f_bar or f_bar_q only broadcasts against q
    gives every quantity bit for bit as its twin shaped like q."""

    @pytest.mark.parametrize("case", sorted(_LEAN))
    def test_matches_full_twin(self, case):
        f, f_q = _LEAN[case]
        lean = NonlinearityO2(f, f_q, label=case)
        full = NonlinearityO2(_full(f), _full(f_q), label=case)
        lean.check_consistency([-0.5, 0.7], [0.0, 1.0])
        # the quasilinear weight is a constant: a Python float
        a_lean = NonlinearityO2(lambda u, q: 2.0, lambda u, q: 0.0)
        a_full = NonlinearityO2(_full(a_lean.f_bar), _full(a_lean.f_bar_q))

        q0 = np.array([-0.4, 0.0, 0.3, 1.1])
        for got, want in zip(evolve_batch(lean, 0.8, -0.3, q0),
                             evolve_batch(full, 0.8, -0.3, q0)):
            np.testing.assert_array_equal(got, want)
        # the equilibrium profile u'' = -fbar(u, u'^2/2) to five abscissae,
        # and the q-flow from its start to where each lane ends
        xs = np.linspace(0.0, 1.0, 6)[1:]
        profile = [solve_profile_flow(
            lambda x, u, p, nl=nl: nl.f_bar(u, 0.5 * p * p), xs, 0.1, 0.5,
            (0.0, 1.0), CharflowConfig(), "equilibrium")
            for nl in (lean, full)]
        np.testing.assert_array_equal(*profile)
        for u in profile[0][0]:
            for got, want in zip(evolve_batch(lean, 0.1, u, [0.125]),
                                 evolve_batch(full, 0.1, u, [0.125])):
                np.testing.assert_array_equal(got, want)

        u = np.array([0.7, -0.4, 1.1, 0.0])
        p = np.array([0.3, -1.2, 0.8, 0.5])
        for form in (REDUCED, DOUBLE_INTEGRAL):
            got = LagrangianEvaluator(lean, form=form).field_eval(u, p)
            want = LagrangianEvaluator(full, form=form).field_eval(u, p)
            assert got.keys() == want.keys()
            for key in got:
                np.testing.assert_array_equal(got[key], want[key])

        ev_lean, ev_full = LagrangianEvaluator(lean), LagrangianEvaluator(full)
        assert ev_lean.F(0.9) == ev_full.F(0.9)
        assert ev_lean.F_q(-0.6, 0.8) == ev_full.F_q(-0.6, 0.8)

        fld = smooth_field(32)
        ut = fld.like(0.3 * np.cos(2 * np.pi * fld.grid()))
        assert field_report(ev_lean, fld, ut, weight_a=a_lean) == \
            field_report(ev_full, fld, ut, weight_a=a_full)
