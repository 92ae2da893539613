"""Tests for the characteristic evolution and its sensitivity."""

import gc
import inspect
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq

from circlyap import charflow, lagrangian, matano
from circlyap.charflow import (
    CharacteristicEscape,
    CharflowConfig,
    IntegrationFailure,
    NonlinearityO2,
    compose_check,
    evolve,
    evolve_batch,
    verify_equilibrium_first_integral,
)
from circlyap.pde import GeneralNonlinearity


def zero_nl():
    return NonlinearityO2(f_bar=lambda u, q: 0.0 * q,
                          f_bar_q=lambda u, q: 0.0 * q,
                          label="zero")


def linear_nl(b=1.0):
    return NonlinearityO2(f_bar=lambda u, q: b * q,
                          f_bar_q=lambda u, q: b + 0.0 * q,
                          label=f"linear(b={b})")


def cubic_nl(lam=2.0):
    return NonlinearityO2(f_bar=lambda u, q: lam * u * (1.0 - u * u) + 0.0 * q,
                          f_bar_q=lambda u, q: 0.0 * q,
                          label=f"cubic(lam={lam})")


def mixed_nl(lam=2.0):
    # cubic reaction plus a gradient-dependent part
    return NonlinearityO2(f_bar=lambda u, q: lam * u * (1.0 - u * u) + q * u,
                          f_bar_q=lambda u, q: u + 0.0 * q,
                          label=f"mixed(lam={lam})")


class TestEvolve:
    def test_zero_field_is_identity_flow(self):
        res = evolve(zero_nl(), 0.0, 5.0, 3.0)
        assert res.value == pytest.approx(3.0, abs=1e-12)
        assert res.sensitivity == pytest.approx(1.0, abs=1e-12)

    def test_same_endpoint_is_exact_identity(self):
        res = evolve(mixed_nl(), 0.7, 0.7, 1.3)
        assert res.value == 1.3
        assert res.sensitivity == 1.0

    def test_linear_closed_form(self):
        # dq/du = -b q has solution q0 * exp(b*(u - u1)) evaluated at u1=0
        b = 1.0
        for u, q in [(0.5, 1.0), (-1.2, 0.3), (2.0, -0.7)]:
            res = evolve(linear_nl(b), u, 0.0, q)
            assert res.value == pytest.approx(q * np.exp(b * u), abs=1e-8)
            assert res.sensitivity == pytest.approx(np.exp(b * u), abs=1e-8)

    def test_gradient_independent_reduces_to_primitive(self):
        # for f independent of q the flow is a pure shift by the primitive
        lam = 2.0
        F = lambda u: lam * (u * u / 2.0 - u**4 / 4.0)
        for u0, u1, q0 in [(0.8, 0.0, 0.4), (-0.5, 1.0, 2.0), (1.5, -1.0, 0.0)]:
            res = evolve(cubic_nl(lam), u0, u1, q0)
            assert res.value == pytest.approx(q0 + F(u0) - F(u1), abs=1e-8)
            assert res.sensitivity == pytest.approx(1.0, abs=1e-8)

    def test_negative_q_is_allowed(self):
        res = evolve(mixed_nl(), 0.0, 1.0, -2.0)
        assert np.isfinite(res.value)

    def test_escape_is_reported_with_location(self):
        # dq/du = q^2 blows up in finite u from q0 > 0: q = 1 / (1 - u)
        # reaches the bound 1e6 at u = 1 - 1e-6
        nl = NonlinearityO2(f_bar=lambda u, q: -q * q,
                            f_bar_q=lambda u, q: -2.0 * q,
                            label="blowup")
        cfg = CharflowConfig(escape_bound=1e6)
        with pytest.raises(CharacteristicEscape,
                           match=r"evolution from \(u, q\) = \(0, 1\)") as err:
            evolve(nl, 0.0, 10.0, 1.0, cfg)
        assert err.value.var == "u"
        assert err.value.at == pytest.approx(1.0 - 1e-6, abs=1e-9)


class TestComposeAndInverse:
    def test_compose_zero_field(self):
        two_leg, direct = compose_check(zero_nl(), -1.0, 0.5, 2.0, 0.7)
        assert two_leg == pytest.approx(0.7, abs=1e-12)
        assert direct == pytest.approx(0.7, abs=1e-12)

    def test_compose_linear_closed_form(self):
        # f_bar = q gives q(u) = q0 * exp(-u); both legs end at e^{-2}
        nl = NonlinearityO2(f_bar=lambda u, q: q,
                            f_bar_q=lambda u, q: 1.0 + 0.0 * q,
                            label="exp")
        two_leg, direct = compose_check(nl, 0.0, 1.0, 2.0, 1.0)
        assert two_leg == pytest.approx(np.exp(-2.0), abs=1e-8)
        assert direct == pytest.approx(np.exp(-2.0), abs=1e-8)

    def test_compose_cubic_self_consistency(self):
        two_leg, direct = compose_check(cubic_nl(2.0), 0.0, 0.5, 1.0, 0.3)
        assert two_leg == pytest.approx(direct, abs=1e-8)

    def test_inverse_round_trip(self):
        nl = mixed_nl()
        fwd = evolve(nl, 0.2, 1.1, 0.6)
        back = evolve(nl, 1.1, 0.2, fwd.value)
        assert back.value == pytest.approx(0.6, abs=1e-8)


class TestSensitivity:
    def test_positive_on_completion(self):
        rng = np.random.default_rng(5)
        nl = mixed_nl()
        for _ in range(20):
            u0, u1 = rng.uniform(-1.2, 1.2, 2)
            q0 = rng.uniform(-1.0, 2.0)
            assert evolve(nl, u0, u1, q0).sensitivity > 0.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        nl = mixed_nl()
        for _ in range(10):
            u0, u1 = rng.uniform(-1.0, 1.0, 2)
            q0 = rng.uniform(-0.5, 1.5)
            h = 1e-6 * max(1.0, abs(q0))
            plus = evolve(nl, u0, u1, q0 + h).value
            minus = evolve(nl, u0, u1, q0 - h).value
            fd = (plus - minus) / (2 * h)
            sens = evolve(nl, u0, u1, q0).sensitivity
            assert sens == pytest.approx(fd, rel=1e-4)


class TestBatch:
    def test_matches_scalar_evolve(self):
        nl = mixed_nl()
        q0s = np.array([-0.5, 0.0, 0.4, 1.2])
        vals, sens = evolve_batch(nl, 0.9, 0.0, q0s)
        for q0, v, s in zip(q0s, vals, sens):
            res = evolve(nl, 0.9, 0.0, q0)
            assert v == pytest.approx(res.value, abs=1e-9)
            assert s == pytest.approx(res.sensitivity, abs=1e-9)

    def test_escape_raises(self):
        nl = NonlinearityO2(f_bar=lambda u, q: -q * q,
                            f_bar_q=lambda u, q: -2.0 * q,
                            label="blowup")
        cfg = CharflowConfig(escape_bound=1e6)
        # dq/du = q^2 from q0 = 1 blows up at u = 1, from q0 = 0.1 at u = 10
        with pytest.raises(CharacteristicEscape,
                           match=r"sample 1 at \(u, q\) = \(0, 1\)"):
            evolve_batch(nl, 0.0, 10.0, np.array([0.1, 1.0]), cfg)


class TestEquilibriumFirstIntegral:
    def test_harmonic_profile(self):
        nl = NonlinearityO2(f_bar=lambda u, q: -u + 0.0 * q,
                            f_bar_q=lambda u, q: 0.0 * q,
                            label="harmonic")
        defect = verify_equilibrium_first_integral(nl, 0.0, 1.0, np.pi)
        assert defect <= 1e-6

    def test_zero_field_straight_line(self):
        defect = verify_equilibrium_first_integral(zero_nl(), 0.0, 2.0, 1.0)
        assert defect <= 1e-10

    def test_cubic_pendulum_energy(self):
        defect = verify_equilibrium_first_integral(cubic_nl(5.0), 0.1, 0.5, 1.0)
        assert defect <= 1e-6


class TestNonlinearityConsistency:
    def test_partial_matches_finite_difference(self):
        nl = mixed_nl(2.0)
        nl.check_consistency(u_samples=[-1.0, 0.3, 1.2],
                             q_samples=[-0.5, 0.0, 2.0])

    def test_inconsistent_partial_is_rejected(self):
        bad = NonlinearityO2(f_bar=lambda u, q: q * q,
                             f_bar_q=lambda u, q: 3.0 * q,  # wrong on purpose
                             label="bad")
        with pytest.raises(ValueError):
            bad.check_consistency(u_samples=[0.0], q_samples=[1.0])


class TestConfigValidation:
    def test_positive_tolerances_required(self):
        with pytest.raises(ValueError):
            CharflowConfig(rel_tol=-1e-10)
        with pytest.raises(ValueError):
            CharflowConfig(escape_bound=0.0)


def _first_solve(monkeypatch, module, call):
    """Arguments (rhs, span, y0, cfg, watch) of the first characteristic
    solve that ``call`` makes through ``module``."""
    seen = []
    real = charflow.solve_characteristics

    def spy(*args, **kwargs):
        seen.append(args[:5])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "solve_characteristics", spy)
    try:
        call()
    except CharacteristicEscape:
        pass
    monkeypatch.undo()
    return seen[0]


def _van_der_pol(t, y):
    return np.array([y[1], 5.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])


_BLOWUP = NonlinearityO2(f_bar=lambda u, q: -q * q,
                         f_bar_q=lambda u, q: -2.0 * q, label="blowup")

# each case returns (rhs, span, y0, cfg, watch) of one solve
PORT_CASES = {
    "evolve_batch": lambda mp: _first_solve(mp, charflow, lambda: evolve_batch(
        mixed_nl(), -0.3, 1.1, np.linspace(-0.5, 2.0, 7))),
    # stacked node, star, sensitivity and exponent lanes over s in [1, 0]
    "backward_field_eval": lambda mp: _first_solve(
        mp, lagrangian, lambda: lagrangian.LagrangianEvaluator(
            mixed_nl()).field_eval(np.array([0.6, -0.9, 1.4]),
                                   np.array([1.3, -0.4, 2.0]))),
    "rejections": lambda mp: (_van_der_pol, (0.0, 6.0), np.array([2.0, 0.0]),
                              CharflowConfig(), 2),
    "empty": lambda mp: (lambda t, y: -y, (0.0, 1.0), np.empty(0),
                         CharflowConfig(), 0),
    # slow enough that the first-step rule's trial step, 0.01 |y|/|f|,
    # exceeds the span and is clamped to it
    "short_span": lambda mp: (lambda t, y: -1e-3 * (1.0 + t * t) * y,
                              (0.0, 0.5), np.array([1.0, -3.0]),
                              CharflowConfig(), 2),
}


def _by_hand(rhs, span, y0, cfg):
    """scipy's DOP853 stepped by hand: the final state, the number of
    rejected attempts, whether every right-hand side was evaluated inside
    the span, and per accepted step a pair (the driver's interpolant built
    from the step, scipy's dense output of it)."""
    at = []

    def logged(t, y):
        at.append(t)
        return rhs(t, y)

    def fun(t, y):
        return np.asarray(rhs(t, y), dtype=float)

    solver = DOP853(logged, span[0], y0, span[1], rtol=cfg.rel_tol,
                    atol=cfg.abs_tol)
    steps, attempts = [], 0
    while solver.status == "running":
        nfev = solver.nfev
        solver.step()
        attempts += (solver.nfev - nfev) // 12
        if solver.y_old is None:
            continue  # the empty state finishes without a step
        mine = charflow._interpolant(
            fun, solver.t_old, solver.t, solver.y_old, solver.y, solver.f,
            solver.h_previous, solver.K_extended.copy())
        steps.append((mine, solver.dense_output()))
    assert solver.status == "finished"
    inside = min(span) <= min(at) and max(at) <= max(span)
    return solver.y, steps, attempts - len(steps), inside


class TestDop853Port:
    """The driver's DOP853 loop reproduces scipy's DOP853 bit for bit."""

    @pytest.mark.parametrize("case", list(PORT_CASES))
    def test_equals_scipy_bit_for_bit(self, case, monkeypatch):
        rhs, span, y0, cfg, watch = PORT_CASES[case](monkeypatch)
        y, steps, rejected, inside = _by_hand(rhs, span, y0, cfg)
        if case == "rejections":
            assert rejected > 0
        if not inside:
            pytest.skip("this scipy's first-step rule evaluates the "
                        "right-hand side beyond the span; the driver ports "
                        "the rule that is clamped to the span")
        y_end = charflow.solve_characteristics(rhs, span, y0, cfg, watch,
                                               lambda k, t: "")
        assert np.array_equal(y_end, y)
        # the interpolant that locates an escape, at every accepted step
        for mine, theirs in steps:
            for t in np.linspace(theirs.t_old, theirs.t, 5):
                assert np.array_equal(mine(t), theirs(t))

    def test_escape_located_as_scipy_locates_it(self, monkeypatch):
        # dq/du = q^2 from q = 1 blows up at u = 1; the escape is the
        # crossing of the bound on the interpolant of scipy's step
        cfg = CharflowConfig(escape_bound=1e6)
        rhs, span, y0, _, watch = _first_solve(
            monkeypatch, charflow,
            lambda: evolve_batch(_BLOWUP, 0.0, 10.0, np.array([0.1, 1.0]),
                                 cfg))
        solver = DOP853(rhs, span[0], y0, span[1], rtol=cfg.rel_tol,
                        atol=cfg.abs_tol)
        while np.max(np.abs(solver.y[:watch])) < cfg.escape_bound:
            solver.step()
        step = solver.dense_output()
        eps = np.finfo(float).eps
        at = brentq(lambda s: np.max(np.abs(step(s)[:watch]))
                    - cfg.escape_bound, solver.t_old, solver.t,
                    xtol=4 * eps, rtol=4 * eps)
        with pytest.raises(CharacteristicEscape) as err:
            charflow.solve_characteristics(rhs, span, y0, cfg, watch,
                                           lambda k, t: "")
        assert err.value.at == at
        assert np.array_equal(err.value.state, step(at))


class TestVendoredTableau:
    def test_equals_scipys_bit_for_bit(self):
        # the driver reads circlyap._dop853, a verbatim copy of scipy's
        # private module; TestDop853Port pins the loop over it
        theirs = pytest.importorskip(
            "scipy.integrate._ivp.dop853_coefficients",
            reason="this scipy keeps its DOP853 tableau elsewhere")
        from circlyap import _dop853 as ours

        names = [n for n in vars(theirs) if n.isupper()]
        assert names == [n for n in vars(ours) if n.isupper()]
        assert {"A", "B", "C", "D", "E3", "E5", "N_STAGES"} <= set(names)
        for name in names:
            mine, ref = getattr(ours, name), getattr(theirs, name)
            assert type(mine) is type(ref), name
            if isinstance(ref, np.ndarray):
                assert mine.dtype == ref.dtype and mine.shape == ref.shape
                assert mine.tobytes() == ref.tobytes(), name
            else:
                assert mine == ref, name


class TestVanishingErrorEstimate:
    def test_underflowing_estimate_accepts_the_step(self):
        # at u of order 1e-158 the lanes barely move: the 5th-order error
        # estimate is exactly 0 and 0.01 times the 3rd-order one (8e-323)
        # underflows to 0, so scipy's norm formula divides 0 by 0; the NaN
        # norm used to reject every attempt until the step size collapsed
        nl = NonlinearityO2(
            f_bar=lambda u, q: 2.0 * u * (1.0 - u * u) + q * u + 0.2 * q * q,
            f_bar_q=lambda u, q: u + 0.4 * q, label="q-dependent")
        ev = lagrangian.LagrangianEvaluator(nl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fe = ev.field_eval([6.375118007217159e-158], [1.0])
        assert fe["L"][0] == 0.5 and fe["L_pp"][0] == 1.0


def _linear_gen():
    return GeneralNonlinearity(
        f=lambda x, u, p: (2 * np.pi) ** 2 * u + 0.1 * p,
        f_p=lambda x, u, p: np.full_like(np.asarray(p, dtype=float), 0.1),
        x_periodic=False)


class TestDriverPolicy:
    """Every characteristic solve runs through one driver and shares its
    failure policy."""

    def test_single_solve_path(self):
        for mod in (charflow, lagrangian, matano):
            assert "solve_ivp" not in inspect.getsource(mod), mod.__name__

    @pytest.mark.parametrize("call", [
        pytest.param(lambda cfg: evolve(mixed_nl(), 0.0, 1.0, 0.5, cfg),
                     id="evolve"),
        pytest.param(lambda cfg: evolve_batch(
            mixed_nl(), 0.0, 1.0, np.array([0.1, 0.5]), cfg),
                     id="evolve_batch"),
        pytest.param(lambda cfg: lagrangian.LagrangianEvaluator(
            mixed_nl(), cfg).field_eval(np.array([0.5, -0.3]),
                                        np.array([0.4, 1.0])),
                     id="lagrangian.field_eval"),
        pytest.param(lambda cfg: matano.SeparatedEvaluator(
            _linear_gen(), cfg).g_batch([0.5, 1.0], [0.1, -0.2], [0.3, 0.4]),
                     id="matano.g_batch"),
        pytest.param(lambda cfg: matano.integrability_defect(
            _linear_gen(), (0.3, 0.1), cfg),
                     id="matano.integrability_defect"),
    ])
    def test_step_budget_on_every_path(self, call):
        with pytest.raises(IntegrationFailure, match="step budget exhausted"):
            call(CharflowConfig(max_steps=1))

    @pytest.mark.parametrize("nl, cfg", [
        (mixed_nl(), CharflowConfig()),
        (mixed_nl(), CharflowConfig(max_steps=1)),
        # the first right-hand side, evaluated before the first step, is
        # already non-finite
        (NonlinearityO2(f_bar=lambda u, q: np.inf * q,
                        f_bar_q=lambda u, q: 0.0 * q), CharflowConfig()),
    ], ids=["completes", "fails", "fails_while_built"])
    def test_solve_keeps_nothing_alive(self, nl, cfg, monkeypatch):
        # without the cyclic collector, anything left in a reference cycle
        # with the right-hand side would keep it alive after the solve
        refs = []
        real = charflow.solve_characteristics

        def spy(rhs, *args, **kwargs):
            refs.append(weakref.ref(rhs))
            return real(rhs, *args, **kwargs)

        monkeypatch.setattr(charflow, "solve_characteristics", spy)
        gc.collect()
        gc.disable()
        try:
            try:
                evolve_batch(nl, 0.0, 1.0, np.array([0.1, 0.5]), cfg)
            except IntegrationFailure:
                pass
            alive = [r for r in refs if r() is not None]
        finally:
            gc.enable()
        assert len(refs) == 1 and alive == []

    def test_start_beyond_bound_escapes_at_once(self):
        # f_bar = 0 keeps every q constant: no crossing ever happens, yet
        # sample 1 starts beyond the bound
        cfg = CharflowConfig(escape_bound=1.0)
        with pytest.raises(CharacteristicEscape,
                           match=r"at u=0\.25 .*sample 1 at \(u, q\) = "
                                 r"\(0\.25, 2\)") as err:
            evolve_batch(zero_nl(), 0.25, 1.0, np.array([0.1, 2.0]), cfg)
        assert err.value.at == 0.25 and err.value.var == "u"
        with pytest.raises(CharacteristicEscape, match=r"at u=0\.25 ") as err:
            evolve(zero_nl(), 0.25, 1.0, 2.0, cfg)
        assert err.value.at == 0.25 and err.value.state[0] == 2.0

    def test_escape_names_its_parameter(self):
        # the separated-BC backward characteristic from x = 1 runs in the
        # rescaled s = x: with f = 0, u = -0.5 - 0.9 (1 - x) reaches -1 at
        # x = 4/9
        free = GeneralNonlinearity(
            f=lambda x, u, p: 0.0 * np.asarray(u, dtype=float),
            f_p=lambda x, u, p: 0.0 * np.asarray(p, dtype=float),
            x_periodic=False)
        with pytest.raises(CharacteristicEscape, match=r"at s=0\.444") as err:
            matano.g_value(free, 1.0, -0.5, 0.9,
                           CharflowConfig(escape_bound=1.0))
        assert err.value.var == "s"
        # located on the step's interpolant, not at the end of the step
        assert err.value.at == pytest.approx(4 / 9, abs=1e-12)
