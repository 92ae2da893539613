"""Tests for the characteristic evolution and its sensitivity."""

import ast
import gc
import importlib
import inspect
import pkgutil
import re
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

import circlyap
from circlyap import charflow, harness, lagrangian, matano
from circlyap.charflow import (
    CharacteristicEscape,
    CharflowConfig,
    IntegrationFailure,
    NonlinearityO2,
    compose_check,
    evolve,
    evolve_batch,
    solve_profile_flow,
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
                           match=r"sample 0 at \(u, q\) = \(0, 1\)") as err:
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

    @pytest.mark.parametrize("u1", [np.inf, -np.inf, np.nan])
    def test_non_finite_span_rejected(self, u1):
        # rejected before the first step, as evolve rejects it, instead of
        # stepping towards an endpoint it never reaches
        with pytest.raises(ValueError, match="span must be finite"):
            evolve_batch(mixed_nl(), 0.0, u1, np.array([0.1, 0.5]))

    @pytest.mark.parametrize("u0, u1, q0, message", [
        (np.inf, np.inf, [0.3], "span must be finite"),
        (-np.inf, -np.inf, [0.3], "span must be finite"),
        (0.0, np.inf, [], "span must be finite"),
        (0.5, 0.5, [np.nan, 0.2], "initial state must be finite"),
        (0.5, 0.5, [np.inf], "initial state must be finite"),
    ])
    def test_non_finite_input_rejected_without_a_solve(self, u0, u1, q0,
                                                       message):
        # an empty span or an empty batch needs no solve, but its input is
        # checked as the driver checks it, and as evolve rejects it
        with pytest.raises(ValueError, match=message):
            evolve_batch(mixed_nl(), u0, u1, np.array(q0))


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


class TestProfileFlow:
    def test_harmonic_lanes_and_exponent(self):
        # u'' = -u from (u0, p0): u = u0 cos x + p0 sin x, with the
        # exponent of f_p = 1/4 accumulating x/4
        xs, u0 = np.array([0.5, 1.0, 2.0]), np.array([1.0, 0.0, 0.3])
        u, p, g = solve_profile_flow(
            lambda x, u, p: u, xs, u0, 0.5, (0.0, 1.0), CharflowConfig(),
            "harmonic", f_p=lambda x, u, p: 0.25 + 0.0 * p)
        assert u == pytest.approx(u0 * np.cos(xs) + 0.5 * np.sin(xs),
                                  abs=1e-9)
        assert p == pytest.approx(-u0 * np.sin(xs) + 0.5 * np.cos(xs),
                                  abs=1e-9)
        assert g == pytest.approx(0.25 * xs, abs=1e-12)

    def test_without_exponent_returns_two_rows(self):
        out = solve_profile_flow(lambda x, u, p: 0.0 * u, [1.0, 2.0], 0.0,
                                 1.0, (0.0, 1.0), CharflowConfig(), "free")
        assert out.shape == (2, 2)
        assert out[0] == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_escape_names_the_lane(self):
        # f = 0: lane k's u = xs[k] s leaves |u| <= 1.5 at s = 0.75 on
        # lane 1 only, so the message names that lane, not its component
        with pytest.raises(CharacteristicEscape,
                           match=r"at s=0\.75 \(free: sample 1 at \(x, u, p\) "
                                 r"= \(0, 0, 1\), stopped at x=1\.5\)"):
            solve_profile_flow(lambda x, u, p: 0.0 * u, [0.1, 2.0], 0.0, 1.0,
                               (0.0, 1.0), CharflowConfig(escape_bound=1.5),
                               "free")


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
        mp, charflow, lambda: lagrangian.LagrangianEvaluator(
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
    rejected attempts, and whether every right-hand side was evaluated
    inside the span."""
    at = []

    def logged(t, y):
        at.append(t)
        return rhs(t, y)

    solver = DOP853(logged, span[0], y0, span[1], rtol=cfg.rel_tol,
                    atol=cfg.abs_tol)
    steps = attempts = 0
    while solver.status == "running":
        nfev = solver.nfev
        solver.step()
        attempts += (solver.nfev - nfev) // 12
        steps += solver.y_old is not None  # the empty state takes no step
    assert solver.status == "finished"
    inside = min(span) <= min(at) and max(at) <= max(span)
    return solver.y, attempts - steps, inside


class TestDop853Port:
    """The driver's DOP853 loop reproduces scipy's DOP853 bit for bit."""

    @pytest.mark.parametrize("case", list(PORT_CASES))
    def test_equals_scipy_bit_for_bit(self, case, monkeypatch):
        rhs, span, y0, cfg, watch = PORT_CASES[case](monkeypatch)
        y, rejected, inside = _by_hand(rhs, span, y0, cfg)
        if case == "rejections":
            assert rejected > 0
        if not inside:
            pytest.skip("this scipy's first-step rule evaluates the "
                        "right-hand side beyond the span; the driver ports "
                        "the rule that is clamped to the span")
        y_end = charflow.solve_characteristics(rhs, span, y0, cfg, watch,
                                               lambda k, t: "")
        assert np.array_equal(y_end, y)

    def test_escape_located_as_scipy_locates_it(self, monkeypatch):
        # dq/du = q^2 from q = 1 blows up at u = 1; scipy locates the
        # crossing of the bound as a terminal event on its interpolant, the
        # driver bisects it with its own steps
        cfg = CharflowConfig(escape_bound=1e6)
        rhs, span, y0, _, watch = _first_solve(
            monkeypatch, charflow,
            lambda: evolve_batch(_BLOWUP, 0.0, 10.0, np.array([0.1, 1.0]),
                                 cfg))

        def crossing(t, y):
            return np.max(np.abs(y[:watch])) - cfg.escape_bound

        crossing.terminal = True
        sol = solve_ivp(rhs, span, y0, "DOP853", rtol=cfg.rel_tol,
                        atol=cfg.abs_tol, events=crossing)
        at = sol.t_events[0][0]
        with pytest.raises(CharacteristicEscape) as err:
            charflow.solve_characteristics(rhs, span, y0, cfg, watch,
                                           lambda k, t: "")
        assert err.value.at == pytest.approx(at, rel=1e-12, abs=0)
        assert np.max(np.abs(err.value.state[:watch])) >= cfg.escape_bound


class TestVendoredTableau:
    def test_equals_scipys_bit_for_bit(self):
        # the driver reads circlyap._dop853, the tables of scipy's private
        # module that a step and its error estimate read, restricted to the
        # 12 stages of a step; TestDop853Port pins the loop over them
        theirs = pytest.importorskip(
            "scipy.integrate._ivp.dop853_coefficients",
            reason="this scipy keeps its DOP853 tableau elsewhere")
        from circlyap import _dop853 as ours

        kept = {"N_STAGES": None, "A": np.s_[:13, :12], "B": np.s_[:],
                "C": np.s_[:12], "E3": np.s_[:], "E5": np.s_[:]}
        assert {n for n in vars(ours) if n.isupper()} == set(kept)
        for name, rows in kept.items():
            mine, ref = getattr(ours, name), getattr(theirs, name)
            assert type(mine) is type(ref), name
            if rows is None:
                assert mine == ref, name
            else:
                ref = np.ascontiguousarray(ref[rows])
                assert mine.dtype == ref.dtype and mine.shape == ref.shape
                assert mine.tobytes() == ref.tobytes(), name


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
        for mod in (charflow, lagrangian, matano, harness):
            assert "solve_ivp" not in inspect.getsource(mod), mod.__name__
        # every right-hand side the driver sees is built in charflow
        for info in pkgutil.iter_modules(circlyap.__path__):
            mod = importlib.import_module(f"circlyap.{info.name}")
            if mod is not charflow:
                assert "solve_characteristics" not in inspect.getsource(
                    mod), info.name
        assert "solve_characteristics" not in inspect.getsource(circlyap)
        # inside charflow, only the two lane helpers call the driver
        callers = {fn.name for fn in ast.walk(ast.parse(
                       inspect.getsource(charflow)))
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None)
                   == "solve_characteristics"}
        assert callers == {"solve_q_flow", "_solve_lanes"}
        # and the separated construction has no series loop of its own
        assert not hasattr(matano, "decay_identity_residual")
        # the separated-BC construction shares lagrangian's public assembly
        private = [alias.name for node in ast.walk(ast.parse(
                       inspect.getsource(matano)))
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[-1] == "lagrangian"
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []

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
        pytest.param(lambda cfg: verify_equilibrium_first_integral(
            cubic_nl(5.0), 0.1, 0.5, 1.0, cfg),
                     id="verify_equilibrium_first_integral"),
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

    def test_input_policy_order(self):
        # the span, then the start; an empty state or a zero-length span
        # returns its start before any right-hand side is evaluated, and
        # only then is the start held to the escape bound
        def never(t, y):
            raise AssertionError("right-hand side evaluated")

        def solve(span, y0, watch=1):
            return charflow.solve_characteristics(
                never, span, np.array(y0, dtype=float),
                CharflowConfig(escape_bound=1.0), watch, lambda k, t: "")

        with pytest.raises(ValueError, match="span must be finite"):
            solve((0.0, np.nan), [np.nan])
        with pytest.raises(ValueError, match="initial state must be finite"):
            solve((0.5, 0.5), [2.0, np.inf])
        assert solve((0.5, 0.5), [2.0]).tolist() == [2.0]
        assert solve((0.0, 1.0), [], watch=0).size == 0
        with pytest.raises(CharacteristicEscape) as err:
            solve((0.0, 1.0), [2.0])
        assert err.value.at == 0.0 and err.value.state.tolist() == [2.0]

    def test_step_size_collapse_names_a_failing_sample(self):
        # f_bar has a pole at q = -1/2, toward which the backward q lanes
        # of samples near u = 1.1 fall until the step size collapses; the
        # escape names the lane whose error stalled the last attempt, not
        # the largest |q|, so the sample it names fails alone as well
        nl = NonlinearityO2(
            f_bar=lambda u, q: 15.0 * u * (1.0 - u * u) + 6.0 * q / (1.0 + 2.0 * q),
            f_bar_q=lambda u, q: 6.0 / (1.0 + 2.0 * q) ** 2, label="pole")
        rng = np.random.default_rng(1)
        u, p = rng.uniform(-1.1, 1.1, 500), rng.uniform(-3.0, 3.0, 500)
        ev = lagrangian.LagrangianEvaluator(nl)
        collapse = "Required step size is less than spacing between numbers"
        with pytest.raises(CharacteristicEscape, match=collapse) as err:
            ev.field_eval(u, p)
        k = int(re.search(r"sample (\d+) at", str(err.value))[1])
        with pytest.raises(CharacteristicEscape, match=collapse):
            ev.field_eval(u[k:k + 1], p[k:k + 1])

    def test_escape_names_its_parameter(self):
        # the separated-BC backward characteristic from x = 1 runs in the
        # rescaled s = x: with f = 0, u = -0.5 - 0.9 (1 - x) reaches -1 at
        # x = 4/9
        free = GeneralNonlinearity(
            f=lambda x, u, p: 0.0 * np.asarray(u, dtype=float),
            f_p=lambda x, u, p: 0.0 * np.asarray(p, dtype=float),
            x_periodic=False)
        ev = matano.SeparatedEvaluator(free, CharflowConfig(escape_bound=1.0))
        with pytest.raises(CharacteristicEscape, match=r"at s=0\.444") as err:
            ev.g_batch([1.0], [-0.5], [0.9])
        assert err.value.var == "s"
        # located on the step's interpolant, not at the end of the step
        assert err.value.at == pytest.approx(4 / 9, abs=1e-12)
