"""Tests for the method-of-lines solver."""

import hashlib
import re
import warnings

import numpy as np
import pytest

from circlyap.functional import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    ScalarField,
    central_difference,
)
from circlyap.pde import (
    ETDRK4,
    ETDRK4_MAX_SUBSTEPS,
    ETDRK4_TOL,
    RK4,
    TABULATED_TRANSFORM_MAX,
    GeneralNonlinearity,
    SolverConfig,
    _SemiDiscrete,
    _diagonalised_second_difference,
    integrate,
    rhs,
    second_difference,
)


def zero_gen():
    return GeneralNonlinearity(f=lambda x, u, p: 0.0 * u,
                               f_p=lambda x, u, p: 0.0 * u)


def cubic_gen(lam):
    return GeneralNonlinearity(f=lambda x, u, p: lam * u * (1.0 - u * u),
                               f_p=lambda x, u, p: 0.0 * u)


def log_barrier_gen():
    """f = 5 - log(0.4 - u): NaN once u passes 0.4."""
    def f(x, u, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            return 5.0 - np.log(0.4 - u)

    return GeneralNonlinearity(f=f, f_p=lambda x, u, p: 1.0 / (0.4 - u))


def constant_gen(value):
    return GeneralNonlinearity(f=lambda x, u, p: np.full_like(u, value),
                               f_p=lambda x, u, p: 0.0 * u)


def sine_field(n, ell=1.0, amplitude=1.0):
    x = np.arange(n) * (ell / n)
    return ScalarField(amplitude * np.sin(2 * np.pi * x / ell), ell, PERIODIC)


# Reference semi-discretisation: the np.roll formulas the solver was first
# written with. The array kernel must reproduce them bit for bit.

def reference_gradient(fld):
    u, h = fld.values, fld.dx
    if fld.bc == PERIODIC:
        return (np.roll(u, -1) - np.roll(u, 1)) / (2 * h)
    ux = np.empty_like(u)
    ux[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    ux[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
    ux[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    return ux


def reference_laplacian(fld):
    u, h2 = fld.values, fld.dx**2
    if fld.bc == PERIODIC:
        return (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / h2
    uxx = np.empty_like(u)
    uxx[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h2
    if fld.bc == DIRICHLET:
        uxx[0] = uxx[-1] = 0.0
    else:
        uxx[0] = 2 * (u[1] - u[0]) / h2
        uxx[-1] = 2 * (u[-2] - u[-1]) / h2
    return uxx


def reference_rhs(nl, a, fld):
    x, u = fld.grid(), fld.values
    p = reference_gradient(fld)
    if a is None:
        coeff = 1.0
    elif np.isscalar(a):
        coeff = np.full_like(u, float(a))
    else:
        coeff = a(x, u, p)
    out = coeff * reference_laplacian(fld) + nl.f(x, u, p)
    if fld.bc == DIRICHLET:
        out[0] = out[-1] = 0.0
    return out


def reference_rk4(nl, a, u0, dt, n_steps):
    u = u0.values.copy()
    for _ in range(n_steps):
        k1 = reference_rhs(nl, a, u0.like(u))
        k2 = reference_rhs(nl, a, u0.like(u + 0.5 * dt * k1))
        k3 = reference_rhs(nl, a, u0.like(u + 0.5 * dt * k2))
        k4 = reference_rhs(nl, a, u0.like(u + dt * k3))
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def reference_etdrk4_coefficients(z, dt):
    """exp(z), exp(z/2), Q, f1, f2, f3 as real tables: Kassam & Trefethen's
    contour means over 32 points of the unit circle around each z."""
    r = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)
    Z = z[:, None] + r[None, :]
    eZ = np.exp(Z)
    Z3 = Z ** 3

    def mean(vals):
        return dt * np.mean(vals, axis=1).real

    Q = mean((np.exp(0.5 * Z) - 1.0) / Z)
    f1 = mean((-4.0 - Z + eZ * (4.0 - 3.0 * Z + Z * Z)) / Z3)
    f2 = mean((2.0 + Z + eZ * (Z - 2.0)) / Z3)
    f3 = mean((-4.0 - 3.0 * Z - Z * Z + eZ * (4.0 - Z)) / Z3)
    return np.exp(z), np.exp(0.5 * z), Q, f1, f2, f3


def reference_etdrk4(nl, a, u0, dt, n_steps):
    """The ETDRK4 solve as first written: real coefficient tables, the end
    forcing added on every grid, a ``physical`` that copies the start and
    step doubling through the initial transient. Returns the state after
    each step and, per step, the substep count at which the doubling check
    stopped (0 for a plain step)."""
    a = 1.0 if a is None else a
    h, bc, x = u0.dx, u0.bc, u0.grid()
    lam, fwd, inv = _diagonalised_second_difference(u0.n, h, bc)
    moving = slice(1, -1) if bc == DIRICHLET else slice(None)
    u = u0.values.copy()
    ends = np.zeros(u[moving].size)
    if bc == DIRICHLET:
        ends[0], ends[-1] = u[0], u[-1]
    forcing = fwd(ends * (a / (h * h)))

    def N(uv):
        p = reference_gradient(u0.like(uv))
        return fwd(nl.f(x, uv, p)[moving]) + forcing

    def physical(v):
        uv = u0.values.copy()
        uv[moving] = inv(v)
        return uv

    def advance(v, uv, m):
        E, E2, Q, f1, f2, f3 = reference_etdrk4_coefficients(
            a * (dt / m) * lam, dt / m)
        for _ in range(m):
            Nu = N(uv)
            sa = E2 * v + Q * Nu
            Na = N(physical(sa))
            sb = E2 * v + Q * Na
            Nb = N(physical(sb))
            sc = E2 * sa + Q * (2.0 * Nb - Nu)
            Nc = N(physical(sc))
            v = E * v + f1 * Nu + 2.0 * f2 * (Na + Nb) + f3 * Nc
            uv = physical(v)
        return v, uv

    states, substeps = [], []
    v, m, checking = fwd(u[moving]), 1, True
    for _ in range(n_steps):
        if not checking:
            v, u = advance(v, u, 1)
            substeps.append(0)
        else:
            coarse = advance(v, u, m)
            while True:
                fine = advance(v, u, 2 * m)
                gap = np.abs(coarse[1] - fine[1]).max()
                scale = max(1.0, np.abs(fine[1]).max())
                if (gap <= ETDRK4_TOL * scale
                        or 2 * m >= ETDRK4_MAX_SUBSTEPS):
                    break
                coarse, m = fine, 2 * m
            substeps.append(m)
            (v, u), checking, m = fine, m > 1, max(1, m // 2)
        states.append(u)
    return states, substeps


def advective_gen():
    return GeneralNonlinearity(
        f=lambda x, u, p: 4.0 * u * (1.0 - u * u) + 0.7 * p
        + 0.3 * np.sin(2 * np.pi * x) * p * p,
        f_p=lambda x, u, p: 0.7 + 0.6 * np.sin(2 * np.pi * x) * p)


def profile(bc, n=48):
    if bc == PERIODIC:
        x = np.arange(n) / n
        return ScalarField(0.4 * np.sin(2 * np.pi * x)
                           + 0.2 * np.cos(6 * np.pi * x) + 0.1, 1.0, bc)
    x = np.linspace(0.0, 1.0, n)
    if bc == DIRICHLET:
        return ScalarField(0.4 * np.sin(np.pi * x)
                           + 0.1 * np.sin(3 * np.pi * x), 1.0, bc)
    return ScalarField(0.3 * np.cos(np.pi * x) + 0.1 * x * x, 1.0, bc)


COEFFICIENTS = {
    "unit": None,
    "constant": 0.7,
    "callable": lambda x, u, p: 1.0 + 0.2 * u * u + 0.05 * p * p,
}


class TestRhs:
    def test_periodic_laplacian_oracle(self):
        n = 256
        fld = sine_field(n)
        out = rhs(zero_gen(), None, fld)
        exact = -(2 * np.pi) ** 2 * fld.values
        assert np.max(np.abs(out.values - exact)) <= 1e-2

    def test_constant_field_is_stationary(self):
        fld = ScalarField(np.full(64, 0.8), 1.0)
        assert np.max(np.abs(rhs(zero_gen(), None, fld).values)) == 0.0

    def test_zero_is_reaction_equilibrium(self):
        fld = ScalarField(np.zeros(64), 1.0)
        out = rhs(cubic_gen(2.0), None, fld)
        assert np.max(np.abs(out.values)) == 0.0

    def test_dirichlet_ends_are_pinned(self):
        n = 64
        x = np.linspace(0.0, 1.0, n)
        fld = ScalarField(np.sin(np.pi * x), 1.0, DIRICHLET)
        out = rhs(cubic_gen(2.0), None, fld)
        assert out.values[0] == 0.0 and out.values[-1] == 0.0

    def test_neumann_mirror(self):
        n = 64
        x = np.linspace(0.0, 1.0, n)
        fld = ScalarField(np.cos(np.pi * x), 1.0, NEUMANN)
        uxx = second_difference(fld.values, fld.dx**2, fld.bc, np.empty(fld.n))
        exact = -np.pi**2 * fld.values
        assert np.max(np.abs(uxx - exact)) <= 5e-2

    @pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET, NEUMANN])
    def test_operator_stencils_are_the_reference_stencils(self, bc):
        # the operator's ghost-padded stencils against the two reference
        # functions, on two states in turn, so that a stale buffer shows
        fld = profile(bc, 64)
        h = fld.dx
        op = _SemiDiscrete(zero_gen(), None, fld.grid(), h, bc)
        for u in (fld.values, np.sin(3.0 * fld.values) * fld.values):
            op(u)
            assert np.array_equal(
                op._p, central_difference(u, 2 * h, bc, np.empty(fld.n)))
            assert np.array_equal(
                op._uxx, second_difference(u, h**2, bc, np.empty(fld.n)))

    def test_diffusion_coefficient_scales(self):
        fld = sine_field(128)
        one = rhs(zero_gen(), None, fld).values
        two = rhs(zero_gen(), 2.0, fld).values
        assert np.allclose(two, 2.0 * one)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET, NEUMANN])
@pytest.mark.parametrize("coeff", sorted(COEFFICIENTS))
class TestAgainstReference:
    def test_rhs_is_bit_identical(self, bc, coeff):
        fld = profile(bc)
        a = COEFFICIENTS[coeff]
        got = rhs(advective_gen(), a, fld).values
        assert np.array_equal(got, reference_rhs(advective_gen(), a, fld))
        uxx = second_difference(fld.values, fld.dx**2, fld.bc, np.empty(fld.n))
        assert np.array_equal(uxx, reference_laplacian(fld))

    def test_rk4_run_is_bit_identical(self, bc, coeff):
        u0 = profile(bc)
        a = COEFFICIENTS[coeff]
        dt, n_steps = 2e-5, 60
        traj = integrate(advective_gen(), a, u0,
                         SolverConfig(n=u0.n, dt=dt, t_end=n_steps * dt,
                                      save_every=10**9))
        assert not traj.blew_up
        ref = reference_rk4(advective_gen(), a, u0, dt, n_steps)
        assert np.array_equal(traj.snapshots[-1].values, ref)
        assert np.array_equal(traj.u_t_snapshots[-1].values,
                              reference_rhs(advective_gen(), a, u0.like(ref)))


class TestIntegrate:
    def test_heat_equation_decay(self):
        n, t_end = 256, 0.01
        traj = integrate(zero_gen(), None, sine_field(n),
                         SolverConfig(n=n, t_end=t_end, save_every=10**9))
        final = traj.snapshots[-1].values
        exact = np.exp(-4 * np.pi**2 * t_end) * sine_field(n).values
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(final - exact)) <= 1e-2 * scale

    def test_mean_conservation(self):
        rng = np.random.default_rng(4)
        n = 64
        u0 = ScalarField(rng.standard_normal(n), 1.0, PERIODIC)
        traj = integrate(zero_gen(), None, u0,
                         SolverConfig(n=n, t_end=0.5, save_every=10**9))
        m0 = np.mean(u0.values)
        m1 = np.mean(traj.snapshots[-1].values)
        assert abs(m1 - m0) <= 1e-10 * 0.5

    def test_rk4_temporal_order(self):
        # in the reaction-dominated regime halving dt shrinks the error
        # by roughly 2^4; a spatially constant state follows the logistic
        # ODE u' = u(1 - u), so u(1) = 1 / (1 + 4 e^{-1}) from u(0) = 0.2
        gen = GeneralNonlinearity(f=lambda x, u, p: u * (1.0 - u),
                                  f_p=lambda x, u, p: 0.0 * u)
        n = 16
        u0 = ScalarField(np.full(n, 0.2), 1.0, PERIODIC)
        ref = 1.0 / (1.0 + 4.0 * np.exp(-1.0))
        errs = []
        for dt in (0.05, 0.025):
            cfg = SolverConfig(n=n, dt=dt, t_end=1.0, save_every=10**9)
            with warnings.catch_warnings():
                # spatially constant state: the diffusion stability limit
                # does not bind here
                warnings.simplefilter("ignore")
                out = integrate(gen, None, u0, cfg).snapshots[-1].values
            errs.append(np.max(np.abs(out - ref)))
        factor = errs[0] / errs[1]
        assert 8.0 <= factor <= 32.0

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(8)
        n, shift = 64, 5
        vals = rng.standard_normal(n)
        vals = np.convolve(np.tile(vals, 3), np.ones(5) / 5.0,
                           mode="same")[n:2 * n]  # smooth it a little
        u0 = ScalarField(vals, 1.0, PERIODIC)
        cfg = SolverConfig(n=n, t_end=0.05, save_every=10**9)
        plain = integrate(cubic_gen(3.0), None, u0, cfg).snapshots[-1].values
        rolled0 = ScalarField(np.roll(vals, shift), 1.0, PERIODIC)
        rolled = integrate(cubic_gen(3.0), None, rolled0, cfg).snapshots[-1].values
        assert np.max(np.abs(rolled - np.roll(plain, shift))) <= 1e-12

    def test_blowup_guard(self):
        # u_t = u_xx - u + u^3 grows without bound from large data
        gen = GeneralNonlinearity(f=lambda x, u, p: -u + u**3,
                                  f_p=lambda x, u, p: 0.0 * u)
        u0 = ScalarField(np.full(32, 3.0), 1.0, PERIODIC)
        traj = integrate(gen, None, u0,
                         SolverConfig(n=32, t_end=5.0, save_every=100))
        assert traj.blew_up
        assert traj.blowup_time is not None and traj.blowup_time < 5.0
        assert f"t={traj.blowup_time:.6g}" in traj.message

    def test_non_finite_rhs_ends_the_run_with_a_record(self):
        # u grows at rate about 5 until log(0.4 - u) leaves its domain at the
        # peak of the profile
        n = 32
        u0 = ScalarField(0.2 * np.sin(2 * np.pi * np.arange(n) / n), 1.0)
        traj = integrate(log_barrier_gen(), None, u0,
                         SolverConfig(n=n, t_end=1.0, save_every=20))
        assert traj.blew_up
        assert 0.0 < traj.blowup_time < 1.0
        assert "non-finite right-hand side at grid index" in traj.message
        assert f"t={traj.blowup_time:.6g}" in traj.message
        # the snapshots saved before the failure are kept, each with its u_t
        assert len(traj.snapshots) == len(traj.u_t_snapshots) == len(traj.times)
        assert len(traj.times) >= 2 and traj.times[-1] < traj.blowup_time

    def test_public_rhs_names_the_non_finite_index(self):
        vals = np.full(16, 0.1)
        vals[8] = 0.5
        with pytest.raises(FloatingPointError, match="grid index 8"):
            rhs(log_barrier_gen(), None, ScalarField(vals, 1.0))

    def test_unstable_step_warns(self):
        with pytest.raises(Warning):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                integrate(zero_gen(), None, sine_field(32),
                          SolverConfig(n=32, dt=0.1, t_end=0.2,
                                       save_every=10**9))

    def test_save_times_strictly_increase(self):
        traj = integrate(cubic_gen(2.0), None, sine_field(64),
                         SolverConfig(n=64, t_end=0.02, save_every=20))
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.snapshots) == len(traj.u_t_snapshots)

    def test_dirichlet_boundary_stays_pinned(self):
        n = 64
        x = np.linspace(0.0, 1.0, n)
        u0 = ScalarField(0.5 * np.sin(np.pi * x), 1.0, DIRICHLET)
        traj = integrate(cubic_gen(5.0), None, u0,
                         SolverConfig(n=n, t_end=0.05, save_every=10**9))
        final = traj.snapshots[-1].values
        assert abs(final[0]) <= 1e-14 and abs(final[-1]) <= 1e-14

    @pytest.mark.parametrize("save_every", [0, -3])
    def test_save_interval_below_one_rejected(self, save_every):
        # 0 would divide by zero mid-run; -3 would keep only two saves
        with pytest.raises(ValueError, match="save_every"):
            SolverConfig(n=32, t_end=0.01, save_every=save_every)


# a step at which ETDRK4's doubling check halves the first steps
DT_ETD = 4e-4


class TestETDRK4:
    # n = 40 tabulates the interval transforms, n = 600 applies them per
    # call
    @pytest.mark.parametrize("bc, n", [
        *[pytest.param(bc, 40, id=bc) for bc in (PERIODIC, DIRICHLET, NEUMANN)],
        *[pytest.param(bc, 600, id=f"{bc}-600")
          for bc in (PERIODIC, DIRICHLET, NEUMANN)]])
    def test_transforms_diagonalise_the_second_difference(self, bc, n):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(n)
        if bc == DIRICHLET:
            u[0] = u[-1] = 0.0
        h = 1.0 / n if bc == PERIODIC else 1.0 / (n - 1)
        lam, fwd, inv = _diagonalised_second_difference(n, h, bc)
        moving = slice(1, -1) if bc == DIRICHLET else slice(None)
        got = np.zeros(n)
        got[moving] = inv(lam * fwd(u[moving]))
        want = second_difference(u, h * h, bc, np.empty(n))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # n = 128 tabulates the transforms, n = 600 applies them per call
    @pytest.mark.parametrize("bc, pair, n", [
        *[pytest.param(bc, pair, 128, id=bc) for bc, pair in (
            (DIRICHLET, ("dst", "idst")), (NEUMANN, ("dct", "idct")))],
        *[pytest.param(bc, pair, 600, id=f"{bc}-600") for bc, pair in (
            (DIRICHLET, ("dst", "idst")), (NEUMANN, ("dct", "idct")))]])
    def test_tabulated_transforms_are_scipys(self, bc, pair, n):
        import scipy.fft as sfft

        assert (n <= TABULATED_TRANSFORM_MAX) == (n == 128)
        _, fwd, inv = _diagonalised_second_difference(n, 1.0 / (n - 1), bc)
        w = np.random.default_rng(5).standard_normal(n - 2 if bc == DIRICHLET
                                                     else n)
        for mine, name in zip((fwd, inv), pair):
            want = getattr(sfft, name)(w, type=1)
            assert (np.max(np.abs(mine(w) - want))
                    <= 1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("bc, n, a", [
        pytest.param(PERIODIC, 64, None, id="periodic-64"),
        pytest.param(PERIODIC, 256, 0.7, id="periodic-256"),
        pytest.param(DIRICHLET, 48, 0.7, id=DIRICHLET),
        pytest.param(NEUMANN, 48, None, id=NEUMANN)])
    def test_run_is_bit_identical_to_reference(self, bc, n, a):
        u0 = profile(bc, n)
        dt, n_steps = DT_ETD, 12
        traj = integrate(advective_gen(), a, u0,
                         SolverConfig(n=n, dt=dt, t_end=n_steps * dt,
                                      save_every=1, scheme="etdrk4"))
        assert not traj.blew_up
        states, substeps = reference_etdrk4(advective_gen(), a, u0, dt,
                                            n_steps)
        # the doubling subdivides a step, and plain steps follow
        assert max(substeps) > 1 and substeps[-1] == 0
        assert len(traj.snapshots) == n_steps + 1
        for snap, u_t, want in zip(traj.snapshots[1:],
                                   traj.u_t_snapshots[1:], states):
            assert np.array_equal(snap.values, want)
            assert np.array_equal(u_t.values, reference_rhs(
                advective_gen(), a, u0.like(want)))

    @pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET, NEUMANN])
    def test_no_reaction_state_is_evaluated_twice(self, bc, monkeypatch):
        # the doubling's coarse attempt and every finer one start from the
        # same state and share its reaction term
        seen = []
        reaction = _SemiDiscrete.reaction

        def hashed(self, u):
            seen.append(hashlib.sha256(u.tobytes()).hexdigest())
            return reaction(self, u)

        monkeypatch.setattr(_SemiDiscrete, "reaction", hashed)
        n_steps = 12
        traj = integrate(advective_gen(), None, profile(bc),
                         SolverConfig(n=48, dt=DT_ETD, t_end=n_steps * DT_ETD,
                                      save_every=1, scheme="etdrk4"))
        assert not traj.blew_up
        # the first steps subdivide: more than four evaluations a step
        assert len(seen) > 4 * n_steps
        assert len(set(seen)) == len(seen)

    def test_needs_an_explicit_step(self):
        with pytest.raises(ValueError, match="explicit dt"):
            SolverConfig(n=32, t_end=0.01, scheme="etdrk4")

    def test_imex_is_retired(self):
        with pytest.raises(ValueError, match="retired.*etdrk4"):
            SolverConfig(n=32, dt=1e-3, t_end=0.01, scheme="imex")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig(n=32, t_end=0.01, scheme="euler")

    def test_needs_a_constant_coefficient(self):
        with pytest.raises(ValueError, match="constant diffusion"):
            integrate(zero_gen(), COEFFICIENTS["callable"], sine_field(32),
                      SolverConfig(n=32, dt=1e-3, t_end=0.01,
                                   scheme="etdrk4"))

    def test_heat_equation_modes_decay_exactly(self):
        # no reaction: each step applies exp(dt * lambda_k) to the
        # eigenvector of the second difference
        n = 64
        fld = sine_field(n)
        traj = integrate(zero_gen(), 0.5, fld,
                         SolverConfig(n=n, dt=1e-2, t_end=0.1,
                                      save_every=10**9, scheme="etdrk4"))
        lam = -4.0 * np.sin(np.pi / n) ** 2 * n * n
        exact = np.exp(0.5 * lam * 0.1) * fld.values
        assert np.max(np.abs(traj.snapshots[-1].values - exact)) <= 1e-13
        # the first Dirichlet sine mode, through the tabulated DST-I
        u = np.sin(np.pi * np.arange(n) / (n - 1))
        u[0] = u[-1] = 0.0
        fld = ScalarField(u, 1.0, DIRICHLET)
        traj = integrate(zero_gen(), 0.5, fld,
                         SolverConfig(n=n, dt=1e-2, t_end=0.1,
                                      save_every=10**9, scheme="etdrk4"))
        lam = -4.0 * np.sin(np.pi / (2 * (n - 1))) ** 2 * (n - 1) ** 2
        exact = np.exp(0.5 * lam * 0.1) * fld.values
        assert np.max(np.abs(traj.snapshots[-1].values - exact)) <= 1e-13

    def test_lands_on_the_save_grid(self):
        traj = integrate(cubic_gen(3.0), None, sine_field(64, amplitude=0.3),
                         SolverConfig(n=64, dt=2.5e-3, t_end=0.02,
                                      save_every=2, scheme="etdrk4"))
        assert np.allclose(traj.times, [0.0, 5e-3, 1e-2, 1.5e-2, 2e-2],
                           rtol=0, atol=1e-15)
        assert len(traj.snapshots) == len(traj.u_t_snapshots) == 5

    def test_blowup_guard(self):
        gen = GeneralNonlinearity(f=lambda x, u, p: -u + u**3,
                                  f_p=lambda x, u, p: 0.0 * u)
        u0 = ScalarField(np.full(32, 3.0), 1.0, PERIODIC)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(gen, None, u0,
                             SolverConfig(n=32, dt=0.01, t_end=5.0,
                                          save_every=100, scheme="etdrk4"))
        assert traj.blew_up
        assert 0.0 < traj.blowup_time < 5.0
        assert f"t={traj.blowup_time:.6g}" in traj.message

    def test_non_finite_reaction_names_the_grid_index(self):
        n = 32
        u0 = ScalarField(0.2 * np.sin(2 * np.pi * np.arange(n) / n), 1.0)
        traj = integrate(log_barrier_gen(), None, u0,
                         SolverConfig(n=n, dt=5e-3, t_end=1.0, save_every=4,
                                      scheme="etdrk4"))
        assert traj.blew_up
        assert 0.0 < traj.blowup_time < 1.0
        assert "non-finite reaction term at grid index" in traj.message
        assert f"t={traj.blowup_time:.6g}" in traj.message
        assert len(traj.times) >= 2 and traj.times[-1] < traj.blowup_time


# a step that both schemes take stably at n = 32 (RK4's limit is 6.8e-4)
DT_ENDS = 4e-4


@pytest.mark.parametrize("scheme", [RK4, ETDRK4])
class TestRunEnds:
    """Every way a run ends, and its message, on both schemes; each end
    comes before t = 0.2."""

    @staticmethod
    def run(gen, values, scheme):
        u0 = ScalarField(values, 1.0, PERIODIC)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(gen, None, u0,
                             SolverConfig(n=u0.n, dt=DT_ENDS, t_end=0.2,
                                          save_every=4, scheme=scheme))
        # the snapshots saved before the end are kept, each with its u_t
        assert len(traj.times) == len(traj.snapshots) \
            == len(traj.u_t_snapshots)
        if traj.blew_up:
            assert np.all(traj.times < traj.blowup_time)
        return traj

    def test_non_finite_step(self, scheme):
        traj = self.run(log_barrier_gen(),
                        0.2 * np.sin(2 * np.pi * np.arange(32) / 32), scheme)
        what = "right-hand side" if scheme == RK4 else "reaction term"
        end = re.fullmatch(rf"non-finite {what} at grid index \d+ in the "
                           r"step from t=(\S+) to t=(\S+)", traj.message)
        t = traj.blowup_time
        assert end and end.groups() == (f"{t - DT_ENDS:.6g}", f"{t:.6g}")
        assert len(traj.times) >= 2

    def test_max_u_exceeds_the_threshold(self, scheme):
        # u_t = u_xx - u + u^3 grows without bound from 3
        gen = GeneralNonlinearity(f=lambda x, u, p: -u + u**3,
                                  f_p=lambda x, u, p: 0.0 * u)
        traj = self.run(gen, np.full(32, 3.0), scheme)
        end = re.fullmatch(r"max\|u\| = (\S+) exceeds 1e\+06 at t=(\S+)",
                           traj.message)
        assert end and 1e6 < float(end[1]) < np.inf
        assert end[2] == f"{traj.blowup_time:.6g}"

    def test_state_turns_non_finite(self, scheme):
        # a finite f of 1e308 everywhere overflows the first step's sum
        traj = self.run(constant_gen(1e308), np.zeros(32), scheme)
        assert traj.message == f"state turned non-finite at t={DT_ENDS:.6g}"
        assert traj.blowup_time == DT_ENDS and len(traj.times) == 1

    def test_u_t_that_cannot_be_saved(self, scheme):
        values = np.full(32, 0.1)
        values[8] = 0.5
        traj = self.run(log_barrier_gen(), values, scheme)
        assert traj.message == ("non-finite right-hand side at grid index 8 "
                                "at t=0")
        assert traj.blowup_time == 0.0 and len(traj.times) == 0

    def test_reaches_t_end(self, scheme):
        traj = self.run(cubic_gen(1.0), 0.3 * np.sin(
            2 * np.pi * np.arange(32) / 32), scheme)
        assert not traj.blew_up and traj.message is None
        assert traj.blowup_time is None
        assert traj.times[-1] == pytest.approx(0.2, abs=1e-12)


class TestGeneralNonlinearityConsistency:
    def test_finite_difference_check(self):
        gen = GeneralNonlinearity(f=lambda x, u, p: u * p + np.sin(x),
                                  f_p=lambda x, u, p: u + 0.0 * p)
        gen.check_consistency([0.0, 1.0], [-0.5, 0.5], [0.0, 1.0])

    def test_bad_partial_rejected(self):
        gen = GeneralNonlinearity(f=lambda x, u, p: p * p,
                                  f_p=lambda x, u, p: 3.0 * p)
        with pytest.raises(ValueError):
            gen.check_consistency([0.0], [0.0], [1.0])
