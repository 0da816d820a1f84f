import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from liborlab.affine import (
    CirParams,
    cir_flow,
    explosion_threshold,
    simulate_cir,
)
from liborlab.errors import DomainError, LiborLabError


@pytest.fixture
def params():
    return CirParams(mean_reversion=1.2, long_run_level=0.06, vol_of_vol=0.5, x0=0.06)


def riccati_ode(params, t, u):
    """High-accuracy adaptive integration of the flow ODE system."""
    a, th, s = params.mean_reversion, params.long_run_level, params.vol_of_vol

    def rhs(_, y):
        return [a * th * y[1], 0.5 * s * s * y[1] * y[1] - a * y[1]]

    sol = solve_ivp(rhs, (0.0, t), [0.0, u], rtol=1e-12, atol=1e-14)
    return sol.y[0, -1], sol.y[1, -1]


def test_flow_initial_condition(params):
    phi, psi = cir_flow(params, 0.0, 0.8)
    assert phi == 0.0
    assert psi == 0.8


def test_flow_at_zero_argument(params):
    for t in (0.3, 1.0, 4.0):
        phi, psi = cir_flow(params, t, 0.0)
        assert phi == 0.0
        assert psi == 0.0


def test_flow_matches_ode_oracle(params):
    for t, u in [(1.0, 0.5), (0.4, 2.0), (2.5, -1.0), (3.0, 0.9)]:
        phi, psi = cir_flow(params, t, u)
        ophi, opsi = riccati_ode(params, t, u)
        assert phi == pytest.approx(ophi, abs=1e-9)
        assert psi == pytest.approx(opsi, abs=1e-9)


def test_semiflow_identities(params):
    for t in (0.2, 0.7, 1.3):
        for s in (0.4, 1.1):
            for u in (-2.0, 0.3, 1.5, 3.0):
                phi_t, psi_t = cir_flow(params, t, u)
                phi_s, psi_s = cir_flow(params, s, psi_t)
                phi_ts, psi_ts = cir_flow(params, t + s, u)
                assert phi_ts == pytest.approx(phi_t + phi_s, abs=1e-8)
                assert psi_ts == pytest.approx(psi_s, abs=1e-8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    params=st.builds(
        CirParams,
        mean_reversion=st.just(0.0) | st.floats(0.0, 5.0),
        long_run_level=st.floats(0.0, 0.2),
        vol_of_vol=st.floats(0.05, 2.0),
        x0=st.floats(0.0, 0.2),
    ),
    t=st.floats(0.0, 5.0),
    s=st.floats(0.0, 5.0),
    frac=st.floats(-1.0, 0.95),
)
def test_semiflow_identities_property(params, t, s, frac):
    # phi_{t+s}(u) = phi_t(u) + phi_s(psi_t(u)) and psi_{t+s}(u) = psi_s(psi_t(u))
    # for u inside the moment domain at t + s, which then holds psi_t(u) at s
    u = frac * min(float(explosion_threshold(params, t + s)), 50.0)
    phi_t, psi_t = cir_flow(params, t, u)
    phi_s, psi_s = cir_flow(params, s, psi_t)
    phi_ts, psi_ts = cir_flow(params, t + s, u)
    assert phi_ts == pytest.approx(phi_t + phi_s, rel=1e-12, abs=1e-12)
    assert psi_ts == pytest.approx(psi_s, rel=1e-12, abs=1e-12)


def test_explosion_boundary_by_ode_bisection(params):
    # bisection on blow-up of the adaptively integrated Riccati solution
    horizon = 1.5

    def explodes(u):
        a, th, s = params.mean_reversion, params.long_run_level, params.vol_of_vol

        def rhs(_, y):
            return [0.5 * s * s * y[0] * y[0] - a * y[0]]

        blow = lambda _, y: abs(y[0]) - 1e8
        blow.terminal = True
        sol = solve_ivp(rhs, (0.0, horizon), [u], rtol=1e-10, atol=1e-12, events=blow)
        return sol.status == 1

    lo, hi = 1.0, 60.0
    assert not explodes(lo) and explodes(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if explodes(mid):
            hi = mid
        else:
            lo = mid
    u_star = explosion_threshold(params, horizon)
    assert lo <= u_star <= hi or abs(u_star - lo) < 1e-6


def test_moment_domain_shape(params):
    # the domain of E[exp(u X_T)] is (-inf, hi): u <= 0 is always inside
    hi = float(explosion_threshold(params, 1.0))
    assert hi > 0.0
    # just inside is finite, at/beyond raises carrying the boundary
    cir_flow(params, 1.0, hi * (1.0 - 1e-9))
    with pytest.raises(DomainError) as err:
        cir_flow(params, 1.0, hi * (1.0 + 1e-9))
    assert err.value.max_admissible == pytest.approx(hi, rel=1e-12)


def test_flow_continues_off_the_real_axis(params):
    # only real u at or past the boundary lies on the branch cut; off the
    # real axis the closed form is the analytic continuation
    hi = float(explosion_threshold(params, 1.0))
    slope = -math.expm1(-params.mean_reversion) / params.mean_reversion
    gamma = 2.0 * params.mean_reversion * params.long_run_level / params.vol_of_vol**2
    for u in (2.0 * hi - 0.5j, 3.0 * hi - 1e-3j, 2.0 * hi + 4.0j):
        den = 1.0 - 0.5 * u * params.vol_of_vol**2 * slope
        phi, psi = cir_flow(params, 1.0, np.array([u]))
        assert psi[0] == pytest.approx(u * math.exp(-params.mean_reversion) / den, rel=1e-12)
        assert phi[0] == pytest.approx(-gamma * cmath.log(den), rel=1e-12)
    for u in (1.5 * hi, complex(1.5 * hi, 0.0)):
        with pytest.raises(DomainError):
            cir_flow(params, 1.0, np.array([u]))


def test_moment_domain_shrinks_with_horizon(params):
    bounds = [float(explosion_threshold(params, t)) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_flow_monotone_in_u_and_psi_sign(params):
    us = np.linspace(-1.0, 2.0, 13)
    phi, psi = cir_flow(params, 1.0, us)
    vals = np.exp(phi + psi * 0.4)  # E_x[exp(u X_1)] at x = 0.4
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert np.all(psi[us >= 0.0] >= 0.0)


def test_exact_simulation_nonnegative_and_deterministic(params):
    grid = np.linspace(0.0, 2.0, 9)
    a = simulate_cir(params, grid, 500, seed=9)
    b = simulate_cir(params, grid, 500, seed=9)
    assert np.array_equal(a, b)
    assert np.min(a) >= 0.0
    with pytest.raises(LiborLabError):
        simulate_cir(params, [], 10, seed=1)


def test_degenerate_diffusion_follows_ode():
    # vanishing vol-of-vol: the path tracks the mean-reversion ODE
    params = CirParams(mean_reversion=0.8, long_run_level=0.05, vol_of_vol=1e-8, x0=0.02)
    grid = np.linspace(0.0, 3.0, 13)
    paths = simulate_cir(params, grid, 16, seed=4)
    ode = 0.05 + (0.02 - 0.05) * np.exp(-0.8 * grid)
    assert np.max(np.abs(paths - ode[:, None])) < 1e-6


def test_mc_exponential_moment_matches_flow(params):
    grid = np.linspace(0.0, 1.5, 7)
    paths = simulate_cir(params, grid, 100_000, seed=21)
    for u in (-1.0, 0.5, 1.5):
        m = np.exp(u * paths[-1])
        phi, psi = cir_flow(params, 1.5, u)
        target = math.exp(phi + psi * params.x0)
        se = m.std(ddof=1) / math.sqrt(len(m))
        assert abs(m.mean() - target) <= 3.0 * se


def test_zero_mean_reversion_limit():
    params = CirParams(mean_reversion=0.0, long_run_level=0.0, vol_of_vol=0.4, x0=0.03)
    phi, psi = cir_flow(params, 2.0, 1.0)
    assert phi == 0.0  # no drift term
    assert psi == pytest.approx(1.0 / (1.0 - 0.5 * 0.4**2 * 2.0), rel=1e-12)
    assert explosion_threshold(params, 2.0) == pytest.approx(2.0 / (0.4**2 * 2.0), rel=1e-12)
