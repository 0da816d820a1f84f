import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import ncx2

from liborlab.affine import CirParams, cir_flow
from liborlab.affine_libor import (
    MartingaleFamily,
    caplet_price_chi2,
    caplet_price_fourier,
    fit_initial_curve,
    forward_measure_mgf,
    forward_transition_law,
    libor_coefficients,
    libor_value,
    martingale_value,
    simulate_affine_paths,
)
from liborlab.errors import DomainError, FitInfeasibleError
from liborlab.pricing import mc_caplet
from liborlab.tenor import InitialCurve, TenorStructure

DELTA = 0.5


@pytest.fixture
def params():
    return CirParams(mean_reversion=1.2, long_run_level=0.06, vol_of_vol=0.5, x0=0.06)


@pytest.fixture
def tenor():
    return TenorStructure(delta=DELTA, n=5)


@pytest.fixture
def curve(tenor):
    return InitialCurve.flat(tenor, 0.04)


@pytest.fixture
def family(curve, params):
    return fit_initial_curve(curve, params)


def test_martingale_value_normalizations(family, params):
    assert martingale_value(family, 0.0, 0.7, 0.3) == 1.0
    # at the horizon the flow collapses to exp(u x)
    assert martingale_value(family, 0.8, family.horizon, 0.4) == pytest.approx(
        math.exp(0.8 * 0.4), rel=1e-14
    )
    # >= 1 and increasing in u for nonnegative parameters
    vals = [martingale_value(family, u, 1.0, 0.2) for u in (0.0, 0.3, 0.9, 1.4)]
    assert vals[0] == 1.0
    assert all(v >= 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_martingale_property_by_mc(family, params):
    grid = np.linspace(0.0, 1.5, 4)
    from liborlab.affine import simulate_cir

    states = simulate_cir(params, grid, 100_000, seed=5)
    u = family.u_seq[2]
    m = martingale_value(family, u, 1.5, states[-1])
    target = martingale_value(family, u, 0.0, params.x0)
    se = m.std(ddof=1) / math.sqrt(len(m))
    assert abs(m.mean() - target) <= 3.0 * se


def test_fit_reproduces_bond_ratios(family, curve, params):
    for k in range(1, 6):
        m0 = martingale_value(family, family.u_seq[k], 0.0, params.x0)
        target = curve.bond(k) / curve.bond(5)
        assert abs(m0 - target) <= 1e-10 * target


def test_fit_flat_curve_all_zero(tenor, params):
    flat = InitialCurve.flat(tenor, 0.0)
    family = fit_initial_curve(flat, params)
    assert np.all(family.u_seq == 0.0)
    assert libor_value(family, 2, 0.7, 0.3) == 0.0


def test_fit_monotone_curve_decreasing_u(family):
    inner = family.u_seq[:-1]
    assert np.all(np.diff(inner) < 0.0) or np.all(np.diff(family.u_seq[1:-1]) < 0.0)
    assert family.u_seq[-1] == 0.0


def test_fit_infeasible_for_degenerate_driver(tenor):
    params = CirParams(mean_reversion=1.0, long_run_level=0.0, vol_of_vol=0.5, x0=0.0)
    curve = InitialCurve.flat(tenor, 0.04)
    with pytest.raises(FitInfeasibleError) as err:
        fit_initial_curve(curve, params)
    assert err.value.tenor_index is not None


def test_fit_infeasible_past_the_attainable_supremum():
    # a 12.5% curve is out of reach of this driver: the bracket search must
    # stop short of the flow's explosion boundary and report the tenor index
    params = CirParams(mean_reversion=0.05, long_run_level=0.03125, vol_of_vol=1.0, x0=0.0)
    curve = InitialCurve.flat(TenorStructure(delta=DELTA, n=5), 0.125)
    with pytest.raises(FitInfeasibleError) as err:
        fit_initial_curve(curve, params)
    assert err.value.tenor_index == 3


def test_libor_value_nonnegative_and_telescoping(family, params):
    xs = np.linspace(0.0, 3.0, 25)
    for k in range(1, 5):
        for t in (0.0, 0.8, family.tenor.dates[k]):
            assert np.min(libor_value(family, k, t, xs)) >= 0.0
    # product of forward prices telescopes to the martingale ratio
    t, x = 0.7, 0.4
    prod = 1.0
    for k in range(2, 5):
        prod *= 1.0 + DELTA * libor_value(family, k, t, x)
    ratio = martingale_value(family, family.u_seq[2], t, x) / martingale_value(
        family, family.u_seq[5], t, x
    )
    assert prod == pytest.approx(ratio, rel=1e-12)


def test_libor_value_trivial_cases(curve, params, family):
    # equal parameters give an identically zero rate
    fam = MartingaleFamily(
        curve=curve, params=params, u_seq=np.array([1.0, 1.0, 1.0, 0.5, 0.2, 0.0])
    )
    assert libor_value(fam, 1, 0.3, 1.7) == 0.0
    # at the horizon the rate is exp of the parameter gap times the state
    a, b = libor_coefficients(family, 3, family.horizon)
    assert a == pytest.approx(0.0, abs=1e-14)
    assert b == pytest.approx(family.u_seq[3] - family.u_seq[4], rel=1e-12)


def test_forward_measure_mgf_reductions(family, params):
    assert forward_measure_mgf(family, 3, 0.0, 0.2, 1.3, 0.4) == pytest.approx(1.0, abs=1e-14)
    # terminal measure: plain flow of the driver
    phi, psi = cir_flow(params, 1.1, 0.6)
    got = forward_measure_mgf(family, 5, 0.6, 0.2, 1.3, 0.4)
    assert got == pytest.approx(math.exp(phi + psi * 0.4), rel=1e-12)


def test_forward_measure_mgf_log_affine_in_state(family):
    xs = np.array([0.05, 0.4, 1.1])
    logs = np.log(forward_measure_mgf(family, 2, 0.5, 0.3, 1.4, xs))
    s1 = (logs[1] - logs[0]) / (xs[1] - xs[0])
    s2 = (logs[2] - logs[1]) / (xs[2] - xs[1])
    assert abs(s1 - s2) < 1e-10


def test_forward_measure_mgf_matches_weighted_mc(family, params):
    # E^{T_k}[e^{v X_r}] = E^{T_N}[（M_r/M_0) e^{v X_r}] by the density structure
    from liborlab.affine import simulate_cir

    r, k, v = 1.0, 2, 0.4
    grid = np.linspace(0.0, r, 3)
    states = simulate_cir(params, grid, 200_000, seed=8)
    u = family.u_seq[k]
    weight = martingale_value(family, u, r, states[-1]) / martingale_value(
        family, u, 0.0, params.x0
    )
    sample = weight * np.exp(v * states[-1])
    target = forward_measure_mgf(family, k, v, 0.0, r, params.x0)
    se = sample.std(ddof=1) / math.sqrt(len(sample))
    assert abs(sample.mean() - target) <= 3.0 * se


def test_forward_transition_law_is_tilted_ncx2(family, params):
    # tail probabilities of the tilted law match weighted MC
    from liborlab.affine import simulate_cir

    r, k = 1.0, 3
    scale, df, nc = forward_transition_law(family, k, r)
    grid = np.linspace(0.0, r, 3)
    states = simulate_cir(params, grid, 200_000, seed=13)
    u = family.u_seq[k]
    weight = martingale_value(family, u, r, states[-1]) / martingale_value(
        family, u, 0.0, params.x0
    )
    for threshold in (0.03, 0.06, 0.12):
        sample = weight * (states[-1] > threshold)
        target = ncx2.sf(threshold / scale, df, nc)
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - target) <= 3.0 * se


def test_caplet_fourier_matches_chi2(family, params):
    # long tenors too: the transform rule has a fixed node count
    longer = [
        fit_initial_curve(InitialCurve.flat(TenorStructure(delta=DELTA, n=n), 0.04), params)
        for n in (20, 40)
    ]
    for fam in [family, *longer]:
        n = fam.tenor.n
        for k in sorted({1, 3, 4, n // 2, n - 1}):
            for strike in (0.01, 0.04, 0.09):
                pf = caplet_price_fourier(fam, k, strike)
                pc = caplet_price_chi2(fam, k, strike)
                assert pf == pytest.approx(pc, abs=5e-10)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    mean_reversion=st.floats(0.05, 4.0),
    long_run_level=st.floats(1e-3, 0.5),
    vol_of_vol=st.floats(0.02, 2.0),
    x0=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    n=st.integers(2, 40),
    index=st.floats(0.0, 1.0, exclude_max=True),
    factor=st.floats(0.05, 4.0),
    rate=st.floats(1e-3, 0.2),
)
# a subnormal initial state: scipy's ncx2 misreads a subnormal noncentrality
@example(mean_reversion=1.0, long_run_level=0.5, vol_of_vol=1.0, x0=5e-324, n=2,
         index=0.0, factor=1.0, rate=0.125)
def test_caplet_fourier_matches_chi2_property(
    mean_reversion, long_run_level, vol_of_vol, x0, n, index, factor, rate
):
    # df = 4 a theta / sigma^2 > 0, so the chi-square form applies
    params = CirParams(mean_reversion, long_run_level, vol_of_vol, x0)
    curve = InitialCurve.flat(TenorStructure(delta=DELTA, n=n), rate)
    try:
        fam = fit_initial_curve(curve, params)
    except FitInfeasibleError:
        assume(False)
    k = 1 + int(index * (n - 1))
    strike = factor * curve.libor(k)
    pf = caplet_price_fourier(fam, k, strike)
    assert pf >= 0.0
    assert pf == pytest.approx(caplet_price_chi2(fam, k, strike), abs=5e-10)


def test_caplet_fourier_matches_mc(family, curve):
    paths = simulate_affine_paths(family, 400_000, seed=17)
    for k, strike in [(2, 0.04), (4, 0.06)]:
        (quote,) = mc_caplet(paths, k, [strike], curve)
        fourier = caplet_price_fourier(family, k, strike)
        assert abs(quote.price - fourier) <= 3.0 * quote.stderr


def test_caplet_zero_strike_is_forward(family, curve):
    for k in (1, 4):
        price = caplet_price_fourier(family, k, 0.0)
        assert price == pytest.approx(
            curve.bond(k + 1) * DELTA * curve.libor(k), rel=1e-7
        )


def test_caplet_worthless_when_rate_identically_zero(curve, params):
    fam = MartingaleFamily(
        curve=curve, params=params, u_seq=np.array([1.2, 1.2, 1.2, 0.7, 0.3, 0.0])
    )
    assert caplet_price_fourier(fam, 1, 0.02) == 0.0


@pytest.mark.filterwarnings("error")
def test_caplet_fourier_with_zero_driver(curve):
    # x0 = 0 and no long-run level: X stays at 0, every rate is 0, and the
    # transform has no saddle to place its ray at
    params = CirParams(mean_reversion=1.0, long_run_level=0.0, vol_of_vol=0.5, x0=0.0)
    fam = MartingaleFamily(
        curve=curve, params=params, u_seq=np.array([1.2, 1.0, 0.8, 0.5, 0.3, 0.0])
    )
    for strike in (0.0, 0.01, 0.5):
        assert caplet_price_fourier(fam, 2, strike) == pytest.approx(0.0, abs=1e-12)


def test_affine_paths_weighted_martingale(family, curve):
    paths = simulate_affine_paths(family, 150_000, seed=23)
    for k in range(1, 5):
        d = paths.fixing_weights[:, k] * (paths.fixings[:, k] - curve.libor(k))
        se = d.std(ddof=1) / math.sqrt(len(d))
        assert abs(d.mean()) <= 3.0 * se
    assert paths.min_rate() >= 0.0


def test_domain_violation_raises(family):
    with pytest.raises(DomainError):
        forward_measure_mgf(family, 2, 50.0, 0.0, 1.0, family.params.x0)
