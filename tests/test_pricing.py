import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from liborlab.errors import LiborLabError, PriceBoundsError
from liborlab.levy import LevyCharacteristics
from liborlab.lmm import LmmModel, simulate_exact, simulation_grid
from liborlab.markov_functional import black_digital_price
from liborlab.pricing import (
    black_caplet,
    forward_swap_value,
    implied_vol,
    mc_caplet,
    mc_swaption,
)
from liborlab.tenor import InitialCurve, TenorStructure
from liborlab.volatility import VolatilitySurface

DELTA = 0.5


@pytest.fixture
def tenor():
    return TenorStructure(delta=DELTA, n=5)


@pytest.fixture
def curve(tenor):
    return InitialCurve.flat(tenor, 0.04)


@pytest.fixture
def lmm_paths(tenor, curve):
    model = LmmModel(
        tenor, curve, VolatilitySurface.flat(tenor, 0.2), LevyCharacteristics(0.0, 1.0)
    )
    grid = simulation_grid(tenor, 4)
    return simulate_exact(model, grid, 200_000, seed=40, store_dates=True, antithetic=True)


def test_black_caplet_limits():
    assert black_caplet(0.04, 0.03, 0.0, DELTA, 0.95) == pytest.approx(
        0.95 * DELTA * 0.01, rel=1e-14
    )
    assert black_caplet(0.04, 1e-9, 0.2, DELTA, 0.95) == pytest.approx(
        0.95 * DELTA * 0.04, rel=1e-6
    )
    with pytest.raises(LiborLabError):
        black_caplet(-0.01, 0.03, 0.2, DELTA, 0.95)
    with pytest.raises(LiborLabError):
        black_caplet(0.04, 0.0, 0.2, DELTA, 0.95)


def test_black_caplet_increasing_in_vol():
    prices = [black_caplet(0.04, 0.05, v, DELTA, 0.95) for v in (0.0, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(prices, prices[1:]))


def test_black_caplet_matches_lognormal_quadrature():
    L0, K, v, disc = 0.04, 0.05, 0.3, 0.96
    z_star = (math.log(K / L0) + 0.5 * v * v) / v  # exercise boundary

    def integrand(z):
        rate = L0 * math.exp(-0.5 * v * v + v * z)
        return (rate - K) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    oracle = disc * DELTA * quad(integrand, z_star, 14.0, limit=200)[0]
    assert black_caplet(L0, K, v, DELTA, disc) == pytest.approx(oracle, abs=1e-10)


def test_implied_vol_round_trip():
    for L0, K, v in [(0.04, 0.04, 0.2), (0.03, 0.05, 0.35), (0.06, 0.04, 0.1)]:
        price = black_caplet(L0, K, v, DELTA, 0.97)
        assert implied_vol(price, L0, K, DELTA, 0.97) == pytest.approx(v, abs=1e-9)


def test_implied_vol_bounds_and_intrinsic():
    intrinsic = 0.97 * DELTA * 0.01
    assert implied_vol(intrinsic, 0.05, 0.04, DELTA, 0.97) == 0.0
    with pytest.raises(PriceBoundsError) as below:
        implied_vol(intrinsic * 0.5, 0.05, 0.04, DELTA, 0.97)
    assert below.value.bound == "intrinsic"
    with pytest.raises(PriceBoundsError) as above:
        implied_vol(0.97 * DELTA * 0.05 * 1.01, 0.05, 0.04, DELTA, 0.97)
    assert above.value.bound == "forward"


def test_implied_vol_monotone_in_price():
    prices = np.linspace(0.0022, 0.0075, 7)
    vols = [implied_vol(p, 0.04, 0.04, DELTA, 0.97) for p in prices]
    assert all(a < b for a, b in zip(vols, vols[1:]))


def test_implied_vol_annualized(tenor):
    price = black_caplet(0.04, 0.04, 0.2, DELTA, 0.97)
    total = implied_vol(price, 0.04, 0.04, DELTA, 0.97)
    ann = implied_vol(price, 0.04, 0.04, DELTA, 0.97, expiry=4.0)
    assert ann == pytest.approx(total / 2.0, rel=1e-12)


def test_mc_caplet_zero_vol_intrinsic(tenor, curve):
    model = LmmModel(
        tenor, curve, VolatilitySurface.flat(tenor, 0.0), LevyCharacteristics(0.0, 1.0)
    )
    paths = simulate_exact(model, simulation_grid(tenor, 4), 128, seed=1)
    q = mc_caplet(paths, 2, 0.03, curve)
    assert q.price == pytest.approx(curve.bond(3) * DELTA * 0.01, rel=1e-12)
    assert q.stderr == 0.0


def test_mc_caplet_terminal_rate_matches_black(tenor, curve, lmm_paths):
    # the last rate is exactly log-normal under the terminal measure
    total_vol = math.sqrt(0.2**2 * tenor.dates[4])
    for strike in (0.03, 0.04, 0.06):
        q = mc_caplet(lmm_paths, 4, strike, curve)
        oracle = black_caplet(0.04, strike, total_vol, DELTA, curve.bond(5))
        assert abs(q.price - oracle) <= 3.0 * q.stderr


def test_mc_caplet_price_monotone_convex_in_strike(curve, lmm_paths):
    strikes = [0.02, 0.03, 0.04, 0.05, 0.06]
    prices = [mc_caplet(lmm_paths, 3, k, curve).price for k in strikes]
    assert all(a > b for a, b in zip(prices, prices[1:]))
    # convexity on the equally spaced strike grid, within MC noise
    for i in range(1, len(prices) - 1):
        assert prices[i] <= 0.5 * (prices[i - 1] + prices[i + 1]) + 1e-5


def test_one_period_swaption_equals_caplet(curve, lmm_paths):
    cap = mc_caplet(lmm_paths, 2, 0.04, curve)
    swp = mc_swaption(lmm_paths, 2, 3, 0.04, curve)
    tol = 3.0 * math.hypot(cap.stderr, swp.stderr)
    assert abs(cap.price - swp.price) <= max(tol, 1e-12)


def test_swaption_zero_vol_intrinsic(tenor, curve):
    model = LmmModel(
        tenor, curve, VolatilitySurface.flat(tenor, 0.0), LevyCharacteristics(0.0, 1.0)
    )
    paths = simulate_exact(model, simulation_grid(tenor, 4), 64, seed=1, store_dates=True)
    strike = 0.03
    q = mc_swaption(paths, 1, 4, strike, curve)
    assert q.price == pytest.approx(forward_swap_value(curve, 1, 4, strike), rel=1e-10)
    assert q.stderr == pytest.approx(0.0, abs=1e-15)


def test_swaption_payer_receiver_parity(curve, lmm_paths):
    strike = 0.045
    payer = mc_swaption(lmm_paths, 1, 4, strike, curve, payer=True)
    receiver = mc_swaption(lmm_paths, 1, 4, strike, curve, payer=False)
    fwd = forward_swap_value(curve, 1, 4, strike)
    tol = 3.0 * math.hypot(payer.stderr, receiver.stderr)
    assert abs((payer.price - receiver.price) - fwd) <= tol


def test_swaption_needs_snapshots(tenor, curve):
    model = LmmModel(
        tenor, curve, VolatilitySurface.flat(tenor, 0.2), LevyCharacteristics(0.0, 1.0)
    )
    paths = simulate_exact(model, simulation_grid(tenor, 4), 64, seed=1)
    with pytest.raises(LiborLabError):
        mc_swaption(paths, 1, 4, 0.04, curve)


def test_normal_cdf_matches_scipy_norm_bitwise():
    # ndtr(x) and ndtr(-x) are the scalar norm.cdf(x) and norm.sf(x)
    for x in np.concatenate([np.linspace(-40.0, 40.0, 8001), [-1e-300, 0.0, 1e-300]]):
        assert ndtr(x) == norm.cdf(x)
        assert ndtr(-x) == norm.sf(x)
    for vol in (0.01, 0.2, 1.5):
        for strike in (0.005, 0.03, 0.04, 0.2):
            d1 = (math.log(0.04 / strike) + 0.5 * vol**2) / vol
            d2 = d1 - vol
            assert black_caplet(0.04, strike, vol, 0.5, 0.97) == 0.97 * 0.5 * (
                0.04 * norm.cdf(d1) - strike * norm.cdf(d2)
            )
            d2 = (math.log(0.04 / strike) - 0.5 * vol**2) / vol
            assert black_digital_price(0.04, strike, vol, 0.97) == 0.97 * norm.cdf(d2)
