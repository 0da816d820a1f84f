import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from liborlab import _normal
from liborlab.errors import LiborLabError, PriceBoundsError
from liborlab.levy import LevyCharacteristics, simulate_driver
from liborlab.lmm import LmmModel, simulate_exact, simulation_grid
from liborlab.markov_functional import black_digital_price
from liborlab.pricing import (
    _mc_mean_stderr,
    black_caplet,
    implied_vol,
    implied_vol_or_none,
    mc_caplet,
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
    driver = simulate_driver(model.chars, grid, 200_000, seed=40, antithetic=True)
    return simulate_exact(model, grid, 200_000, seed=40, driver=driver)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    L0=st.floats(1e-3, 0.2),
    moneyness=st.floats(0.2, 5.0),
    vol=st.floats(0.0, 4.0) | st.floats(0.0, 1e-6),
    discount=st.floats(0.5, 1.0),
)
@example(L0=0.04, moneyness=0.8, vol=0.0, discount=0.97)  # the intrinsic edge, in the money
@example(L0=0.04, moneyness=1.25, vol=0.0, discount=0.97)  # worthless
@example(L0=0.04, moneyness=1.0, vol=1e-300, discount=0.97)
def test_implied_vol_reprices_black_property(L0, moneyness, vol, discount):
    strike = L0 * moneyness
    price = black_caplet(L0, strike, vol, DELTA, discount)
    total = implied_vol(price, L0, strike, DELTA, discount)
    assert math.isfinite(total) and total >= 0.0
    back = black_caplet(L0, strike, total, DELTA, discount)
    assert back == pytest.approx(price, rel=1e-12, abs=1e-16)
    d1 = (math.log(L0 / strike) + 0.5 * vol**2) / vol if vol > 0.0 else math.inf
    vega = discount * DELTA * L0 * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    if vega > 1e-4 * discount * DELTA * L0:  # where the price pins the vol down
        assert total == pytest.approx(vol, abs=1e-9)


def test_implied_vol_bounds_and_intrinsic():
    intrinsic = 0.97 * DELTA * 0.01
    assert implied_vol(intrinsic, 0.05, 0.04, DELTA, 0.97) == 0.0
    with pytest.raises(PriceBoundsError) as below:
        implied_vol(intrinsic * 0.5, 0.05, 0.04, DELTA, 0.97)
    assert below.value.bound == "intrinsic"
    # Black reaches the forward bound delta * B * L0 only as the vol goes to
    # infinity, so a price at it, or above it within the tolerance, has no vol
    upper = 0.97 * DELTA * 0.05
    for price in (upper * 1.01, upper, upper + 5e-11):
        with pytest.raises(PriceBoundsError) as above:
            implied_vol(price, 0.05, 0.04, DELTA, 0.97)
        assert above.value.bound == "forward"


def test_implied_vol_monotone_in_price():
    prices = np.linspace(0.0022, 0.0075, 7)
    vols = [implied_vol(p, 0.04, 0.04, DELTA, 0.97) for p in prices]
    assert all(a < b for a, b in zip(vols, vols[1:]))


def test_implied_vol_or_none_where_black_has_no_vol(tenor, curve):
    assert implied_vol_or_none(0.001, curve, 2, 0.04) > 0.0
    for strike in (0.0, -0.01):
        assert implied_vol_or_none(0.001, curve, 2, strike) is None
    assert implied_vol_or_none(0.001, InitialCurve.flat(tenor, 0.0), 2, 0.04) is None


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


def test_mc_stderr_averages_antithetic_pairs_first():
    # path i pairs with path i + n/2; the pairs nearly cancel, so the paired
    # standard error is far below the one that treats all n paths as independent
    rng = np.random.default_rng(5)
    x = rng.normal(size=500)
    samples = np.concatenate([1.0 + x, 1.0 - x + 0.1 * rng.normal(size=500)])
    pairs = 0.5 * (samples[:500] + samples[500:])
    mean, stderr = _mc_mean_stderr(samples, antithetic=True)
    assert mean == pytest.approx(np.mean(pairs), rel=1e-14)
    assert stderr == pytest.approx(np.std(pairs, ddof=1) / math.sqrt(500), rel=1e-14)
    assert _mc_mean_stderr(samples, antithetic=False)[1] > 10.0 * stderr


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


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_normal_port_matches_scipy_ndtr_bitwise():
    # the Cephes port returns scipy's bits, NaN included, one element at a time or as an array
    x = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                        np.random.default_rng(23).normal(scale=12.0, size=4000)])
    # 129 neighbouring doubles on each side of every branch edge of |x| sqrt(1/2):
    # sqrt(1/2) (erf or erfc), 1 (erfc's own erf branch), 8 (P/Q or R/S) and
    # sqrt(MAXLOG), where erfc underflows to 0 and ndtr(-x) with it (x = 37.677...)
    for z in (_normal._SQRT1_2, 1.0, 8.0, math.sqrt(_normal._MAXLOG)):
        near = (np.float64(z / _normal._SQRT1_2).view(np.int64) + np.arange(-64, 65)).view(float)
        # the edge itself is among them (sqrt(MAXLOG) is an edge of z^2, not of z)
        assert np.any(near * _normal._SQRT1_2 == z) or z > 8.0
        x = np.concatenate([x, near, -near])
    special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan]
    x = np.concatenate([x, special])
    expected = _bits(ndtr(x))
    assert np.array_equal(_bits(_normal.ndtr(x)), expected)
    assert np.array_equal(_bits([_normal.ndtr(v) for v in x.tolist()]), expected)
    assert np.array_equal(_bits([_normal.ndtr(v) for v in x[-200:]]), expected[-200:])  # np.float64
    for v in (0.3, np.float64(-2.0), 7):
        assert type(_normal.ndtr(v)) is float
    for shape in ((), (7,), (3, 5)):
        a = x[-100:-100 + math.prod(shape)].reshape(shape)
        out = _normal.ndtr(a)
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
        assert np.array_equal(_bits(out), _bits(ndtr(a)))
