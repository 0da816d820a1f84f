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
from liborlab.affine import CirParams
from liborlab.affine_libor import fit_initial_curve, simulate_affine_paths
from liborlab.forward_price import FpmModel, simulate_fpm
from liborlab.levy import DoubleExponentialJumps, LevyCharacteristics, simulate_driver
from liborlab.lmm import LiborPathSet, LmmModel, simulate_exact, simulation_grid
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


def test_implied_vol_or_none_annualizes_over_the_fixing_date(tenor, curve):
    # the caplet on rate k fixes at T_k = k * delta: a Black price at total
    # vol 0.2 sqrt(T_k) is an annualized vol of 0.2
    for k in tenor.rate_indices:
        price = black_caplet(0.04, 0.045, 0.2 * math.sqrt(k * DELTA), DELTA, curve.bond(k + 1))
        assert implied_vol_or_none(price, curve, k, 0.045) == pytest.approx(0.2, rel=1e-12)


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
    (q,) = mc_caplet(paths, 2, [0.03], curve)
    assert q.price == pytest.approx(curve.bond(3) * DELTA * 0.01, rel=1e-12)
    assert q.stderr == 0.0


def test_mc_caplet_terminal_rate_matches_black(tenor, curve, lmm_paths):
    # the last rate is exactly log-normal under the terminal measure
    total_vol = math.sqrt(0.2**2 * tenor.dates[4])
    for q in mc_caplet(lmm_paths, 4, [0.03, 0.04, 0.06], curve):
        oracle = black_caplet(0.04, q.strike, total_vol, DELTA, curve.bond(5))
        assert abs(q.price - oracle) <= 3.0 * q.stderr


def test_mc_caplet_price_monotone_convex_in_strike(curve, lmm_paths):
    strikes = [0.02, 0.03, 0.04, 0.05, 0.06]
    prices = [q.price for q in mc_caplet(lmm_paths, 3, strikes, curve)]
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
    mean, stderr = _mc_mean_stderr(samples.copy(), antithetic=True)  # it overwrites its input
    assert mean == pytest.approx(np.mean(pairs), rel=1e-14)
    assert stderr == pytest.approx(np.std(pairs, ddof=1) / math.sqrt(500), rel=1e-14)
    assert _mc_mean_stderr(samples, antithetic=False)[1] > 10.0 * stderr


def _np_mean_stderr(samples, antithetic):
    # the estimator with np.mean, np.ptp and np.std on fresh arrays
    if antithetic:
        half = len(samples) // 2
        samples = 0.5 * (samples[:half] + samples[half:])
    mean = float(np.mean(samples))
    if len(samples) < 2 or np.ptp(samples) == 0.0:
        return mean, 0.0
    return mean, float(np.std(samples, ddof=1) / math.sqrt(len(samples)))


def _per_strike_quote(paths, k, strike, curve):
    # one pass per (rate, strike): the oracle for the bits of mc_caplet's price and SE
    if np.isnan(paths.fixings[:, k]).any():
        raise LiborLabError(f"fixing of rate {k} is NaN on some path")
    if not np.isfinite(paths.fixing_weights[:, k]).all():
        raise LiborLabError(f"density weight of rate {k} is not finite on some path")
    payoff = np.maximum(paths.fixings[:, k] - strike, 0.0) * paths.fixing_weights[:, k]
    mean, stderr = _np_mean_stderr(payoff, paths.antithetic)
    scale = curve.bond(k + 1) * paths.delta
    return [scale * mean, scale * stderr]


def _hex(values):
    # float.hex tells -0.0 from 0.0 and keeps every bit
    return [None if v is None else float(v).hex() for v in values]


@pytest.fixture(scope="module")
def quote_path_sets():
    tenor = TenorStructure(delta=DELTA, n=5)
    curve = InitialCurve.flat(tenor, 0.04)
    vols = VolatilitySurface.flat(tenor, 0.2)
    jumps = LevyCharacteristics(0.0, 0.4, 0.6, DoubleExponentialJumps(0.45, 9.0, 7.0))
    grid = simulation_grid(tenor, 4)
    brownian = LmmModel(tenor, curve, vols, LevyCharacteristics(0.0, 1.0))
    antithetic = simulate_driver(brownian.chars, grid, 4_000, seed=3, antithetic=True)
    family = fit_initial_curve(curve, CirParams(1.2, 0.06, 0.5, 0.06))
    return curve, {
        "lmm-jumps": simulate_exact(LmmModel(tenor, curve, vols, jumps), grid, 3_001, seed=2),
        "lmm-antithetic": simulate_exact(brownian, grid, 4_000, seed=3, driver=antithetic),
        "fpm-jumps": simulate_fpm(FpmModel(tenor, curve, vols, jumps), grid, 3_001, seed=4),
        "affine": simulate_affine_paths(family, 3_001, seed=5),
    }


@pytest.mark.parametrize("name", ["lmm-jumps", "lmm-antithetic", "fpm-jumps", "affine"])
def test_mc_caplet_matches_the_per_strike_formula_bitwise(quote_path_sets, name):
    # strike 1e3 leaves every payoff 0 (np.ptp 0, SE 0); -0.01 keeps every path in the money
    curve, path_sets = quote_path_sets
    paths = path_sets[name]
    strikes = [-0.01, 0.0, 0.03, 0.04, 0.05, 1e3]
    for k in paths.tenor.rate_indices:
        quotes = mc_caplet(paths, k, strikes, curve)
        assert [q.strike for q in quotes] == strikes and all(q.k == k for q in quotes)
        for q, strike in zip(quotes, strikes):
            assert _hex([q.price, q.stderr]) == _hex(_per_strike_quote(paths, k, strike, curve))
            assert q.implied_vol is None  # the caller inverts the known prices
        assert quotes[-1].stderr == 0.0


def test_mc_caplet_all_equal_payoffs_whose_mean_rounds(tenor, curve):
    # three payoffs of 0.1 sum to 0.30000000000000004, so their mean rounds
    # off 0.1 and the deviations from it are not 0; np.ptp is 0, and so is
    # the SE; the antithetic pairs of six such payoffs give the same
    for n, antithetic in ((3, False), (6, True)):
        fixings = np.full((n, tenor.n), 0.1, order="F")
        paths = LiborPathSet(tenor, curve.libors, fixings, np.ones((n, tenor.n), order="F"),
                             antithetic=antithetic)
        (q,) = mc_caplet(paths, 2, [0.0], curve)
        assert q.stderr == 0.0
        assert np.mean(np.full(3, 0.1)) != 0.1 and np.std(np.full(3, 0.1), ddof=1) > 0.0
        assert _hex([q.price, q.stderr]) == _hex(_per_strike_quote(paths, 2, 0.0, curve))


def test_mc_caplet_refuses_a_nan_fixing_like_the_per_strike_formula(quote_path_sets):
    # a NaN fixing or a non-finite density weight stops its own rate at every
    # strike, -0.01 too, where no implied-vol root would meet it
    curve, path_sets = quote_path_sets
    paths = path_sets["affine"]
    for column, value, message in (("fixings", np.nan, "fixing of rate 2 is NaN"),
                                   ("weights", np.nan, "density weight of rate 2 is not finite"),
                                   ("weights", np.inf, "density weight of rate 2 is not finite")):
        arrays = {"fixings": paths.fixings.copy(order="F"),
                  "weights": paths.fixing_weights.copy(order="F")}
        arrays[column][7, 2] = value
        broken = LiborPathSet(paths.tenor, paths.initial_libors, arrays["fixings"], arrays["weights"])
        for quote in (lambda: mc_caplet(broken, 2, [-0.01, 0.04], curve),
                      lambda: _per_strike_quote(broken, 2, -0.01, curve)):
            with pytest.raises(LiborLabError, match=message):
                quote()
        assert _hex([mc_caplet(broken, 3, [0.04], curve)[0].price]) == _hex(
            _per_strike_quote(broken, 3, 0.04, curve)[:1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 0.1, 1e-300]),
                    min_size=1, max_size=600),
    antithetic=st.booleans(),
    constant=st.booleans(),
)
@example(values=[0.1, 0.1, 0.1], antithetic=False, constant=False)
@example(values=[5.0, 4.0, 6.0], antithetic=False, constant=False)
@example(values=[0.0, 1.0, -1.0, 0.0], antithetic=True, constant=False)
def test_mc_stderr_matches_numpy_bitwise(values, antithetic, constant):
    # the in-place estimator returns the bits of np.mean and np.std(ddof=1),
    # and SE 0 exactly where np.ptp is 0; the examples put the mean on the
    # first sample, all equal or not
    if constant:
        values = [values[0]] * len(values)
    if antithetic:
        values = values[: len(values) // 2 * 2] or [values[0]] * 2
    samples = np.array(values)
    assert _hex(_mc_mean_stderr(samples.copy(), antithetic)) == _hex(
        _np_mean_stderr(samples, antithetic))


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
