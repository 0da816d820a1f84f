import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from liborlab.errors import CalibrationError, LiborLabError
from liborlab.markov_functional import (
    MfmDriver,
    _MonotoneLogInterp,
    black_digital_price,
    black_digital_strike,
    calibrate_backward,
    caplet_value,
    digital_value,
    initial_bond_repricing,
    terminal_bond_functional,
)
from liborlab.pricing import black_caplet
from liborlab.tenor import InitialCurve, TenorStructure

DELTA = 0.5


@pytest.fixture
def tenor():
    return TenorStructure(delta=DELTA, n=5)


@pytest.fixture
def curve(tenor):
    return InitialCurve.from_libors(tenor, [0.04, 0.035, 0.045, 0.05, 0.042])


@pytest.fixture
def driver(tenor):
    return MfmDriver.flat(tenor, 0.2)


def test_driver_variance_accumulates(tenor):
    driver = MfmDriver(tenor, np.array([0.1, 0.2, 0.2, 0.3, 0.3]))
    assert driver.variance(0.0) == 0.0
    assert driver.variance(0.5) == pytest.approx(0.1**2 * 0.5, rel=1e-14)
    assert driver.variance(1.25) == pytest.approx(
        0.1**2 * 0.5 + 0.2**2 * 0.5 + 0.2**2 * 0.25, rel=1e-14
    )


def test_terminal_functional_shape(tenor):
    curve = InitialCurve.flat(tenor, 0.04)
    var = 0.09
    assert terminal_bond_functional(0.5 * var, curve, var) == pytest.approx(
        1.0 / (1.0 + DELTA * 0.04), rel=1e-14
    )
    zero = InitialCurve.flat(tenor, 0.0)
    assert terminal_bond_functional(1.3, zero, var) == 1.0
    xs = np.linspace(-2.0, 2.0, 9)
    vals = terminal_bond_functional(xs, curve, var)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all((vals > 0.0) & (vals < 1.0))


def test_terminal_functional_lognormal_mean(tenor):
    # Gaussian expectation of the reciprocal reproduces 1 + delta L(0)
    curve = InitialCurve.flat(tenor, 0.04)
    var = 0.2**2 * 2.0

    def integrand(x):
        recip = 1.0 + DELTA * 0.04 * math.exp(-0.5 * var + x)
        return recip * math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)

    oracle = quad(integrand, -12.0 * math.sqrt(var), 12.0 * math.sqrt(var), limit=300)[0]
    assert oracle == pytest.approx(1.0 + DELTA * 0.04, rel=1e-10)
    grid_val = 1.0 / terminal_bond_functional(0.0, curve, var)
    assert grid_val == pytest.approx(1.0 + DELTA * 0.04 * math.exp(-0.5 * var), rel=1e-14)


def test_black_digital_price_limits():
    assert black_digital_price(0.05, 0.04, 0.0, 0.97) == 0.97
    assert black_digital_price(0.03, 0.04, 0.0, 0.97) == 0.0
    # strike at the forward's median: exactly half the discount
    v = 0.3
    k_med = 0.04 * math.exp(-0.5 * v * v)
    assert black_digital_price(0.04, k_med, v, 0.97) == pytest.approx(0.97 / 2.0, rel=1e-12)
    with pytest.raises(LiborLabError):
        black_digital_price(0.04, 0.0, 0.2, 0.97)
    # elementwise over strikes, limits included
    strikes = np.array([0.03, 0.04, 0.05])
    assert black_digital_price(0.04, strikes, 0.0, 0.97).tolist() == [0.97, 0.0, 0.0]
    assert black_digital_price(-0.01, strikes, 0.2, 0.97).tolist() == [0.0, 0.0, 0.0]
    quotes = black_digital_price(0.04, strikes, 0.2, 0.97)
    assert quotes.tolist() == [black_digital_price(0.04, k, 0.2, 0.97) for k in strikes]
    with pytest.raises(LiborLabError):
        black_digital_price(0.04, np.array([0.03, -0.01]), 0.2, 0.97)


def test_black_digital_matches_tail_quadrature():
    L0, v, disc = 0.04, 0.25, 0.95
    strike = 0.045

    def density(x):
        # log-normal density of the fixing
        return math.exp(-0.5 * ((math.log(x / L0) + 0.5 * v * v) / v) ** 2) / (
            x * v * math.sqrt(2 * math.pi)
        )

    oracle = disc * quad(density, strike, 1.0, limit=300)[0]
    assert black_digital_price(L0, strike, v, disc) == pytest.approx(oracle, abs=1e-10)


def test_black_digital_strike_round_trip():
    for target_frac in (0.1, 0.5, 0.9):
        target = 0.95 * target_frac
        k = black_digital_strike(0.04, target, 0.3, 0.95)
        # strike resolved to 1e-12; the price tolerance scales with |dV/dK|
        assert black_digital_price(0.04, k, 0.3, 0.95) == pytest.approx(target, abs=5e-11)
    # one array call, as calibration makes it, solves each target alone
    targets = 0.95 * np.array([0.1, 0.5, 0.9])
    ks = black_digital_strike(0.04, targets, 0.3, 0.95)
    assert ks.tolist() == [black_digital_strike(0.04, t, 0.3, 0.95) for t in targets]
    assert np.allclose(black_digital_price(0.04, ks, 0.3, 0.95), targets, rtol=0.0, atol=5e-11)
    with pytest.raises(CalibrationError):
        black_digital_strike(0.04, 0.96, 0.3, 0.95)  # above the zero-strike value


def test_one_period_calibration_recovers_lognormal(tenor):
    # a two-date model calibrated to Black digitals must reproduce the
    # log-normal rate functional that generated those quotes
    small = TenorStructure(delta=DELTA, n=2)
    curve = InitialCurve.flat(small, 0.04)
    driver = MfmDriver.flat(small, 0.25)
    grid = calibrate_backward(curve, driver, quad_order=64)
    var = driver.variance(small.dates[1])
    x = grid.x_nodes[1]
    oracle = 0.04 * np.exp(-0.5 * var + x)
    assert np.max(np.abs(grid.libor_values[1] / oracle - 1.0)) < 1e-8
    numeraire_oracle = terminal_bond_functional(x, curve, var)
    assert np.max(np.abs(grid.numeraire_values[1] / numeraire_oracle - 1.0)) < 1e-8


def test_terminal_date_recovers_functional_in_multi_date_model(curve, driver):
    grid = calibrate_backward(curve, driver)
    i = 4
    var = driver.variance(curve.tenor.dates[i])
    x = grid.x_nodes[i]
    oracle = curve.libor(i) * np.exp(-0.5 * var + x)
    assert np.max(np.abs(grid.libor_values[i] / oracle - 1.0)) < 1e-8


def test_zero_vol_deterministic_limit(curve, tenor):
    driver = MfmDriver.flat(tenor, 0.0)
    grid = calibrate_backward(curve, driver)
    for i in range(1, 5):
        assert grid.libor_values[i][0] == pytest.approx(curve.libor(i), rel=1e-14)
        fwd_bond = curve.bond(5) / curve.bond(i)
        assert grid.numeraire_values[i][0] == pytest.approx(fwd_bond, rel=1e-14)
        # every functional is a constant of the state, and the quotes keep the curve's bits
        assert initial_bond_repricing(grid, i) == curve.bond(i + 1)
        assert digital_value(grid, i, 0.5 * curve.libor(i)) == curve.bond(i + 1)
        assert digital_value(grid, i, 2.0 * curve.libor(i)) == 0.0
        for strike in (0.5 * curve.libor(i), curve.libor(i), 2.0 * curve.libor(i)):
            intrinsic = max(curve.libor(i) - strike, 0.0)
            assert caplet_value(grid, i, strike) == curve.bond(i + 1) * DELTA * intrinsic
        assert grid.j_value(i, 0.3) == curve.bond(i + 1) / curve.bond(5)
        assert grid.reciprocal_numeraire(i, 0.3) == curve.bond(i) / curve.bond(5)
    assert grid.reciprocal_numeraire(5, 0.3) == 1.0


def test_calibrated_functionals_monotone_and_positive(curve, driver):
    grid = calibrate_backward(curve, driver)
    for i in range(1, 5):
        lv = grid.libor_values[i]
        assert np.all(lv >= 0.0)
        assert np.all(np.diff(lv) > 0.0)
        assert np.all((grid.numeraire_values[i] > 0.0) & (grid.numeraire_values[i] <= 1.0))


def test_digital_repricing_self_consistency(curve, driver):
    grid = calibrate_backward(curve, driver)
    worst = 0.0
    for i in range(1, 5):
        v = math.sqrt(driver.variance(curve.tenor.dates[i]))
        for strike in grid.libor_values[i]:
            market = black_digital_price(curve.libor(i), strike, v, curve.bond(i + 1))
            model = digital_value(grid, i, strike)
            worst = max(worst, abs(model - market) / market)
    assert worst < 1e-7


def test_initial_curve_repricing(curve, driver):
    grid = calibrate_backward(curve, driver)
    for i in range(1, 5):
        got = initial_bond_repricing(grid, i)
        assert abs(got - curve.bond(i + 1)) / curve.bond(i + 1) < 1e-7


def test_bond_identity_at_nodes(curve, driver):
    # 1 + delta L(T_i, T_i; x) == 1 / B(T_i, T_{i+1}; x) at every node, where
    # B(T_i, T_{i+1}; x) = J_i(x) B(T_i, T_N; x) = J_i(x) / rho_i(x)
    grid = calibrate_backward(curve, driver)
    for i in (1, 3):
        for m in range(0, len(grid.x_nodes[i]), 7):
            x = grid.x_nodes[i][m]
            lhs = 1.0 + DELTA * grid.libor_values[i][m]
            rhs = grid.reciprocal_numeraire(i, x) / grid.j_value(i, x)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_bond_decreasing_in_maturity(curve, driver):
    # 1 = B(T_i, T_i) > B(T_i, T_{i+1}; x) > B(T_i, T_N; x) for i + 1 < N
    grid = calibrate_backward(curve, driver)
    x = 0.1
    for i in range(1, 4):
        rho = grid.reciprocal_numeraire(i, x)
        assert 1.0 > grid.j_value(i, x) / rho > 1.0 / rho


def test_caplet_value_against_black(curve, driver):
    # the calibration consumes Black digital quotes, so its caplets are the
    # integrals of those digitals: Black caplet values up to grid error
    grid = calibrate_backward(curve, driver)
    for i in (2, 4):
        v = math.sqrt(driver.variance(curve.tenor.dates[i]))
        l0 = curve.libor(i)
        for strike in (0.8 * l0, l0, 1.3 * l0):
            oracle = black_caplet(l0, strike, v, DELTA, curve.bond(i + 1))
            got = caplet_value(grid, i, strike)
            assert got == pytest.approx(oracle, rel=2e-6, abs=1e-12)


def _upper_integral_by_quad(grid, i, x_star, rate):
    """int_{x*}^inf L_i^rate J_i phi dx by adaptive quadrature, J_i by ``j_value`` everywhere."""
    x = grid.x_nodes[i]
    sd = math.sqrt(grid.driver.variance(grid.tenor.dates[i]))

    def integrand(p):
        density = math.exp(-0.5 * (p / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        return float(grid._rate_interp[i](p)) ** rate * float(grid.j_value(i, p)) * density

    edges = [x_star, *x[x > x_star], max(x_star, x[-1]) + 40.0 * sd]
    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("i", [1, 2, 4])
@pytest.mark.parametrize("where", ["far_below", "below", "between", "above", "far_above"])
def test_quotes_match_adaptive_quadrature(curve, driver, i, where):
    # digital B_N I_0 and caplet delta B_N (I_1 - K I_0) against quad of the
    # same integrals, for the exercise level below, inside and above the
    # nodes, out to 4 times the top node rate
    grid = calibrate_backward(curve, driver)
    lv = grid.libor_values[i]
    strike = {"far_below": 0.1 * lv[0], "below": 0.5 * lv[0],
              "between": 1.0001 * lv[len(lv) // 3],
              "above": 2.0 * lv[-1], "far_above": 4.0 * lv[-1]}[where]
    x_star = grid._rate_interp[i].inverse(strike)
    assert (x_star < grid.x_nodes[i][0], x_star > grid.x_nodes[i][-1]) == (
        "below" in where, "above" in where)
    i0, i1 = (_upper_integral_by_quad(grid, i, x_star, rate) for rate in (0, 1))
    bond_n = curve.bond(5)
    assert digital_value(grid, i, strike) == pytest.approx(bond_n * i0, rel=5e-9, abs=0.0)
    assert caplet_value(grid, i, strike) == pytest.approx(
        DELTA * bond_n * (i1 - strike * i0), rel=5e-9, abs=0.0)


def test_a_later_caplet_reads_the_next_numeraire_on_one_panel(curve, driver):
    # calibration keeps each date's node tables, so a caplet evaluates
    # rho_{i+1} only on its partial panel: 24 states x 64 Hermite nodes
    grid = calibrate_backward(curve, driver)
    i = 2
    rho, sizes = grid._rho_interp[i + 1], []
    grid._rho_interp[i + 1] = lambda x: sizes.append(np.size(x)) or rho(x)
    caplet_value(grid, i, 1.1 * curve.libor(i))
    assert 0 < sum(sizes) <= 24 * 64


@pytest.mark.parametrize("sigma", [0.2, 0.0])
def test_quotes_refuse_a_date_outside_the_calibrated_range(tenor, curve, sigma):
    # dates 1..N-1 are calibrated; the sigma = 0 grid takes its deterministic branch
    grid = calibrate_backward(curve, MfmDriver.flat(tenor, sigma))
    for i in (-1, 0, 5):
        for quote in (
            lambda: caplet_value(grid, i, 0.03),
            lambda: digital_value(grid, i, 0.03),
            lambda: initial_bond_repricing(grid, i),
        ):
            with pytest.raises(LiborLabError, match=f"date index {i} outside 1..4"):
                quote()


@pytest.mark.parametrize("sigma", [0.2, 0.0])
@pytest.mark.parametrize("strike", [0.0, -0.01])
def test_quotes_refuse_a_nonpositive_strike(tenor, curve, sigma, strike):
    # no positive rate functional reaches a strike <= 0, so it has no exercise level
    grid = calibrate_backward(curve, MfmDriver.flat(tenor, sigma))
    for quote in (caplet_value, digital_value):
        with pytest.raises(LiborLabError, match="strike > 0"):
            quote(grid, 2, strike)


def test_calibration_rejects_bad_inputs(tenor, curve):
    with pytest.raises(CalibrationError):
        calibrate_backward(curve, MfmDriver(tenor, np.array([0.2, 0.0, 0.2, 0.2, 0.2])))
    # L(0, T_1) = 0: no digital strike inverts at a zero rate
    zero_forward = InitialCurve.from_bonds(tenor, [1.0, 0.99, 0.99, 0.97, 0.95, 0.93])
    with pytest.raises(CalibrationError, match="strictly positive fixings"):
        calibrate_backward(zero_forward, MfmDriver.flat(tenor, 0.2))


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_driver_refuses_non_finite_volatility(tenor, sigma):
    with pytest.raises(LiborLabError, match="finite"):
        MfmDriver.flat(tenor, sigma)


def test_strike_at_a_flat_end_node():
    # here PCHIP gives date 1's rate functional a zero end slope: the lowest
    # node rate must invert to the end node, not to 0 / 0
    tenor = TenorStructure(delta=DELTA, n=10)
    curve = InitialCurve.flat(tenor, 0.04)
    grid = calibrate_backward(curve, MfmDriver.flat(tenor, 0.35))
    assert grid._rate_interp[1].slope_lo == 0.0
    strike = float(grid.libor_values[1][0])
    bumped = strike * (1.0 + 1e-9)
    at, above = caplet_value(grid, 1, strike), caplet_value(grid, 1, bumped)
    digital = digital_value(grid, 1, strike)
    assert math.isfinite(at) and math.isfinite(digital)
    assert 0.0 <= digital <= curve.bond(2)
    # the caplet's strike slope is -delta times the digital
    assert at - above == pytest.approx(DELTA * digital * (bumped - strike), abs=1e-13)
    # below the flat end every state exercises: x* = -inf leaves no lower tail
    assert grid._rate_interp[1].inverse(0.5 * strike) == -math.inf
    low_caplet = caplet_value(grid, 1, 0.5 * strike)
    low_digital = digital_value(grid, 1, 0.5 * strike)
    assert math.isfinite(low_caplet) and math.isfinite(low_digital)
    assert low_digital == initial_bond_repricing(grid, 1)


def _monotone_nodes(rng, flat_share):
    n = int(rng.integers(2, 40))
    x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 5.0
    rises = rng.exponential(0.5, n - 1) * (rng.random(n - 1) >= flat_share)
    return x, np.exp(rng.normal() + np.concatenate([[0.0], np.cumsum(rises)]))


@pytest.mark.parametrize("flat_share", [0.0, 0.3])
def test_monotone_cubic_matches_pchip(flat_share):
    # PCHIP's slope rule gives scipy's cubic to rounding, flat segments included
    rng = np.random.default_rng(17)
    for _ in range(200):
        x, values = _monotone_nodes(rng, flat_share)
        for shift in (0.0, 1.0):
            interp = _MonotoneLogInterp(x, values + shift, shift)
            log_values = np.log(values + shift - shift)
            oracle = PchipInterpolator(x, log_values, extrapolate=False)
            pts = np.concatenate([x, rng.uniform(x[0], x[-1], 300)])
            assert np.max(np.abs(interp.log_shifted(pts) - oracle(pts))) <= 1e-14
            slopes = oracle.derivative()(x[[0, -1]])
            assert interp.slope_lo == slopes[0]
            assert interp.slope_hi == pytest.approx(slopes[1], rel=1e-12, abs=1e-14)
            # outside the nodes the log is linear with the end slopes
            assert interp.log_shifted(x[-1] + 2.0) == pytest.approx(
                log_values[-1] + 2.0 * interp.slope_hi, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("flat_share", [0.0, 0.3])
def test_monotone_cubic_inverse(flat_share):
    rng = np.random.default_rng(29)
    for _ in range(100):
        x, values = _monotone_nodes(rng, flat_share)
        interp = _MonotoneLogInterp(x, values, 0.0)
        pts = rng.uniform(x[0], x[-1], 20)
        for p, v in zip(pts, interp(pts)):
            back = interp.inverse(float(v))
            assert x[0] <= back <= x[-1]
            assert interp(back) == pytest.approx(v, rel=1e-13)  # a flat segment holds many x
            if flat_share == 0.0:
                assert back == pytest.approx(p, abs=1e-9)
