import math

import numpy as np
import pytest

from liborlab.errors import DomainError, LiborLabError
from liborlab.forward_price import (
    FpmModel,
    caplet_price_fourier,
    log_forward_cumulant,
    negative_rate_fraction,
    simulate_fpm,
)
from liborlab.levy import (
    DoubleExponentialJumps,
    LevyCharacteristics,
    NormalJumps,
    simulate_driver,
)
from liborlab.lmm import simulation_grid
from liborlab.pricing import black_caplet, mc_caplet
from liborlab.tenor import InitialCurve, TenorStructure
from liborlab.volatility import VolatilitySurface

DELTA = 0.5


@pytest.fixture
def tenor():
    return TenorStructure(delta=DELTA, n=5)


@pytest.fixture
def curve(tenor):
    return InitialCurve.flat(tenor, 0.04)


def brownian_model(tenor, curve, vol=0.02):
    return FpmModel(
        tenor,
        curve,
        VolatilitySurface.flat(tenor, vol),
        LevyCharacteristics(drift_b=0.0, diffusion_c=1.0),
    )


def jump_model(tenor, curve, vol=0.03):
    return FpmModel(
        tenor,
        curve,
        VolatilitySurface.flat(tenor, vol),
        LevyCharacteristics(
            drift_b=0.0,
            diffusion_c=0.5,
            jump_intensity=0.8,
            jump_law=NormalJumps(-0.05, 0.15),
        ),
    )


def test_terminal_drift_is_minus_half_lambda_sq(tenor, curve):
    model = brownian_model(tenor, curve)
    # the drift of interval [T_0, T_1) holds at s = 0.3
    assert model.drift_table[0, 4] == pytest.approx(-0.5 * 0.02**2, rel=1e-13)


def test_drift_reduces_to_untilted_cumulant_without_subsequent_vol(tenor, curve):
    # zero loading on every subsequent rate: the tilt sum is empty
    cols = [[0.03] * k if k == 2 else [0.0] * k for k in range(1, 5)]
    vols = VolatilitySurface.from_columns(tenor, cols)
    chars = LevyCharacteristics(
        drift_b=0.0, diffusion_c=0.5, jump_intensity=0.8, jump_law=NormalJumps(-0.05, 0.15)
    )
    model = FpmModel(tenor, curve, vols, chars)
    assert model.drift_table[0, 2] == pytest.approx(
        -float(chars.cumulant(0.03)), rel=1e-12
    )


def test_forward_measure_shift_structure(tenor, curve):
    # under the T_{k+1} forward measure the Brownian shift sqrt(c) Lambda_{k+1}
    # and the jump tilt exp(x Lambda_{k+1}) read only the loading tail
    model = jump_model(tenor, curve)
    j = tenor.index_of(0.2)
    assert model.loading_tails[j, 3] == pytest.approx(2 * 0.03, rel=1e-12)
    assert model.loading_tails[j, 5] == 0.0


def test_zero_vols_keep_rates_constant(tenor, curve):
    model = FpmModel(
        tenor, curve, VolatilitySurface.flat(tenor, 0.0), LevyCharacteristics(0.0, 1.0)
    )
    paths = simulate_fpm(model, simulation_grid(tenor, 4), 64, seed=2)
    assert np.allclose(paths.fixings, 0.04, rtol=1e-14)


def test_weighted_martingale_property(tenor, curve):
    model = jump_model(tenor, curve)
    grid = simulation_grid(tenor, 4)
    paths = simulate_fpm(model, grid, 100_000, seed=19)
    for k in (1, 2, 3, 4):
        d = paths.fixing_weights[:, k] * (paths.fixings[:, k] - 0.04)
        se = d.std(ddof=1) / math.sqrt(len(d))
        assert abs(d.mean()) <= 3.0 * se


def test_density_telescoping_and_determinism(tenor, curve):
    # the density equals both the forward-price product and the loaded
    # exponential with deterministic coefficients, pathwise
    model = jump_model(tenor, curve)
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(model.chars, grid, 2000, seed=23)
    paths = simulate_fpm(model, grid, 2000, seed=23, driver=driver, store_dates=True)
    dh = driver.increments(model.chars)
    l0 = np.asarray(curve.libors)
    for k in (1, 2):
        t_idx = k  # weight at the rate's own fixing date
        direct = paths.density_weight(t_idx, k + 1)
        assert np.max(np.abs(direct - paths.fixing_weights[:, k])) < 1e-12
        steps = int(round(tenor.dates[k] / (grid[1] - grid[0])))
        det = 0.0
        stoch = np.zeros(2000)
        for i in range(steps):
            j = tenor.index_of(grid[i])
            tail_lam = model.loading_tails[j, k + 1]
            det += float(np.sum(model.drift_table[j, k + 1 :])) * (grid[i + 1] - grid[i])
            stoch += tail_lam * dh[i]
        rebuilt = np.exp(det + stoch)
        assert np.max(np.abs(rebuilt - direct)) < 1e-10
        # structure preservation: residual exponent has zero spread
        resid = np.log(direct) - stoch
        assert np.max(resid) - np.min(resid) < 1e-12


def test_negative_rates_occur_at_high_vol(tenor):
    # low initial rates plus high forward-price volatility
    curve = InitialCurve.flat(tenor, 0.01)
    model = FpmModel(
        tenor,
        curve,
        VolatilitySurface.flat(tenor, 0.03),
        LevyCharacteristics(drift_b=0.0, diffusion_c=1.0),
    )
    paths = simulate_fpm(model, simulation_grid(tenor, 4), 100_000, seed=29)
    frac = negative_rate_fraction(paths)
    assert frac > 0.0
    assert np.min(1.0 + DELTA * paths.fixings) > 0.0  # forward prices stay positive


def test_fourier_zero_vol_is_intrinsic(tenor, curve):
    model = FpmModel(
        tenor, curve, VolatilitySurface.flat(tenor, 0.0), LevyCharacteristics(0.0, 1.0)
    )
    assert caplet_price_fourier(model, 2, 0.03) == pytest.approx(
        curve.bond(3) * DELTA * 0.01, rel=1e-12
    )
    assert caplet_price_fourier(model, 2, 0.05) == 0.0


def test_fourier_matches_black_in_brownian_case(tenor, curve):
    # the forward price is log-normal, so the value is Black's formula on
    # the shifted quantity 1 + delta L; a 60% vol needs the saddle damping
    for vol in (0.02, 0.6):
        model = brownian_model(tenor, curve, vol=vol)
        for k in (2, 4):
            total_vol = math.sqrt(model.vols.total_variance(k))
            f0 = 1.0 + DELTA * curve.libor(k)
            for strike in (0.02, 0.04, 0.07):
                oracle = curve.bond(k + 1) * black_caplet(
                    f0, 1.0 + DELTA * strike, total_vol, 1.0, 1.0
                )
                got = caplet_price_fourier(model, k, strike)
                assert got == pytest.approx(oracle, abs=1e-8)


def test_fourier_matches_poisson_sum_without_diffusion(tenor, curve):
    # pure-jump driver: given n jumps in [0, T_1) log F(T_1) is normal, so the
    # caplet is a Poisson mixture of Black values (law tilted to the T_2 measure)
    mu, sd, intensity = -0.05, 0.15, 0.6
    chars = LevyCharacteristics(0.0, 0.0, intensity, NormalJumps(mu, sd))
    model = FpmModel(tenor, curve, VolatilitySurface.flat(tenor, 0.15), chars)
    lam, tail = model.vols.values[0, 1], model.loading_tails[0, 2]
    rate = DELTA * intensity * math.exp(mu * tail + 0.5 * (sd * tail) ** 2)
    jump_mean = mu + sd * sd * tail
    base = math.log(1.0 + DELTA * curve.libor(1)) + DELTA * (
        model.drift_table[0, 1] - lam * intensity * mu
    )
    for strike in (0.02, 0.04, 0.06):
        value = 0.0
        for n in range(60):
            weight = math.exp(-rate) * rate**n / math.factorial(n)
            mean, var = base + lam * n * jump_mean, (lam * sd) ** 2 * n
            forward = math.exp(mean + 0.5 * var)
            value += weight * black_caplet(forward, 1.0 + DELTA * strike, math.sqrt(var), 1.0, 1.0)
        oracle = curve.bond(2) * value
        assert caplet_price_fourier(model, 1, strike) == pytest.approx(oracle, abs=5e-10)


def test_fourier_matches_mc_with_jumps(tenor, curve):
    model = jump_model(tenor, curve)
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(model.chars, grid, 400_000, seed=31, antithetic=True)
    paths = simulate_fpm(model, grid, 400_000, seed=31, driver=driver)
    for k, strike in [(2, 0.04), (4, 0.05)]:
        quote = mc_caplet(paths, k, strike, curve)
        fourier = caplet_price_fourier(model, k, strike)
        assert abs(quote.price - fourier) <= 3.0 * quote.stderr


def test_moment_function_normalization(tenor, curve):
    model = jump_model(tenor, curve)
    # M(0) = 1 and M(1) = E[F] = F(0) by the martingale property
    assert np.exp(log_forward_cumulant(model, 3, 0.0)).real == pytest.approx(1.0, rel=1e-12)
    f0 = 1.0 + DELTA * curve.libor(3)
    assert np.exp(log_forward_cumulant(model, 3, 1.0)).real == pytest.approx(f0, rel=1e-12)


def test_cumulative_loading_domain_violation(tenor, curve):
    chars = LevyCharacteristics(
        drift_b=0.0,
        diffusion_c=0.2,
        jump_intensity=1.0,
        jump_law=DoubleExponentialJumps(0.5, 4.0, 4.0),
    )
    with pytest.raises(DomainError):
        FpmModel(tenor, curve, VolatilitySurface.flat(tenor, 1.5), chars)


def test_strike_floor(tenor, curve):
    model = brownian_model(tenor, curve)
    with pytest.raises(LiborLabError):
        caplet_price_fourier(model, 2, -2.1)
