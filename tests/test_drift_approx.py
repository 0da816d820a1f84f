import math

import numpy as np
import pytest

from liborlab.drift_approx import (
    _FrozenStep,
    _PicardStep,
    _TaylorStep,
    frozen_drift_law,
    frozen_drift_simulate,
    picard_simulate,
    picard_tables_row,
    taylor_simulate,
)
from liborlab.errors import LiborLabError, UnsupportedSchemeError
from liborlab.levy import LevyCharacteristics, NormalJumps, simulate_driver
from liborlab.lmm import (
    LmmModel,
    _Work,
    forward_price_weights,
    simulate_exact,
    simulation_grid,
)
from liborlab.tenor import InitialCurve, TenorStructure
from liborlab.volatility import VolatilitySurface

DELTA = 0.5


@pytest.fixture
def tenor():
    return TenorStructure(delta=DELTA, n=5)


@pytest.fixture
def model(tenor):
    return LmmModel(
        tenor,
        InitialCurve.flat(tenor, 0.04),
        VolatilitySurface.flat(tenor, 0.2),
        LevyCharacteristics(drift_b=0.0, diffusion_c=1.0),
    )


@pytest.fixture
def jump_model(tenor):
    return LmmModel(
        tenor,
        InitialCurve.flat(tenor, 0.04),
        VolatilitySurface.flat(tenor, 0.15),
        LevyCharacteristics(
            drift_b=0.0, diffusion_c=0.4, jump_intensity=0.6, jump_law=NormalJumps(-0.08, 0.25)
        ),
    )


def test_picard_zero_equals_frozen_bitwise(model, tenor):
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(model.chars, grid, 512, seed=77)
    frozen = frozen_drift_simulate(model, grid, 512, seed=77, driver=driver, store_dates=True)
    picard0 = picard_simulate(model, grid, 512, seed=77, order=0, driver=driver, store_dates=True)
    assert np.array_equal(frozen.fixings, picard0.fixings)
    assert np.array_equal(frozen.fixing_weights, picard0.fixing_weights)
    assert np.array_equal(frozen.date_values, picard0.date_values)


def test_all_schemes_identical_at_terminal_index(model, jump_model, tenor):
    grid = simulation_grid(tenor, 4)
    for mdl in (model, jump_model):
        driver = simulate_driver(mdl.chars, grid, 256, seed=5)
        sims = [
            simulate_exact(mdl, grid, 256, seed=5, driver=driver),
            frozen_drift_simulate(mdl, grid, 256, seed=5, driver=driver),
            taylor_simulate(mdl, grid, 256, seed=5, driver=driver),
        ]
        if not mdl.chars.has_jumps:
            sims.append(picard_simulate(mdl, grid, 256, seed=5, driver=driver))
        base = sims[0].fixings[:, 4]
        for other in sims[1:]:
            assert np.max(np.abs(other.fixings[:, 4] - base)) < 1e-9


def test_zero_vols_all_schemes_constant(tenor):
    mdl = LmmModel(
        tenor,
        InitialCurve.flat(tenor, 0.04),
        VolatilitySurface.flat(tenor, 0.0),
        LevyCharacteristics(drift_b=0.0, diffusion_c=1.0),
    )
    grid = simulation_grid(tenor, 4)
    for sim in (frozen_drift_simulate, taylor_simulate, picard_simulate):
        paths = sim(mdl, grid, 32, seed=1)
        assert np.allclose(paths.fixings, 0.04, rtol=1e-14)


def test_frozen_law_matches_closed_form_integrals(model, tenor):
    # Brownian case: log of the frozen-drift rate is Gaussian with
    # mean log L0 + int beta0 and variance int lambda^2 c
    grid = simulation_grid(tenor, 4)
    w0 = DELTA * 0.04 / (1.0 + DELTA * 0.04)
    for k, d in [(2, 2), (4, 4)]:
        mean, var = frozen_drift_law(model, k, d)
        t = tenor.dates[d]
        lam = 0.2
        live = [j for j in range(4 * 4) if grid[j] < tenor.dates[k] and grid[j] < t]
        # beta0 per step: -lam^2/2 - lam * sum_{l>k, live} w0 lam
        beta = 0.0
        for j in live:
            n_live_after = sum(
                1 for l in range(k + 1, 5) if tenor.dates[l] > grid[j] + 1e-12
            )
            beta += (-0.5 * lam**2 - lam * w0 * lam * n_live_after) * (grid[1] - grid[0])
        assert mean == pytest.approx(math.log(0.04) + beta, abs=1e-10)
        assert var == pytest.approx(lam**2 * min(t, tenor.dates[k]), abs=1e-10)
    for d in (-1, 5):  # the grid ends at T_4
        with pytest.raises(LiborLabError, match="date index"):
            frozen_drift_law(model, 2, d)


def test_frozen_paths_consistent_with_law(model, tenor):
    # pathwise: log L - loaded driver integral reproduces the law mean exactly
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(model.chars, grid, 8, seed=3)
    paths = frozen_drift_simulate(model, grid, 8, seed=3, driver=driver)
    k = 2
    mean, _ = frozen_drift_law(model, k, k)
    dh = driver.dh
    loaded = np.zeros(8)
    for i in range(len(grid) - 1):
        lam = model.vols.values[i // 4, k]
        loaded += lam * dh[i]
    resid = np.log(paths.fixings[:, k]) - loaded
    assert np.max(np.abs(resid - mean)) < 1e-10


def test_picard_tables_row_arithmetic(model):
    w0 = forward_price_weights(model.curve.libors, DELTA)
    drift, g = picard_tables_row(w0, model.vols.values[0], model.chars)
    assert w0[1] == pytest.approx(0.02 / 1.02, rel=1e-14)
    w0 = w0[1]
    # diffusion coefficient: w0 (1 - w0) lambda sqrt(c), with g = w0 (1 - w0)
    assert math.sqrt(model.chars.diffusion_c) * 0.2 * g[2] == pytest.approx(
        w0 * (1.0 - w0) * 0.2, rel=1e-12)
    # drift coefficient at the terminal rate: only its own lambda survives
    expected = -0.2 * w0 * (1.0 - w0) * (w0 * 0.2)
    assert drift[4] == pytest.approx(expected, rel=1e-12)
    # a driver drift b moves dH by b dt, which the table takes back: - g lambda b
    tilted = LevyCharacteristics(drift_b=0.3, diffusion_c=1.0)
    drift_b = picard_tables_row(forward_price_weights(model.curve.libors, DELTA),
                                model.vols.values[0], tilted)[0]
    assert drift_b[4] == pytest.approx(expected - w0 * (1.0 - w0) * 0.2 * 0.3, rel=1e-12)
    # zero rate: the weight and both coefficients vanish
    w_zero = forward_price_weights(np.zeros(5), DELTA)
    assert np.all(w_zero == 0.0)
    for row in model.vols.values:
        drift0, g0 = picard_tables_row(w_zero, row, model.chars)
        assert np.all(g0 == 0.0)
        assert np.all(drift0 == 0.0)


def test_picard_first_iterate_starts_at_zeroth(model):
    # the iterate begins at the constant weights, so the first drift of the
    # order-1 scheme is the frozen drift; a driver step moves the iterate
    lam = model.vols.values[0]
    frozen, picard = _FrozenStep(model), _PicardStep(model)
    table = picard.interval(0, 0, lam, 0.125)
    s, z = picard.start(64)
    work = _Work.empty(len(s), 64)
    beta0 = np.broadcast_to(frozen.drift(s, None, frozen.interval(0, 0, lam, 0.125), work), s.shape)
    assert np.array_equal(picard.drift(s, z, table, work), beta0)
    dh = np.random.default_rng(2).normal(0.0, math.sqrt(0.125), 64)
    picard.advance(z, table, lam[:, None] * dh, work)
    assert not np.array_equal(picard.drift(s, z, table, work), beta0)


def test_picard_with_driver_drift_matches_the_dw_loop(tenor):
    # at b != 0 the kernel moves the iterate on lambda dH and takes the
    # b dt part back in its table; a plain loop in the dW form, on log L,
    # with dW rebuilt from the seed's stream, must give the same fixings.
    # The two forms round differently: 1e-12 relative bounds the gap
    chars = LevyCharacteristics(drift_b=0.3, diffusion_c=0.6)
    l0 = np.full(tenor.n, 0.04)
    vols = VolatilitySurface.flat(tenor, 0.25)
    model = LmmModel(tenor, InitialCurve.flat(tenor, 0.04), vols, chars)
    grid = simulation_grid(tenor, 4)
    n_paths, seed = 64, 21
    paths = picard_simulate(model, grid, n_paths, seed)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dts = np.diff(grid)
    dw = rng.normal(0.0, np.sqrt(dts)[:, None], size=(len(dts), n_paths))
    b, c = chars.drift_b, chars.diffusion_c

    def later(x):  # sum over l > k of x[l], per column
        out = np.zeros_like(x)
        out[:-1] = np.cumsum(x[:0:-1], axis=0)[::-1]
        return out

    w0 = (DELTA * l0 / (1.0 + DELTA * l0))[:, None]
    g = w0 * (1.0 - w0)
    log_l = np.tile(np.log(l0)[:, None], (1, n_paths))
    z = np.tile(w0, (1, n_paths))
    fixings = np.full((n_paths, tenor.n), l0[0])
    for i, dt in enumerate(dts):
        lam = vols.values[i // 4][:, None]
        drift = -lam * b - 0.5 * c * lam**2 - c * lam * later(z * lam)
        a = -c * lam * g * (later(w0 * lam) + w0 * lam)
        log_l += drift * dt + lam * (b * dt + math.sqrt(c) * dw[i])
        z += a * dt + math.sqrt(c) * lam * g * dw[i]
        if (i + 1) % 4 == 0:
            d = (i + 1) // 4
            fixings[:, d] = np.exp(log_l[d])
    assert np.max(np.abs(paths.fixings / fixings - 1.0)) < 1e-12


def test_picard_rejects_jump_driver(jump_model, tenor):
    with pytest.raises(UnsupportedSchemeError):
        picard_simulate(jump_model, simulation_grid(tenor, 4), 16, seed=1)


def test_taylor_beta0_equals_drift_at_initial_state(model, jump_model, tenor):
    from liborlab.lmm import _Drift

    grid = simulation_grid(tenor, 4)
    for mdl in (model, jump_model):
        state = np.asarray(mdl.curve.libors)
        for i, k in [(0, 1), (3, 2), (9, 4)]:
            if grid[i] >= tenor.dates[k]:
                continue
            lam = mdl.vols.values[i // 4]
            beta0 = _FrozenStep(mdl).interval(i // 4, 0, lam, 1.0)[k, 0]
            rule = mdl.chars.jump_quadrature(48) if mdl.chars.has_jumps else None
            w = forward_price_weights(state[:, None], DELTA)
            direct = _Drift(lam, mdl.chars, rule)(w)[k, 0]
            assert beta0 == pytest.approx(direct, rel=1e-12)


def test_taylor_first_variation_starts_at_zero(model):
    # Y(0) = 0, so the first drift of the Taylor scheme is evaluated at the
    # initial rates, like the frozen scheme; after a step it tracks Y
    lam = model.vols.values[0]
    frozen, taylor = _FrozenStep(model), _TaylorStep(model)
    table = taylor.interval(0, 0, lam, 0.125)
    s, y = taylor.start(16)
    work = _Work.empty(len(s), 16)
    assert y.T.shape == (16, 5) and np.all(y == 0.0)
    beta0 = np.broadcast_to(frozen.drift(s, None, frozen.interval(0, 0, lam, 0.125), work), s.shape)
    assert np.allclose(taylor.drift(s, y, table, work), beta0, rtol=1e-14, atol=0.0)
    dh = np.random.default_rng(9).normal(0.0, math.sqrt(0.125), 16)
    taylor.advance(y, table, lam[:, None] * dh, work)
    assert not np.allclose(taylor.drift(s, y, table, work), beta0, rtol=1e-12, atol=0.0)


def test_scheme_error_ordering_pathwise(model, tenor):
    # coupled comparison: strong Taylor tracks the exact paths better than
    # the first Picard iterate, which beats the frozen drift
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(model.chars, grid, 20_000, seed=12)
    exact = simulate_exact(model, grid, 20_000, seed=12, driver=driver)
    err = {}
    for name, sim in (
        ("frozen", frozen_drift_simulate),
        ("picard1", picard_simulate),
        ("taylor", taylor_simulate),
    ):
        approx = sim(model, grid, 20_000, seed=12, driver=driver)
        err[name] = np.mean(np.abs(np.log(approx.fixings[:, 1]) - np.log(exact.fixings[:, 1])))
    assert err["taylor"] < err["picard1"] < err["frozen"]


def test_taylor_strong_error_shrinks_with_volatility(tenor):
    # halving all loadings cuts the strong error by more than the generic
    # first-order factor (the residual is second order in the loading size)
    errors = {}
    for scale in (1.0, 0.5):
        mdl = LmmModel(
            tenor,
            InitialCurve.flat(tenor, 0.04),
            VolatilitySurface.flat(tenor, 0.2 * scale),
            LevyCharacteristics(drift_b=0.0, diffusion_c=1.0),
        )
        grid = simulation_grid(tenor, 4)
        driver = simulate_driver(mdl.chars, grid, 20_000, seed=44)
        exact = simulate_exact(mdl, grid, 20_000, seed=44, driver=driver)
        tay = taylor_simulate(mdl, grid, 20_000, seed=44, driver=driver)
        errors[scale] = np.mean(
            np.abs(np.log(tay.fixings[:, 1]) - np.log(exact.fixings[:, 1]))
        )
    assert errors[0.5] <= 0.6 * errors[1.0]


def test_taylor_handles_jumps(jump_model, tenor):
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(jump_model.chars, grid, 30_000, seed=51)
    exact = simulate_exact(jump_model, grid, 30_000, seed=51, driver=driver)
    tay = taylor_simulate(jump_model, grid, 30_000, seed=51, driver=driver)
    frz = frozen_drift_simulate(jump_model, grid, 30_000, seed=51, driver=driver)
    assert tay.min_rate() > 0.0
    e_tay = np.mean(np.abs(np.log(tay.fixings[:, 1]) - np.log(exact.fixings[:, 1])))
    e_frz = np.mean(np.abs(np.log(frz.fixings[:, 1]) - np.log(exact.fixings[:, 1])))
    assert e_tay < e_frz
    # weighted martingale property still holds for the approximations
    for paths in (tay, frz):
        for k in (1, 4):
            d = paths.fixing_weights[:, k] * (paths.fixings[:, k] - 0.04)
            se = d.std(ddof=1) / math.sqrt(len(d))
            assert abs(d.mean()) <= 4.0 * se
