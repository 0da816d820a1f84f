"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py -v`` to see
the lines; the full suite stays within the stated time budgets.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from liborlab import affine_libor, markov_functional
from liborlab.affine import CirParams, cir_flow
from liborlab.config import parse_config
from liborlab.drift_approx import (
    frozen_drift_law,
    frozen_drift_simulate,
    picard_simulate,
    taylor_simulate,
)
from liborlab.experiment import run_compare, weighted_martingale_gap
from liborlab.forward_price import FpmModel, negative_rate_fraction, simulate_fpm
from liborlab.levy import (
    DoubleExponentialJumps,
    LevyCharacteristics,
    simulate_driver,
)
from liborlab.lmm import (
    LmmModel,
    forward_measure_characteristics,
    simulate_exact,
    simulation_grid,
)
from liborlab.pricing import mc_caplet
from liborlab.tenor import InitialCurve, TenorStructure
from liborlab.volatility import VolatilitySurface

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DELTA = 0.5


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def five_tenor_setup(n_paths: int, seed: int):
    tenor = TenorStructure(delta=DELTA, n=5)
    curve = InitialCurve.flat(tenor, 0.04)
    vols = VolatilitySurface.flat(tenor, 0.15)
    chars = LevyCharacteristics(
        drift_b=0.0,
        diffusion_c=0.4,
        jump_intensity=0.6,
        jump_law=DoubleExponentialJumps(0.45, 9.0, 7.0),
    )
    lmm = LmmModel(tenor, curve, vols, chars)
    fpm = FpmModel(tenor, curve, vols, chars)
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(chars, grid, n_paths, seed)
    lmm_paths = simulate_exact(lmm, grid, n_paths, seed, driver=driver, store_dates=True)
    fpm_paths = simulate_fpm(fpm, grid, n_paths, seed, driver=driver, store_dates=True)
    return lmm, fpm, grid, driver, lmm_paths, fpm_paths


def affine_family():
    tenor = TenorStructure(delta=DELTA, n=5)
    curve = InitialCurve.flat(tenor, 0.04)
    params = CirParams(mean_reversion=1.2, long_run_level=0.06, vol_of_vol=0.5, x0=0.06)
    return affine_libor.fit_initial_curve(curve, params)


def test_criterion_1_identity_suite():
    t0 = time.time()
    lmm, fpm, grid, driver, lmm_paths, fpm_paths = five_tenor_setup(10_000, seed=101)
    tenor = lmm.tenor
    l0 = np.asarray(lmm.curve.libors)
    worst = 0.0

    # basic relation: the simulated forward price of each period equals
    # 1 + delta L pathwise, and multiplies telescopically into the ratio
    # that drives the measure change
    for paths in (lmm_paths, fpm_paths):
        for m in (1, 3):
            direct = paths.density_weight(4, m)
            rebuilt = np.ones(paths.n_paths)
            for l in range(m, 5):
                rebuilt *= (1.0 + DELTA * paths.date_values[:, 4, l]) / (1.0 + DELTA * l0[l])
            worst = max(worst, float(np.max(np.abs(direct - rebuilt))))

    # density telescoping: stochastic-exponential accumulation over the
    # tenor-date snapshots equals the forward-price ratio
    dv = lmm_paths.date_values
    for m in (2, 4):
        acc = np.ones(lmm_paths.n_paths)
        for d in range(dv.shape[1] - 1):
            for l in range(m, 5):
                prev, cur = dv[:, d, l], dv[:, d + 1, l]
                w = DELTA * prev / (1.0 + DELTA * prev)
                acc *= 1.0 + w * (cur - prev) / prev
        direct = lmm_paths.density_weight(4, m)
        worst = max(worst, float(np.max(np.abs(acc - direct))))

    # forward-price-model telescoping: the loaded-exponential density
    # equals the product of simulated forward prices
    dh = driver.increments(fpm.chars)
    for k in (1, 2):
        steps = int(round(tenor.dates[k] / (grid[1] - grid[0])))
        det = 0.0
        stoch = np.zeros(fpm_paths.n_paths)
        for i in range(steps):
            j = tenor.index_of(grid[i])
            det += float(np.sum(fpm.drift_table[j, k + 1 :])) * (grid[i + 1] - grid[i])
            stoch += fpm.loading_tails[j, k + 1] * dh[i]
        rebuilt = np.exp(det + stoch)
        worst = max(worst, float(np.max(np.abs(rebuilt - fpm_paths.fixing_weights[:, k]))))

    elapsed = time.time() - t0
    _report(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"identity suite worst pathwise error {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_martingale_suite():
    t0 = time.time()
    _, _, _, _, lmm_paths, fpm_paths = five_tenor_setup(100_000, seed=202)
    family = affine_family()
    affine_paths = affine_libor.simulate_affine_paths(family, 100_000, seed=203)
    worst = 0.0
    lines = []
    for label, paths in (("lmm-exact", lmm_paths), ("fpm", fpm_paths), ("affine", affine_paths)):
        for k in range(1, 5):
            gap, se = weighted_martingale_gap(paths, k)
            ratio = gap / se if se > 0 else 0.0
            worst = max(worst, ratio)
            lines.append(f"{label} k={k}: {ratio:.2f}")
        # intermediate tenor dates via snapshots (fixing-date weights above)
        if paths.date_values is not None:
            for k in (2, 4):
                d_idx = 1
                l0 = paths.initial_libors[k]
                state = paths.date_values[:, d_idx, k]
                weight = paths.density_weight(d_idx, k + 1)
                d = weight * (state - l0)
                se = d.std(ddof=1) / math.sqrt(len(d))
                worst = max(worst, abs(d.mean()) / se if se > 0 else 0.0)
    elapsed = time.time() - t0
    _report(
        2,
        worst <= 3.0 and elapsed < 120.0,
        f"worst martingale gap {worst:.2f} SE (<= 3), {elapsed:.1f}s (< 2 min)",
    )


def test_criterion_3_positivity_suite():
    t0 = time.time()
    lmm, fpm, grid, driver, lmm_paths, fpm_paths = five_tenor_setup(100_000, seed=303)
    min_rates = [lmm_paths.min_rate()]
    for sim in (frozen_drift_simulate, taylor_simulate):
        min_rates.append(sim(lmm, grid, 100_000, seed=303, driver=driver).min_rate())
    # Picard needs a continuous driver
    tenor = lmm.tenor
    brESM = LmmModel(
        tenor, lmm.curve, VolatilitySurface.flat(tenor, 0.2), LevyCharacteristics(0.0, 1.0)
    )
    min_rates.append(picard_simulate(brESM, grid, 100_000, seed=303).min_rate())

    grid_mfm = markov_functional.calibrate_backward(
        lmm.curve, markov_functional.MfmDriver.flat(tenor, 0.2)
    )
    mfm_min = min(float(np.min(grid_mfm.libor_values[i])) for i in range(1, 5))

    family = affine_family()
    x_grid = np.linspace(0.0, 1.5, 64)
    affine_min = min(
        float(np.min(affine_libor.libor_value(family, k, t, x_grid)))
        for k in range(1, 5)
        for t in np.linspace(0.0, tenor.dates[k], 5)
    )

    # forward price model: documented low-rate/high-vol witness scenario
    neg_cfg = parse_config(str(CONFIGS / "fpm_negative_rates.cfg"))
    neg_curve = InitialCurve.flat(tenor, neg_cfg.flat_libor)
    neg_model = FpmModel(
        tenor,
        neg_curve,
        VolatilitySurface.flat(tenor, neg_cfg.vol_flat),
        LevyCharacteristics(neg_cfg.drift_b, neg_cfg.diffusion_c),
    )
    neg_paths = simulate_fpm(neg_model, grid, 100_000, seed=neg_cfg.seed)
    neg_frac = negative_rate_fraction(neg_paths)

    elapsed = time.time() - t0
    ok = min(min_rates) > 0.0 and mfm_min >= 0.0 and affine_min >= 0.0 and neg_frac > 0.0
    _report(
        3,
        ok,
        f"min rates: lmm schemes {min(min_rates):.3e}, mfm {mfm_min:.3e}, "
        f"affine {affine_min:.3e}; fpm negative-fixing witness {neg_frac:.4f} > 0 "
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_structure_suite():
    family = affine_family()
    # log-affinity of the forward-measure exponential moment in the state
    worst_dev = 0.0
    xs = np.array([0.03, 0.35, 1.2])
    for k in (1, 3, 5):
        for v in (-0.4, 0.3):
            logs = np.log(affine_libor.forward_measure_mgf(family, k, v, 0.4, 1.5, xs))
            s1 = (logs[1] - logs[0]) / (xs[1] - xs[0])
            s2 = (logs[2] - logs[1]) / (xs[2] - xs[1])
            worst_dev = max(worst_dev, abs(s2 - s1))

    lmm, fpm, grid, driver, lmm_paths, fpm_paths = five_tenor_setup(4_000, seed=404)
    # forward-price-model density exponent carries no path dependence
    dh = driver.increments(fpm.chars)
    spread = 0.0
    for k in (1, 2):
        steps = int(round(lmm.tenor.dates[k] / (grid[1] - grid[0])))
        stoch = np.zeros(fpm_paths.n_paths)
        for i in range(steps):
            stoch += fpm.loading_tails[lmm.tenor.index_of(grid[i]), k + 1] * dh[i]
        resid = np.log(fpm_paths.fixing_weights[:, k]) - stoch
        spread = max(spread, float(np.max(resid) - np.min(resid)))

    # market-model compensator product varies across paths (jump driver)
    state = lmm_paths.date_values[:, 2, :]
    factors = np.array(
        [
            forward_measure_characteristics(s, 1.0, 1, lmm.chars, lmm.vols, DELTA)[1](0.3)
            for s in state[:500]
        ]
    )
    witness_var = float(np.var(factors))

    ok = worst_dev <= 1e-10 and spread <= 1e-10 and witness_var > 0.0
    _report(
        4,
        ok,
        f"affine log-affinity dev {worst_dev:.1e} (tol 1e-10); fpm density exponent "
        f"spread {spread:.1e}; lmm compensator variance {witness_var:.3e} > 0",
    )


def test_criterion_5_scheme_equivalence():
    tenor = TenorStructure(delta=DELTA, n=5)
    curve = InitialCurve.flat(tenor, 0.04)
    model = LmmModel(
        tenor, curve, VolatilitySurface.flat(tenor, 0.2), LevyCharacteristics(0.0, 1.0)
    )
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(model.chars, grid, 4_096, seed=505)

    frozen = frozen_drift_simulate(model, grid, 4_096, seed=505, driver=driver)
    picard0 = picard_simulate(model, grid, 4_096, seed=505, order=0, driver=driver)
    bit_identical = np.array_equal(frozen.fixings, picard0.fixings) and np.array_equal(
        frozen.fixing_weights, picard0.fixing_weights
    )

    exact = simulate_exact(model, grid, 4_096, seed=505, driver=driver)
    taylor = taylor_simulate(model, grid, 4_096, seed=505, driver=driver)
    picard1 = picard_simulate(model, grid, 4_096, seed=505, order=1, driver=driver)
    terminal_gap = max(
        float(np.max(np.abs(p.fixings[:, 4] - exact.fixings[:, 4])))
        for p in (frozen, taylor, picard1)
    )

    # closed-form Gaussian law of the terminal rate under the frozen scheme
    mean, var = frozen_drift_law(model, grid, 4, tenor.dates[4])
    mean_err = abs(mean - (math.log(0.04) - 0.5 * 0.2**2 * tenor.dates[4]))
    var_err = abs(var - 0.2**2 * tenor.dates[4])

    ok = bit_identical and terminal_gap < 1e-9 and mean_err < 1e-10 and var_err < 1e-10
    _report(
        5,
        ok,
        f"picard-0 == frozen bitwise: {bit_identical}; terminal-rate scheme gap "
        f"{terminal_gap:.1e} (tol 1e-9); frozen-law errors mean {mean_err:.1e}, "
        f"var {var_err:.1e} (tol 1e-10)",
    )


def test_criterion_6_scheme_comparison_benchmark():
    t0 = time.time()
    cfg = parse_config(str(CONFIGS / "compare_brownian.cfg"))
    result = run_compare(cfg, out_dir=None)
    elapsed = time.time() - t0
    frozen_max = result.summary["lmm-frozen"][0]
    taylor_max = result.summary["lmm-taylor"][0]
    ok = taylor_max < frozen_max and elapsed < 900.0
    _report(
        6,
        ok,
        f"max |implied-vol error|: taylor {taylor_max:.3e} < frozen {frozen_max:.3e}; "
        f"picard1 {result.summary['lmm-picard1'][0]:.3e}; {elapsed:.0f}s (< 15 min)",
    )


def test_criterion_7_mfm_self_consistency():
    tenor = TenorStructure(delta=DELTA, n=5)
    curve = InitialCurve.from_libors(tenor, [0.04, 0.035, 0.045, 0.05, 0.042])
    driver = markov_functional.MfmDriver.flat(tenor, 0.2)
    grid = markov_functional.calibrate_backward(curve, driver)

    digital_worst = 0.0
    for i in range(1, 5):
        v = math.sqrt(driver.variance(tenor.dates[i]))
        for strike in grid.libor_values[i]:
            market = markov_functional.black_digital_price(
                curve.libor(i), strike, v, curve.bond(i + 1)
            )
            model = markov_functional.digital_value(grid, i, strike)
            digital_worst = max(digital_worst, abs(model - market) / market)

    small = TenorStructure(delta=DELTA, n=2)
    one_curve = InitialCurve.flat(small, 0.04)
    one_driver = markov_functional.MfmDriver.flat(small, 0.25)
    one_grid = markov_functional.calibrate_backward(one_curve, one_driver)
    var = one_driver.variance(small.dates[1])
    oracle = 0.04 * np.exp(-0.5 * var + one_grid.x_nodes[1])
    one_period_worst = float(np.max(np.abs(one_grid.libor_values[1] / oracle - 1.0)))

    zero_driver = markov_functional.MfmDriver.flat(tenor, 0.0)
    zero_grid = markov_functional.calibrate_backward(curve, zero_driver)
    zero_exact = all(
        zero_grid.libor_values[i][0] == pytest.approx(curve.libor(i), rel=1e-13)
        for i in range(1, 5)
    )

    ok = digital_worst < 1e-7 and one_period_worst < 1e-8 and zero_exact
    _report(
        7,
        ok,
        f"digital repricing worst rel err {digital_worst:.2e} (tol 1e-7); one-period "
        f"functional err {one_period_worst:.2e} (tol 1e-8); zero-vol limit exact: {zero_exact}",
    )


def test_criterion_8_affine_suite():
    params = CirParams(mean_reversion=1.2, long_run_level=0.06, vol_of_vol=0.5, x0=0.06)
    worst_flow = 0.0
    for t in (0.25, 0.8, 1.5):
        for s in (0.3, 1.0):
            for u in (-2.0, 0.4, 1.8, 3.5):
                phi_t, psi_t = cir_flow(params, t, u)
                phi_s, psi_s = cir_flow(params, s, psi_t)
                phi_ts, psi_ts = cir_flow(params, t + s, u)
                worst_flow = max(
                    worst_flow, abs(phi_ts - phi_t - phi_s), abs(psi_ts - psi_s)
                )

    family = affine_family()
    curve = family.curve
    fit_worst = 0.0
    for k in range(1, 6):
        m0 = affine_libor.martingale_value(family, family.u_seq[k], 0.0, params.x0)
        target = curve.bond(k) / curve.bond(5)
        fit_worst = max(fit_worst, abs(m0 - target) / target)

    paths = affine_libor.simulate_affine_paths(family, 1_000_000, seed=808)
    mc_gap = 0.0
    for k, strike in ((2, 0.04), (4, 0.05)):
        quote = mc_caplet(paths, k, strike, curve)
        fourier = affine_libor.caplet_price_fourier(family, k, strike)
        mc_gap = max(mc_gap, abs(quote.price - fourier) / quote.stderr)

    flat = InitialCurve.flat(curve.tenor, 0.0)
    flat_family = affine_libor.fit_initial_curve(flat, params)
    flat_ok = bool(np.all(flat_family.u_seq == 0.0)) and all(
        affine_libor.libor_value(flat_family, k, 0.6, 0.8) == 0.0 for k in range(1, 5)
    )

    ok = worst_flow < 1e-8 and fit_worst < 1e-10 and mc_gap <= 3.0 and flat_ok
    _report(
        8,
        ok,
        f"semi-flow worst {worst_flow:.1e} (tol 1e-8); fit worst {fit_worst:.1e} "
        f"(tol 1e-10); fourier-vs-MC {mc_gap:.2f} SE (<= 3); flat curve degenerate: {flat_ok}",
    )


def test_criterion_9_compare_determinism(tmp_path):
    cfg = parse_config(str(CONFIGS / "compare_brownian.cfg"))
    from liborlab.config import override

    small = override(cfg, n_paths=20_000)
    run_compare(small, out_dir=str(tmp_path / "a"))
    run_compare(small, out_dir=str(tmp_path / "b"))
    names = [
        "quotes.csv",
        "ivdiff_lmm-frozen_vs_lmm-exact.csv",
        "ivdiff_lmm-picard1_vs_lmm-exact.csv",
        "ivdiff_lmm-taylor_vs_lmm-exact.csv",
        "summary.txt",
    ]
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes() for n in names
    )
    _report(9, identical, f"rerun byte-identical across {len(names)} output files")
