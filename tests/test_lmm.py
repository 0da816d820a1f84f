import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liborlab import lmm
from liborlab.config import parse_config
from liborlab.drift_approx import (
    frozen_drift_simulate,
    picard_simulate,
    picard_tables_row,
    taylor_simulate,
)
from liborlab.errors import DomainError, LiborLabError, QuadratureError
from liborlab.experiment import _LMM_SCHEMES, Context
from liborlab.forward_price import FpmModel, simulate_fpm
from liborlab.levy import (
    DoubleExponentialJumps,
    LevyCharacteristics,
    NormalJumps,
    simulate_driver,
)
from liborlab.lmm import (
    LmmModel,
    _Drift,
    forward_measure_characteristics,
    forward_price_weights,
    simulate_exact,
    simulation_grid,
)
from liborlab.tenor import InitialCurve, TenorStructure
from liborlab.volatility import VolatilitySurface

DELTA = 0.5
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tenor():
    return TenorStructure(delta=DELTA, n=5)


@pytest.fixture
def curve(tenor):
    return InitialCurve.flat(tenor, 0.04)


@pytest.fixture
def vols(tenor):
    return VolatilitySurface.flat(tenor, 0.2)


@pytest.fixture
def brownian():
    return LevyCharacteristics(drift_b=0.0, diffusion_c=1.0)


@pytest.fixture
def jumpy():
    return LevyCharacteristics(
        drift_b=0.0, diffusion_c=0.4, jump_intensity=0.6, jump_law=NormalJumps(-0.08, 0.25)
    )


def drift_of(state, j, k, chars, vols, quad_order=48):
    """Terminal-measure drift of log L(., T_k) on tenor interval j, as the kernel computes it."""
    rule = chars.jump_quadrature(quad_order) if chars.has_jumps else None
    w = forward_price_weights(np.atleast_2d(state).T, DELTA)
    return _Drift(vols.values[j], chars, rule)(w)[k, 0]


def test_jump_tilt_factor_reductions(tenor, jumpy):
    # under the T_4 forward measure only rate 4 tilts the compensator, by
    # the factor 1 + w_4 (e^{lambda_4 x} - 1)
    def tilt(libor, loading, x):
        vols = VolatilitySurface.flat(tenor, loading)
        state = np.full(5, libor)
        return forward_measure_characteristics(state, 0, 3, jumpy, vols, DELTA)[1](x)

    assert tilt(0.05, 1.0, 0.0) == 1.0
    assert tilt(0.0, 1.0, 0.7) == 1.0
    assert tilt(0.05, 0.0, 0.7) == 1.0
    expected = 1.0 + (0.025 / 1.025) * (math.exp(0.1) - 1.0)
    assert tilt(0.05, 1.0, 0.1) == pytest.approx(expected, rel=1e-14)
    assert tilt(0.3, -2.0, 0.5) > 0.0


def test_terminal_rate_drift_is_minus_half_lambda_sq(curve, vols, brownian):
    state = np.full(5, 0.04)
    drift = drift_of(state, 0, 4, brownian, vols)
    assert drift == pytest.approx(-0.5 * 0.2**2, rel=1e-14)


def test_zero_state_reduces_to_single_exponential_drift(curve, vols, jumpy):
    # all subsequent rates at zero: weighted sums vanish and every tilt
    # factor is one, so the drift is the plain martingale drift -kappa(lambda)
    state = np.zeros(5)
    drift = drift_of(state, 0, 2, jumpy, vols)
    assert drift == pytest.approx(-float(jumpy.cumulant(0.2)), abs=1e-10)


def test_two_rate_brownian_drift_reduction(tenor, brownian):
    # two live rates: drift of the first is -lam^2/2 - lam * w * lam_last
    vols = VolatilitySurface.flat(tenor, 0.25)
    state = np.array([0.04, 0.03, 0.05, 0.045, 0.06])
    drift = drift_of(state, 2, 3, brownian, vols)
    w4 = DELTA * 0.06 / (1.0 + DELTA * 0.06)
    expected = -0.5 * 0.25**2 - 0.25 * w4 * 0.25
    assert drift == pytest.approx(expected, rel=1e-12)


def test_drift_identity_between_measure_representations(tenor, curve, jumpy):
    # drift written against the terminal characteristics equals the plain
    # martingale drift against the T_{k+1}-characteristics obtained from
    # the Girsanov shift and compensator factor
    vols = VolatilitySurface.flat(tenor, 0.18)
    rng = np.random.default_rng(3)
    nodes, weights = jumpy.jump_quadrature(96)
    for _ in range(5):
        state = 0.04 * np.exp(rng.normal(0.0, 0.4, size=5))
        j, k = 0, 2
        lam = vols.values[j, k]
        shift, factor = forward_measure_characteristics(state, j, k, jumpy, vols, DELTA)
        # b^{k+1} = b + c * shift/sqrt(c) + int x (factor - 1) dF
        tilt = factor(nodes)
        b_shift = math.sqrt(jumpy.diffusion_c) * shift
        b_jump = jumpy.jump_intensity * float(
            (nodes * (tilt - 1.0)) @ weights
        )
        b_fwd = jumpy.drift_b + b_shift + b_jump
        jump_int = jumpy.jump_intensity * float(
            ((np.exp(lam * nodes) - 1.0 - lam * nodes) * tilt) @ weights
        )
        direct = -lam * b_fwd - 0.5 * lam**2 * jumpy.diffusion_c - jump_int
        via_terminal = drift_of(state, j, k, jumpy, vols, quad_order=96)
        assert via_terminal == pytest.approx(direct, abs=1e-10)


def test_forward_measure_characteristics_terminal_trivial(curve, vols, jumpy):
    state = np.asarray(curve.libors)
    shift, factor = forward_measure_characteristics(state, 0, 4, jumpy, vols, DELTA)
    assert shift == 0.0
    assert np.all(factor(np.array([-0.5, 0.1, 2.0])) == 1.0)
    shift0, factor0 = forward_measure_characteristics(
        np.zeros(5), 0, 1, jumpy, vols, DELTA
    )
    assert shift0 == 0.0
    assert np.all(factor0(np.array([0.3])) == 1.0)
    for j, k in [(-1, 1), (5, 1), (0, -1), (0, 5)]:
        with pytest.raises(LiborLabError, match="outside 0..4"):
            forward_measure_characteristics(state, j, k, jumpy, vols, DELTA)


def test_zero_vol_freezes_rates(tenor, curve, brownian):
    vols = VolatilitySurface.flat(tenor, 0.0)
    model = LmmModel(tenor, curve, vols, brownian)
    grid = simulation_grid(tenor, 4)
    paths = simulate_exact(model, grid, 64, seed=2, store_dates=True)
    assert np.allclose(paths.fixings, 0.04, rtol=1e-14)
    assert np.allclose(paths.date_values, 0.04, rtol=1e-14)
    assert np.allclose(paths.fixing_weights, 1.0, rtol=1e-14)


def test_positivity_and_freezing(tenor, curve, vols, jumpy):
    model = LmmModel(tenor, curve, vols, jumpy)
    grid = simulation_grid(tenor, 4)
    paths = simulate_exact(model, grid, 2000, seed=8, store_dates=True)
    assert paths.min_rate() > 0.0
    # rate k reaches its fixing value at T_k and stays there at later dates
    for k in (1, 2, 3):
        for later in range(k + 1, 5):
            assert np.array_equal(paths.date_values[:, later, k], paths.fixings[:, k])


def test_martingale_property_terminal_and_weighted(tenor, curve, vols, brownian):
    model = LmmModel(tenor, curve, vols, brownian)
    grid = simulation_grid(tenor, 4)
    paths = simulate_exact(model, grid, 100_000, seed=13)
    for k in (1, 2, 3, 4):
        l0 = curve.libor(k)
        d = paths.fixing_weights[:, k] * (paths.fixings[:, k] - l0)
        se = d.std(ddof=1) / math.sqrt(len(d))
        assert abs(d.mean()) <= 3.0 * se
        # the density weight itself has unit expectation under the
        # terminal measure
        w = paths.fixing_weights[:, k]
        if k < 4:
            se_w = w.std(ddof=1) / math.sqrt(len(w))
            assert abs(w.mean() - 1.0) <= 3.0 * se_w


def test_martingale_property_with_jumps(tenor, curve, jumpy):
    vols = VolatilitySurface.flat(tenor, 0.15)
    model = LmmModel(tenor, curve, vols, jumpy)
    grid = simulation_grid(tenor, 4)
    paths = simulate_exact(model, grid, 100_000, seed=29)
    for k in (1, 3, 4):
        l0 = curve.libor(k)
        d = paths.fixing_weights[:, k] * (paths.fixings[:, k] - l0)
        se = d.std(ddof=1) / math.sqrt(len(d))
        assert abs(d.mean()) <= 3.0 * se


def test_density_telescoping_along_paths(tenor, curve, vols, brownian):
    # stochastic-exponential accumulation of the density factors over the
    # tenor-date snapshots agrees with the forward-price ratio
    model = LmmModel(tenor, curve, vols, brownian)
    grid = simulation_grid(tenor, 4)
    paths = simulate_exact(model, grid, 500, seed=5, store_dates=True)
    dv = paths.date_values
    for k_measure in (2, 3):
        acc = np.ones(paths.n_paths)
        for d in range(dv.shape[1] - 1):
            for l in range(k_measure, 5):
                prev, cur = dv[:, d, l], dv[:, d + 1, l]
                w = DELTA * prev / (1.0 + DELTA * prev)
                acc = acc * (1.0 + w * (cur - prev) / prev)
        direct = paths.density_weight(len(tenor.dates) - 2, k_measure)
        assert np.max(np.abs(acc - direct)) < 1e-9


def test_compensator_product_not_deterministic(tenor, curve, jumpy):
    # jump-driver witness: the forward-measure compensator factor varies
    # across paths, i.e. the driver's structure is not preserved
    vols = VolatilitySurface.flat(tenor, 0.15)
    model = LmmModel(tenor, curve, vols, jumpy)
    grid = simulation_grid(tenor, 4)
    paths = simulate_exact(model, grid, 4000, seed=31, store_dates=True)
    state = paths.date_values[:, 2, :]
    factors = np.array(
        [
            forward_measure_characteristics(s, 2, 1, jumpy, vols, DELTA)[1](0.25)
            for s in state[:200]
        ]
    )
    assert np.var(factors) > 0.0
    # one call over all paths gives the same factor and shift per path
    shift, factor = forward_measure_characteristics(state[:200], 2, 1, jumpy, vols, DELTA)
    assert np.array_equal(factor(0.25), factors)
    shifts = [
        forward_measure_characteristics(s, 2, 1, jumpy, vols, DELTA)[0] for s in state[:200]
    ]
    assert np.array_equal(shift, shifts)


def test_grid_validation(tenor, curve, vols, brownian):
    model = LmmModel(tenor, curve, vols, brownian)
    with pytest.raises(LiborLabError):
        simulate_exact(model, np.linspace(0.0, 2.0, 5), 10, seed=1)  # step too big
    no_t3 = np.concatenate([np.linspace(0.0, 1.4, 29), np.linspace(1.43, 2.0, 30)])
    with pytest.raises(LiborLabError):
        simulate_exact(model, no_t3, 10, seed=1)  # misses the 1.5 tenor date
    # only simulation_grid(tenor, m) with m >= 4 runs: T_0 .. T_{N-1} = 2.0
    nudged = simulation_grid(tenor, 4).copy()
    nudged[3] = np.nextafter(nudged[3], 1.0)
    for grid in (
        np.linspace(0.0, 2.0, 13),  # 3 steps per period
        simulation_grid(tenor, 4)[:9],  # stops at T_2
        np.linspace(0.0, 2.5, 21),  # runs on to T_N
        nudged,
    ):
        with pytest.raises(LiborLabError, match="simulation_grid"):
            simulate_exact(model, grid, 10, seed=1)
    with pytest.raises(LiborLabError):
        simulation_grid(tenor, 3)


def test_loading_exceeding_moment_bound_rejected(tenor, curve):
    chars = LevyCharacteristics(
        drift_b=0.0, diffusion_c=0.2, jump_intensity=1.0,
        jump_law=DoubleExponentialJumps(0.5, 3.0, 3.0),
    )
    vols = VolatilitySurface.flat(tenor, 1.0)  # sum of loadings reaches 4 > 3
    with pytest.raises(DomainError):
        LmmModel(tenor, curve, vols, chars)


def test_driver_reuse_must_match_grid(tenor, curve, vols, brownian):
    model = LmmModel(tenor, curve, vols, brownian)
    grid = simulation_grid(tenor, 4)
    other = simulate_driver(brownian, simulation_grid(tenor, 8), 16, seed=1)
    with pytest.raises(LiborLabError):
        simulate_exact(model, grid, 16, seed=1, driver=other)


def test_weights_formula():
    w = forward_price_weights(np.array([0.0, 0.04]), DELTA)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(0.02 / 1.02, rel=1e-15)


def test_mc_caplet_refuses_a_nan_fixing(tenor, curve, vols, brownian):
    from liborlab.pricing import mc_caplet

    model = LmmModel(tenor, curve, vols, brownian)
    paths = simulate_exact(model, simulation_grid(tenor, 4), 32, seed=6)
    assert not np.isnan(paths.fixings).any()  # the grid reaches every fixing date
    assert mc_caplet(paths, 3, [0.04], curve)[0].price > 0.0
    paths.fixings[5, 3] = np.nan
    with pytest.raises(LiborLabError, match="NaN"):
        mc_caplet(paths, 3, [0.04], curve)
    assert np.isfinite(mc_caplet(paths, 2, [0.04], curve)[0].price)  # other rates still quote


@pytest.mark.parametrize("scheme", [*_LMM_SCHEMES, "lmm-picard0", "fpm"])
def test_driver_sets_the_path_count(scheme, tenor, curve, vols, brownian):
    # a supplied driver fixes the path count; the n_paths argument is ignored
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(brownian, grid, 20, seed=3)
    model = LmmModel(tenor, curve, vols, brownian)
    if scheme == "fpm":
        paths = simulate_fpm(FpmModel(tenor, curve, vols, brownian), grid, 10, 3, driver=driver)
    elif scheme == "lmm-picard0":
        paths = picard_simulate(model, grid, 10, 3, order=0, driver=driver)
    else:
        paths = _LMM_SCHEMES[scheme](model, grid, 10, 3, driver=driver)
    assert paths.n_paths == 20
    assert paths.fixing_weights.shape == (20, tenor.n)


@pytest.mark.parametrize("scheme", ["lmm-taylor", "fpm"])
def test_driver_for_other_characteristics_refused(scheme, tenor, curve, vols, brownian, jumpy):
    # a driver's increments follow the triplet it was simulated for; a model
    # with another triplet would read increments of the wrong law
    grid = simulation_grid(tenor, 4)
    other_c = LevyCharacteristics(drift_b=0.0, diffusion_c=0.5)
    for model_chars, driver_chars in ((jumpy, brownian), (brownian, other_c)):
        driver = simulate_driver(driver_chars, grid, 16, seed=2)
        with pytest.raises(LiborLabError, match="other driver characteristics"):
            if scheme == "fpm":
                simulate_fpm(FpmModel(tenor, curve, vols, model_chars), grid, 16, 2, driver=driver)
            else:
                model = LmmModel(tenor, curve, vols, model_chars)
                _LMM_SCHEMES[scheme](model, grid, 16, 2, driver=driver)


@pytest.mark.parametrize(
    "law, loading",
    [(DoubleExponentialJumps(0.45, 7.0, 9.0), 1.7), (DoubleExponentialJumps(0.45, 2.0, 3.0), 0.49)],
    ids=["kou-7-9", "kou-2-3"],
)
def test_quadrature_check_rejects_non_finite_rules(law, loading, tenor, curve):
    # loadings close to the up-jump tail rate: the doubling reaches order 256,
    # whose Gauss-Laguerre weights overflow, before any two orders agree
    # within 1e-9, so the model must be refused
    chars = LevyCharacteristics(drift_b=0.0, diffusion_c=0.4, jump_intensity=0.6, jump_law=law)
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(chars.jump_quadrature(256)[1]))
    vols = VolatilitySurface.flat(tenor, loading)
    with pytest.raises(QuadratureError, match="no two finite rules of order 4 to 256"):
        LmmModel(tenor, curve, vols, chars)


def test_jump_order_falls_back_to_the_closest_pair(tenor, curve):
    # a wide jump law: no two rules agree within 1e-13, so the later rule of the
    # closest pair within 1e-9 is kept, here 256 against 128 (their gap is
    # about 4e-11, far from both bounds; 128 against 64 is further apart)
    chars = LevyCharacteristics(
        drift_b=0.0, diffusion_c=0.3, jump_intensity=1.0, jump_law=NormalJumps(0.0, 2.8)
    )
    vols = VolatilitySurface.flat(tenor, 0.6)
    w = forward_price_weights(curve.libors[:, None], DELTA)
    d128, d256 = (
        np.concatenate([_Drift(lam, chars, chars.jump_quadrature(order))(w) for lam in vols.values])
        for order in (128, 256)
    )
    assert 1e-13 < np.max(np.abs(d256 - d128)) <= 1e-9
    assert LmmModel(tenor, curve, vols, chars).quad_order == 256


def test_jump_order_is_chosen_at_build_time(tenor, curve, brownian):
    cfg = parse_config(str(ROOT / "configs" / "verify_all.cfg"))
    assert Context(cfg).lmm.quad_order == 8
    assert LmmModel(tenor, curve, VolatilitySurface.flat(tenor, 0.2), brownian).quad_order == 0


@pytest.mark.parametrize(
    "law, loading",
    [
        (NormalJumps(-0.08, 0.25), 0.2),
        (NormalJumps(0.05, 0.4), 1.0),
        (DoubleExponentialJumps(0.45, 9.0, 7.0), 0.15),
        (DoubleExponentialJumps(0.45, 9.0, 7.0), 1.0),
    ],
)
def test_chosen_jump_order_matches_order_48(law, loading, tenor, curve):
    # the order is chosen at the time-zero weights; the drift at random
    # states must still agree with the fixed order-48 rule within 1e-13
    chars = LevyCharacteristics(drift_b=0.0, diffusion_c=0.4, jump_intensity=0.6, jump_law=law)
    vols = VolatilitySurface.flat(tenor, loading)
    model = LmmModel(tenor, curve, vols, chars)
    assert 4 <= model.quad_order < 48
    chosen, ref = chars.jump_quadrature(model.quad_order), chars.jump_quadrature(48)
    rng = np.random.default_rng(48)
    w = forward_price_weights(0.04 * np.exp(rng.normal(0.0, 0.5, size=(500, tenor.n))), DELTA)
    for lam_row in vols.values:
        err = np.abs(_Drift(lam_row, chars, chosen)(w.T) - _Drift(lam_row, chars, ref)(w.T))
        assert np.max(err) <= 1e-13


def test_min_rate_does_not_hide_nan(tenor, curve, vols, brownian):
    model = LmmModel(tenor, curve, vols, brownian)
    paths = simulate_exact(model, simulation_grid(tenor, 4), 32, seed=6)
    assert paths.min_rate() > 0.0
    paths.fixings[5, 2] = np.nan
    assert np.isnan(paths.min_rate())


def test_density_weight_chain_rule_pathwise(tenor, curve, vols, brownian):
    # dP_{T_m}/dP_{T_{m+1}} * dP_{T_{m+1}}/dP_{T_N} == dP_{T_m}/dP_{T_N} on
    # every path, with the one-step factor F(t, T_m, T_{m+1}) / F(0, T_m, T_{m+1})
    model = LmmModel(tenor, curve, vols, brownian)
    paths = simulate_exact(model, simulation_grid(tenor, 4), 200, seed=8, store_dates=True)
    n = tenor.n
    for d in range(paths.date_values.shape[1]):
        state = paths.date_values[:, d, :]
        assert np.all(paths.density_weight(d, n) == 1.0)  # T_N is the terminal measure
        for m in range(1, n):
            w_m = paths.density_weight(d, m)
            step = (1.0 + DELTA * state[:, m]) / (curve.bond(m) / curve.bond(m + 1))
            assert np.allclose(step * paths.density_weight(d, m + 1), w_m, rtol=1e-12, atol=0.0)
            if d == 0:
                assert np.allclose(w_m, 1.0, rtol=0.0, atol=1e-15)
            if m == d + 1:
                assert np.array_equal(w_m, paths.fixing_weights[:, d])
    with pytest.raises(LiborLabError):
        paths.density_weight(1, 0)
    with pytest.raises(LiborLabError):
        paths.density_weight(-1, 2)
    with pytest.raises(LiborLabError):
        paths.density_weight(n, 2)
    with pytest.raises(LiborLabError):
        simulate_exact(model, simulation_grid(tenor, 4), 8, seed=8).density_weight(1, 2)


@pytest.mark.parametrize(
    "block, n_paths", [(1, 203), (7, 4_099), (2_048, 4_099), (None, lmm._BLOCK_PATHS + 3)]
)
def test_results_do_not_depend_on_the_split(monkeypatch, tenor, curve, vols, jumpy, block, n_paths):
    # the jump drift of a path is the same whichever rows share the call, and
    # the kernel gives the same bits for any block size and thread count
    # (block None is the default size: one full block and a rest of 3 paths)
    size = block or lmm._BLOCK_PATHS
    rng = np.random.default_rng(n_paths)
    w = forward_price_weights(0.04 * np.exp(rng.normal(0.0, 0.5, size=(n_paths, 5))), DELTA)
    rule = jumpy.jump_quadrature(48)
    whole = _Drift(vols.values[0], jumpy, rule)(w.T).T
    blocks = [_Drift(vols.values[0], jumpy, rule)(w[lo : lo + size].T).T for lo in range(0, n_paths, size)]
    assert np.array_equal(whole, np.concatenate(blocks))

    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(jumpy, grid, n_paths, seed=8)
    model = LmmModel(tenor, curve, vols, jumpy)
    fpm = FpmModel(tenor, curve, vols, jumpy)

    def run_all():
        return [
            simulate_exact(model, grid, n_paths, 8, driver=driver),
            taylor_simulate(model, grid, n_paths, 8, driver=driver),
            simulate_fpm(fpm, grid, n_paths, 8, driver=driver),
        ]

    monkeypatch.setattr(lmm, "_BLOCK_PATHS", n_paths)
    monkeypatch.setattr(lmm, "_n_workers", lambda: 1)
    reference = run_all()
    monkeypatch.setattr(lmm, "_BLOCK_PATHS", size)
    monkeypatch.setattr(lmm, "_n_workers", lambda: 2)
    for ref, split in zip(reference, run_all()):
        assert ref.fixings.tobytes() == split.fixings.tobytes()
        assert ref.fixing_weights.tobytes() == split.fixing_weights.tobytes()


SNAPSHOT_CASES = [
    ("brownian", simulate_exact),
    ("brownian", frozen_drift_simulate),
    ("brownian", picard_simulate),  # order 1
    ("brownian", taylor_simulate),
    ("jumpy", simulate_exact),
    ("jumpy", taylor_simulate),
    ("jumpy", simulate_fpm),
]


@pytest.mark.parametrize(
    "law, scheme", SNAPSHOT_CASES, ids=[f"{law}-{s.__name__}" for law, s in SNAPSHOT_CASES]
)
def test_snapshots_do_not_change_a_path_set(request, tenor, curve, vols, law, scheme):
    # with snapshots the kernel maps every rate to L at each tenor date,
    # without them only the one fixing there: the fixings and weights must
    # be the same bits, and each snapshot at its rate's fixing date T_k,
    # k >= 1, must be that fixing (L(0, T_0) is stored as given)
    chars = request.getfixturevalue(law)
    model = (FpmModel if scheme is simulate_fpm else LmmModel)(tenor, curve, vols, chars)
    grid = simulation_grid(tenor, 4)
    driver = simulate_driver(chars, grid, 301, seed=9)
    bare = scheme(model, grid, 301, 9, driver=driver)
    snap = scheme(model, grid, 301, 9, driver=driver, store_dates=True)
    assert bare.date_values is None
    assert snap.fixings.tobytes() == bare.fixings.tobytes()
    assert snap.fixing_weights.tobytes() == bare.fixing_weights.tobytes()
    for k in range(1, tenor.n):
        assert snap.date_values[:, k, k].tobytes() == snap.fixings[:, k].tobytes()


def test_the_kernel_leaves_no_thread_behind(monkeypatch, tenor, curve, vols, brownian):
    # the kernel's worker pool lives for one call; 3 workers is a count no
    # other test asks for, so no pool an earlier test left could hide a leak
    monkeypatch.setattr(lmm, "_n_workers", lambda: 3)
    monkeypatch.setattr(lmm, "_BLOCK_PATHS", 64)  # eight blocks: every worker starts
    before = set(threading.enumerate())
    simulate_exact(LmmModel(tenor, curve, vols, brownian), simulation_grid(tenor, 4), 500, 1)
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("m", [1, 2, 10])
def test_tail_sums_match_the_cumsum_bitwise(m):
    # the row loop adds in the order of the reversed cumsum that _Drift
    # (on (M, paths) blocks) and picard_tables_row (on (M,) rows) used, and
    # keeps the -0.0 that w = 0 times a negative loading puts in the last row
    rng = np.random.default_rng(m)
    lam = rng.normal(0.0, 0.2, size=m)
    lam[-1] = -0.15
    w = forward_price_weights(0.04 * np.exp(rng.normal(0.0, 0.5, size=(m, 257))), DELTA)
    w[:, 0] = 0.0
    wl = w * lam[:, None]
    assert np.signbit(wl[-1, 0])
    block = np.zeros_like(wl)
    block[:-1] = np.cumsum(wl[:0:-1], axis=0)[::-1]
    assert lmm._tail_sums(wl).tobytes() == block.tobytes()
    for col in (wl[:, 0], wl[:, 1]):
        row = np.concatenate([np.cumsum(col[::-1])[::-1][1:], [0.0]])
        assert lmm._tail_sums(col).tobytes() == row.tobytes()


def edge_vols(tenor, case):
    if case == "zero-loadings":
        return VolatilitySurface.flat(tenor, 0.0)
    if case == "zeros-inside-rows":  # rows 0 and 2 end in a zero, row 1 starts at rate 4
        columns = [[0.2], [0.0, 0.0], [0.15, 0.0, 0.2], [0.0, 0.1, 0.0, 0.2]]
        return VolatilitySurface.from_columns(tenor, columns)
    return VolatilitySurface.flat(tenor, 0.2)


@pytest.mark.parametrize("block, n_paths", [(1, 203), (7, 203), (None, lmm._BLOCK_PATHS + 3)])
@pytest.mark.parametrize("case, n", [("n2", 2), ("zero-loadings", 5), ("zeros-inside-rows", 5)])
def test_kernel_edge_shapes_do_not_depend_on_the_split(
    monkeypatch, brownian, jumpy, case, n, block, n_paths
):
    # n = 2 leaves one live row and an empty tail sum on the last interval;
    # zero loadings, everywhere or inside a row, are skipped by the live
    # slice and by the jump loop.  Every scheme must give finite fixings and
    # weights, the same bits for any block size and thread count (block None
    # is the default size: one full block and a rest of 3 paths)
    size = block or lmm._BLOCK_PATHS
    tenor = TenorStructure(delta=DELTA, n=n)
    curve, vols = InitialCurve.flat(tenor, 0.04), edge_vols(tenor, case)
    grid = simulation_grid(tenor, 4)
    runs = []
    for chars in (brownian, jumpy):
        driver = simulate_driver(chars, grid, n_paths, seed=5)
        model = LmmModel(tenor, curve, vols, chars)
        schemes = [simulate_exact, frozen_drift_simulate, taylor_simulate]
        if not chars.has_jumps:
            schemes.append(picard_simulate)
        runs += [(scheme, model, driver) for scheme in schemes]
        runs.append((simulate_fpm, FpmModel(tenor, curve, vols, chars), driver))

    def run_all():
        return [scheme(model, grid, n_paths, 5, driver=driver) for scheme, model, driver in runs]

    monkeypatch.setattr(lmm, "_BLOCK_PATHS", n_paths)
    monkeypatch.setattr(lmm, "_n_workers", lambda: 1)
    reference = run_all()
    monkeypatch.setattr(lmm, "_BLOCK_PATHS", size)
    monkeypatch.setattr(lmm, "_n_workers", lambda: 2)
    for ref, split in zip(reference, run_all()):
        assert np.all(np.isfinite(ref.fixings)) and np.all(np.isfinite(ref.fixing_weights))
        assert ref.fixings.tobytes() == split.fixings.tobytes()
        assert ref.fixing_weights.tobytes() == split.fixing_weights.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    law=st.sampled_from([None, NormalJumps(-0.08, 0.25), DoubleExponentialJumps(0.45, 9.0, 7.0)]),
    loadings=st.lists(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)), min_size=1, max_size=8),
    c0=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_live_columns_match_full_columns(law, loadings, c0, seed):
    # the kernel runs the drift on the columns from the first live loading
    # on; the sliced drift must equal the full drift's columns, bit for bit
    n = len(loadings) + 1
    c0 = min(c0, n - 1)
    lam_row = np.array([0.0, *loadings])
    lam_row[:c0] = 0.0
    chars = LevyCharacteristics(
        drift_b=0.01, diffusion_c=0.4, jump_intensity=0.0 if law is None else 0.6, jump_law=law
    )
    rule = chars.jump_quadrature(8) if chars.has_jumps else None
    rng = np.random.default_rng(seed)
    w = forward_price_weights(0.04 * np.exp(rng.normal(0.0, 0.5, size=(7, n))), DELTA)
    full = _Drift(lam_row, chars, rule)(w.T).T
    assert full[:, c0:].tobytes() == _Drift(lam_row[c0:], chars, rule)(w[:, c0:].T).T.tobytes()
    full_tables = picard_tables_row(w[0], lam_row, chars)
    live_tables = picard_tables_row(w[0, c0:], lam_row[c0:], chars)
    for whole, live in zip(full_tables, live_tables):
        assert whole[c0:].tobytes() == live.tobytes()


def _allocating_drift(w, lam_row, chars, rule):
    # the drift written out on fresh arrays, the tail sums as a cumsum: the
    # reference for the kernel's drift, which reuses its block's buffers.
    # The quadrature weights sit in the exp table, and each rate's jump
    # integral is one einsum contraction over the nodes (a plain sum on the
    # last live rate, whose tilt product is 1)
    c, lam = chars.diffusion_c, lam_row[:, None]
    wl = w * lam
    tail = np.zeros_like(wl)
    tail[:-1] = np.cumsum(wl[:0:-1], axis=0)[::-1]
    drift = -lam * chars.drift_b - 0.5 * c * lam**2 - c * lam * tail
    if rule is None:
        return drift
    nodes, weights = rule
    em1 = np.exp(np.outer(lam_row, nodes)) - 1.0
    w_em1 = em1 * weights
    prod = None
    jump = np.zeros_like(drift)
    for k in range(len(lam_row) - 1, -1, -1):
        if lam_row[k] != 0.0:
            integral = w_em1[k].sum() if prod is None else np.einsum("pq,q->p", prod, w_em1[k])
            jump[k] = chars.jump_intensity * integral - lam_row[k] * chars.jump_mean_rate
            tilt = 1.0 + w[k, :, None] * em1[k]
            prod = tilt if prod is None else prod * tilt
    return drift - jump


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    law=st.sampled_from([None, NormalJumps(-0.08, 0.25), DoubleExponentialJumps(0.45, 9.0, 7.0)]),
    loadings=st.lists(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_drift_in_reused_buffers_matches_fresh_arrays(law, loadings, seed):
    # the kernel keeps one _Work per block and writes every step's drift into
    # it; whatever an earlier step left there, the bits are the reference's
    chars = LevyCharacteristics(
        drift_b=0.01, diffusion_c=0.4, jump_intensity=0.0 if law is None else 0.6, jump_law=law
    )
    rule = chars.jump_quadrature(8) if chars.has_jumps else None
    lam_row = np.array(loadings)
    drift = lmm._Drift(lam_row, chars, rule)
    work = lmm._Work.empty(len(lam_row), 7, 0 if rule is None else len(rule[0]))
    for buf in (work.rows, work.prod, work.tmp):
        buf.fill(np.nan)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        w = forward_price_weights(0.04 * np.exp(rng.normal(0.0, 0.5, size=(len(lam_row), 7))), DELTA)
        expected = _allocating_drift(w, lam_row, chars, rule)
        assert drift(w, work.drift, work).tobytes() == expected.tobytes()
        assert drift(w).tobytes() == expected.tobytes()


def _drift_by_node(w, lam_row, chars, rule):
    # the drift written out per path, rate and node in Python floats:
    # -lambda_k b - c lambda_k^2 / 2 - c lambda_k sum_{l>k} w_l lambda_l
    # - intensity sum_q p_q (e^{lambda_k x_q} - 1) prod_{l>k} (1 + w_l (e^{lambda_l x_q} - 1))
    # + lambda_k intensity E[x]
    nodes, weights = rule
    c, m = chars.diffusion_c, len(lam_row)
    out = np.empty(w.shape)
    for p in range(w.shape[1]):
        for k, lam in enumerate(lam_row):
            tail = sum(w[l, p] * lam_row[l] for l in range(k + 1, m))
            integral = 0.0
            for x, q in zip(nodes, weights):
                tilt = 1.0
                for l in range(k + 1, m):
                    tilt *= 1.0 + w[l, p] * math.expm1(lam_row[l] * x)
                integral += q * math.expm1(lam * x) * tilt
            jump = chars.jump_intensity * integral - lam * chars.jump_mean_rate
            out[k, p] = -lam * chars.drift_b - 0.5 * c * lam**2 - c * lam * tail - jump
    return out


@pytest.mark.parametrize("order", [8, 48, 256])
@pytest.mark.parametrize("n_paths", [9, 1])
def test_jump_drift_matches_the_formula_node_by_node(order, n_paths):
    # the contraction over the nodes, with the weights folded into the exp
    # table, sums in another order than the loop: both stay within 1e-14 of
    # the drift's scale (8.4e-16 measured at order 8), on a block and on the
    # (M, 1) column the frozen and Taylor tables use
    chars = LevyCharacteristics(
        drift_b=0.01, diffusion_c=0.4, jump_intensity=0.6, jump_law=NormalJumps(-0.08, 0.25)
    )
    rule = chars.jump_quadrature(order)
    lam_row = np.array([0.0, 0.3, -0.2, 0.25, 0.0, 0.4])
    rng = np.random.default_rng(order + n_paths)
    w = forward_price_weights(0.04 * np.exp(rng.normal(0.0, 0.5, size=(len(lam_row), n_paths))), DELTA)
    expected = _drift_by_node(w, lam_row, chars, rule)
    assert np.max(np.abs(_Drift(lam_row, chars, rule)(w) - expected)) <= 1e-14 * np.max(np.abs(expected))
