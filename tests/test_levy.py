import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from liborlab.errors import DomainError, LiborLabError
from liborlab.forward_price import FpmModel
from liborlab.levy import (
    DoubleExponentialJumps,
    LevyCharacteristics,
    NormalJumps,
    simulate_driver,
)
from liborlab.tenor import InitialCurve, TenorStructure
from liborlab.volatility import VolatilitySurface


def kou_density(law, x):
    if x > 0:
        return law.p * law.alpha_pos * math.exp(-law.alpha_pos * x)
    if x < 0:
        return (1.0 - law.p) * law.alpha_neg * math.exp(law.alpha_neg * x)
    return 0.0


def normal_log_density(law, x):
    return -0.5 * ((x - law.mean) / law.sd) ** 2 - math.log(law.sd * math.sqrt(2 * math.pi))


@pytest.fixture
def jump_normal():
    return LevyCharacteristics(
        drift_b=0.01, diffusion_c=0.5, jump_intensity=0.8, jump_law=NormalJumps(-0.05, 0.2)
    )


@pytest.fixture
def jump_kou():
    return LevyCharacteristics(
        drift_b=0.0,
        diffusion_c=0.3,
        jump_intensity=1.5,
        jump_law=DoubleExponentialJumps(0.4, 8.0, 6.0),
    )


def test_brownian_cumulant_is_quadratic():
    chars = LevyCharacteristics(drift_b=0.0, diffusion_c=1.0)
    for z in (-2.0, -0.5, 0.3, 1.7):
        assert chars.cumulant(z) == pytest.approx(0.5 * z * z, rel=1e-15)


def test_cumulant_vanishes_at_zero(jump_normal, jump_kou):
    assert jump_normal.cumulant(0.0) == 0.0
    assert jump_kou.cumulant(0.0) == 0.0


def test_cumulant_matches_quadrature(jump_normal, jump_kou):
    # adaptive quadrature oracle for the jump integral
    for chars in (jump_normal, jump_kou):
        law = chars.jump_law
        if isinstance(law, NormalJumps):
            # exp(z x) * density through the summed exponent to dodge inf * 0
            def f(x, z):
                logd = normal_log_density(law, x)
                return math.exp(z * x + logd) - (1.0 + z * x) * math.exp(logd)

        else:
            # fold the exponential tails together so neither factor overflows
            def f(x, z):
                if x > 0:
                    a = law.alpha_pos
                    return law.p * a * (
                        math.exp((z - a) * x) - (1.0 + z * x) * math.exp(-a * x)
                    )
                if x < 0:
                    a = law.alpha_neg
                    return (1.0 - law.p) * a * (
                        math.exp((z + a) * x) - (1.0 + z * x) * math.exp(a * x)
                    )
                return 0.0

        for z in (-1.5, 0.7, 2.0):
            integral = (
                quad(f, -np.inf, 0.0, args=(z,), limit=400)[0]
                + quad(f, 0.0, np.inf, args=(z,), limit=400)[0]
            )
            expected = (
                chars.drift_b * z
                + 0.5 * chars.diffusion_c * z * z
                + chars.jump_intensity * integral
            )
            assert chars.cumulant(z) == pytest.approx(expected, abs=1e-8)


def test_kou_moment_domain_enforced(jump_kou):
    bound = jump_kou.exp_moment_bound
    assert bound == 6.0
    with pytest.raises(DomainError):
        jump_kou.cumulant(6.0)
    with pytest.raises(DomainError):
        jump_kou.cumulant(-7.0)
    jump_kou.cumulant(5.9)  # inside the open domain


def test_kou_cumulant_continues_off_the_real_axis(jump_kou):
    # the jump-size poles 8 and -6 are real: past them, off the real axis,
    # the cumulant is the rational closed form; on the real axis it raises
    law = jump_kou.jump_law
    for z in (9.0 - 2.0j, -7.5 + 1e-3j, 20.0 - 40.0j):
        mgf = 0.4 * 8.0 / (8.0 - z) + 0.6 * 6.0 / (6.0 + z)
        assert law.mgf(np.array([z]))[0] == pytest.approx(mgf, rel=1e-14)
        expected = 0.5 * 0.3 * z * z + 1.5 * (mgf - 1.0 - z * law.jump_mean())
        assert jump_kou.cumulant(np.array([z]))[0] == pytest.approx(expected, rel=1e-14)
    for z in (9.0, complex(9.0, 0.0)):
        with pytest.raises(DomainError):
            law.mgf(np.array([z]))
        with pytest.raises(DomainError):
            jump_kou.cumulant(np.array([z]))


def test_deterministic_driver_all_zero():
    chars = LevyCharacteristics(drift_b=0.0, diffusion_c=0.0)
    paths = simulate_driver(chars, np.linspace(0, 1, 5), 7, seed=1)
    assert np.all(paths.dh == 0.0)


def test_same_seed_bit_identical(jump_kou):
    grid = np.linspace(0.0, 2.0, 17)
    a = simulate_driver(jump_kou, grid, 64, seed=123)
    b = simulate_driver(jump_kou, grid, 64, seed=123)
    assert a.dh.tobytes() == b.dh.tobytes()
    assert a.chars == b.chars == jump_kou


def driver_path(paths):
    """H on the grid, shape (len(grid), n_paths), starting at 0."""
    h = np.zeros((len(paths.grid), paths.n_paths))
    np.cumsum(paths.dh, axis=0, out=h[1:])
    return h


def test_mean_matches_drift(jump_normal):
    # the jump part is compensated, so E[H_T] = b T
    grid = np.linspace(0.0, 2.0, 9)
    paths = simulate_driver(jump_normal, grid, 100_000, seed=5)
    h_t = driver_path(paths)[-1]
    se = h_t.std(ddof=1) / math.sqrt(len(h_t))
    assert abs(h_t.mean() - jump_normal.mean(2.0)) <= 3.0 * se


@pytest.mark.parametrize("z", [-0.8, 0.5, 1.2])
def test_exponential_martingale(jump_normal, z):
    grid = np.linspace(0.0, 2.0, 9)
    paths = simulate_driver(jump_normal, grid, 100_000, seed=11)
    h = driver_path(paths)
    for idx, t in [(4, 1.0), (8, 2.0)]:
        m = np.exp(z * h[idx] - t * jump_normal.cumulant(z))
        se = m.std(ddof=1) / math.sqrt(len(m))
        assert abs(m.mean() - 1.0) <= 3.0 * se


def test_increment_stationarity(jump_kou):
    grid = np.linspace(0.0, 2.0, 9)
    paths = simulate_driver(jump_kou, grid, 100_000, seed=17)
    h = driver_path(paths)
    first = h[4] - h[0]
    second = h[8] - h[4]
    for stat in (np.mean, np.var):
        a, b = stat(first), stat(second)
        se = math.sqrt(np.var(first) + np.var(second)) / math.sqrt(len(first))
        scale = 3.0 * se if stat is np.mean else 0.05 * max(abs(a), abs(b))
        assert abs(a - b) <= max(scale, 3.0 * se)


def test_antithetic_pairs_mirror_brownian(jump_normal):
    # the first half is the plain draw; the second negates its Brownian part
    # and shares its jumps, so the halves differ by 2 sqrt(c) dW alone (the
    # compensated jump and drift terms cancel to round-off), and a driver
    # with no drift and no jumps mirrors bit for bit
    grid = np.linspace(0.0, 1.0, 5)
    paths = simulate_driver(jump_normal, grid, 64, seed=3, antithetic=True)
    plain = simulate_driver(jump_normal, grid, 32, seed=3)
    assert paths.dh[:, :32].tobytes() == plain.dh.tobytes()
    dw = _plain_counts(jump_normal, grid, 32, seed=3)[1]
    spread = paths.dh[:, :32] - paths.dh[:, 32:] - 2.0 * math.sqrt(jump_normal.diffusion_c) * dw
    assert np.max(np.abs(spread)) < 1e-14
    brownian = LevyCharacteristics(drift_b=0.0, diffusion_c=0.5)
    mirrored = simulate_driver(brownian, grid, 64, seed=3, antithetic=True).dh
    assert mirrored[:, :32].tobytes() == (-mirrored[:, 32:]).tobytes()
    with pytest.raises(LiborLabError):
        simulate_driver(jump_normal, grid, 63, seed=3, antithetic=True)


def fpm_tilt_exponent(chars, lambda_sum):
    """Exponent of the compensator tilt x -> e^{x Lambda_2} under the T_2
    forward measure of a forward-price model whose loading tail is ``lambda_sum``."""
    tenor = TenorStructure(delta=0.5, n=3)
    vols = VolatilitySurface.from_columns(tenor, [[0.0], [lambda_sum, lambda_sum]])
    model = FpmModel(tenor, InitialCurve.flat(tenor, 0.04), vols, chars)
    return model.loading_tails[0, 2]


def test_shifted_compensator_factor_neutral(jump_kou):
    # a zero loading tail leaves the compensator untilted
    assert fpm_tilt_exponent(jump_kou, 0.0) == 0.0
    assert fpm_tilt_exponent(jump_kou, 1.3) == 1.3
    # a tail outside the moment domain is refused when the model is built
    with pytest.raises(DomainError):
        fpm_tilt_exponent(jump_kou, 6.5)


def test_tilted_law_integrates_to_mgf(jump_kou):
    # integrating the tilt against the jump density gives the jump mgf
    law = jump_kou.jump_law
    for lam_sum in (-1.0, 0.5, 2.5):

        def f(x):
            # e^{lam x} * density, folded into one exponent per side
            if x > 0:
                return law.p * law.alpha_pos * math.exp((lam_sum - law.alpha_pos) * x)
            if x < 0:
                return (1.0 - law.p) * law.alpha_neg * math.exp((lam_sum + law.alpha_neg) * x)
            return 0.0

        integral = quad(f, -np.inf, 0.0, limit=400)[0] + quad(f, 0.0, np.inf, limit=400)[0]
        assert integral == pytest.approx(float(law.mgf(lam_sum)), abs=1e-8)


def _plain_counts(chars, grid, n_paths, seed):
    # the Brownian increments, then the Poisson jump counts, from one generator
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dts = np.diff(grid)
    dw = rng.normal(0.0, np.sqrt(dts)[:, None], size=(len(dts), n_paths))
    return rng, dw, rng.poisson(chars.jump_intensity * dts[:, None], size=dw.shape)


def _composed(chars, grid, dw, jump_sums=None):
    # dH from its parts in the library's order: sqrt(c) dW, plus b dt, plus
    # the jump sums, minus the compensator (the last two for a jump driver)
    dts = np.diff(grid)[:, None]
    dh = math.sqrt(chars.diffusion_c) * dw
    dh += chars.drift_b * dts
    if chars.has_jumps:
        dh += jump_sums
        dh -= chars.jump_mean_rate * dts
    return dh


def _plain_sums(chars, grid, n_paths, seed):
    # the plain stream's Brownian increments, counts and per-cell jump sums
    rng, dw, counts = _plain_counts(chars, grid, n_paths, seed)
    jump_sums = np.zeros(dw.shape)
    jump_sums[counts > 0] = chars.jump_law.sum_sample(rng, counts[counts > 0])
    return dw, counts, jump_sums


def _plain_driver(chars, grid, n_paths, seed):
    # the sampling formula written out: after the counts every jump is drawn
    # on its own into a (steps x paths x most jumps) cube, masked and summed
    rng, dw, counts = _plain_counts(chars, grid, n_paths, seed)
    shape = (*dw.shape, int(counts.max()))
    law = chars.jump_law
    if isinstance(law, NormalJumps):
        sizes = rng.normal(law.mean, law.sd, size=shape)
    else:
        up = rng.random(size=shape) < law.p
        mag_up = rng.exponential(1.0 / law.alpha_pos, size=shape)
        mag_dn = rng.exponential(1.0 / law.alpha_neg, size=shape)
        sizes = np.where(up, mag_up, -mag_dn)
    return dw, counts, np.sum(sizes * (np.arange(shape[2]) < counts[..., None]), axis=2)


def jump_variance(law):
    if isinstance(law, NormalJumps):
        return law.sd**2
    second = 2.0 * law.p / law.alpha_pos**2 + 2.0 * (1.0 - law.p) / law.alpha_neg**2
    return second - law.jump_mean() ** 2


@pytest.mark.parametrize("seed", [4, 4711])
def test_driver_sampling_matches_plain_formula_bitwise(jump_kou, seed):
    # the Brownian increments and the Poisson counts come first and keep
    # every bit; a cell moves off its jump-free increment exactly when it
    # drew a jump
    grid = np.linspace(0.0, 2.0, 17)
    dw, counts, jump_sums = _plain_sums(jump_kou, grid, 5_001, seed)
    paths = simulate_driver(jump_kou, grid, 5_001, seed)
    assert paths.dh.tobytes() == _composed(jump_kou, grid, dw, jump_sums).tobytes()
    no_jumps = _composed(jump_kou, grid, dw, np.zeros(dw.shape))
    assert np.array_equal(paths.dh != no_jumps, counts > 0)


@pytest.mark.parametrize("jumps, antithetic", [(False, False), (True, False), (True, True)])
def test_driver_stream_matches_rng_normal_bitwise(jump_normal, jumps, antithetic):
    # dH is composed from rng.normal(0, sqrt(dt)) of a fresh generator, bit
    # for bit on an uneven grid, and from the jumps drawn after it from the
    # same stream, so the compare prices keep their committed reference; the
    # antithetic half negates dW and shares the jump sums
    chars = jump_normal if jumps else LevyCharacteristics(drift_b=0.01, diffusion_c=0.5)
    grid = np.array([0.0, 0.1, 0.25, 0.5, 1.0, 2.0])
    if jumps:
        dw, _, jump_sums = _plain_sums(chars, grid, 2_001, seed=29)
    else:
        dw, jump_sums = _plain_counts(chars, grid, 2_001, seed=29)[1], None
    if antithetic:
        dw = np.concatenate([dw, -dw], axis=1)
        jump_sums = np.concatenate([jump_sums, jump_sums], axis=1)
    paths = simulate_driver(chars, grid, dw.shape[1], seed=29, antithetic=antithetic)
    assert paths.chars == chars and paths.antithetic == antithetic
    assert paths.dh.tobytes() == _composed(chars, grid, dw, jump_sums).tobytes()


@pytest.mark.parametrize("intensity", [0.8, 150.0])
@pytest.mark.parametrize("law", [NormalJumps(-0.05, 0.2), DoubleExponentialJumps(0.4, 8.0, 6.0)])
def test_driver_counts_per_step_match_the_broadcast_call(law, intensity):
    # the driver draws each step's counts with a scalar intensity; that is
    # the stream of one broadcast call, so the counts and the jump sums drawn
    # after them keep every bit.  At intensity 150 the steps' means straddle
    # 10, where numpy switches Poisson samplers
    chars = LevyCharacteristics(diffusion_c=0.3, jump_intensity=intensity, jump_law=law)
    grid = np.array([0.0, 0.05, 0.25, 0.5, 1.0])
    dw, counts, jump_sums = _plain_sums(chars, grid, 3_001, seed=61)
    paths = simulate_driver(chars, grid, 3_001, seed=61)
    no_jumps = _composed(chars, grid, dw, np.zeros(dw.shape))
    assert np.array_equal(paths.dh != no_jumps, counts > 0)
    assert paths.dh.tobytes() == _composed(chars, grid, dw, jump_sums).tobytes()


@pytest.mark.parametrize("law", [NormalJumps(-0.05, 0.2), DoubleExponentialJumps(0.4, 8.0, 6.0)])
def test_driver_jump_sums_follow_exact_law(law):
    # intensity 16 on steps of 1/8 puts about two jumps in a cell, so every
    # k = 1..4 has thousands of cells; given its count k a cell's sum has
    # mean k E[J] and variance k Var[J], and the same law as the plain
    # formula's masked cube (drawn from the next seed, so independent).  The
    # sums come from the plain stream, which the driver's dH matches bitwise
    chars = LevyCharacteristics(diffusion_c=0.3, jump_intensity=16.0, jump_law=law)
    grid = np.linspace(0.0, 2.0, 17)
    seed = 20240
    dw, counts, sums = _plain_sums(chars, grid, 2_000, seed)
    assert simulate_driver(chars, grid, 2_000, seed).dh.tobytes() == _composed(
        chars, grid, dw, sums).tobytes()
    _, ref_counts, ref_sums = _plain_driver(chars, grid, 2_000, seed + 1)
    for k in range(1, 5):
        x, ref = sums[counts == k], ref_sums[ref_counts == k]
        assert len(x) > 2_000 and len(ref) > 2_000
        mean_se = math.sqrt(k * jump_variance(law) / len(x))
        assert abs(x.mean() - k * law.jump_mean()) <= 4.0 * mean_se
        dev2 = (x - x.mean()) ** 2
        var_se = dev2.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.var(ddof=1) - k * jump_variance(law)) <= 4.0 * var_se
        assert ks_2samp(x, ref).pvalue > 1e-3


def test_driver_jump_sampling_memory(jump_kou):
    # the driver holds a few (steps x paths) arrays at a time, however many
    # jumps its busiest cell draws (9.1 units at intensity 28 with numpy 2.4);
    # a cube of single jump sizes needed 10.1 units on the Kou fixture and 27
    # once the busiest cell held 22 jumps
    grid = np.linspace(0.0, 2.0, 9)
    busy = LevyCharacteristics(diffusion_c=0.3, jump_intensity=28.0, jump_law=jump_kou.jump_law)
    unit = 8 * 40_000 * 8
    for chars, most in ((jump_kou, range(2, 10)), (busy, range(16, 25))):
        assert _plain_counts(chars, grid, 40_000, 8)[2].max() in most
        tracemalloc.start()
        try:
            simulate_driver(chars, grid, 40_000, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * unit


def test_driver_jump_sampling_holds_one_cube(jump_kou):
    # the driver never builds the (steps x paths x most jumps) cube of single
    # jump sizes, so its peak stays below one such cube on the Kou fixture
    grid = np.linspace(0.0, 2.0, 9)
    m = int(_plain_counts(jump_kou, grid, 40_000, 8)[2].max())
    cube_bytes = 8 * 40_000 * m * 8
    tracemalloc.start()
    try:
        simulate_driver(jump_kou, grid, 40_000, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube_bytes


def test_driver_simulates_two_hundred_jumps_a_step(jump_normal, jump_kou):
    # no cap on the jumps in a step: about 200 expected jumps still simulate;
    # adding back the compensator leaves sqrt(c) dW (mean 0) plus the jump sum
    grid = np.linspace(0.0, 1.0, 5)
    for fixture in (jump_normal, jump_kou):
        chars = LevyCharacteristics(
            diffusion_c=fixture.diffusion_c, jump_intensity=800.0, jump_law=fixture.jump_law
        )
        sums = simulate_driver(chars, grid, 20_000, seed=31).dh + chars.jump_mean_rate * 0.25
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - 200.0 * chars.jump_law.jump_mean()) <= 4.0 * se


@pytest.mark.parametrize("field", ["drift_b", "diffusion_c", "jump_intensity"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_characteristics_refused(field, value):
    # a NaN intensity compares false with 0, so it would pass as "no jumps"
    with pytest.raises(LiborLabError, match="must be finite"):
        LevyCharacteristics(**{field: value}, jump_law=NormalJumps(-0.05, 0.2))


@pytest.mark.parametrize("law, args", [
    (NormalJumps, (0.0, math.nan)),
    (DoubleExponentialJumps, (0.5, math.nan, 7.0)),
    (DoubleExponentialJumps, (0.5, 9.0, math.nan)),
    (DoubleExponentialJumps, (math.nan, 9.0, 7.0)),
])
def test_jump_law_refuses_nan(law, args):
    # NaN compares false with every bound: each check asks that the range holds
    with pytest.raises(LiborLabError):
        law(*args)
