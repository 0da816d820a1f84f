import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from liborlab.errors import DomainError, LiborLabError
from liborlab.levy import (
    DoubleExponentialJumps,
    LevyCharacteristics,
    NormalJumps,
    shifted_compensator_factor,
    simulate_driver,
)


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


def test_deterministic_driver_all_zero():
    chars = LevyCharacteristics(drift_b=0.0, diffusion_c=0.0)
    paths = simulate_driver(chars, np.linspace(0, 1, 5), 7, seed=1)
    assert np.all(paths.increments(chars) == 0.0)


def test_same_seed_bit_identical(jump_kou):
    grid = np.linspace(0.0, 2.0, 17)
    a = simulate_driver(jump_kou, grid, 64, seed=123)
    b = simulate_driver(jump_kou, grid, 64, seed=123)
    assert np.array_equal(a.dw, b.dw)
    assert np.array_equal(a.jump_sums, b.jump_sums)


def test_mean_matches_drift(jump_normal):
    # the jump part is compensated, so E[H_T] = b T
    grid = np.linspace(0.0, 2.0, 9)
    paths = simulate_driver(jump_normal, grid, 100_000, seed=5)
    h_t = paths.cumulative(jump_normal)[-1]
    se = h_t.std(ddof=1) / math.sqrt(len(h_t))
    assert abs(h_t.mean() - jump_normal.mean(2.0)) <= 3.0 * se


@pytest.mark.parametrize("z", [-0.8, 0.5, 1.2])
def test_exponential_martingale(jump_normal, z):
    grid = np.linspace(0.0, 2.0, 9)
    paths = simulate_driver(jump_normal, grid, 100_000, seed=11)
    h = paths.cumulative(jump_normal)
    for idx, t in [(4, 1.0), (8, 2.0)]:
        m = np.exp(z * h[idx] - t * jump_normal.cumulant(z))
        se = m.std(ddof=1) / math.sqrt(len(m))
        assert abs(m.mean() - 1.0) <= 3.0 * se


def test_increment_stationarity(jump_kou):
    grid = np.linspace(0.0, 2.0, 9)
    paths = simulate_driver(jump_kou, grid, 100_000, seed=17)
    h = paths.cumulative(jump_kou)
    first = h[4] - h[0]
    second = h[8] - h[4]
    for stat in (np.mean, np.var):
        a, b = stat(first), stat(second)
        se = math.sqrt(np.var(first) + np.var(second)) / math.sqrt(len(first))
        scale = 3.0 * se if stat is np.mean else 0.05 * max(abs(a), abs(b))
        assert abs(a - b) <= max(scale, 3.0 * se)


def test_antithetic_pairs_mirror_brownian(jump_normal):
    grid = np.linspace(0.0, 1.0, 5)
    paths = simulate_driver(jump_normal, grid, 64, seed=3, antithetic=True)
    assert np.array_equal(paths.dw[:, :32], -paths.dw[:, 32:])
    assert np.array_equal(paths.jump_sums[:, :32], paths.jump_sums[:, 32:])
    with pytest.raises(LiborLabError):
        simulate_driver(jump_normal, grid, 63, seed=3, antithetic=True)


def test_shifted_compensator_factor_neutral(jump_kou):
    assert shifted_compensator_factor(jump_kou, 0.0, 0.37) == 1.0
    assert shifted_compensator_factor(jump_kou, 1.3, 0.0) == 1.0
    with pytest.raises(DomainError):
        shifted_compensator_factor(jump_kou, 6.5, 0.1)


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
        # the factor itself is the plain tilt
        assert shifted_compensator_factor(jump_kou, lam_sum, 0.3) == pytest.approx(
            math.exp(0.3 * lam_sum), rel=1e-15
        )


def _plain_driver(chars, grid, n_paths, seed):
    # the sampling formula written out with whole-array temporaries
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dts = np.diff(grid)
    dw = rng.normal(0.0, np.sqrt(dts)[:, None], size=(len(dts), n_paths))
    counts = rng.poisson(chars.jump_intensity * dts[:, None], size=dw.shape)
    m = int(counts.max())
    shape = (*dw.shape, m)
    law = chars.jump_law
    up = rng.random(size=shape) < law.p
    mag_up = rng.exponential(1.0 / law.alpha_pos, size=shape)
    mag_dn = rng.exponential(1.0 / law.alpha_neg, size=shape)
    sizes = np.where(up, mag_up, -mag_dn)
    return dw, np.sum(sizes * (np.arange(m) < counts[..., None]), axis=2), m


@pytest.mark.parametrize("seed", [4, 4711])
def test_driver_sampling_matches_plain_formula_bitwise(jump_kou, seed):
    grid = np.linspace(0.0, 2.0, 17)
    dw, jump_sums, _ = _plain_driver(jump_kou, grid, 5_001, seed)
    paths = simulate_driver(jump_kou, grid, 5_001, seed)
    assert paths.dw.tobytes() == dw.tobytes()
    assert paths.jump_sums.tobytes() == jump_sums.tobytes()


def test_driver_jump_sampling_memory(jump_kou):
    # jump sampling holds two float buffers of the (steps x paths x max jumps)
    # shape at a time; the whole-array formula peaks at about four and a half
    grid = np.linspace(0.0, 2.0, 9)
    m = _plain_driver(jump_kou, grid, 40_000, 8)[2]
    cube_bytes = 8 * 40_000 * m * 8
    tracemalloc.start()
    try:
        simulate_driver(jump_kou, grid, 40_000, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * cube_bytes
