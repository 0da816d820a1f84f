"""Terminal-measure driver: Brownian part plus compound-Poisson jumps.

The driver H is a Levy process with canonical decomposition

    H_t = b * t + sqrt(c) * W_t + (sum of jumps up to t  -  t * intensity * E[jump]),

i.e. the jump part is compensated, so H is a martingale plus the linear
drift b * t.  Its cumulant (Levy-Khintchine exponent with the jump
integrand e^{zx} - 1 - zx) is

    kappa(z) = b z + c z^2 / 2 + intensity * (m(z) - 1 - z * E[jump]),

where m is the moment generating function of the jump-size law, and
exp(z H_t - t kappa(z)) is a martingale for z inside the moment domain.

Finite activity keeps path simulation exact: Gaussian increments, Poisson
jump counts and, per step, the exact law of the sum of its jumps.  Loadings
in this package are piecewise constant on the simulation grid, so that sum
is a sufficient statistic and is what ``DriverPathSet`` stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, LiborLabError


@dataclass(frozen=True)
class NormalJumps:
    """Gaussian jump sizes, mean ``mean`` and standard deviation ``sd``."""

    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0.0:
            raise LiborLabError(f"jump-size sd must be positive, got {self.sd}")

    def mgf(self, z):
        return np.exp(z * self.mean + 0.5 * z * z * self.sd**2)

    def exp_moment_bound(self) -> float:
        return math.inf

    def jump_mean(self) -> float:
        return self.mean

    def quadrature(self, order: int):
        """Nodes and probability weights integrating the jump-size density."""
        h, w = np.polynomial.hermite.hermgauss(order)
        return self.mean + math.sqrt(2.0) * self.sd * h, w / math.sqrt(math.pi)

    def sum_sample(self, rng: np.random.Generator, counts):
        """Sum of ``counts`` i.i.d. jump sizes, one draw per entry."""
        return rng.normal(counts * self.mean, self.sd * np.sqrt(counts))


@dataclass(frozen=True)
class DoubleExponentialJumps:
    """Two-sided exponential (Kou) jump sizes.

    With probability ``p`` the jump is +Exp(alpha_pos), otherwise
    -Exp(alpha_neg).  Exponential moments exist for |z| < min(alpha_pos,
    alpha_neg).
    """

    p: float
    alpha_pos: float
    alpha_neg: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise LiborLabError(f"up-jump probability must lie in [0,1], got {self.p}")
        if not (self.alpha_pos > 0.0 and self.alpha_neg > 0.0):
            raise LiborLabError("jump tail rates must be positive")

    def mgf(self, z):
        # the poles are real: off the real axis this is the analytic continuation
        z = np.asarray(z)
        zr = np.real(z)[np.imag(z) == 0.0]
        if np.any(zr >= self.alpha_pos) or np.any(zr <= -self.alpha_neg):
            raise DomainError(
                f"jump-size mgf diverges at z={zr}",
                max_admissible=self.exp_moment_bound(),
            )
        return self.p * self.alpha_pos / (self.alpha_pos - z) + (
            1.0 - self.p
        ) * self.alpha_neg / (self.alpha_neg + z)

    def exp_moment_bound(self) -> float:
        return min(self.alpha_pos, self.alpha_neg)

    def jump_mean(self) -> float:
        return self.p / self.alpha_pos - (1.0 - self.p) / self.alpha_neg

    def quadrature(self, order: int):
        """Two Gauss-Laguerre half-lines glued at the origin."""
        y, w = np.polynomial.laguerre.laggauss(order)
        nodes = np.concatenate([y / self.alpha_pos, -y / self.alpha_neg])
        weights = np.concatenate([self.p * w, (1.0 - self.p) * w])
        return nodes, weights

    def sum_sample(self, rng: np.random.Generator, counts):
        """Sum of ``counts`` i.i.d. jump sizes, Binomial(counts, p) of them up (Kou 2002)."""
        up = rng.binomial(counts, self.p)
        # a sum of exponentials is a gamma variate; numpy's gamma is 0 at shape 0
        return rng.gamma(up, 1.0 / self.alpha_pos) - rng.gamma(counts - up, 1.0 / self.alpha_neg)


@dataclass(frozen=True)
class LevyCharacteristics:
    """Driver triplet under the terminal measure.

    Attributes
    ----------
    drift_b : float
        Linear drift per year of the canonical decomposition.
    diffusion_c : float
        Variance rate of the continuous martingale part (>= 0).
    jump_intensity : float
        Jumps per year (>= 0); zero means a Brownian driver.
    jump_law : NormalJumps or DoubleExponentialJumps, optional
        Jump-size distribution; required when the intensity is positive.
    """

    drift_b: float = 0.0
    diffusion_c: float = 1.0
    jump_intensity: float = 0.0
    jump_law: Optional[object] = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.drift_b, self.diffusion_c, self.jump_intensity))):
            raise LiborLabError("driver drift, diffusion and jump intensity must be finite")
        if self.diffusion_c < 0.0:
            raise LiborLabError(f"diffusion coefficient must be >= 0, got {self.diffusion_c}")
        if self.jump_intensity < 0.0:
            raise LiborLabError(f"jump intensity must be >= 0, got {self.jump_intensity}")
        if self.jump_intensity > 0.0 and self.jump_law is None:
            raise LiborLabError("positive jump intensity requires a jump law")

    @property
    def has_jumps(self) -> bool:
        return self.jump_intensity > 0.0 and self.jump_law is not None

    @property
    def exp_moment_bound(self) -> float:
        """Largest z* with finite exponential moments on |z| < z*."""
        if not self.has_jumps:
            return math.inf
        return self.jump_law.exp_moment_bound()

    @property
    def jump_mean_rate(self) -> float:
        """Compensator drift intensity * E[jump] per year."""
        if not self.has_jumps:
            return 0.0
        return self.jump_intensity * self.jump_law.jump_mean()

    def check_domain(self, z) -> None:
        """Reject real z with |z| at or past the bound (complex z: continuation)."""
        bound = self.exp_moment_bound
        z = np.asarray(z)
        zr = np.abs(np.real(z))[np.imag(z) == 0.0]
        if np.any(zr >= bound):
            raise DomainError(
                f"|z| = {float(np.max(zr))} outside the moment domain (bound {bound})",
                max_admissible=bound,
            )

    def cumulant(self, z):
        """kappa(z) for real z inside the domain or complex z off the real axis."""
        self.check_domain(z)
        z = np.asarray(z)
        out = self.drift_b * z + 0.5 * self.diffusion_c * z * z
        if self.has_jumps:
            out = out + self.jump_intensity * (
                self.jump_law.mgf(z) - 1.0 - z * self.jump_law.jump_mean()
            )
        return out if out.ndim else out[()]

    def mean(self, t: float) -> float:
        """E[H_t]; the jump part is compensated, so only the drift remains."""
        return self.drift_b * t

    def jump_quadrature(self, order: int):
        """Probability-weighted nodes of the jump-size law."""
        if not self.has_jumps:
            return np.zeros(0), np.zeros(0)
        return self.jump_law.quadrature(order)


@dataclass(frozen=True)
class DriverPathSet:
    """Per-step driver increments on a fixed grid.

    ``dw[i]`` holds the standard Brownian increments over
    [grid[i], grid[i+1]] for every path, and ``jump_sums[i]`` the summed raw
    jump sizes in that window (``None`` for a continuous driver).  The same
    seed always regenerates an identical object.
    """

    grid: np.ndarray = field(repr=False)
    dw: np.ndarray = field(repr=False)
    jump_sums: Optional[np.ndarray] = field(repr=False)
    antithetic: bool = False

    @property
    def n_paths(self) -> int:
        return self.dw.shape[1]

    @property
    def dts(self) -> np.ndarray:
        return np.diff(self.grid)

    def increments(self, chars: LevyCharacteristics) -> np.ndarray:
        """Driver increments dH per (step, path) for the given triplet."""
        dts = self.dts[:, None]
        dh = chars.drift_b * dts + math.sqrt(chars.diffusion_c) * self.dw
        if chars.has_jumps:
            if self.jump_sums is None:
                raise LiborLabError("path set was generated without jumps")
            dh = dh + self.jump_sums - chars.jump_mean_rate * dts
        return dh


def simulate_driver(
    chars: LevyCharacteristics,
    grid,
    n_paths: int,
    seed: int,
    antithetic: bool = False,
) -> DriverPathSet:
    """Exact path simulation of the driver on ``grid``.

    Brownian increments are N(0, dt) per step (scaled by sqrt(c) when
    consumed), then jump counts Poisson(intensity * dt); each cell with k >= 1
    jumps then draws, in C order, its jump sum from the exact law of k i.i.d.
    jump sizes (Glasserman 2003, section 3.5).  With ``antithetic=True`` the
    second half of the paths negates the Brownian increments of the first
    half while sharing its jumps; ``n_paths`` must then be even.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise LiborLabError("simulation grid needs at least two points")
    if np.any(np.diff(grid) <= 0.0):
        raise LiborLabError("simulation grid must be strictly increasing")
    if n_paths < 1:
        raise LiborLabError(f"need at least one path, got {n_paths}")
    if antithetic and n_paths % 2:
        raise LiborLabError("antithetic sampling needs an even path count")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n_base = n_paths // 2 if antithetic else n_paths
    dts = np.diff(grid)
    n_steps = len(dts)

    dw = rng.normal(0.0, np.sqrt(dts)[:, None], size=(n_steps, n_base))

    jump_sums = None
    if chars.has_jumps:
        counts = rng.poisson(chars.jump_intensity * dts[:, None], size=(n_steps, n_base))
        jump_sums = np.zeros((n_steps, n_base))
        hit = counts > 0
        jump_sums[hit] = chars.jump_law.sum_sample(rng, counts[hit])

    if antithetic:
        dw = np.concatenate([dw, -dw], axis=1)
        if jump_sums is not None:
            jump_sums = np.concatenate([jump_sums, jump_sums], axis=1)

    return DriverPathSet(
        grid=grid, dw=dw, jump_sums=jump_sums, antithetic=antithetic
    )
