"""Nonnegative square-root (CIR) diffusion and its exponential-moment flow.

The driver is dX_t = a (theta - X_t) dt + sigma sqrt(X_t) dW_t on the state
space [0, inf).  Exponential moments are exponential-affine in the initial
state,

    E_x[exp(u X_t)] = exp(phi_t(u) + psi_t(u) x),

with (phi, psi) solving the generalized Riccati system

    psi' = sigma^2 psi^2 / 2 - a psi,   psi_0(u) = u,
    phi' = a theta psi,                 phi_0(u) = 0.

For this parameterization the system has the closed form (used throughout;
written with expm1/log1p so it stays accurate up to the explosion boundary)

    psi_t(u) = u e^{-at} / (1 - u sigma^2 s(t) / 2),
    phi_t(u) = -(2 a theta / sigma^2) log(1 - u sigma^2 s(t) / 2),

where s(t) = (1 - e^{-at}) / a.  The moment domain at horizon t is the open
interval (-inf, 2 / (sigma^2 s(t))).  Transition laws are scaled noncentral
chi-square, so path simulation is exact via the Poisson-gamma mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LiborLabError


@dataclass(frozen=True)
class CirParams:
    """Square-root diffusion parameters.

    Attributes
    ----------
    mean_reversion : float
        Speed a >= 0 of reversion toward ``long_run_level``.
    long_run_level : float
        Level theta >= 0.
    vol_of_vol : float
        Diffusion coefficient sigma > 0.
    x0 : float
        Initial state >= 0.
    """

    mean_reversion: float
    long_run_level: float
    vol_of_vol: float
    x0: float

    def __post_init__(self):
        if not all(
            math.isfinite(v)
            for v in (self.mean_reversion, self.long_run_level, self.vol_of_vol, self.x0)
        ):
            raise LiborLabError("CIR parameters must be finite")
        if self.mean_reversion < 0.0:
            raise LiborLabError(f"mean reversion must be >= 0, got {self.mean_reversion}")
        if self.long_run_level < 0.0:
            raise LiborLabError(f"long-run level must be >= 0, got {self.long_run_level}")
        if self.vol_of_vol <= 0.0:
            raise LiborLabError(f"vol-of-vol must be > 0, got {self.vol_of_vol}")
        if self.x0 < 0.0:
            raise LiborLabError(f"initial state must be >= 0, got {self.x0}")


def _decay_slope(params: CirParams, t):
    """e^{-at} and s(t) = (1 - e^{-at}) / a, with the a -> 0 limit s = t."""
    a = params.mean_reversion
    t = np.asarray(t, dtype=float)
    if a == 0.0:
        return np.ones_like(t), t
    ec = np.exp(-a * t)
    return ec, -np.expm1(-a * t) / a


def explosion_threshold(params: CirParams, t):
    """Upper boundary of the moment domain at horizon t (+inf at t = 0)."""
    _, slope = _decay_slope(params, t)
    with np.errstate(divide="ignore", over="ignore"):  # s(t) = 0 or subnormal: +inf
        return np.where(
            np.asarray(t) > 0.0, 2.0 / (params.vol_of_vol**2 * np.maximum(slope, 0.0)), np.inf
        )[()]


def cir_flow(params: CirParams, t, u):
    """The pair (phi_t(u), psi_t(u)); broadcasts over t and u.

    Accepts complex u.  The closed form is singular only on its branch
    cut, real u at or beyond the explosion boundary; off the real axis the
    denominator 1 - u sigma^2 s(t) / 2 stays off (-inf, 0], so the principal
    log gives the analytic continuation of the moments.

    Raises
    ------
    DomainError
        If a real u sits at or beyond the explosion boundary for horizon t;
        the error carries the maximal admissible u.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u)
    if np.any(t < 0.0):
        raise LiborLabError("flow horizon must be >= 0")
    ec, slope = _decay_slope(params, t)
    half_s2 = 0.5 * params.vol_of_vol**2
    arg = -u * half_s2 * slope  # branch cut: real arg <= -1
    tb, argb = np.broadcast_arrays(t, arg)
    bad = (np.real(argb) <= -1.0) & (np.imag(argb) == 0.0)
    if np.any(bad):
        bad_t = float(np.max(tb[bad]))
        raise DomainError(
            f"u outside the moment domain at horizon {bad_t}",
            max_admissible=float(explosion_threshold(params, bad_t)),
        )
    log_den = np.log(1.0 + arg) if np.iscomplexobj(u) else np.log1p(arg)
    psi = u * ec * np.exp(-log_den)
    gamma = 2.0 * params.mean_reversion * params.long_run_level / params.vol_of_vol**2
    phi = -gamma * log_den
    return phi[()] if phi.ndim == 0 else phi, psi[()] if psi.ndim == 0 else psi


def transition_constants(params: CirParams, dt: float):
    """Scale, degrees of freedom and noncentrality multiplier for one step.

    X_{t+dt} | X_t = x  ~  scale * NCChi2(df, x * decay / scale),
    with scale = sigma^2 s(dt) / 4, df = 4 a theta / sigma^2,
    decay = e^{-a dt}.
    """
    ec, slope = _decay_slope(params, dt)
    scale = params.vol_of_vol**2 * slope / 4.0
    df = 4.0 * params.mean_reversion * params.long_run_level / params.vol_of_vol**2
    return float(scale), float(df), float(ec)


def simulate_cir(params: CirParams, grid, n_paths: int, seed: int) -> np.ndarray:
    """Exact transition sampling on ``grid``; returns shape (len(grid), n_paths).

    Each step draws the scaled noncentral chi-square transition through its
    Poisson-gamma mixture, which keeps states nonnegative exactly and
    handles zero degrees of freedom (theta = 0) uniformly.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 1:
        raise LiborLabError("simulation grid must not be empty")
    if len(grid) > 1 and np.any(np.diff(grid) <= 0.0):
        raise LiborLabError("simulation grid must be strictly increasing")
    if n_paths < 1:
        raise LiborLabError(f"need at least one path, got {n_paths}")
    if grid[0] != 0.0:
        raise LiborLabError("CIR grid must start at 0")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = np.empty((len(grid), n_paths))
    out[0] = params.x0
    for i in range(1, len(grid)):
        scale, df, decay = transition_constants(params, grid[i] - grid[i - 1])
        nc = out[i - 1] * decay / scale
        mix = rng.poisson(0.5 * nc)
        shape = 0.5 * df + mix
        draw = np.zeros(n_paths)
        pos = shape > 0.0
        if np.any(pos):
            draw[pos] = rng.standard_gamma(shape[pos]) * 2.0
        out[i] = scale * draw
    return out
