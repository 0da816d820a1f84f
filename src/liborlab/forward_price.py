"""Forward price model: exponential dynamics for 1 + delta L.

The forward price F(., T_k, T_{k+1}) = 1 + delta L(., T_k) is modeled as

    1 + delta L(t, T_k) = (1 + delta L(0, T_k)) exp( int_0^t beta(s, T_k) ds
                                                     + int_0^t lambda(s, T_k) dH_s ),

with the drift pinned by the martingale property of L(., T_k) under the
forward measure of T_{k+1}.  The measure changes are exponential tilts with
deterministic loadings (Esscher transforms): under the T_{k+1} forward
measure the Brownian motion shifts by the cumulative loading
Lambda_{k+1}(s) = sum_{l>k} lambda(s, T_l) times sqrt(c) and the jump
compensator is tilted by exp(x Lambda_{k+1}(s)).  Writing kappa for the
terminal-measure cumulant, the tilted cumulant is

    kappa^{k+1}(z) = kappa(z + Lambda_{k+1}) - kappa(Lambda_{k+1}),

and the martingale drift collapses to the deterministic table

    beta(s, T_k) = -kappa^{k+1}(lambda_k(s)) = kappa(Lambda_{k+1}(s)) - kappa(Lambda_k(s)).

Because drift and loadings are deterministic and piecewise constant, the
log-Euler recursion on a refining grid reproduces the model law exactly,
and caplets price in closed form by Fourier inversion of the forward
price's moment function.  Forward prices stay positive but the implied
rates (F - 1) / delta can go negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, LiborLabError
from .fourier import damped_call_expectation
from .levy import DriverPathSet, LevyCharacteristics
from .lmm import LiborPathSet, _simulate_core, _Step
from .tenor import InitialCurve, TenorStructure
from .volatility import VolatilitySurface

_DOMAIN_MARGIN = 1.0 - 1e-9
_RAY_ANGLE = math.pi / 12.0


@dataclass(frozen=True)
class FpmModel:
    """Forward-price-model definition with the precomputed drift table.

    ``drift_table[j, k]`` holds the martingale drift of rate k on the tenor
    interval [T_j, T_{j+1}); it is deterministic, which is the tractability
    payoff of modeling the forward price.
    """

    tenor: TenorStructure
    curve: InitialCurve
    vols: VolatilitySurface
    chars: LevyCharacteristics
    drift_table: np.ndarray = field(init=False, repr=False)
    loading_tails: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.curve.tenor != self.tenor or self.vols.tenor != self.tenor:
            raise LiborLabError("curve and volatility surface must share the tenor structure")
        n = self.tenor.n
        lam = self.vols.values
        # tails[j, k] = Lambda_k(on interval j) = sum_{l >= k} lambda(j, l)
        tails = np.zeros((n, n + 1))
        tails[:, :-1] = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]
        bound = self.chars.exp_moment_bound
        if np.max(np.abs(tails)) >= bound:
            raise DomainError(
                "cumulative loading exceeds the driver's exponential-moment bound",
                max_admissible=bound,
            )
        table = np.zeros((n, n))
        for j in range(n):
            for k in range(1, n):
                if lam[j, k] != 0.0:
                    table[j, k] = float(
                        self.chars.cumulant(tails[j, k + 1]) - self.chars.cumulant(tails[j, k])
                    )
        object.__setattr__(self, "drift_table", table)
        object.__setattr__(self, "loading_tails", tails)

    @property
    def delta(self) -> float:
        return self.tenor.delta


def simulate_fpm(
    model: FpmModel,
    grid,
    n_paths: int,
    seed: int,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
) -> LiborPathSet:
    """Exact-in-law simulation of the forward prices on the grid.

    Drift and loadings are piecewise constant, so the per-step integrals
    are exact; the only randomness enters through the shared driver
    increments.  Rates are reported as (F - 1) / delta and may be negative.
    """
    return _simulate_core(model, grid, n_paths, seed, _FpmStep(model), driver, store_dates)


class _FpmStep(_Step):
    """Log forward-price state log(1 + delta L) with the deterministic drift table."""

    def __init__(self, model: FpmModel):
        self.delta = model.tenor.delta
        self.log_x0 = np.log1p(self.delta * np.asarray(model.curve.libors))[:, None]
        self.drift_table = model.drift_table

    def interval(self, j: int, c0: int, lam_row):
        return self.drift_table[j, c0:, None]

    def rate(self, log_f, out):
        np.expm1(log_f, out=out)
        out /= self.delta
        return out

    def forward_price(self, log_f, out):
        return np.exp(log_f, out=out)

    def drift(self, log_f, aux, table, work):
        return table


def negative_rate_fraction(paths: LiborPathSet) -> float:
    """Empirical probability of a negative fixing, over every rate."""
    fix = paths.fixings[:, 1:]
    return float(np.mean(fix[~np.isnan(fix)] < 0.0))


def log_forward_cumulant(model: FpmModel, k: int, w) -> complex:
    """Cumulant function log E^{T_{k+1}}[exp(w log F(T_k, T_k, T_{k+1}))].

    Under the T_{k+1} forward measure the driver is a time-inhomogeneous
    tilt of the terminal one, so the exponent integrates interval by
    interval:

        log M(w) = w log F(0) + sum_j delta_j [ w beta_k(j)
                   + kappa(w lambda_k(j) + Lambda_{k+1}(j)) - kappa(Lambda_{k+1}(j)) ].
    """
    delta = model.tenor.delta
    f0 = 1.0 + delta * model.curve.libor(k)
    out = w * math.log(f0)
    for j in range(k):
        lam = model.vols.values[j, k]
        tail = model.loading_tails[j, k + 1]
        out = out + delta * (
            w * model.drift_table[j, k]
            + model.chars.cumulant(w * lam + tail)
            - model.chars.cumulant(tail)
        )
    return out


def _damping_strip(model: FpmModel, k: int):
    """Open interval of real w with the tilted cumulants finite for rate k."""
    bound = model.chars.exp_moment_bound * _DOMAIN_MARGIN
    w_lo, w_hi = -math.inf, math.inf
    for j in range(k):
        lam = model.vols.values[j, k]
        tail = model.loading_tails[j, k + 1]
        if lam != 0.0:
            ends = sorted(((bound - tail) / lam, (-bound - tail) / lam))
            w_lo, w_hi = max(w_lo, ends[0]), min(w_hi, ends[1])
    return w_lo, w_hi


def caplet_price_fourier(model: FpmModel, k: int, strike: float) -> float:
    """Caplet value B(0, T_{k+1}) delta E^{T_{k+1}}[(L(T_k, T_k) - strike)^+].

    The accrual-scaled payoff delta (L - K)^+ is a call on the forward price
    with strike 1 + delta K, priced by damped Fourier inversion of the
    cumulant of log F centred at s0, log F when the driver neither diffuses
    nor jumps: a pure-jump law's atom at s0 then decays on the ray too.  The
    ray stays at a small angle, where Brownian and normal-jump factors decay.
    """
    model.tenor.check("rate", k, 1, model.tenor.n - 1)
    delta = model.tenor.delta
    if strike <= -1.0 / delta:
        raise LiborLabError(f"strike must exceed -1/delta = {-1.0 / delta}")
    discount = model.curve.bond(k + 1)

    if not any(model.vols.values[j, k] != 0.0 for j in range(k)):
        return discount * delta * max(model.curve.libor(k) - strike, 0.0)

    chars = model.chars
    slope = chars.drift_b  # the cumulant's slope far off the real axis
    if chars.has_jumps:
        slope -= chars.jump_intensity * chars.jump_law.jump_mean()
    s0 = math.log1p(delta * model.curve.libor(k)) + delta * sum(
        model.drift_table[j, k] + model.vols.values[j, k] * slope for j in range(k)
    )
    value = damped_call_expectation(
        lambda w: log_forward_cumulant(model, k, w) - w * s0,
        (1.0 + delta * strike) * math.exp(-s0),
        *_damping_strip(model, k),
        _RAY_ANGLE,
    )
    return discount * math.exp(s0) * value
