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
from .fourier import damped_call_expectation, select_damping
from .levy import DriverPathSet, LevyCharacteristics
from .lmm import LiborPathSet, _simulate_core
from .pricing import implied_vol_or_none
from .tenor import InitialCurve, TenorStructure
from .volatility import VolatilitySurface

_GRID_ATOL = 1e-10
_DOMAIN_MARGIN = 1.0 - 1e-9


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


def forward_price_drift(model: FpmModel, s: float, k: int) -> float:
    """Martingale drift beta(s, T_k); deterministic, zero after the reset."""
    if not 1 <= k <= model.tenor.n - 1:
        raise LiborLabError(f"rate index {k} outside 1..{model.tenor.n - 1}")
    if s > model.tenor.dates[k] + _GRID_ATOL:
        raise LiborLabError(f"drift of rate {k} queried after its reset date")
    return float(model.drift_table[model.tenor.index_of(s), k])


def forward_measure_shift(model: FpmModel, s: float, k: int):
    """Girsanov data under the T_{k+1} forward measure.

    Returns the Brownian drift shift sqrt(c) * Lambda_{k+1}(s) and the
    deterministic jump-compensator tilt x -> exp(x * Lambda_{k+1}(s)); both
    are free of any rate state, so the driver's structure is preserved.
    """
    tail = float(model.loading_tails[model.tenor.index_of(s), k + 1])
    shift = math.sqrt(model.chars.diffusion_c) * tail

    def compensator_factor(x):
        return np.exp(np.asarray(x, dtype=float) * tail)

    return shift, compensator_factor


def simulate_fpm(
    model: FpmModel,
    grid,
    n_paths: int,
    seed: int,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
    store_grid: bool = False,
    antithetic: bool = False,
) -> LiborPathSet:
    """Exact-in-law simulation of the forward prices on the grid.

    Drift and loadings are piecewise constant, so the per-step integrals
    are exact; the only randomness enters through the shared driver
    increments.  Rates are reported as (F - 1) / delta and may be negative.
    """
    return _simulate_core(
        model, grid, n_paths, seed, _FpmStep(model), "fpm",
        driver, store_dates, store_grid, antithetic,
    )


class _FpmStep:
    """Log forward-price state log(1 + delta L) with the deterministic drift table."""

    def __init__(self, model: FpmModel):
        self.delta = model.tenor.delta
        self.log_f0 = np.log1p(self.delta * np.asarray(model.curve.libors))
        self.drift_table = model.drift_table

    def interval(self, j: int, lam_row):
        return self.drift_table[j]

    def start(self, n_paths: int):
        return np.tile(self.log_f0, (n_paths, 1)), None

    def rate(self, log_f):
        return np.expm1(log_f) / self.delta

    def forward_price(self, log_f, libors):
        return np.exp(log_f)

    def drift(self, log_f, aux, lam_row, table):
        return table

    def advance(self, aux, lam_row, table, dt, dw, dh):
        pass


def write_caplet_table(path, model: FpmModel, strikes) -> None:
    """Write the closed-form caplet surface as ``k,strike,price,implied_vol``.

    The implied-vol column is left blank when the price violates the
    nonnegative-rate bounds of the Black formula (possible here: the model
    admits negative fixings).
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,strike,price,implied_vol\n")
        for k in model.tenor.rate_indices:
            for strike in strikes:
                price = caplet_price_fourier(model, k, strike)
                iv = implied_vol_or_none(price, model.curve, k, strike)
                iv_text = "" if iv is None else f"{iv:.17g}"
                fh.write(f"{k},{strike:.17g},{price:.17g},{iv_text}\n")


def negative_rate_fraction(paths: LiborPathSet, k: Optional[int] = None) -> float:
    """Empirical probability of a negative fixing (per rate or overall)."""
    fix = paths.fixings[:, 1:] if k is None else paths.fixings[:, k]
    fix = fix[~np.isnan(fix)]
    return float(np.mean(fix < 0.0))


def log_forward_moment(model: FpmModel, k: int, w) -> complex:
    """Moment function E^{T_{k+1}}[exp(w log F(T_k, T_k, T_{k+1}))].

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
    return np.exp(out)


def _damping_bound(model: FpmModel, k: int) -> float:
    """Largest real w with the tilted cumulants finite for rate k."""
    bound = model.chars.exp_moment_bound * _DOMAIN_MARGIN
    if math.isinf(bound):
        return math.inf
    w_hi = math.inf
    for j in range(k):
        lam = model.vols.values[j, k]
        tail = model.loading_tails[j, k + 1]
        if lam > 0.0:
            w_hi = min(w_hi, (bound - tail) / lam)
        elif lam < 0.0:
            w_hi = min(w_hi, (-bound - tail) / lam)
    return w_hi


def caplet_price_fourier(model: FpmModel, k: int, strike: float) -> float:
    """Caplet value B(0, T_{k+1}) delta E^{T_{k+1}}[(L(T_k, T_k) - strike)^+].

    The accrual-scaled payoff delta (L - K)^+ equals a call on the forward
    price with strike 1 + delta K, so a one-dimensional damped Fourier
    inversion of the forward price's moment function prices it; damping
    sits at the midpoint of the admissible strip.
    """
    if not 1 <= k <= model.tenor.n - 1:
        raise LiborLabError(f"rate index {k} outside 1..{model.tenor.n - 1}")
    delta = model.tenor.delta
    if strike <= -1.0 / delta:
        raise LiborLabError(f"strike must exceed -1/delta = {-1.0 / delta}")
    strike_factor = 1.0 + delta * strike
    discount = model.curve.bond(k + 1)

    if not any(model.vols.values[j, k] != 0.0 for j in range(k)):
        return discount * delta * max(model.curve.libor(k) - strike, 0.0)

    damping = select_damping(_damping_bound(model, k))
    value = damped_call_expectation(
        lambda w: log_forward_moment(model, k, w), strike_factor, damping
    )
    return discount * value
