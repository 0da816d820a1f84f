"""Model-agnostic caplet/swaption pricing and implied-volatility utilities.

Monte Carlo prices consume ``LiborPathSet`` objects: the payoff at a fixing
date is weighted by the path's terminal-measure density for the payment
date's forward measure, so every model prices through the same estimator

    price = B(0, T_{k+1}) * E_N[ (L(T_k, T_k) - K)^+ * weight ].

Swap rates are never simulated directly; they are rebuilt from the
simulated rates through bond-ratio telescoping so the basic bond/LIBOR
identity stays the single source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from .errors import LiborLabError, PriceBoundsError
from .lmm import LiborPathSet
from .tenor import InitialCurve

_IV_PRICE_TOL = 1e-10


@dataclass(frozen=True)
class CapletQuote:
    """One priced caplet (or swaption): price, error bar, implied vol."""

    k: int
    strike: float
    price: float
    stderr: Optional[float] = None
    implied_vol: Optional[float] = None


def black_caplet(
    L0: float, strike: float, total_vol: float, delta: float, discount: float
) -> float:
    """Black caplet value discount * delta * (L0 N(d1) - K N(d2)).

    ``total_vol`` is the square root of the integrated variance of the
    log-rate up to its fixing date (not annualized).
    """
    if L0 <= 0.0 or strike <= 0.0:
        raise LiborLabError("Black formula needs positive forward and strike")
    if total_vol < 0.0:
        raise LiborLabError("total volatility must be nonnegative")
    if total_vol == 0.0:
        return discount * delta * max(L0 - strike, 0.0)
    d1 = (math.log(L0 / strike) + 0.5 * total_vol**2) / total_vol
    d2 = d1 - total_vol
    return discount * delta * (L0 * ndtr(d1) - strike * ndtr(d2))


def implied_vol(
    price: float,
    L0: float,
    strike: float,
    delta: float,
    discount: float,
    expiry: Optional[float] = None,
) -> float:
    """Invert the Black caplet formula for the volatility.

    Returns the total (root integrated) volatility, or the annualized value
    total / sqrt(expiry) when ``expiry`` is given.  Prices outside the
    no-arbitrage band raise ``PriceBoundsError`` naming the violated bound.
    """
    intrinsic = discount * delta * max(L0 - strike, 0.0)
    upper = discount * delta * L0
    if price < intrinsic - _IV_PRICE_TOL:
        raise PriceBoundsError(
            f"price {price} below intrinsic value {intrinsic}", bound="intrinsic"
        )
    if price > upper + _IV_PRICE_TOL:
        raise PriceBoundsError(
            f"price {price} above forward bound {upper}", bound="forward"
        )
    if price <= intrinsic:
        total = 0.0
    else:
        hi = 1.0
        while black_caplet(L0, strike, hi, delta, discount) < price and hi < 1e3:
            hi *= 2.0
        total = brentq(
            lambda v: black_caplet(L0, strike, v, delta, discount) - price,
            0.0,
            hi,
            xtol=1e-14,
            rtol=8.9e-16,
        )
    if expiry is not None:
        if expiry <= 0.0:
            raise LiborLabError("expiry must be positive to annualize")
        return total / math.sqrt(expiry)
    return total


def implied_vol_or_none(price: float, curve: InitialCurve, k: int, strike: float):
    """Annualized implied vol of a caplet on rate k, or None where Black has none.

    None for a nonpositive strike or initial rate, and for prices outside
    the no-arbitrage band (models that admit negative rates produce them).
    """
    l0 = curve.libor(k)
    if strike <= 0.0 or l0 <= 0.0:
        return None
    try:
        return implied_vol(
            price, l0, strike, curve.tenor.delta, curve.bond(k + 1), expiry=curve.tenor.dates[k]
        )
    except PriceBoundsError:
        return None


def _mc_mean_stderr(samples: np.ndarray, antithetic: bool):
    """Mean and standard error; antithetic pairs are averaged first."""
    if antithetic:
        half = len(samples) // 2
        samples = 0.5 * (samples[:half] + samples[half:])
    mean = float(np.mean(samples))
    if len(samples) < 2 or np.ptp(samples) == 0.0:
        return mean, 0.0
    stderr = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    return mean, stderr


def mc_caplet(
    paths: LiborPathSet, k: int, strike: float, curve: InitialCurve
) -> CapletQuote:
    """Monte Carlo caplet price from a simulated path set.

    Uses the recorded fixing L(T_k, T_k) and the density weight of the
    payment date's forward measure; the standard error accounts for
    antithetic pairing when the paths carry it.
    """
    n = paths.tenor.n
    if not 1 <= k <= n - 1:
        raise LiborLabError(f"caplet index {k} outside 1..{n - 1}")
    if np.isnan(paths.fixings[:, k]).any():
        raise LiborLabError(f"paths do not cover the fixing date of rate {k}")
    payoff = np.maximum(paths.fixings[:, k] - strike, 0.0) * paths.fixing_weights[:, k]
    mean, stderr = _mc_mean_stderr(payoff, paths.antithetic)
    scale = curve.bond(k + 1) * paths.delta
    price = scale * mean
    iv = implied_vol_or_none(price, curve, k, strike)
    return CapletQuote(k=k, strike=strike, price=price, stderr=scale * stderr, implied_vol=iv)


def mc_swaption(
    paths: LiborPathSet,
    exercise_index: int,
    swap_end_index: int,
    strike: float,
    curve: InitialCurve,
    payer: bool = True,
) -> CapletQuote:
    """Monte Carlo payer/receiver swaption value.

    The swap over [T_e, T_m] is rebuilt per path from the simulated rates:
    bond ratios B(T_e, T_j)/B(T_e, T_N) telescope over (1 + delta L), the
    annuity and swap rate follow, and the payoff is discounted through the
    terminal measure (numeraire pricing).  Requires tenor-date snapshots.
    """
    e, m, n = exercise_index, swap_end_index, paths.tenor.n
    if not 1 <= e < m <= n:
        raise LiborLabError(f"need 1 <= exercise < end <= {n}, got {e}, {m}")
    if paths.date_values is None:
        raise LiborLabError("swaption pricing needs tenor-date snapshots")
    delta = paths.delta
    state = paths.date_values[:, e, :]  # rates at T_e
    # ratio[:, j] = B(T_e, T_j) / B(T_e, T_N) for j = e..n
    factors = 1.0 + delta * state[:, e:n]
    ratio = np.ones((state.shape[0], n - e + 1))
    ratio[:, :-1] = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]
    annuity = delta * np.sum(ratio[:, (e + 1) - e : (m + 1) - e], axis=1)
    swap_rate = (ratio[:, 0] - ratio[:, m - e]) / annuity
    sign = 1.0 if payer else -1.0
    payoff = np.maximum(sign * (swap_rate - strike), 0.0) * annuity
    mean, stderr = _mc_mean_stderr(payoff, paths.antithetic)
    # payoff already carries the annuity in units of the T_N numeraire
    scale = curve.bond(n)
    return CapletQuote(k=e, strike=strike, price=scale * mean, stderr=scale * stderr)


def forward_swap_value(
    curve: InitialCurve, exercise_index: int, swap_end_index: int, strike: float
) -> float:
    """Time-zero value of the payer forward swap over [T_e, T_m]."""
    e, m = exercise_index, swap_end_index
    annuity = curve.tenor.delta * sum(curve.bond(j) for j in range(e + 1, m + 1))
    return curve.bond(e) - curve.bond(m) - strike * annuity
