"""Model-agnostic caplet pricing and implied-volatility utilities.

Monte Carlo prices consume ``LiborPathSet`` objects: the payoff at a fixing
date is weighted by the path's terminal-measure density for the payment
date's forward measure, so every model prices through the same estimator

    price = B(0, T_{k+1}) * E_N[ (L(T_k, T_k) - K)^+ * weight ].

Quotes carry a price and, for Monte Carlo, its standard error; a caller
that wants Black vols inverts the known prices with ``implied_vol_or_none``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._normal import ndtr
from ._roots import bracketed_root
from .errors import LiborLabError, PriceBoundsError
from .lmm import LiborPathSet
from .tenor import InitialCurve

_IV_PRICE_TOL = 1e-10


@dataclass(frozen=True)
class CapletQuote:
    """One priced caplet: price, error bar, implied vol (None until a caller inverts it)."""

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
    if price >= upper:  # Black reaches the bound only as the vol goes to infinity
        raise PriceBoundsError(
            f"price {price} at or above forward bound {upper}", bound="forward"
        )
    if price <= intrinsic:
        total = 0.0
    else:
        hi = 1.0
        while black_caplet(L0, strike, hi, delta, discount) < price and hi < 1e3:
            hi *= 2.0
        total = float(bracketed_root(lambda v: black_caplet(L0, strike, v, delta, discount) - price,
                                     0.0, hi, xtol=1e-14))
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
    """Mean and standard error; antithetic pairs are averaged first.

    Works in place and overwrites ``samples``.  The arithmetic is that of
    ``np.mean`` and ``np.std(ddof=1)``, so the bits are theirs: one pairwise
    sum for the mean, then the deviations, squared in place, and one more
    sum.  All-equal samples (``np.ptp`` 0) have SE 0 even where their mean
    rounds off their value; such a mean lies within a relative 2^-40 of the
    first sample, so only a mean that close needs the exact ``np.ptp`` test.
    """
    if antithetic:
        half = len(samples) // 2
        samples = np.add(samples[:half], samples[half:], out=samples[:half])
        samples *= 0.5
    n = len(samples)
    mean = samples.sum() / n
    if n < 2 or (abs(mean - samples[0]) <= 2.0**-40 * abs(mean) and np.ptp(samples) == 0.0):
        return float(mean), 0.0
    np.subtract(samples, mean, out=samples)
    np.square(samples, out=samples)
    return float(mean), float(np.sqrt(samples.sum() / (n - 1)) / math.sqrt(n))


def mc_caplet(paths: LiborPathSet, k: int, strikes, curve: InitialCurve) -> list:
    """Monte Carlo caplets on rate k, one ``CapletQuote`` per strike, in order.

    Uses the recorded fixing L(T_k, T_k) and the density weight of the
    payment date's forward measure; the standard error accounts for
    antithetic pairing when the paths carry it.  The quotes carry no implied
    vol.  One pass per rate: the fixings are checked for NaN and the weights
    for non-finite values once, and every strike's payoff is built in the
    same buffer, which the estimator then overwrites.
    """
    paths.tenor.check("caplet", k, 1, paths.tenor.n - 1)
    fixing, weight = paths.fixings[:, k], paths.fixing_weights[:, k]
    if np.isnan(fixing).any():
        raise LiborLabError(f"fixing of rate {k} is NaN on some path")
    if not np.isfinite(weight).all():
        raise LiborLabError(f"density weight of rate {k} is not finite on some path")

    payoff = np.empty_like(fixing)
    scale = curve.bond(k + 1) * paths.delta
    quotes = []
    for strike in strikes:
        np.subtract(fixing, strike, out=payoff)
        np.maximum(payoff, 0.0, out=payoff)
        payoff *= weight
        mean, stderr = _mc_mean_stderr(payoff, paths.antithetic)
        quotes.append(CapletQuote(k=k, strike=strike, price=scale * mean, stderr=scale * stderr))
    return quotes
