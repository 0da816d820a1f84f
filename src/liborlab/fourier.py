"""Damped Fourier valuation of call payoffs on an exponential quantity.

With G(w) = log E[e^{w S}], w = R - iu and a damping R in the strip of G,

    E[(e^S - K)^+] = (1/pi) Re int_0^inf exp((1 - w) log K + G(w)) / (w (w - 1)) du
                     + E[e^S] [R < 1] - K [R < 0],

the last terms being the residues of the payoff poles w = 1 and w = 0.  One
fixed exp-sinh rule, t = exp((pi/2) sinh tau) on an equispaced tau grid,
evaluates it on the ray u = t e^{i theta}, theta = copysign(angle, log K),
0 < angle < pi/4.  The ray starts at the saddle, where G'(R) = log K, and
decays there like a Gaussian of weight cos(2 theta); far out K^{1-w} decays
like exp(-|log K| t sin theta) once S is centred so that G has no linear
asymptote, which a power tail or an atom of the law needs.  The rotation is
exact (Cauchy) for affine and Levy exponents: e^G is analytic off the real
w-axis, the payoff poles lie on the negative imaginary u-axis, and the swept
sector has Im(w) = -Re(u) < 0.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, QuadratureError

_DAMPING_CAP = 16.0
_POLE_GAP = 0.25
_SEARCH_POINTS = 48
_SEARCH_SPAN = 1e12
_COMPLEX_STEP = 1e-20

# exp-sinh nodes t_j = exp((pi/2) sinh(j h)) and weights dt/dtau * h, |j h| <= 5
_STEP = 0.015
_TAU = _STEP * np.arange(-int(5.0 / _STEP), int(5.0 / _STEP) + 1)
_NODES = np.exp(0.5 * math.pi * np.sinh(_TAU))
_WEIGHTS = _STEP * 0.5 * math.pi * np.cosh(_TAU) * _NODES


def saddle_damping(cumulant_fn, log_k: float, w_lo: float, w_hi: float) -> float:
    """Real R in (w_lo, w_hi) with G'(R) = log K, on the side the ray decays.

    G' = Im G(w + ih) / h (complex step), on distances below the cap that grow
    geometrically, then on the bracket; R keeps ``_POLE_GAP`` from 0 and 1.
    """
    if not w_hi > 1.0 + 1e-9:
        raise DomainError(
            f"no admissible damping: moment finite only below {w_hi}", max_admissible=w_hi
        )
    cap = 0.5 * (1.0 + min(w_hi, _DAMPING_CAP))
    span = min(cap - w_lo, _SEARCH_SPAN) * (1.0 - 1e-9)
    grid = cap - np.append(0.0, np.geomspace(1e-3, span, _SEARCH_POINTS - 1))
    for _ in range(2):
        with np.errstate(over="ignore", invalid="ignore"):
            slope = np.imag(cumulant_fn(grid + 1j * _COMPLEX_STEP)) / _COMPLEX_STEP
        # false, then true: the grid falls through the root; a slope that
        # overflowed lies far below it
        below = ~(slope > log_k)
        if below[0] or not below[-1]:
            r = grid[0] if below[0] else grid[-1]
            break
        i = int(np.argmax(below))
        r = grid[i] if log_k > 0.0 and np.isfinite(slope[i]) else grid[i - 1]
        grid = np.linspace(grid[i - 1], grid[i], _SEARCH_POINTS)
    r = float(r)
    for pole in (0.0, 1.0):
        if abs(r - pole) < _POLE_GAP:
            r = pole + math.copysign(_POLE_GAP, r - pole)
            if not w_lo < r <= cap:
                r = 2.0 * pole - r
    return r


def damped_call_expectation(
    cumulant_fn, strike: float, w_lo: float, w_hi: float, angle: float
) -> float:
    """E[(e^S - strike)^+] on the exp-sinh rule, floored at 0.

    ``cumulant_fn`` evaluates G on complex arrays, finite for real w in
    (w_lo, w_hi) and analytic off the real axis; ``angle`` in (0, pi/4).
    Raises ``QuadratureError`` if the rule's sum is not finite.
    """
    if strike <= 0.0:
        raise DomainError(f"transform strike must be positive, got {strike}")
    log_k = math.log(strike)
    damping = saddle_damping(cumulant_fn, log_k, w_lo, w_hi)
    ray = cmath.exp(1j * math.copysign(angle, log_k))
    w = damping - 1j * ray * _NODES
    cumulants = cumulant_fn(np.append(w, 1.0))
    vals = np.exp((1.0 - w) * log_k + cumulants[:-1]) / (w * (w - 1.0))
    total = (ray * (vals @ _WEIGHTS)).real / math.pi
    if damping < 1.0:
        total += math.exp(cumulants[-1].real)
    if damping < 0.0:
        total -= strike
    if not math.isfinite(total):
        raise QuadratureError(f"Fourier rule sum is not finite at strike {strike}")
    return max(total, 0.0)
