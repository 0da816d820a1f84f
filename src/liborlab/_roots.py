"""Chandrupatla's (1997) bracketed root rule, elementwise on arrays."""

from __future__ import annotations

import math

import numpy as np

from .errors import CalibrationError

_RTOL = 8.9e-16  # brentq's default relative tolerance, about four machine epsilons


def bracketed_root(f, lo, hi, xtol: float):
    """Root of ``f`` in each bracket [lo, hi], to xtol + _RTOL |root|.

    ``f`` maps points to values elementwise and the brackets broadcast; a scalar
    bracket gives a scalar root.  Steps are inverse quadratic through the last three
    points where that is safe and bisections elsewhere.  As in brentq, an element stops
    at f = 0 or once its bracket is under xtol + _RTOL |x|, returning its end with the
    smaller |f|; no sign change or a non-finite value raises ``CalibrationError``.
    """
    x1, x2 = (a[()] for a in np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float)))
    # scalars step as numpy scalars: 0-d array calls cost ten times brentq's time
    where, clip, every = np.where, np.clip, np.all
    if np.ndim(x1) == 0:
        where, clip = (lambda c, a, b: a if c else b), (lambda t, a, b: min(max(t, a), b))
        every = bool

    def values(x):
        fx = np.asarray(f(x), float)[()]
        if not every(abs(fx) < math.inf):
            raise CalibrationError("root search met a non-finite value")
        return fx

    with np.errstate(divide="ignore", invalid="ignore"):
        f1, f2 = values(x1), values(x2)
        same_sign = ((f1 > 0.0) == (f2 > 0.0)) & (f1 != 0.0) & (f2 != 0.0)
        if np.any(same_sign):
            raise CalibrationError(
                f"no sign change on {np.sum(same_sign)} of {np.size(same_sign)} root brackets"
            )
        t = 0.5
        for _ in range(200):
            near1 = abs(f1) < abs(f2)
            xm = where(near1, x1, x2)
            tl = 0.5 * (xtol + _RTOL * abs(xm)) / abs(x2 - x1)
            done = (tl > 0.5) | (where(near1, f1, f2) == 0.0)
            if every(done):
                return xm
            # a finished element re-evaluates its answer and keeps its bracket,
            # so each result is the same whatever else shares the call
            xt = where(done, xm, x1 + clip(t, tl, 1.0 - tl) * (x2 - x1))
            ft = values(xt)
            keep = done | ((ft > 0.0) == (f1 > 0.0))
            x3, f3 = where(keep, x1, x2), where(keep, f1, f2)
            x2, f2 = where(keep, x2, x1), where(keep, f2, f1)
            x1, f1 = where(done, x1, xt), where(done, f1, ft)
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = where(
                (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                f1 / (f2 - f1) * f3 / (f2 - f3)
                + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2),
                0.5,
            )
    raise CalibrationError("root search did not converge in 200 steps")
