"""Deterministic piecewise-constant volatility loadings per forward rate.

Each rate L(., T_k) carries a loading lambda(., T_k) on [0, T_k] that is
constant on tenor intervals and zero after the rate's own reset date.  The
loadings multiply the driver increments in every model of the package, so
they are stored once as a matrix indexed by (tenor interval, rate index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CurveError
from .tenor import TenorStructure


@dataclass(frozen=True)
class VolatilitySurface:
    """Loadings lambda(t, T_k) for k = 1..N-1, piecewise constant in t.

    ``values[j, k]`` is the loading of rate k on the interval
    [T_j, T_{j+1}); entries with j >= k must be zero (the rate is fixed
    after its reset date) and column 0 is unused.
    """

    tenor: TenorStructure
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = self.tenor.n
        if vals.shape != (n, n):
            raise CurveError(f"expected loading matrix of shape {(n, n)}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise CurveError("loadings must be finite, got inf or NaN")
        if np.any(np.tril(vals) != 0.0):  # interval j at or after reset k
            raise CurveError("loadings must vanish at and after the rate's reset date")
        object.__setattr__(self, "values", vals)

    @classmethod
    def flat(cls, tenor: TenorStructure, value: float) -> "VolatilitySurface":
        """Same loading for every live (interval, rate) pair."""
        n = tenor.n
        vals = np.triu(np.full((n, n), float(value)), k=1)
        return cls(tenor, vals)

    @classmethod
    def from_columns(cls, tenor: TenorStructure, columns) -> "VolatilitySurface":
        """Build from per-rate loading vectors.

        ``columns[k]`` lists the loadings of rate k on the intervals
        [T_0,T_1), ..., [T_{k-1},T_k); k runs over 1..N-1.
        """
        n = tenor.n
        if len(columns) != n - 1:
            raise CurveError(f"need {n - 1} rate columns (rates 1..{n - 1}), got {len(columns)}")
        vals = np.zeros((n, n))
        for k in range(1, n):
            col = np.asarray(columns[k - 1], dtype=float)
            if len(col) != k:
                raise CurveError(f"rate {k} needs {k} interval loadings, got {len(col)}")
            vals[:k, k] = col
        return cls(tenor, vals)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def total_variance(self, k: int, c: float = 1.0) -> float:
        """Integral of c * lambda(s, T_k)^2 over [0, T_k], k = 1..N-1."""
        self.tenor.check("rate", k, 1, self.tenor.n - 1)
        return float(c * self.tenor.delta * np.sum(self.values[:k, k] ** 2))
