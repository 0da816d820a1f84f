"""Tenor structure, initial curve, and the bond/LIBOR/forward-price identities.

The whole package works on a discrete tenor structure 0 = T_0 < T_1 < ... < T_N
with constant accrual delta.  Bonds, simple forward rates and forward prices
are tied together by

    1 + delta * L(t, T_k) = B(t, T_k) / B(t, T_{k+1}) = F(t, T_k, T_{k+1}),

and forward measures are linked to the terminal one through the forward-price
ratio F(t, T_k, T_N) / F(0, T_k, T_N).  Bond prices are the canonical internal
representation of the curve; LIBOR fixings are derived views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CurveError

_SPACING_RTOL = 1e-12


@dataclass(frozen=True)
class TenorStructure:
    """Equally spaced tenor dates T_0 = 0, T_1, ..., T_N.

    Attributes
    ----------
    delta : float
        Year fraction between consecutive tenor dates (> 0).
    n : int
        Number of accrual periods N; there are N + 1 dates.
    dates : tuple of float
        The dates themselves, ``dates[k] == k * delta``.
    """

    delta: float
    n: int
    dates: tuple = field(init=False)

    def __post_init__(self):
        if not self.delta > 0.0:  # NaN too
            raise CurveError(f"tenor spacing must be positive, got {self.delta}")
        if self.n < 1:
            raise CurveError(f"need at least one accrual period, got n={self.n}")
        object.__setattr__(self, "dates", tuple(k * self.delta for k in range(self.n + 1)))

    @property
    def horizon(self) -> float:
        """Terminal date T_N."""
        return self.dates[self.n]

    @property
    def rate_indices(self) -> range:
        """Indices k of rates L(., T_k) with nontrivial dynamics (1..N-1)."""
        return range(1, self.n)


@dataclass(frozen=True)
class InitialCurve:
    """Time-zero discount curve on a tenor structure.

    Canonical storage is bond prices B(0, T_k), k = 0..N.  Construct from
    either bonds (``from_bonds``) or LIBOR fixings (``from_libors``); the
    representations are equivalent and round-trip exactly.
    """

    tenor: TenorStructure
    bonds: tuple

    def __post_init__(self):
        bonds = np.asarray(self.bonds, dtype=float)
        if len(bonds) != self.tenor.n + 1:
            raise CurveError(
                f"expected {self.tenor.n + 1} bond prices, got {len(bonds)}"
            )
        if not np.all((bonds > 0.0) & (bonds <= 1.0)):  # NaN too
            raise CurveError("bond prices must lie in (0, 1]")
        if np.any(np.diff(bonds) > 0.0):
            raise CurveError(
                "bond prices must be non-increasing in maturity "
                "(negative initial LIBOR rate)"
            )

    @classmethod
    def from_bonds(cls, tenor: TenorStructure, bonds) -> "InitialCurve":
        return cls(tenor, tuple(float(b) for b in bonds))

    @classmethod
    def from_libors(cls, tenor: TenorStructure, libors) -> "InitialCurve":
        """Build the curve from fixings L(0, T_k), k = 0..N-1, with B(0,0)=1."""
        libors = np.asarray(libors, dtype=float)
        if len(libors) != tenor.n:
            raise CurveError(f"expected {tenor.n} fixings, got {len(libors)}")
        if np.any(libors < 0.0):
            raise CurveError("initial LIBOR rates must be non-negative")
        bonds = np.empty(tenor.n + 1)
        bonds[0] = 1.0
        np.cumprod(1.0 / (1.0 + tenor.delta * libors), out=bonds[1:])
        return cls(tenor, tuple(bonds))

    @classmethod
    def flat(cls, tenor: TenorStructure, libor: float) -> "InitialCurve":
        """Curve with the same fixing at every tenor date."""
        return cls.from_libors(tenor, np.full(tenor.n, float(libor)))

    def bond(self, k: int) -> float:
        """B(0, T_k)."""
        if not 0 <= k <= self.tenor.n:
            raise CurveError(f"bond index {k} outside 0..{self.tenor.n}")
        return self.bonds[k]

    def libor(self, k: int) -> float:
        """Fixing L(0, T_k) = (B(0,T_k)/B(0,T_{k+1}) - 1) / delta."""
        if not 0 <= k <= self.tenor.n - 1:
            raise CurveError(f"LIBOR index {k} outside 0..{self.tenor.n - 1}")
        return (self.bonds[k] / self.bonds[k + 1] - 1.0) / self.tenor.delta

    @property
    def libors(self) -> np.ndarray:
        """All fixings L(0, T_k), k = 0..N-1."""
        b = np.asarray(self.bonds)
        return (b[:-1] / b[1:] - 1.0) / self.tenor.delta


def read_curve_file(path) -> InitialCurve:
    """Read a curve file with one ``T_k,B(0,T_k)`` line per tenor date.

    delta is T_1 - T_0, and every T_k must be k * delta within 1e-12 delta.
    """
    dates = []
    bonds = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                date, bond = map(float, line.split(","))
            except ValueError:
                raise CurveError(f"malformed curve line: {raw!r}") from None
            dates.append(date)
            bonds.append(bond)
    if len(dates) < 2:
        raise CurveError("curve file needs at least two tenor dates")
    tenor = TenorStructure(delta=dates[1] - dates[0], n=len(dates) - 1)
    if not np.all(np.abs(np.subtract(dates, tenor.dates)) <= _SPACING_RTOL * tenor.delta):
        raise CurveError("curve file dates must be 0, delta, 2 delta, ... (equally spaced from 0)")
    return InitialCurve.from_bonds(tenor, bonds)
