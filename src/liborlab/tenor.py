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
    dates: tuple = field(default=None)

    def __post_init__(self):
        if self.delta <= 0.0:
            raise CurveError(f"tenor spacing must be positive, got {self.delta}")
        if self.n < 1:
            raise CurveError(f"need at least one accrual period, got n={self.n}")
        if self.dates is None:
            object.__setattr__(
                self, "dates", tuple(k * self.delta for k in range(self.n + 1))
            )
        dates = np.asarray(self.dates, dtype=float)
        if len(dates) != self.n + 1:
            raise CurveError(
                f"expected {self.n + 1} dates for n={self.n}, got {len(dates)}"
            )
        if dates[0] != 0.0:
            raise CurveError(f"tenor structure must start at 0, got T_0={dates[0]}")
        gaps = np.diff(dates)
        if np.any(gaps <= 0.0):
            raise CurveError("tenor dates must be strictly increasing")
        if np.any(np.abs(gaps - self.delta) > _SPACING_RTOL * self.delta):
            raise CurveError("tenor dates must be equally spaced by delta")

    @property
    def horizon(self) -> float:
        """Terminal date T_N."""
        return self.dates[self.n]

    @property
    def rate_indices(self) -> range:
        """Indices k of rates L(., T_k) with nontrivial dynamics (1..N-1)."""
        return range(1, self.n)

    def index_of(self, t: float) -> int:
        """Index j of the interval [T_j, T_{j+1}) containing t (t < T_N).

        Times within 1e-9 periods below a tenor date count as that date,
        matching the grid-matching tolerance of the simulators.
        """
        j = int(np.floor(t / self.delta + 1e-9))
        return min(max(j, 0), self.n - 1)


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
        if np.any(bonds <= 0.0) or np.any(bonds > 1.0):
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
    """Read a curve file with one ``T_k,B(0,T_k)`` line per tenor date."""
    dates = []
    bonds = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise CurveError(f"malformed curve line: {raw!r}")
            dates.append(float(parts[0]))
            bonds.append(float(parts[1]))
    if len(dates) < 2:
        raise CurveError("curve file needs at least two tenor dates")
    delta = dates[1] - dates[0]
    tenor = TenorStructure(delta=delta, n=len(dates) - 1, dates=tuple(dates))
    return InitialCurve.from_bonds(tenor, bonds)
