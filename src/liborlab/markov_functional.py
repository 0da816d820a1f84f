"""Markov-functional LIBOR model on a Gaussian driver.

Bonds and the numeraire are functions of one scalar Markov process
X_t = int_0^t sigma(s) dW_s under the terminal forward measure, so
X_{T_i} ~ N(0, Sigma_{T_i}) with Sigma the cumulative variance.  The last
rate is log-normal by construction, fixing the terminal bond functional

    B(T_{N-1}, T_N; x) = 1 / (1 + delta L(0, T_{N-1}) exp(-Sigma/2 + x)),

and the remaining functionals are implied by calibrating to digital
caplets priced with Black's formula (expiry T_i quotes use the driver's
accumulated standard deviation sqrt(Sigma_{T_i})).

The backward induction runs i = N-1 .. 1.  With the reciprocal numeraire
rho_{i+1}(x) = 1 / B(T_{i+1}, T_N; x) already known,

    J_i(x)  = E[ rho_{i+1}(X_{T_{i+1}}) | X_{T_i} = x ]
            = B(T_i, T_{i+1}; x) / B(T_i, T_N; x),

so the model digital struck at a state level x* only involves known
quantities,

    U_0(T_i, x*) = B(0, T_N) E[ J_i(X_{T_i}) 1_{X_{T_i} > x*} ],

and equating it with the Black digital quote yields the unique strike
K(T_i, x*), which is the rate functional value L(T_i, T_i; x*).  The
numeraire functional follows as 1 / ((1 + delta K) J_i).

Every time-zero quote at T_i is one integral against the law phi of X_{T_i}:
with L(T_i, T_i; x*) = K and I_r(x*) = int_{x*}^inf L(T_i, T_i; x)^r J_i phi dx,
the digital is B(0, T_N) I_0(x*), the caplet delta B(0, T_N) (I_1 - K I_0)
and the bond repricing B(0, T_N) I_0(-inf) = B(0, T_{i+1}).  Gauss-Legendre
panels between the state nodes and closed-form Gaussian tails beyond them
evaluate all three.

State grids are Gauss-Hermite nodes scaled by sqrt(Sigma_{T_i}), clipped
to ``_NODE_CLIP`` = 6 standard deviations: beyond the clip the
digital targets collide at double precision and the recovered strikes
could not stay strictly monotone.  Functionals between nodes are monotone
cubic in log(rho - 1) / log(rate), with linear extension of the log values
outside the node range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from ._roots import bracketed_root
from .errors import CalibrationError, LiborLabError
from .tenor import InitialCurve, TenorStructure

_TAIL_EPS = 1e-300
_NODE_CLIP = 6.0  # state nodes kept within this many standard deviations
_PANEL_ORDER = 24  # Gauss-Legendre order of each digital panel


@lru_cache(maxsize=32)
def _hermite(order: int):
    return np.polynomial.hermite.hermgauss(order)


@lru_cache(maxsize=32)
def _legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


@dataclass(frozen=True)
class MfmDriver:
    """Time-changed Brownian driver with piecewise-constant volatility.

    ``sigma[j]`` applies on the tenor interval [T_j, T_{j+1}); only the
    intervals up to T_{N-1} matter for the functionals.
    """

    tenor: TenorStructure
    sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        if sig.shape != (self.tenor.n,):
            raise LiborLabError(f"need one volatility per tenor interval ({self.tenor.n})")
        if not np.all(np.isfinite(sig) & (sig >= 0.0)):
            raise LiborLabError("driver volatilities must be finite and nonnegative")
        object.__setattr__(self, "sigma", sig)

    @classmethod
    def flat(cls, tenor: TenorStructure, sigma: float) -> "MfmDriver":
        return cls(tenor, np.full(tenor.n, float(sigma)))

    def variance(self, t: float) -> float:
        """Sigma_t = int_0^t sigma(s)^2 ds."""
        dates = np.asarray(self.tenor.dates)
        widths = np.clip(np.minimum(t, dates[1:]) - dates[:-1], 0.0, None)
        return float(np.sum(self.sigma**2 * widths))


def terminal_bond_functional(x, curve: InitialCurve, variance: float):
    """B(T_{N-1}, T_N; x) implied by the log-normal terminal rate."""
    if variance < 0.0:
        raise LiborLabError("variance must be nonnegative")
    l0 = curve.libor(curve.tenor.n - 1)
    return 1.0 / (
        1.0 + curve.tenor.delta * l0 * np.exp(-0.5 * variance + np.asarray(x, dtype=float))
    )


def black_digital_price(L0: float, strike, total_vol: float, discount: float):
    """Digital caplet quote discount * N(d2), paying 1_{L > K} at T_{i+1}; elementwise in strike."""
    strike = np.asarray(strike, dtype=float)
    if np.any(strike <= 0.0):
        raise LiborLabError(f"digital strike must be positive, got {strike.min()}")
    if total_vol < 0.0:
        raise LiborLabError("total volatility must be nonnegative")
    if L0 <= 0.0 or total_vol == 0.0:
        return np.where(L0 > strike, discount, 0.0)[()]
    d2 = (np.log(L0 / strike) - 0.5 * total_vol**2) / total_vol
    return discount * ndtr(d2)


def black_digital_strike(L0: float, target, total_vol: float, discount: float):
    """Strikes with Black digital value ``target``, elementwise over an array.

    One bracketed root-find on [1e-8, 10 L0 e^{5 v}]; targets outside the
    bracket's value range raise ``CalibrationError``.
    """
    return bracketed_root(
        lambda k: black_digital_price(L0, k, total_vol, discount) - target,
        np.full(np.shape(target), 1e-8), 10.0 * L0 * math.exp(5.0 * total_vol), xtol=1e-12,
    )


class _MonotoneLogInterp:
    """Monotone cubic of log(f - shift) with linear extension outside the nodes.

    ``shift = 0`` interpolates positive rates in log(rate).  ``shift = 1``
    evaluates functions f > 1 that behave like 1 + exp(linear) in the tails
    (reciprocal numeraires and their conditional expectations).  The cubic
    is PCHIP (Fritsch & Carlson 1980): its node slopes are weighted harmonic
    means of the neighbouring secants, 0 where they change sign or vanish,
    and one-sided three-point slopes at the ends, clamped to keep the shape.
    """

    def __init__(self, x_nodes: np.ndarray, values: np.ndarray, shift: float):
        self.x = np.asarray(x_nodes, dtype=float)
        self.shift = shift
        shifted = np.asarray(values, dtype=float) - shift
        if np.any(shifted <= 0.0):
            raise CalibrationError(f"interpolated functional must exceed {shift} at every node")
        self.logv = np.log(shifted)
        h = np.diff(self.x)
        m = np.diff(self.logv) / h
        d = np.full(len(self.x), m[0])  # two nodes: the line through them
        if len(m) > 1:
            w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                                  np.where(overshoot, 3.0 * m0, end))
        self.slope_lo, self.slope_hi = float(d[0]), float(d[-1])
        # power-basis coefficients of each piece about its left node, with the two
        # linear tails as first and last piece: piece j covers [x_{j-1}, x_j)
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._pieces = np.array([
            np.concatenate([self.x[:1], self.x]),
            np.concatenate([self.logv[:1], self.logv]),
            np.concatenate([d[:1], d[:-1], d[-1:]]),
            np.concatenate([[0.0], (m - d[:-1]) / h - t, [0.0]]),
            np.concatenate([[0.0], t / h, [0.0]]),
        ])

    def log_shifted(self, x):
        x = np.asarray(x, dtype=float)
        left, c0, c1, c2, c3 = self._pieces.take(np.searchsorted(self.x, x, side="right"), axis=1)
        s = x - left
        return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    def __call__(self, x):
        return self.shift + np.exp(self.log_shifted(x))

    def tail_coeffs(self, upper: bool):
        """(a, b) of the tail form shift + exp(a + b x)."""
        if upper:
            return self.logv[-1] - self.slope_hi * self.x[-1], self.slope_hi
        return self.logv[0] - self.slope_lo * self.x[0], self.slope_lo

    def inverse(self, value: float) -> float:
        """State x with f(x) = value; -inf or inf past a flat tail."""
        logv = math.log(value - self.shift)
        j = int(np.searchsorted(self.logv, logv, side="right"))  # logv[j-1] <= logv < logv[j]
        if j > 0 and logv == self.logv[j - 1]:
            return float(self.x[j - 1])
        if j in (0, len(self.x)):  # past an end node: its linear tail
            end, slope = (0, self.slope_lo) if j == 0 else (-1, self.slope_hi)
            if slope == 0.0:
                return -math.inf if j == 0 else math.inf
            return float(self.x[end] + (logv - self.logv[end]) / slope)
        # inside the piece between nodes j-1 and j, where log_shifted is exact
        return float(bracketed_root(
            lambda x: self.log_shifted(x) - logv, self.x[j - 1], self.x[j], xtol=1e-14
        ))


def _gaussian_exp_tail(c: float, b: float, var: float, upper: bool) -> float:
    """int e^{b x} phi_var(x) dx over (c, inf) or (-inf, c)."""
    sd = math.sqrt(var)
    y = (c - b * var) / sd
    return math.exp(0.5 * b * b * var) * ndtr(-y if upper else y)


@dataclass
class FunctionalGrid:
    """Calibrated rate and numeraire functionals at the tenor dates.

    Lists are indexed by tenor date i (entries 0 and N unused); the
    boundary of the functional region is T_* = T_{N-1}.
    """

    curve: InitialCurve
    driver: MfmDriver
    quad_order: int
    x_nodes: list
    libor_values: list
    numeraire_values: list
    j_values: list
    deterministic: bool = False
    _rate_interp: list = field(default_factory=list, repr=False)
    _rho_interp: list = field(default_factory=list, repr=False)
    _j_interp: list = field(default_factory=list, repr=False)
    _panels: dict = field(default_factory=dict, repr=False)  # date -> panel points, J phi
    _tails_cache: dict = field(default_factory=dict, repr=False)  # (date, rate) -> tables

    @property
    def tenor(self) -> TenorStructure:
        return self.curve.tenor

    def reciprocal_numeraire(self, i: int, x):
        """1 / B(T_i, T_N; x)."""
        if i == self.tenor.n:
            return np.ones_like(np.asarray(x, dtype=float))[()]
        if self.deterministic:
            return np.full_like(
                np.asarray(x, dtype=float), self.curve.bond(i) / self.curve.bond(self.tenor.n)
            )[()]
        return self._rho_interp[i](x)

    def j_value(self, i: int, x):
        """E[rho_{i+1}(X_{T_{i+1}}) | X_{T_i} = x] = B(T_i,T_{i+1};x)/B(T_i,T_N;x)."""
        if self.deterministic:
            return np.full_like(
                np.asarray(x, dtype=float),
                self.curve.bond(i + 1) / self.curve.bond(self.tenor.n),
            )[()]
        x = np.asarray(x, dtype=float)
        if i + 1 == self.tenor.n:
            return np.ones_like(x)[()]
        var = self.driver.variance(self.tenor.dates[i + 1]) - self.driver.variance(
            self.tenor.dates[i]
        )
        h, w = _hermite(self.quad_order)
        pts = x[..., None] + math.sqrt(2.0 * var) * h
        vals = self._rho_interp[i + 1](pts)
        return (vals @ w / math.sqrt(math.pi))[()]


def _j_density(grid: FunctionalGrid, i: int, pts: np.ndarray) -> np.ndarray:
    """J_i(x) phi(x) at an array of states, J_i by Gauss-Hermite."""
    sd = math.sqrt(grid.driver.variance(grid.tenor.dates[i]))
    jv = np.asarray(grid.j_value(i, pts.reshape(-1))).reshape(pts.shape)
    return jv * (np.exp(-0.5 * (pts / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi)))


def _tail_mass(grid: FunctionalGrid, i: int, c: float, upper: bool, rate: int = 0) -> float:
    """int L_i^rate J_i phi dx over (c, inf) or (-inf, c), for c beyond the nodes.

    In each tail L_i = exp(a' + b' x) and J_i = 1 + exp(a + b x), or J_i = 1
    when the edge node is rate-free, so the integral is a sum of at most two
    Gaussian exponential moments.
    """
    var = grid.driver.variance(grid.tenor.dates[i])
    terms = [(0.0, 0.0)]
    if grid.j_values[i][-1 if upper else 0] - 1.0 > _TAIL_EPS:
        terms.append(grid._j_interp[i].tail_coeffs(upper))
    if rate:
        a_rate, b_rate = grid._rate_interp[i].tail_coeffs(upper)
        terms = [(a + a_rate, b + b_rate) for a, b in terms]
    return float(sum(math.exp(a) * _gaussian_exp_tail(c, b, var, upper) for a, b in terms))


def _tail_integrals(grid: FunctionalGrid, i: int, rate: int = 0):
    """T(x_m) = int_{x_m}^inf L_i^rate J_i phi dx per node, plus the total.

    Panels between consecutive nodes use Gauss-Legendre on J_i phi, kept per
    date; the mass beyond the node range is ``_tail_mass``.  The rate-weighted
    table is built on a date's first quote: calibration solves for L_i.
    """
    if (i, rate) in grid._tails_cache:
        return grid._tails_cache[i, rate]
    x = grid.x_nodes[i]
    y, w = _legendre(_PANEL_ORDER)
    if i not in grid._panels:
        half = 0.5 * (x[1:] - x[:-1])
        pts = 0.5 * (x[:-1] + x[1:])[:, None] + half[:, None] * y  # (panels, order)
        grid._panels[i] = pts, half, _j_density(grid, i, pts)
    pts, half, jphi = grid._panels[i]
    panels = (jphi * grid._rate_interp[i](pts) if rate else jphi) @ w * half
    t_vals = _tail_mass(grid, i, x[-1], True, rate) + np.append(np.cumsum(panels[::-1])[::-1], 0.0)
    grid._tails_cache[i, rate] = t_vals, t_vals[0] + _tail_mass(grid, i, x[0], False, rate)
    return grid._tails_cache[i, rate]


def _upper_integral(grid: FunctionalGrid, i: int, x_star: float) -> np.ndarray:
    """[I_0, I_1] with I_r = int_{x*}^inf L_i^r J_i phi dx.

    For x* between nodes m and m + 1: the node table of ``_tail_integrals``
    at m + 1 plus one partial panel [x*, x_{m+1}]; else the closed-form tails.
    """
    x = grid.x_nodes[i]
    if x_star >= x[-1]:
        return np.array([_tail_mass(grid, i, x_star, True, r) for r in (0, 1)])
    if x_star <= x[0]:
        return np.array([_tail_integrals(grid, i, r)[1] - _tail_mass(grid, i, x_star, False, r)
                         for r in (0, 1)])
    m = int(np.searchsorted(x, x_star, side="right")) - 1
    y, w = _legendre(_PANEL_ORDER)
    half = 0.5 * (x[m + 1] - x_star)
    pts = 0.5 * (x_star + x[m + 1]) + half * y
    jphi = _j_density(grid, i, pts) * w * half
    tails = np.array([_tail_integrals(grid, i, r)[0][m + 1] for r in (0, 1)])
    return tails + [np.sum(jphi), np.sum(jphi * grid._rate_interp[i](pts))]


def calibrate_backward(
    curve: InitialCurve,
    driver: MfmDriver,
    quad_order: int = 64,
) -> FunctionalGrid:
    """Backward induction recovering the rate and numeraire functionals.

    For i = N-1 down to 1: evaluate J_i at the date's state nodes, compute
    the model digitals U_0(T_i, x*) by quadrature, invert Black's digital
    formula for the strike at each node, and assemble the numeraire from
    1 / ((1 + delta K) J_i).  The induction starts from B(T_N, T_N) = 1;
    at i = N-1 (where J = 1) it reproduces the log-normal terminal
    functional up to the root-finding tolerance.

    Raises
    ------
    CalibrationError
        If a recovered rate functional is not strictly increasing or a
        digital inversion leaves its bracket.
    """
    tenor = curve.tenor
    n = tenor.n
    if np.any(np.asarray(curve.libors) < 0.0):
        raise CalibrationError("calibration needs a curve with nonnegative rates")

    used = driver.sigma[: n - 1]
    if np.all(used == 0.0):
        grid = FunctionalGrid(
            curve=curve,
            driver=driver,
            quad_order=quad_order,
            x_nodes=[np.zeros(1) for _ in range(n)],
            libor_values=[None] * n,
            numeraire_values=[None] * n,
            j_values=[None] * n,
            deterministic=True,
        )
        for i in range(1, n):
            grid.libor_values[i] = np.array([curve.libor(i)])
            grid.numeraire_values[i] = np.array([curve.bond(n) / curve.bond(i)])
            grid.j_values[i] = np.array([curve.bond(i + 1) / curve.bond(i)]) * (
                curve.bond(i) / curve.bond(n)
            )
        return grid
    if np.any(used == 0.0):
        raise CalibrationError(
            "driver volatility must be positive on every interval up to T_{N-1} "
            "(or identically zero for the deterministic limit)"
        )
    if np.any(np.asarray(curve.libors)[1:] <= 0.0):
        raise CalibrationError("digital calibration needs strictly positive fixings")

    grid = FunctionalGrid(
        curve=curve,
        driver=driver,
        quad_order=quad_order,
        x_nodes=[None] * n,
        libor_values=[None] * n,
        numeraire_values=[None] * n,
        j_values=[None] * n,
        _rate_interp=[None] * n,
        _rho_interp=[None] * n,
        _j_interp=[None] * n,
    )

    h, _ = _hermite(quad_order)
    for i in range(n - 1, 0, -1):
        var = driver.variance(tenor.dates[i])
        sd = math.sqrt(var)
        nodes = math.sqrt(2.0 * var) * h
        nodes = nodes[np.abs(nodes) <= _NODE_CLIP * sd]
        grid.x_nodes[i] = nodes

        j_nodes = np.asarray(grid.j_value(i, nodes))
        grid.j_values[i] = j_nodes
        if not np.all(j_nodes[[0, -1]] - 1.0 <= _TAIL_EPS):  # a tail with rates in it
            grid._j_interp[i] = _MonotoneLogInterp(nodes, j_nodes, shift=1.0)
        tails, _ = _tail_integrals(grid, i)
        u0 = curve.bond(n) * tails

        l0 = curve.libor(i)
        discount = curve.bond(i + 1)
        strikes = black_digital_strike(l0, u0, sd, discount)
        if np.any(np.diff(strikes) <= 0.0):
            raise CalibrationError(
                f"recovered rate functional at T_{i} is not strictly increasing"
            )

        grid.libor_values[i] = strikes
        rho = (1.0 + tenor.delta * strikes) * j_nodes
        grid.numeraire_values[i] = 1.0 / rho
        grid._rho_interp[i] = _MonotoneLogInterp(nodes, rho, shift=1.0)
        grid._rate_interp[i] = _MonotoneLogInterp(nodes, strikes, shift=0.0)

    return grid


def _check_date(grid: FunctionalGrid, i: int) -> None:
    """Refuse a quote date outside 1..N-1, the dates calibration covers."""
    if not 1 <= i <= grid.tenor.n - 1:
        raise LiborLabError(f"date index {i} outside 1..{grid.tenor.n - 1}")


def digital_value(grid: FunctionalGrid, i: int, strike: float) -> float:
    """Model value B(0, T_N) I_0(x*) of the digital 1_{L(T_i,T_i) > K} paid at T_{i+1}."""
    _check_date(grid, i)
    if grid.deterministic:
        pays = grid.curve.libor(i) > strike
        return grid.curve.bond(i + 1) if pays else 0.0
    i0, _ = _upper_integral(grid, i, grid._rate_interp[i].inverse(strike))
    return grid.curve.bond(grid.tenor.n) * float(i0)


def caplet_value(grid: FunctionalGrid, i: int, strike: float) -> float:
    """Caplet value B(0,T_{i+1}) delta E^{T_{i+1}}[(L(T_i,T_i) - K)^+].

    Valued in the terminal numeraire: delta B(0,T_N) E[ (L(X) - K)^+ J_i(X) ],
    which is delta B(0,T_N) (I_1(x*) - K I_0(x*)) beyond the exercise level x*.
    """
    _check_date(grid, i)
    if grid.deterministic:
        intrinsic = max(grid.curve.libor(i) - strike, 0.0)
        return grid.curve.bond(i + 1) * grid.tenor.delta * intrinsic
    if strike <= 0.0:
        raise LiborLabError("caplet strike must be positive for the grid valuation")
    i0, i1 = _upper_integral(grid, i, grid._rate_interp[i].inverse(strike))
    return grid.curve.bond(grid.tenor.n) * grid.tenor.delta * float(i1 - strike * i0)


def initial_bond_repricing(grid: FunctionalGrid, i: int) -> float:
    """B(0, T_N) E[J_i(X_{T_i})], which must reproduce B(0, T_{i+1})."""
    _check_date(grid, i)
    if grid.deterministic:
        return grid.curve.bond(i + 1)
    _, total = _tail_integrals(grid, i)
    return grid.curve.bond(grid.tenor.n) * total


def export_grid_csv(path, grid: FunctionalGrid) -> None:
    """Write the calibrated functionals as ``i,x,L_functional,numeraire_functional``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,x,L_functional,numeraire_functional\n")
        for i in range(1, grid.tenor.n):
            for x, lv, bv in zip(
                grid.x_nodes[i], grid.libor_values[i], grid.numeraire_values[i]
            ):
                fh.write(f"{i},{x:.17g},{lv:.17g},{bv:.17g}\n")
