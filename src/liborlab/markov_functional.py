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

State grids are Gauss-Hermite nodes scaled by sqrt(Sigma_{T_i}), clipped
to a configurable number of standard deviations: beyond the clip the
digital targets collide at double precision and the recovered strikes
could not stay strictly monotone.  Functionals between nodes are monotone
cubic in log(rho - 1) / log(rate), with linear extension of the log values
outside the node range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import ndtr

from .errors import CalibrationError, LiborLabError, QuadratureError
from .tenor import InitialCurve, TenorStructure

_TAIL_EPS = 1e-300


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
        if np.any(sig < 0.0):
            raise LiborLabError("driver volatilities must be nonnegative")
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


def conditional_expectation(
    g,
    from_t: float,
    to_t: float,
    x: float,
    driver: MfmDriver,
    order: int = 64,
    check: bool = False,
):
    """E[g(X_{to_t}) | X_{from_t} = x] by Gauss-Hermite quadrature.

    Exact for polynomial g up to degree 2 * order - 1.  With ``check=True``
    the value is recomputed at a higher order and a discrepancy above 1e-9
    (relative) raises ``QuadratureError``.
    """
    if to_t < from_t:
        raise LiborLabError("conditioning time must not exceed the target time")
    var = driver.variance(to_t) - driver.variance(from_t)
    if var < 0.0:
        raise LiborLabError("driver variance must be nondecreasing")

    def estimate(n):
        if var == 0.0:
            return float(np.asarray(g(np.asarray([x]))).reshape(-1)[0])
        h, w = _hermite(n)
        pts = x + math.sqrt(2.0 * var) * h
        return float(np.sum(np.asarray(g(pts)) * w) / math.sqrt(math.pi))

    value = estimate(order)
    if check:
        refined = estimate(order + 32)
        if abs(refined - value) > 1e-9 * max(1.0, abs(refined)):
            raise QuadratureError(
                f"Gauss-Hermite order {order} off by {abs(refined - value):.2e}"
            )
    return value


def black_digital_price(L0: float, strike: float, total_vol: float, discount: float) -> float:
    """Digital caplet quote discount * N(d2), paying 1_{L > K} at T_{i+1}."""
    if strike <= 0.0:
        raise LiborLabError(f"digital strike must be positive, got {strike}")
    if total_vol < 0.0:
        raise LiborLabError("total volatility must be nonnegative")
    if L0 <= 0.0:
        return 0.0
    if total_vol == 0.0:
        return discount if L0 > strike else 0.0
    d2 = (math.log(L0 / strike) - 0.5 * total_vol**2) / total_vol
    return discount * ndtr(d2)


def black_digital_strike(
    L0: float, target: float, total_vol: float, discount: float
) -> float:
    """Unique strike with Black digital value ``target``.

    Bracketed root-find on [1e-8, 10 L0 e^{5 v}]; targets outside the
    bracket's value range raise ``CalibrationError``.
    """
    lo, hi = 1e-8, 10.0 * L0 * math.exp(5.0 * total_vol)
    f_lo = black_digital_price(L0, lo, total_vol, discount) - target
    f_hi = black_digital_price(L0, hi, total_vol, discount) - target
    if f_lo < 0.0 or f_hi > 0.0:
        raise CalibrationError(
            f"digital target {target} outside the bracket [{lo}, {hi}] value range"
        )
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    return brentq(
        lambda k: black_digital_price(L0, k, total_vol, discount) - target,
        lo,
        hi,
        xtol=1e-12,
        rtol=8.9e-16,
    )


class _MonotoneLogInterp:
    """Monotone cubic of log(f - shift) with linear extension outside the nodes.

    ``shift = 0`` interpolates positive rates in log(rate).  ``shift = 1``
    evaluates functions f > 1 that behave like 1 + exp(linear) in the tails
    (reciprocal numeraires and their conditional expectations).
    """

    def __init__(self, x_nodes: np.ndarray, values: np.ndarray, shift: float):
        self.x = np.asarray(x_nodes, dtype=float)
        self.shift = shift
        shifted = np.asarray(values, dtype=float) - shift
        if np.any(shifted <= 0.0):
            raise CalibrationError(f"interpolated functional must exceed {shift} at every node")
        self.logv = np.log(shifted)
        self._pchip = PchipInterpolator(self.x, self.logv, extrapolate=False)
        d = self._pchip.derivative()
        self.slope_lo = float(d(self.x[0]))
        self.slope_hi = float(d(self.x[-1]))

    def log_shifted(self, x):
        x = np.asarray(x, dtype=float)
        out = self._pchip(x)
        below = x < self.x[0]
        above = x > self.x[-1]
        if np.any(below):
            out = np.where(below, self.logv[0] + self.slope_lo * (x - self.x[0]), out)
        if np.any(above):
            out = np.where(above, self.logv[-1] + self.slope_hi * (x - self.x[-1]), out)
        return out

    def __call__(self, x):
        return self.shift + np.exp(self.log_shifted(x))

    def tail_coeffs(self, upper: bool):
        """(a, b) of the tail form shift + exp(a + b x)."""
        if upper:
            return self.logv[-1] - self.slope_hi * self.x[-1], self.slope_hi
        return self.logv[0] - self.slope_lo * self.x[0], self.slope_lo

    def inverse(self, value: float) -> float:
        """State x with f(x) = value."""
        logv = math.log(value - self.shift)
        if logv <= self.logv[0]:
            return self.x[0] + (logv - self.logv[0]) / self.slope_lo
        if logv >= self.logv[-1]:
            return self.x[-1] + (logv - self.logv[-1]) / self.slope_hi
        return float(
            brentq(lambda x: float(self._pchip(x)) - logv, self.x[0], self.x[-1], xtol=1e-14)
        )


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
    node_clip: float
    x_nodes: list
    libor_values: list
    numeraire_values: list
    j_values: list
    deterministic: bool = False
    _rate_interp: list = field(default_factory=list, repr=False)
    _rho_interp: list = field(default_factory=list, repr=False)
    _tails_cache: dict = field(default_factory=dict, repr=False)

    @property
    def tenor(self) -> TenorStructure:
        return self.curve.tenor

    @property
    def boundary(self) -> float:
        return self.tenor.dates[self.tenor.n - 1]

    def rate_value(self, i: int, x):
        """L(T_i, T_i; x) with monotone-cubic interpolation between nodes."""
        if self.deterministic:
            return np.full_like(np.asarray(x, dtype=float), self.curve.libor(i))[()]
        return self._rate_interp[i](x)

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


def _tail_integrals(grid: FunctionalGrid, i: int, panel_order: int = 24):
    """T(x_m) = int_{x_m}^inf J_i(x) phi(x) dx per node, plus the total.

    Panels between consecutive nodes use Gauss-Legendre; the mass beyond
    the node range uses the 1 + exp(linear) tail form of J_i.
    """
    if i in grid._tails_cache:
        return grid._tails_cache[i]
    x = grid.x_nodes[i]
    var = grid.driver.variance(grid.tenor.dates[i])
    sd = math.sqrt(var)
    y, w = _legendre(panel_order)

    mid = 0.5 * (x[:-1] + x[1:])
    half = 0.5 * (x[1:] - x[:-1])
    pts = mid[:, None] + half[:, None] * y  # (panels, order)
    jv = np.asarray(grid.j_value(i, pts.reshape(-1))).reshape(pts.shape)
    dens = np.exp(-0.5 * (pts / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    panels = (jv * dens) @ w * half

    j_nodes = np.asarray(grid.j_value(i, x))
    # tails: J ~ 1 + exp(a + b x); a rate-free J (== 1) has a pure Gaussian tail
    def tail(upper: bool) -> float:
        c = x[-1] if upper else x[0]
        base = ndtr((-c if upper else c) / sd)
        j_edge = j_nodes[-1] if upper else j_nodes[0]
        if j_edge - 1.0 <= _TAIL_EPS:
            return float(base)
        interp = _MonotoneLogInterp(x, j_nodes, shift=1.0)
        a, b = interp.tail_coeffs(upper)
        return float(base + math.exp(a) * _gaussian_exp_tail(c, b, var, upper))

    upper_tail = tail(True)
    t_vals = np.empty(len(x))
    t_vals[-1] = upper_tail
    t_vals[:-1] = upper_tail + np.cumsum(panels[::-1])[::-1]
    total = t_vals[0] + tail(False)
    grid._tails_cache[i] = (t_vals, total)
    return t_vals, total


def calibrate_backward(
    curve: InitialCurve,
    driver: MfmDriver,
    quad_order: int = 64,
    node_clip: float = 6.0,
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
            node_clip=node_clip,
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
        node_clip=node_clip,
        x_nodes=[None] * n,
        libor_values=[None] * n,
        numeraire_values=[None] * n,
        j_values=[None] * n,
        _rate_interp=[None] * n,
        _rho_interp=[None] * n,
    )

    h, _ = _hermite(quad_order)
    for i in range(n - 1, 0, -1):
        var = driver.variance(tenor.dates[i])
        sd = math.sqrt(var)
        nodes = math.sqrt(2.0 * var) * h
        nodes = nodes[np.abs(nodes) <= node_clip * sd]
        grid.x_nodes[i] = nodes

        j_nodes = np.asarray(grid.j_value(i, nodes))
        tails, _ = _tail_integrals(grid, i)
        u0 = curve.bond(n) * tails

        l0 = curve.libor(i)
        discount = curve.bond(i + 1)
        strikes = np.array(
            [black_digital_strike(l0, target, sd, discount) for target in u0]
        )
        if np.any(np.diff(strikes) <= 0.0):
            raise CalibrationError(
                f"recovered rate functional at T_{i} is not strictly increasing"
            )

        grid.libor_values[i] = strikes
        grid.j_values[i] = j_nodes
        rho = (1.0 + tenor.delta * strikes) * j_nodes
        grid.numeraire_values[i] = 1.0 / rho
        grid._rho_interp[i] = _MonotoneLogInterp(nodes, rho, shift=1.0)
        grid._rate_interp[i] = _MonotoneLogInterp(nodes, strikes, shift=0.0)

    return grid


def digital_value(grid: FunctionalGrid, i: int, strike: float) -> float:
    """Model value of the digital caplet 1_{L(T_i,T_i) > K} paid at T_{i+1}.

    Inverts the calibrated rate functional for the state level x* and
    integrates J_i against the Gaussian law beyond it; state levels past
    the node range fall back to the tail form of J_i.
    """
    if grid.deterministic:
        pays = grid.curve.libor(i) > strike
        return grid.curve.bond(i + 1) if pays else 0.0
    x_star = grid._rate_interp[i].inverse(strike)
    x = grid.x_nodes[i]
    tails, total = _tail_integrals(grid, i)
    var = grid.driver.variance(grid.tenor.dates[i])
    sd = math.sqrt(var)
    bond_n = grid.curve.bond(grid.tenor.n)
    j_nodes = np.asarray(grid.j_value(i, x))
    j_interp = None
    if j_nodes[0] - 1.0 > _TAIL_EPS and j_nodes[-1] - 1.0 > _TAIL_EPS:
        j_interp = _MonotoneLogInterp(x, j_nodes, shift=1.0)

    def tail_beyond(c: float, upper: bool) -> float:
        base = ndtr((-c if upper else c) / sd)
        if j_interp is None:
            return float(base)
        a, b = j_interp.tail_coeffs(upper)
        return float(base + math.exp(a) * _gaussian_exp_tail(c, b, var, upper))

    if x_star >= x[-1]:
        return bond_n * tail_beyond(x_star, True)
    if x_star <= x[0]:
        return bond_n * (tails[0] + tail_beyond(x_star, False) - tail_beyond(x[0], False))

    m = int(np.searchsorted(x, x_star, side="right") - 1)
    # exact tail at x_{m+1} plus the partial panel [x_star, x_{m+1}]
    y, w = _legendre(24)
    mid = 0.5 * (x_star + x[m + 1])
    half = 0.5 * (x[m + 1] - x_star)
    pts = mid + half * y
    dens = np.exp(-0.5 * (pts / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    partial = float(np.sum(np.asarray(grid.j_value(i, pts)) * dens * w) * half)
    return bond_n * (tails[m + 1] + partial)


def caplet_value(grid: FunctionalGrid, i: int, strike: float) -> float:
    """Caplet value B(0,T_{i+1}) delta E^{T_{i+1}}[(L(T_i,T_i) - K)^+].

    Valued in the terminal numeraire: delta B(0,T_N) E[ (L(X) - K)^+ J_i(X) ],
    integrating the smooth part beyond the exercise level x* by panels.
    """
    if grid.deterministic:
        intrinsic = max(grid.curve.libor(i) - strike, 0.0)
        return grid.curve.bond(i + 1) * grid.tenor.delta * intrinsic
    if strike <= 0.0:
        raise LiborLabError("caplet strike must be positive for the grid valuation")
    x_star = grid._rate_interp[i].inverse(strike)
    x = grid.x_nodes[i]
    var = grid.driver.variance(grid.tenor.dates[i])
    sd = math.sqrt(var)
    lo = max(x_star, x[0])
    hi = x[-1] + 2.0 * sd
    if x_star >= hi:
        return 0.0
    y, w = _legendre(64)
    edges = np.linspace(lo, hi, 33)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * y).reshape(-1)
    dens = np.exp(-0.5 * (pts / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    rate = np.asarray(grid.rate_value(i, pts))
    jv = np.asarray(grid.j_value(i, pts))
    payoff = np.clip(rate - strike, 0.0, None) * jv * dens
    value = float(np.sum(payoff.reshape(len(mid), -1) @ w * half))
    return grid.curve.bond(grid.tenor.n) * grid.tenor.delta * value


def initial_bond_repricing(grid: FunctionalGrid, i: int) -> float:
    """B(0, T_N) E[J_i(X_{T_i})], which must reproduce B(0, T_{i+1})."""
    if grid.deterministic:
        return grid.curve.bond(i + 1)
    _, total = _tail_integrals(grid, i)
    return grid.curve.bond(grid.tenor.n) * total


def bond_value(grid: FunctionalGrid, t_index: int, s_index: int, x: float) -> float:
    """B(T_i, T_j; x) from the calibrated functionals.

    Uses the martingale property against the terminal numeraire with the
    monotone-cubic functional interpolants; states outside the calibrated
    node range are clamped with a warning.  ``t_index = 0`` (where the
    state is 0 and the numeraire is the observed B(0, T_N)) returns the
    model's reconstruction of the initial curve.
    """
    i, j = t_index, s_index
    n = grid.tenor.n
    if not 0 <= i <= j <= n:
        raise LiborLabError(f"need 0 <= t_index <= s_index <= {n}")
    if i == j:
        return 1.0
    if i == 0:
        x_eff = 0.0
        numeraire = grid.curve.bond(n)
    else:
        nodes = grid.x_nodes[i]
        x_eff = x
        if not grid.deterministic and (x < nodes[0] or x > nodes[-1]):
            warnings.warn(
                f"state {x} outside the calibrated range of T_{i}; clamping",
                stacklevel=2,
            )
            x_eff = float(np.clip(x, nodes[0], nodes[-1]))
        numeraire = 1.0 / float(np.asarray(grid.reciprocal_numeraire(i, np.asarray([x_eff])))[0])
    if j == n:
        return numeraire
    if j == i + 1:
        return numeraire * float(np.asarray(grid.j_value(i, np.asarray([x_eff])))[0])
    if grid.deterministic:
        return numeraire * grid.curve.bond(j) / grid.curve.bond(n)
    var = grid.driver.variance(grid.tenor.dates[j]) - grid.driver.variance(grid.tenor.dates[i])
    h, w = _hermite(grid.quad_order)
    pts = x_eff + math.sqrt(2.0 * var) * h
    vals = np.asarray(grid.reciprocal_numeraire(j, pts))
    return numeraire * float(vals @ w / math.sqrt(math.pi))


def export_grid_csv(path, grid: FunctionalGrid) -> None:
    """Write the calibrated functionals as ``i,x,L_functional,numeraire_functional``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,x,L_functional,numeraire_functional\n")
        for i in range(1, grid.tenor.n):
            for x, lv, bv in zip(
                grid.x_nodes[i], grid.libor_values[i], grid.numeraire_values[i]
            ):
                fh.write(f"{i},{x:.17g},{lv:.17g},{bv:.17g}\n")
