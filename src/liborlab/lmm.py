"""LIBOR market model under the terminal forward measure.

Each forward rate is the exponential of a drifted driver integral,

    L(t, T_k) = L(0, T_k) exp( int_0^t beta(s, T_k) ds + int_0^t lambda(s, T_k) dH_s ),

where the drift makes L(., T_k) a martingale under the forward measure of
its own payment date.  Written against the terminal-measure characteristics
(b, c, F) of the driver, the drift of the log-rate is

    beta(s, T_k) = - lambda_k b - lambda_k^2 c / 2
                   - c lambda_k sum_{l>k} w_l lambda_l
                   - int [ (e^{lambda_k x} - 1) prod_{l>k} gamma_l(x) - lambda_k x ] F(dx),

with the forward-price weights w_l = delta L(s-, T_l) / (1 + delta L(s-, T_l))
and the per-rate jump tilt factors gamma_l(x) = 1 + w_l (e^{lambda_l x} - 1).
The weights make the drift of every rate except the last depend on all
subsequent rates, which is exactly why the driver's structure is not
preserved under the intermediate forward measures.

Simulation is a log-Euler scheme with predictable (left-endpoint) drift
evaluation on a grid that refines the tenor dates, so the piecewise-constant
loadings are integrated exactly and only the state dependence of the drift
is discretized.  Radon-Nikodym weights against the terminal measure follow
pathwise from the product of forward prices and are recorded at each rate's
fixing date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, LiborLabError, QuadratureError
from .levy import DriverPathSet, LevyCharacteristics, simulate_driver
from .tenor import InitialCurve, TenorStructure
from .volatility import VolatilitySurface

_STEP_RTOL = 1e-9
_GRID_ATOL = 1e-10


def jump_tilt_factor(libor, delta: float, loading: float, x):
    """Per-rate factor tilting the jump compensator under a measure change.

    Equals ``1 + w (e^{loading * x} - 1)`` with ``w = delta L / (1 + delta L)``;
    it is 1 when the jump size, the loading, or the rate vanishes, and
    positive for any nonnegative rate.
    """
    libor = np.asarray(libor, dtype=float)
    w = delta * libor / (1.0 + delta * libor)
    return 1.0 + w * np.expm1(loading * np.asarray(x, dtype=float))


def forward_price_weights(libors, delta: float):
    """w = delta L / (1 + delta L), the stochastic-exponential weights."""
    libors = np.asarray(libors, dtype=float)
    return delta * libors / (1.0 + delta * libors)


class _JumpQuadrature:
    """Fixed-order quadrature against the jump-size law of a driver."""

    def __init__(self, chars: LevyCharacteristics, order: int):
        self.order = order
        self.nodes, self.weights = chars.jump_quadrature(order)
        self.intensity = chars.jump_intensity
        self.mean_rate = chars.jump_mean_rate

    def exp_table(self, lam_row: np.ndarray) -> np.ndarray:
        """exp(lambda_k * x_q) for every (rate, node) pair."""
        return np.exp(np.outer(lam_row, self.nodes))


def _drift_all(
    w: np.ndarray,
    lam_row: np.ndarray,
    chars: LevyCharacteristics,
    quad: Optional[_JumpQuadrature],
    e_table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Log-rate drift of every rate given left-endpoint weights.

    ``w`` has shape (paths, N) or (1, N); ``lam_row`` are the loadings at
    the current time (zero for already-fixed rates, which removes them from
    the sums and products automatically).  Returns the same leading shape.
    """
    c = chars.diffusion_c
    b = chars.drift_b
    wl = w * lam_row
    # tail[:, k] = sum_{l > k} w_l lambda_l
    tail = np.zeros_like(wl)
    tail[:, :-1] = np.cumsum(wl[:, :0:-1], axis=1)[:, ::-1]
    drift = -lam_row * b - 0.5 * c * lam_row**2 - c * lam_row * tail

    if quad is not None and quad.intensity > 0.0:
        if e_table is None:
            e_table = quad.exp_table(lam_row)
        n = len(lam_row)
        prod = np.ones((w.shape[0], len(quad.nodes)))
        jump = np.zeros_like(drift)
        for k in range(n - 1, 0, -1):
            if lam_row[k] != 0.0:
                integrand = (e_table[k] - 1.0) * prod
                jump[:, k] = quad.intensity * (
                    integrand @ quad.weights
                ) - lam_row[k] * quad.mean_rate
                # extend the running product prod_{l > k-1} gamma_l
                prod = prod * (1.0 + w[:, k, None] * (e_table[k] - 1.0))
        drift = drift - jump
    return drift


@dataclass(frozen=True)
class LmmModel:
    """Market-model definition: tenor, initial curve, loadings, driver."""

    tenor: TenorStructure
    curve: InitialCurve
    vols: VolatilitySurface
    chars: LevyCharacteristics
    quad_order: int = 48

    def __post_init__(self):
        if self.curve.tenor != self.tenor or self.vols.tenor != self.tenor:
            raise LiborLabError("curve and volatility surface must share the tenor structure")
        bound = self.chars.exp_moment_bound
        if self.vols.max_abs >= bound:
            raise DomainError(
                "volatility loading exceeds the driver's exponential-moment bound",
                max_admissible=bound,
            )
        if self.chars.has_jumps:
            row_sums = np.sum(np.abs(self.vols.values), axis=1)
            if np.max(row_sums) >= bound:
                raise DomainError(
                    "sum of loadings exceeds the driver's exponential-moment bound; "
                    "the drift integrals would diverge",
                    max_admissible=bound,
                )
            self._validate_quadrature()

    def _validate_quadrature(self):
        """Richardson-style check of the drift quadrature at build time."""
        lam_row = self.vols.values[0]
        w = forward_price_weights(self.curve.libors[None, :], self.tenor.delta)
        lo, hi = (_JumpQuadrature(self.chars, q) for q in (self.quad_order, 2 * self.quad_order))
        for quad in (lo, hi):
            if not (np.all(np.isfinite(quad.nodes)) and np.all(np.isfinite(quad.weights))):
                raise QuadratureError(
                    f"jump-size quadrature of order {quad.order} has non-finite nodes or weights"
                )
        drifts = [_drift_all(w, lam_row, self.chars, quad) for quad in (lo, hi)]
        err = np.max(np.abs(drifts[1] - drifts[0]))
        if not err <= 1e-9:
            raise QuadratureError(
                f"jump-drift quadrature of order {self.quad_order} off by {err:.2e} (> 1e-9)"
            )

    @property
    def delta(self) -> float:
        return self.tenor.delta


def terminal_measure_drift(
    state,
    s: float,
    k: int,
    chars: LevyCharacteristics,
    vols: VolatilitySurface,
    delta: float,
    quad_order: int = 48,
):
    """Drift of log L(., T_k) under the terminal measure at time s.

    ``state`` holds all current rates, shape (N,) or (paths, N).  For a
    driftless continuous driver and the last rate this reduces to
    ``-lambda^2 c / 2``; for all-zero subsequent rates it is the plain
    single-exponential martingale drift ``-kappa(lambda)``.
    """
    state = np.atleast_2d(np.asarray(state, dtype=float))
    if np.any(state < 0.0):
        raise LiborLabError("LIBOR state entries must be nonnegative")
    if s > vols.tenor.dates[k] + _GRID_ATOL:
        raise LiborLabError(f"drift of rate {k} queried after its reset date")
    lam_row = vols.row(s)
    w = forward_price_weights(state, delta)
    quad = _JumpQuadrature(chars, quad_order) if chars.has_jumps else None
    drift = _drift_all(w, lam_row, chars, quad)[:, k]
    return drift[0] if drift.shape == (1,) else drift


def forward_measure_characteristics(
    state,
    s: float,
    k: int,
    chars: LevyCharacteristics,
    vols: VolatilitySurface,
    delta: float,
):
    """Girsanov data of the driver under the forward measure of T_{k+1}.

    Returns the Brownian drift shift ``sqrt(c) * sum_{l>k} w_l lambda_l`` and
    the jump-compensator factor ``x -> prod_{l>k} gamma_l(x)``.  Both depend
    on the subsequent rates, i.e. the change of measure is state dependent.
    """
    state = np.asarray(state, dtype=float)
    lam_row = vols.row(s)
    w = forward_price_weights(state, delta)
    shift = math.sqrt(chars.diffusion_c) * float(
        np.sum(w[k + 1 :] * lam_row[k + 1 :])
    )

    idx = np.arange(k + 1, len(lam_row))

    def compensator_factor(x):
        x = np.asarray(x, dtype=float)
        factors = 1.0 + w[idx] * np.expm1(np.multiply.outer(x, lam_row[idx]))
        return np.prod(factors, axis=-1)

    return shift, compensator_factor


@dataclass(frozen=True)
class LiborPathSet:
    """Simulated rates with terminal-measure density weights.

    ``fixings[:, k]`` is L(T_k, T_k) per path and ``fixing_weights[:, k]``
    the normalized density dP_{T_{k+1}}/dP_{T_N} at that fixing date, so
    caplet payoffs price directly under the terminal measure.  Snapshots of
    the full rate vector at tenor dates (``date_values``) and at every grid
    point (``grid_values``) are optional.
    """

    tenor: TenorStructure
    scheme: str
    seed: int
    grid: np.ndarray = field(repr=False)
    initial_libors: np.ndarray = field(repr=False)
    fixings: np.ndarray = field(repr=False)
    fixing_weights: np.ndarray = field(repr=False)
    date_values: Optional[np.ndarray] = field(repr=False, default=None)
    grid_values: Optional[np.ndarray] = field(repr=False, default=None)
    antithetic: bool = False

    @property
    def n_paths(self) -> int:
        return self.fixings.shape[0]

    @property
    def delta(self) -> float:
        return self.tenor.delta

    def density_weight(self, date_index: int, measure_index: int) -> np.ndarray:
        """Normalized dP_{T_m}/dP_{T_N} per path at tenor date T_d.

        Requires tenor-date snapshots.  The weight is the forward-price
        ratio prod_{l=m}^{N-1} (1 + delta L(T_d, T_l)) / (1 + delta L(0, T_l)).
        """
        if self.date_values is None:
            raise LiborLabError("path set was simulated without tenor-date snapshots")
        m, n = measure_index, self.tenor.n
        if not 1 <= m <= n:
            raise LiborLabError(f"measure index {m} outside 1..{n}")
        state = self.date_values[:, date_index, m:n]
        ratios = (1.0 + self.delta * state) / (1.0 + self.delta * self.initial_libors[m:n])
        return np.prod(ratios, axis=1)

    def min_rate(self) -> float:
        """Smallest stored rate; ignores fixings beyond the simulated horizon.

        A NaN rate anywhere else makes the result NaN, so it fails every
        positivity test.
        """
        dates = np.asarray(self.tenor.dates[: self.tenor.n])
        reached = int(np.sum(dates <= self.grid[-1] + _GRID_ATOL))
        vals = [np.min(self.fixings[:, :reached])]
        if self.date_values is not None:
            vals.append(np.min(self.date_values))
        if self.grid_values is not None:
            vals.append(np.min(self.grid_values))
        return float(np.min(vals))


def simulation_grid(
    tenor: TenorStructure, steps_per_period: int = 4, horizon: Optional[float] = None
) -> np.ndarray:
    """Uniform refinement of the tenor dates by ``steps_per_period``.

    The default horizon is T_{N-1}, after which every modeled rate is fixed.
    """
    if steps_per_period < 1:
        raise LiborLabError("steps_per_period must be >= 1")
    if horizon is None:
        horizon = tenor.dates[tenor.n - 1]
    n_periods = int(round(horizon / tenor.delta))
    if abs(n_periods * tenor.delta - horizon) > _GRID_ATOL:
        raise LiborLabError("horizon must be a tenor date")
    return np.linspace(0.0, horizon, n_periods * steps_per_period + 1)


def _check_grid(tenor: TenorStructure, grid: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2 or grid[0] != 0.0:
        raise LiborLabError("simulation grid must start at 0 and hold at least one step")
    max_step = float(np.max(np.diff(grid)))
    if max_step > tenor.delta / 4.0 * (1.0 + _STEP_RTOL):
        raise LiborLabError(
            f"step {max_step} violates the delta/4 = {tenor.delta / 4.0} bound"
        )
    covered = [t for t in tenor.dates if t <= grid[-1] + _GRID_ATOL]
    for t in covered:
        if not np.any(np.abs(grid - t) <= _GRID_ATOL):
            raise LiborLabError(f"grid must contain tenor date {t}")


class _LmmStep:
    """Log-rate state of one market-model scheme; see ``_simulate_core``.

    The state is log L and the schemes differ only in the forward-price
    weights fed to the drift.
    """

    def __init__(self, model: LmmModel):
        self.delta = model.tenor.delta
        self.chars = model.chars
        self.log_l0 = _safe_log(np.asarray(model.curve.libors))
        self.w0 = forward_price_weights(np.asarray(model.curve.libors), self.delta)[None, :]
        self.quad = _JumpQuadrature(self.chars, model.quad_order) if self.chars.has_jumps else None
        self.e_table = None

    def start(self, n_paths: int) -> np.ndarray:
        return np.tile(self.log_l0, (n_paths, 1))

    def rate(self, log_state):
        return np.exp(log_state)

    def forward_price(self, log_state, libors):
        return 1.0 + self.delta * libors

    def weights(self, log_state):
        """Left-endpoint weights w = delta L / (1 + delta L) seen by the drift."""
        raise NotImplementedError

    def drift(self, log_state, j: int, lam_row):
        self.e_table = self.quad.exp_table(lam_row) if self.quad is not None else None
        return _drift_all(self.weights(log_state), lam_row, self.chars, self.quad, self.e_table)

    def advance(self, lam_row, dt, dw, dh):
        """Update any auxiliary state after the main update of a step."""


class _ExactStep(_LmmStep):
    def weights(self, log_state):
        return forward_price_weights(np.exp(log_state), self.delta)


class _FrozenStep(_LmmStep):
    def weights(self, log_state):
        return self.w0


class _TaylorStep(_LmmStep):
    """First-order expansion of the subsequent rates inside the drift.

    The first-variation process of each log-rate accumulates the frozen
    (deterministic) drift plus the loaded driver increments; the drift of
    the main state is then evaluated at rates L(0) * exp(Y) instead of the
    frozen initial values.
    """

    def start(self, n_paths: int) -> np.ndarray:
        self.y = np.zeros((n_paths, len(self.log_l0)))
        return super().start(n_paths)

    def weights(self, log_state):
        return forward_price_weights(np.exp(self.log_l0[None, :] + self.y), self.delta)

    def advance(self, lam_row, dt, dw, dh):
        beta0 = _drift_all(self.w0, lam_row, self.chars, self.quad, self.e_table)
        self.y += beta0 * dt + lam_row * dh[:, None]


class _PicardStep(_LmmStep):
    """Gaussian first Picard iterate of the forward-price weights."""

    def start(self, n_paths: int) -> np.ndarray:
        self.z = np.tile(self.w0[0], (n_paths, 1))
        return super().start(n_paths)

    def weights(self, log_state):
        return self.z

    def advance(self, lam_row, dt, dw, dh):
        drift, vol = picard_tables_row(self.w0[0], lam_row, self.chars.diffusion_c)
        self.z += drift * dt + vol * dw[:, None]


def picard_tables_row(w0: np.ndarray, lam_row: np.ndarray, c: float):
    """Drift and diffusion coefficients of the weight-process SDE at w0.

    Writing w = f(L) with f(x) = delta x / (1 + delta x), Ito's formula on
    the log-normal rate dynamics gives (with f'(L) L = w (1 - w) and
    f''(L) L^2 = -2 w^2 (1 - w))

        drift_k = -c lambda_k w_k (1 - w_k) ( sum_{l>k} w_l lambda_l + w_k lambda_k ),
        vol_k   = sqrt(c) lambda_k w_k (1 - w_k).
    """
    wl = w0 * lam_row
    tail = np.cumsum(wl[::-1])[::-1]
    tail = np.concatenate([tail[1:], [0.0]])
    g = w0 * (1.0 - w0)
    drift = -c * lam_row * g * (tail + wl)
    vol = math.sqrt(c) * lam_row * g
    return drift, vol


def _safe_log(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values)


def _simulate_core(
    model,
    grid,
    n_paths: int,
    seed: int,
    step,
    scheme: str,
    driver: Optional[DriverPathSet],
    store_dates: bool,
    store_grid: bool,
    antithetic: bool,
) -> LiborPathSet:
    """Log-Euler recursion shared by the market-model schemes and the FPM.

    ``model`` supplies the tenor, curve, loadings and driver law.  ``step``
    owns the log-state s of the rates: ``start(n_paths)`` gives its initial
    value, ``drift(s, j, lam_row)`` the left-endpoint drift on tenor
    interval j, ``advance`` any auxiliary state after each step, and
    ``rate(s)`` / ``forward_price(s, L)`` map the state to the rates L and
    the forward prices 1 + delta L.  Every step applies

        s += drift * dt + lam_row * dH,

    and the kernel records fixings, terminal-measure density weights and
    optional snapshots at the grid points.
    """
    grid = np.asarray(grid, dtype=float)
    _check_grid(model.tenor, grid)
    if driver is None:
        driver = simulate_driver(model.chars, grid, n_paths, seed, antithetic=antithetic)
    else:
        if driver.n_steps != len(grid) - 1 or not np.allclose(driver.grid, grid):
            raise LiborLabError("driver path set does not match the simulation grid")
        n_paths = driver.n_paths
        antithetic = driver.antithetic

    tenor = model.tenor
    n = tenor.n
    delta = tenor.delta
    l0 = np.asarray(model.curve.libors)
    dh = driver.increments(model.chars)
    dts = driver.dts

    state = step.start(n_paths)
    fixings = np.full((n_paths, n), np.nan)  # nan until the fixing date is reached
    fixings[:, 0] = l0[0]
    fixing_weights = np.ones((n_paths, n))

    date_idx = {}
    for d, t in enumerate(tenor.dates):
        hits = np.nonzero(np.abs(grid - t) <= _GRID_ATOL)[0]
        if hits.size:
            date_idx[int(hits[0])] = d
    n_dates = max(date_idx.values()) + 1

    date_values = np.empty((n_paths, n_dates, n)) if store_dates else None
    grid_values = np.empty((n_paths, len(grid), n)) if store_grid else None

    def record(i_grid: int):
        d = date_idx.get(i_grid)
        if d is None and not store_grid:
            return
        libors = step.rate(state)
        if store_grid:
            grid_values[:, i_grid, :] = libors
        if d is None:
            return
        if store_dates:
            date_values[:, d, :] = libors
        if 1 <= d <= n - 1:
            fixings[:, d] = libors[:, d]
            forward = step.forward_price(state[:, d + 1 : n], libors[:, d + 1 : n])
            fixing_weights[:, d] = np.prod(forward / (1.0 + delta * l0[d + 1 : n]), axis=1)

    record(0)
    for i in range(len(grid) - 1):
        j = tenor.index_of(grid[i])
        lam_row = model.vols.values[j]
        state += step.drift(state, j, lam_row) * dts[i] + lam_row * dh[i][:, None]
        step.advance(lam_row, dts[i], driver.dw[i], dh[i])
        record(i + 1)

    return LiborPathSet(
        tenor=tenor,
        scheme=scheme,
        seed=int(seed),
        grid=grid,
        initial_libors=l0,
        fixings=fixings,
        fixing_weights=fixing_weights,
        date_values=date_values,
        grid_values=grid_values,
        antithetic=antithetic,
    )


def simulate_exact(
    model: LmmModel,
    grid,
    n_paths: int,
    seed: int,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
    store_grid: bool = False,
    antithetic: bool = False,
) -> LiborPathSet:
    """Coupled simulation with the full state-dependent drift.

    All rates advance simultaneously on the shared driver; the drift of each
    rate is evaluated at the left endpoint of every step with the current
    values of the subsequent rates.  Rates are constant after their reset
    dates (their loadings vanish there).
    """
    return _simulate_core(
        model, grid, n_paths, seed, _ExactStep(model), "exact",
        driver, store_dates, store_grid, antithetic,
    )
