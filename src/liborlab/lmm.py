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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, LiborLabError, QuadratureError
from .levy import DriverPathSet, LevyCharacteristics, simulate_driver
from .tenor import InitialCurve, TenorStructure
from .volatility import VolatilitySurface

_STEP_RTOL = 1e-9
_GRID_ATOL = 1e-10
_BLOCK_PATHS = 4096  # paths per block of the simulation kernel
_QUAD_ORDERS = (4, 8, 16, 32, 64, 128, 256)  # jump-drift quadrature orders tried


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

    def expm1_table(self, lam_row: np.ndarray) -> np.ndarray:
        """exp(lambda_k * x_q) - 1 for every (rate, node) pair."""
        return np.exp(np.outer(lam_row, self.nodes)) - 1.0


def _drift_all(
    w: np.ndarray,
    lam_row: np.ndarray,
    chars: LevyCharacteristics,
    quad: Optional[_JumpQuadrature],
    em1_table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Log-rate drift of every rate given left-endpoint weights.

    ``w`` has shape (paths, M) or (1, M); ``lam_row`` are the loadings at
    the current time (zero for already-fixed rates, which removes them from
    the sums and products automatically).  Returns the same leading shape.
    Column k reads only columns l >= k of its own row, so no other path and
    no leading column changes its bits: ``[c0:]`` alone gives the same.
    """
    c = chars.diffusion_c
    b = chars.drift_b
    wl = w * lam_row
    # tail[:, k] = sum_{l > k} w_l lambda_l
    tail = np.zeros_like(wl)
    tail[:, :-1] = np.cumsum(wl[:, :0:-1], axis=1)[:, ::-1]
    drift = -lam_row * b - 0.5 * c * lam_row**2 - c * lam_row * tail

    if quad is not None and quad.intensity > 0.0:
        if em1_table is None:
            em1_table = quad.expm1_table(lam_row)
        prod = None  # prod_{l > k} gamma_l at the nodes, updated in place
        jump = np.zeros_like(drift)
        for k in range(len(lam_row) - 1, -1, -1):
            if lam_row[k] == 0.0:
                continue
            if prod is None:
                # the product is still 1, so the integrand is the same on every path
                integral = (em1_table[k] * quad.weights).sum()
                prod = w[:, k, None] * em1_table[k]
                prod += 1.0
                tmp = np.empty_like(prod)
            else:
                np.multiply(em1_table[k], prod, out=tmp)
                tmp *= quad.weights
                integral = tmp.sum(axis=1)
                if k > 0:  # no column left of 0 reads the product
                    np.multiply(w[:, k, None], em1_table[k], out=tmp)
                    tmp += 1.0
                    prod *= tmp
            jump[:, k] = quad.intensity * integral - lam_row[k] * quad.mean_rate
        drift = drift - jump
    return drift


@dataclass(frozen=True)
class LmmModel:
    """Market-model definition: tenor, initial curve, loadings, driver.

    A jump driver's drift quadrature order ``quad_order`` is chosen at build
    time: doubled from 4 until the drift at the time-zero weights, on every
    loading row, agrees with the previous order's within 1e-13 (the finer
    order is kept).  If the rule goes non-finite or passes 256 first, the
    finer order of the closest pair is kept if that pair agrees within 1e-9,
    else ``QuadratureError``.  Brownian models keep 0.
    """

    tenor: TenorStructure
    curve: InitialCurve
    vols: VolatilitySurface
    chars: LevyCharacteristics
    quad_order: int = field(init=False, default=0)

    def __post_init__(self):
        if self.curve.tenor != self.tenor or self.vols.tenor != self.tenor:
            raise LiborLabError("curve and volatility surface must share the tenor structure")
        bound = self.chars.exp_moment_bound  # a row sum bounds each of its loadings too
        if np.max(np.sum(np.abs(self.vols.values), axis=1)) >= bound:
            raise DomainError(
                "sum of loadings exceeds the driver's exponential-moment bound; "
                "the drift integrals would diverge",
                max_admissible=bound,
            )
        if self.chars.has_jumps:
            object.__setattr__(self, "quad_order", self._choose_quad_order())

    def _choose_quad_order(self) -> int:
        w = forward_price_weights(self.curve.libors[None, :], self.tenor.delta)
        prev, best_err, best_order = math.nan, math.inf, None  # NaN: order 4 has no pair
        for order in _QUAD_ORDERS:
            with np.errstate(all="ignore"):  # large Gauss rules overflow
                quad = _JumpQuadrature(self.chars, order)
            if not np.all(np.isfinite(np.concatenate([quad.nodes, quad.weights]))):
                break
            cur = np.concatenate([_drift_all(w, lam, self.chars, quad) for lam in self.vols.values])
            err = float(np.max(np.abs(cur - prev)))
            if err <= 1e-13:
                return order
            if err < best_err:
                best_err, best_order = err, order
            prev = cur
        if not best_err <= 1e-9:
            raise QuadratureError(
                f"jump-drift quadrature: no two finite rules of order 4 to 256 agree "
                f"within 1e-9 (closest {best_err:.2e})"
            )
        return best_order

    @property
    def delta(self) -> float:
        return self.tenor.delta


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
    ``state`` holds the rates of one path, shape (N,), or of many, shape
    (paths, N); the shift and the factor at a scalar x then have one value
    per path.
    """
    state = np.asarray(state, dtype=float)
    lam_row = vols.row(s)
    w = forward_price_weights(state, delta)
    shift = math.sqrt(chars.diffusion_c) * np.sum(w[..., k + 1 :] * lam_row[k + 1 :], axis=-1)

    idx = np.arange(k + 1, len(lam_row))

    def compensator_factor(x):
        x = np.asarray(x, dtype=float)
        factors = 1.0 + w[..., idx] * np.expm1(np.multiply.outer(x, lam_row[idx]))
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
    weights fed to the drift.  The object holds read-only data only; the
    state of a path block is what ``start`` returns.
    """

    def __init__(self, model: LmmModel):
        self.delta = model.tenor.delta
        self.chars = model.chars
        self.log_l0 = _safe_log(np.asarray(model.curve.libors))
        self.w0 = forward_price_weights(np.asarray(model.curve.libors), self.delta)[None, :]
        self.quad = _JumpQuadrature(self.chars, model.quad_order) if self.chars.has_jumps else None

    def interval(self, j: int, c0: int, lam_row):
        """Read-only tables of tenor interval j for the rates ``[c0:]``."""
        return self.quad.expm1_table(lam_row) if self.quad is not None else None

    def start(self, n_paths: int):
        """Log-state and auxiliary state of a block of ``n_paths`` paths."""
        return np.tile(self.log_l0, (n_paths, 1)), None

    def rate(self, log_state):
        return np.exp(log_state)

    def forward_price(self, log_state, libors):
        return 1.0 + self.delta * libors

    def drift(self, log_state, aux, lam_row, table):
        """Drift of the log-rates with the scheme's left-endpoint weights."""
        raise NotImplementedError

    def advance(self, aux, lam_row, table, dt, dw, dh):
        """Update the auxiliary state after the main update of a step."""


class _ExactStep(_LmmStep):
    def drift(self, log_state, aux, lam_row, table):
        w = forward_price_weights(np.exp(log_state), self.delta)
        return _drift_all(w, lam_row, self.chars, self.quad, table)


class _FrozenStep(_LmmStep):
    """Deterministic drift beta0, the exact drift at the time-zero weights."""

    def interval(self, j: int, c0: int, lam_row):
        return _drift_all(self.w0[:, c0:], lam_row, self.chars, self.quad)

    def drift(self, log_state, aux, lam_row, table):
        return table


class _TaylorStep(_LmmStep):
    """First-order expansion of the subsequent rates inside the drift.

    The first-variation process Y of each log-rate (the auxiliary state)
    accumulates the frozen (deterministic) drift plus the loaded driver
    increments; the drift of the main state is then evaluated at rates
    L(0) * exp(Y) instead of the frozen initial values.
    """

    def interval(self, j: int, c0: int, lam_row):
        em1 = super().interval(j, c0, lam_row)
        beta0 = _drift_all(self.w0[:, c0:], lam_row, self.chars, self.quad, em1)
        return em1, beta0, self.log_l0[c0:]

    def start(self, n_paths: int):
        return np.tile(self.log_l0, (n_paths, 1)), np.zeros((n_paths, len(self.log_l0)))

    def drift(self, log_state, y, lam_row, table):
        w = forward_price_weights(np.exp(table[2] + y), self.delta)  # table[2]: log L(0)
        return _drift_all(w, lam_row, self.chars, self.quad, table[0])

    def advance(self, y, lam_row, table, dt, dw, dh):
        y += table[1] * dt + lam_row * dh[:, None]


class _PicardStep(_LmmStep):
    """Gaussian first Picard iterate z of the forward-price weights.

    Only continuous drivers reach this step, so the drift has no jump part.
    """

    def interval(self, j: int, c0: int, lam_row):
        return picard_tables_row(self.w0[0, c0:], lam_row, self.chars.diffusion_c)

    def start(self, n_paths: int):
        return np.tile(self.log_l0, (n_paths, 1)), np.tile(self.w0[0], (n_paths, 1))

    def drift(self, log_state, z, lam_row, table):
        return _drift_all(z, lam_row, self.chars, None)

    def advance(self, z, lam_row, table, dt, dw, dh):
        drift, vol = table
        z += drift * dt + vol * dw[:, None]


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


def _n_workers() -> int:
    """Threads for the path blocks: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    owns the log-state s of the rates: ``interval(j, c0, lam_row)`` builds
    the read-only tables of tenor interval j, ``start(n)`` gives the initial
    state and auxiliary state of a block of n paths, ``drift`` the
    left-endpoint drift, ``advance`` updates the auxiliary state after each
    step, and ``rate(s)`` / ``forward_price(s, L)`` map the state to the
    rates L and the forward prices 1 + delta L.  Every step applies

        s += drift * dt + lam_row * dH,

    and the kernel records fixings, terminal-measure density weights and
    optional snapshots at the grid points.

    On interval j the rates before the first nonzero loading c0 have zero
    loading and drift, so ``interval``, ``drift``, the update and ``advance``
    see only the live columns ``[c0:]`` of the loadings and the states.

    The paths run in blocks of ``_BLOCK_PATHS`` through the whole grid, so
    a block's state stays in cache, and the blocks run on a thread pool
    (numpy releases the GIL).  Every operation is local to a path, so the
    results do not depend on the block size or the number of threads.
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
    dts = driver.dts
    intervals = [tenor.index_of(t) for t in grid[:-1]]
    lam = model.vols.values
    live = {j: int(np.argmax(lam[j] != 0.0)) for j in set(intervals)}  # c0; 0 if none
    tables = {j: step.interval(j, c0, lam[j, c0:]) for j, c0 in live.items()}

    # column-major, so each rate's fixings and weights are one contiguous column
    fixings = np.full((n_paths, n), np.nan, order="F")  # nan until the fixing date
    fixings[:, 0] = l0[0]
    fixing_weights = np.ones((n_paths, n), order="F")

    date_idx = {}
    for d, t in enumerate(tenor.dates):
        hits = np.nonzero(np.abs(grid - t) <= _GRID_ATOL)[0]
        if hits.size:
            date_idx[int(hits[0])] = d
    n_dates = max(date_idx.values()) + 1

    date_values = np.empty((n_paths, n_dates, n)) if store_dates else None
    grid_values = np.empty((n_paths, len(grid), n)) if store_grid else None

    def record(rows: slice, state, i_grid: int):
        d = date_idx.get(i_grid)
        if d is None and not store_grid:
            return
        libors = step.rate(state)
        if store_grid:
            grid_values[rows, i_grid, :] = libors
        if d is None:
            return
        if store_dates:
            date_values[rows, d, :] = libors
        if 1 <= d <= n - 1:
            fixings[rows, d] = libors[:, d]
            forward = step.forward_price(state[:, d + 1 : n], libors[:, d + 1 : n])
            fixing_weights[rows, d] = np.prod(forward / (1.0 + delta * l0[d + 1 : n]), axis=1)

    def run_block(lo: int):
        rows = slice(lo, min(lo + _BLOCK_PATHS, n_paths))
        jumps = None if driver.jump_sums is None else driver.jump_sums[:, rows]
        block = replace(driver, dw=driver.dw[:, rows], jump_sums=jumps)
        dh = block.increments(model.chars)
        state, aux = step.start(block.n_paths)
        record(rows, state, 0)
        for i, j in enumerate(intervals):
            c0 = live[j]
            lam_row, s = lam[j, c0:], state[:, c0:]
            a = None if aux is None else aux[:, c0:]
            s += step.drift(s, a, lam_row, tables[j]) * dts[i] + lam_row * dh[i][:, None]
            step.advance(a, lam_row, tables[j], dts[i], block.dw[i], dh[i])
            record(rows, state, i + 1)

    with ThreadPoolExecutor(max_workers=_n_workers()) as pool:
        list(pool.map(run_block, range(0, n_paths, _BLOCK_PATHS)))

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
