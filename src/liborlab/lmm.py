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
evaluation on ``simulation_grid(tenor, m)``: the tenor dates T_0 .. T_{N-1},
each period cut into a whole number m >= 4 of equal steps, so the
piecewise-constant loadings are integrated exactly and only the state
dependence of the drift is discretized.  Step i lies in tenor interval
i // m, and grid point i is tenor date i / m when m divides i; no other
grid is accepted.  Radon-Nikodym weights against the terminal measure follow
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

_BLOCK_PATHS = 8192  # paths per block of the simulation kernel
_QUAD_ORDERS = (4, 8, 16, 32, 64, 128, 256)  # jump-drift quadrature orders tried


def forward_price_weights(libors, delta: float):
    """w = delta L / (1 + delta L), the stochastic-exponential weights."""
    dl = delta * np.asarray(libors, dtype=float)
    return dl / (1.0 + dl)


def _tail_sums(wl: np.ndarray) -> np.ndarray:
    """tail[k] = sum_{l>k} wl[l] along axis 0, for shape (M,) or (M, paths).

    One contiguous row add per rate, from the last row down: the add order,
    and so the bits, of ``np.cumsum(wl[:0:-1], axis=0)[::-1]``.  Row M-2 is
    a copy of row M-1, as in the cumsum, so a negative zero keeps its sign.
    """
    tail = np.zeros_like(wl)
    if len(wl) > 1:
        tail[-2] = wl[-1]
        for k in range(len(wl) - 3, -1, -1):
            np.add(tail[k + 1 : k + 2], wl[k + 1 : k + 2], out=tail[k : k + 1])
    return tail


def _drift_all(
    w: np.ndarray,
    lam_row: np.ndarray,
    chars: LevyCharacteristics,
    rule: Optional[tuple],
) -> np.ndarray:
    """Log-rate drift of every rate given left-endpoint weights.

    ``w`` has shape (M, paths) or (M, 1): rate-major, so each per-rate
    operation runs on a contiguous row.  ``lam_row`` are the M loadings at
    the current time (zero for already-fixed rates, which removes them from
    the sums and products automatically).  ``rule`` is the (nodes, weights)
    quadrature of the jump-size law, or None for a continuous driver.
    Returns the shape of ``w``.  Row k reads only rows l >= k of its own
    column, so no other path and no leading row changes its bits: ``[c0:]``
    alone gives the same.  The jump integrand stays (paths, nodes), so its
    sum runs along the contiguous node axis, whose pairwise summation fixes
    the bits; a sum along the path axis would change them.
    """
    c = chars.diffusion_c
    b = chars.drift_b
    lam = lam_row[:, None]
    tail = _tail_sums(w * lam)  # sum_{l > k} w_l lambda_l
    drift = -lam * b - 0.5 * c * lam**2 - c * lam * tail

    if rule is not None:
        nodes, weights = rule
        intensity, mean_rate = chars.jump_intensity, chars.jump_mean_rate
        em1 = np.exp(np.outer(lam_row, nodes)) - 1.0  # exp(lambda_k x_q) - 1
        prod = None  # prod_{l > k} gamma_l at the nodes, updated in place
        jump = np.zeros_like(drift)
        for k in range(len(lam_row) - 1, -1, -1):
            if lam_row[k] == 0.0:
                continue
            if prod is None:
                # the product is still 1, so the integrand is the same on every path
                integral = (em1[k] * weights).sum()
                prod = w[k, :, None] * em1[k]
                prod += 1.0
                tmp = np.empty_like(prod)
            else:
                np.multiply(em1[k], prod, out=tmp)
                tmp *= weights
                integral = tmp.sum(axis=1)
                if k > 0:  # no column left of 0 reads the product
                    np.multiply(w[k, :, None], em1[k], out=tmp)
                    tmp += 1.0
                    prod *= tmp
            jump[k] = intensity * integral - lam_row[k] * mean_rate
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
        w = forward_price_weights(self.curve.libors[:, None], self.tenor.delta)
        prev, best_err, best_order = math.nan, math.inf, None  # NaN: order 4 has no pair
        for order in _QUAD_ORDERS:
            with np.errstate(all="ignore"):  # large Gauss rules overflow
                rule = self.chars.jump_quadrature(order)
            if not np.all(np.isfinite(np.concatenate(rule))):
                break
            cur = np.concatenate([_drift_all(w, lam, self.chars, rule) for lam in self.vols.values])
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
    j: int,
    k: int,
    chars: LevyCharacteristics,
    vols: VolatilitySurface,
    delta: float,
):
    """Girsanov data of the driver under the forward measure of T_{k+1}.

    Returns the Brownian drift shift ``sqrt(c) * sum_{l>k} w_l lambda_l`` and
    the jump-compensator factor ``x -> prod_{l>k} gamma_l(x)`` on the tenor
    interval [T_j, T_{j+1}), whose loadings are ``vols.values[j]``; j and k
    lie in 0..N-1.  Both depend on the subsequent rates, i.e. the change of
    measure is state dependent.
    ``state`` holds the rates of one path, shape (N,), or of many, shape
    (paths, N); the shift and the factor at a scalar x then have one value
    per path.
    """
    vols.tenor.check("interval", j, 0, vols.tenor.n - 1)
    vols.tenor.check("rate", k, 0, vols.tenor.n - 1)
    state = np.asarray(state, dtype=float)
    lam_row = vols.values[j]
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
    the full rate vector at the tenor dates (``date_values``) are optional.
    """

    tenor: TenorStructure
    initial_libors: np.ndarray = field(repr=False)
    fixings: np.ndarray = field(repr=False)
    fixing_weights: np.ndarray = field(repr=False)
    date_values: Optional[np.ndarray] = field(repr=False, default=None)
    antithetic: bool = False

    @property
    def n_paths(self) -> int:
        return self.fixings.shape[0]

    @property
    def delta(self) -> float:
        return self.tenor.delta

    def density_weight(self, date_index: int, measure_index: int) -> np.ndarray:
        """Normalized dP_{T_m}/dP_{T_N} per path at tenor date T_d, d in 0..N-1.

        Requires tenor-date snapshots.  The weight is the forward-price
        ratio prod_{l=m}^{N-1} (1 + delta L(T_d, T_l)) / (1 + delta L(0, T_l)).
        """
        if self.date_values is None:
            raise LiborLabError("path set was simulated without tenor-date snapshots")
        d, m, n = date_index, measure_index, self.tenor.n
        self.tenor.check("date", d, 0, n - 1)
        self.tenor.check("measure", m, 1, n)
        state = self.date_values[:, d, m:n]
        ratios = (1.0 + self.delta * state) / (1.0 + self.delta * self.initial_libors[m:n])
        return np.prod(ratios, axis=1)

    def min_rate(self) -> float:
        """Smallest stored rate; a NaN rate makes it NaN, so it fails every positivity test."""
        vals = [np.min(self.fixings)]
        if self.date_values is not None:
            vals.append(np.min(self.date_values))
        return float(np.min(vals))


def simulation_grid(tenor: TenorStructure, steps_per_period: int = 4) -> np.ndarray:
    """T_0 .. T_{N-1}, each period cut into ``steps_per_period`` >= 4 equal steps.

    The only grid the simulators accept; after T_{N-1} every rate is fixed.
    """
    if steps_per_period < 4:
        raise LiborLabError(f"steps_per_period must be >= 4, got {steps_per_period}")
    n_periods = tenor.n - 1
    return np.linspace(0.0, tenor.dates[n_periods], n_periods * steps_per_period + 1)


class _Step:
    """Log-state of one scheme; see ``_simulate_core``.

    The state is log x, with x = L for the market model and x = 1 + delta L
    for the forward price model, started at ``log_x0``.  The market-model
    schemes differ only in the forward-price weights fed to the drift; this
    base class is the exact scheme, which reads them off the current state.
    The object holds read-only data only; the state of a path block is what
    ``start`` returns, rate-major (rates, paths) like ``log_x0`` and ``w0``,
    which are columns.
    """

    def __init__(self, model: LmmModel):
        self.delta = model.tenor.delta
        self.chars = model.chars
        libors = np.asarray(model.curve.libors)
        with np.errstate(divide="ignore"):  # log 0 = -inf, which exp maps back to 0
            self.log_x0 = np.log(libors)[:, None]
        self.w0 = forward_price_weights(libors, self.delta)[:, None]
        self.rule = self.chars.jump_quadrature(model.quad_order) if self.chars.has_jumps else None

    def interval(self, j: int, c0: int, lam_row):
        """Read-only tables of tenor interval j for the rates ``[c0:]``."""
        return None

    def start(self, n_paths: int):
        """Log-state and auxiliary state of a block of ``n_paths`` paths."""
        return np.tile(self.log_x0, (1, n_paths)), None

    def rate(self, log_state):
        return np.exp(log_state)

    def forward_price(self, log_state, libors):
        return 1.0 + self.delta * libors

    def drift(self, log_state, aux, lam_row, table):
        """Drift of the log-state with the scheme's left-endpoint weights."""
        w = forward_price_weights(np.exp(log_state), self.delta)
        return _drift_all(w, lam_row, self.chars, self.rule)

    def advance(self, aux, lam_row, table, dt, dw, dh):
        """Update the auxiliary state after the main update of a step."""


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
    driver: Optional[DriverPathSet],
    store_dates: bool,
) -> LiborPathSet:
    """Log-Euler recursion shared by the market-model schemes and the FPM.

    ``model`` supplies the tenor, curve, loadings and driver law.  ``step``
    owns the log-state s of the rates: ``interval(j, c0, lam_row)`` builds
    the read-only tables of tenor interval j, ``start(n)`` gives the initial
    state and auxiliary state of a block of n paths, ``drift`` the
    left-endpoint drift, ``advance`` updates the auxiliary state after each
    step, and ``rate(s)`` / ``forward_price(s, L)`` map the state to the
    rates L and the forward prices 1 + delta L.  Every step applies

        s += drift * dt + lam_row[:, None] * dH,

    and the kernel records fixings, terminal-measure density weights and
    optional snapshots at the tenor dates.

    A block's state is rate-major, shape (rates, paths): each per-rate
    operation then runs on one contiguous row of the block's paths instead
    of a strided column.  On interval j the rates before the first nonzero
    loading c0 have zero loading and drift, so ``interval``, ``drift``, the
    update and ``advance`` see only the live rows ``[c0:]`` of the loadings
    and the states.

    The paths run in blocks of ``_BLOCK_PATHS`` (8,192) through the whole
    grid, so a block's state stays in cache, and the blocks run on a thread
    pool (numpy releases the GIL).  Each thread holds its block's state,
    driver increments and drift temporaries at once, so the block size
    trades time against peak memory: on the 200,000-path compare benchmark
    8,192 ran faster than 4,096, and 16,384 ran no faster than 8,192 but
    raised the peak RSS by 13% over 4,096.  Every operation is local to a path, so the
    results do not depend on the block size or the number of threads.
    """
    tenor, n = model.tenor, model.tenor.n
    grid = np.asarray(grid, dtype=float)
    m = (len(grid) - 1) // max(n - 1, 1)  # steps per period
    if m < 4 or not np.array_equal(grid, simulation_grid(tenor, m)):
        raise LiborLabError("the simulation grid must be simulation_grid(tenor, m) with m >= 4")
    if driver is None:
        driver = simulate_driver(model.chars, grid, n_paths, seed)
    elif not np.array_equal(driver.grid, grid):
        raise LiborLabError("driver path set does not match the simulation grid")
    n_paths = driver.n_paths

    delta = tenor.delta
    l0 = np.asarray(model.curve.libors)
    dts = driver.dts
    lam = model.vols.values[: n - 1]  # the grid ends at T_{N-1}
    live = [int(np.argmax(row != 0.0)) for row in lam]  # c0 of each interval; 0 if none
    tables = [step.interval(j, c0, lam[j, c0:]) for j, c0 in enumerate(live)]

    # column-major, so each rate's fixings and weights are one contiguous column
    fixings = np.full((n_paths, n), np.nan, order="F")  # nan until the fixing date
    fixings[:, 0] = l0[0]
    fixing_weights = np.ones((n_paths, n), order="F")
    date_values = np.empty((n_paths, n, n)) if store_dates else None  # at T_0 .. T_{N-1}

    def record(rows: slice, state, i_grid: int):
        d, r = divmod(i_grid, m)
        if r:
            return
        libors = step.rate(state)
        if store_dates:
            date_values[rows, d, :] = libors.T
        if d >= 1:
            fixings[rows, d] = libors[d]
            forward = step.forward_price(state[d + 1 : n], libors[d + 1 : n])
            fixing_weights[rows, d] = np.prod(forward / (1.0 + delta * l0[d + 1 : n, None]), axis=0)

    def run_block(lo: int):
        rows = slice(lo, min(lo + _BLOCK_PATHS, n_paths))
        jumps = None if driver.jump_sums is None else driver.jump_sums[:, rows]
        block = replace(driver, dw=driver.dw[:, rows], jump_sums=jumps)
        dh = block.increments(model.chars)
        state, aux = step.start(block.n_paths)
        record(rows, state, 0)
        for i in range(len(dts)):
            j = i // m
            c0 = live[j]
            lam_row, s = lam[j, c0:], state[c0:]
            a = None if aux is None else aux[c0:]
            s += step.drift(s, a, lam_row, tables[j]) * dts[i] + lam_row[:, None] * dh[i]
            step.advance(a, lam_row, tables[j], dts[i], block.dw[i], dh[i])
            record(rows, state, i + 1)

    with ThreadPoolExecutor(max_workers=_n_workers()) as pool:
        list(pool.map(run_block, range(0, n_paths, _BLOCK_PATHS)))

    return LiborPathSet(
        tenor=tenor,
        initial_libors=l0,
        fixings=fixings,
        fixing_weights=fixing_weights,
        date_values=date_values,
        antithetic=driver.antithetic,
    )


def simulate_exact(
    model: LmmModel,
    grid,
    n_paths: int,
    seed: int,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
) -> LiborPathSet:
    """Coupled simulation with the full state-dependent drift.

    All rates advance simultaneously on the shared driver; the drift of each
    rate is evaluated at the left endpoint of every step with the current
    values of the subsequent rates.  Rates are constant after their reset
    dates (their loadings vanish there).
    """
    return _simulate_core(model, grid, n_paths, seed, _Step(model), driver, store_dates)
