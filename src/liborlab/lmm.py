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
from dataclasses import dataclass, field
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
    dl = np.multiply(delta, libors)
    return dl / (dl + 1.0)


def _tail_sums(wl: np.ndarray, out=None) -> np.ndarray:
    """tail[k] = sum_{l>k} wl[l] along axis 0, for shape (M,) or (M, paths).

    One contiguous row add per rate, from the last row down: the add order,
    and so the bits, of ``np.cumsum(wl[:0:-1], axis=0)[::-1]``.  Row M-2 is
    a copy of row M-1, as in the cumsum, so a negative zero keeps its sign.
    ``out``, if given, must not be ``wl``.
    """
    tail = np.empty_like(wl) if out is None else out
    tail[-1:] = 0.0
    if len(wl) > 1:
        tail[-2] = wl[-1]
        for k in range(len(wl) - 3, -1, -1):
            np.add(tail[k + 1 : k + 2], wl[k + 1 : k + 2], out=tail[k : k + 1])
    return tail


class _Work:
    """Buffers of one path block, allocated once and reused at every step.

    Rate-major (rates, paths) arrays: ``drift`` (a step's drift times dt,
    then its state increment), ``ldh`` (lambda dH), ``w`` (forward-price
    weights) and ``scratch``; and the (paths, nodes) jump-tilt arrays
    ``prod`` and ``tmp``, with no nodes for a continuous driver.  ``live(c0)`` views the
    same buffers for the rates ``[c0:]``.
    """

    def __init__(self, rows: np.ndarray, prod: np.ndarray, tmp: np.ndarray):
        self.rows = rows
        self.drift, self.ldh, self.w, self.scratch = rows
        self.prod, self.tmp = prod, tmp

    @classmethod
    def empty(cls, rates: int, n_paths: int, n_nodes: int = 0) -> "_Work":
        return cls(np.empty((4, rates, n_paths)), *np.empty((2, n_paths, n_nodes)))

    def live(self, c0: int) -> "_Work":
        return _Work(self.rows[:, c0:], self.prod, self.tmp)


class _Drift:
    """Log-rate drift on one tenor interval times the step width ``dt``.

    The loading constants are built once, already scaled by ``dt``, so a
    step adds the returned increment without another pass over the block.
    ``lam_row`` are the M loadings on the interval (zero for already-fixed
    rates, which removes them from the sums and products automatically), and
    ``rule`` is the (nodes, weights) quadrature of the jump-size law, or None
    for a continuous driver.  Calling it with left-endpoint weights ``w`` of
    shape (M, paths) or (M, 1) returns the drift of every rate in that shape,
    written into ``out`` with the scratch of ``work`` (a ``_Work``), or into
    fresh arrays without them.  ``w`` is rate-major, so each per-rate
    operation runs on a contiguous row.  Row k reads only rows l >= k of its
    own column, so no other path and no leading row changes its bits:
    ``[c0:]`` alone gives the same.  The jump integrand stays (paths, nodes)
    and the quadrature weights are folded into the table once (``w_em1``),
    so each rate's integral is one einsum contraction along the contiguous
    node axis, summed within each path's row in an order fixed by the node
    count alone.  A BLAS product (matmul) would be faster, but its bits
    depend on a row's position in the block, and a sum along the path axis
    would change them too.
    """

    def __init__(self, lam_row: np.ndarray, chars: LevyCharacteristics, rule: Optional[tuple], dt=1.0):
        c = chars.diffusion_c
        self.lam = lam_row[:, None]
        self.const = (-self.lam * chars.drift_b - 0.5 * c * self.lam**2) * dt
        self.c_lam = c * self.lam * dt
        self.jump_rows = []  # rates with a nonzero loading, last first; none without jumps
        self.n_nodes = 0
        if rule is not None:
            nodes, weights = rule
            self.n_nodes = len(nodes)
            self.intensity = chars.jump_intensity * dt
            self.compensator = lam_row * chars.jump_mean_rate * dt  # lambda_k int x F(dx) dt
            self.em1 = np.exp(np.outer(lam_row, nodes)) - 1.0  # exp(lambda_k x_q) - 1
            self.w_em1 = self.em1 * weights
            self.jump_rows = [k for k in range(len(lam_row) - 1, -1, -1) if lam_row[k] != 0.0]
        if self.jump_rows:
            # the tilt product is still 1 on the last live rate, so its integrand is path-free
            k = self.jump_rows[0]
            self.first_jump = self.intensity * self.w_em1[k].sum() - self.compensator[k]

    def __call__(self, w: np.ndarray, out=None, work: Optional[_Work] = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(w)
        if work is None:
            work = _Work.empty(*w.shape, self.n_nodes)
        tail = _tail_sums(np.multiply(w, self.lam, out=work.scratch), out=out)  # sum_{l>k} w_l lambda_l
        drift = np.subtract(self.const, np.multiply(self.c_lam, tail, out=out), out=out)
        if not self.jump_rows:
            return drift
        # minus the jump integral int [(e^{lambda_k x} - 1) prod_{l>k} gamma_l(x) - lambda_k x] F(dx)
        prod, tmp = work.prod, work.tmp  # prod_{l > k} gamma_l at the nodes, updated in place
        k = self.jump_rows[0]
        drift[k] -= self.first_jump
        np.einsum("p,q->pq", w[k], self.em1[k], out=prod)
        prod += 1.0
        for k in self.jump_rows[1:]:
            jump = np.einsum("pq,q->p", prod, self.w_em1[k], out=work.scratch[k])  # tails spent
            jump *= self.intensity
            jump -= self.compensator[k]
            drift[k] -= jump
            if k > 0:  # no column left of 0 reads the product
                np.einsum("p,q->pq", w[k], self.em1[k], out=tmp)
                tmp += 1.0
                prod *= tmp
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
            cur = np.concatenate([_Drift(lam, self.chars, rule)(w) for lam in self.vols.values])
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

    The state is log x, with x = delta L for the market model and x = 1 +
    delta L for the forward price model, started at ``log_x0``.  The
    market-model schemes differ only in the forward-price weights fed to the
    drift; this base class is the exact scheme, which reads them off the
    current state as w = x / (1 + x).  The object holds read-only data only;
    the state of a path block is what ``start`` returns, rate-major (rates,
    paths) like ``log_x0`` and ``w0``, which are columns.  ``interval``
    builds tables already scaled by the step width, so ``drift`` returns a
    step's drift increment.  Every method that takes a block's ``work`` (a
    ``_Work``) writes into its buffers instead of allocating; ``rate`` and
    ``forward_price`` map a state to L and to 1 + delta L in ``out`` and
    read nothing else.
    """

    rule = None  # the (nodes, weights) jump-size quadrature of the drift, if any

    def __init__(self, model: LmmModel):
        self.delta = model.tenor.delta
        self.chars = model.chars
        libors = np.asarray(model.curve.libors)
        with np.errstate(divide="ignore"):  # log 0 = -inf, which exp maps back to 0
            self.log_x0 = np.log(self.delta * libors)[:, None]
        self.w0 = forward_price_weights(libors, self.delta)[:, None]
        if self.chars.has_jumps:
            self.rule = self.chars.jump_quadrature(model.quad_order)

    def interval(self, j: int, c0: int, lam_row, dt: float):
        """Read-only tables of tenor interval j for the rates ``[c0:]``, scaled by ``dt``."""
        return _Drift(lam_row, self.chars, self.rule, dt)

    def start(self, n_paths: int):
        """Log-state and auxiliary state of a block of ``n_paths`` paths."""
        return np.tile(self.log_x0, (1, n_paths)), None

    def rate(self, log_state, out):
        np.exp(log_state, out=out)
        out /= self.delta
        return out

    def forward_price(self, log_state, out):
        np.exp(log_state, out=out)
        out += 1.0
        return out

    def drift(self, log_state, aux, table, work: _Work):
        """Drift times dt at the left-endpoint weights: ``work.drift``, or a (rates, 1) column."""
        x = np.exp(log_state, out=work.drift)  # delta L; w = x / (1 + x) in three passes
        return table(np.divide(x, np.add(x, 1.0, out=work.w), out=work.w), work.drift, work)

    def advance(self, aux, table, ldh, work: _Work):
        """Update the auxiliary state after the main update of a step from ``ldh``, lambda dH."""


def _n_workers() -> int:
    """Threads for the worker pool: one per CPU this process may run on."""
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
    owns the log-state s of the rates (log delta L for the market model,
    log(1 + delta L) for the FPM): ``interval(j, c0, lam_row, dt)`` builds
    the read-only tables of tenor interval j, times the step width dt (the
    drift's loading constants among them), ``start(n)`` gives the initial
    state and auxiliary state of a block of n paths, ``drift`` the
    left-endpoint drift times dt, ``advance`` updates the auxiliary state
    after each step from lambda dH, and ``rate(s, out)`` /
    ``forward_price(s, out)`` map states to the rates L and the forward
    prices 1 + delta L.  Every step
    applies s += drift * dt + lam_row[:, None] * dH, and the kernel records
    fixings, terminal-measure density weights and optional snapshots at the
    tenor dates.  At T_d it maps to rates only the rows it stores, row d or
    every row with snapshots, so the market model divides by delta only
    there, and the weights take the forward prices of rows d+1 .. N-1
    straight from the state.  lambda dH is formed once per step and shared
    by the update and ``advance``; a deterministic drift column (frozen,
    FPM) is added to it without being broadcast first.

    A block's state is rate-major, shape (rates, paths): each per-rate
    operation then runs on one contiguous row of the block's paths instead
    of a strided column.  On interval j the rates before the first nonzero
    loading c0 have zero loading and drift, so ``interval``, ``drift``, the
    update and ``advance`` see only the live rows ``[c0:]`` of the loadings,
    the states and the buffers.

    The paths run in blocks of ``_BLOCK_PATHS`` (8,192) through the whole
    grid, so a block's state stays in cache, and the blocks run on a pool of
    ``_n_workers()`` threads that lives for the call (numpy releases the
    GIL); ``step`` calls nothing that the benchmark's tracing wraps, since
    only the main thread may.  Each block allocates its buffers (``_Work``)
    once, and every step writes into them instead of into numpy temporaries
    of a block's size; a step reads its increments straight from the
    driver's ``dh`` row, so no block copies or rebuilds them.  Each thread
    holds its block's state and buffers at once, so the block size trades
    time against peak memory: on the 200,000-path compare benchmark (two
    runs each, 2 CPUs) blocks of 4,096 took 2.13-2.17 s at 137 MB, 8,192
    took 1.53-1.75 s at 145 MB, and 16,384 took 1.51-1.56 s at 160-163 MB,
    11% above 8,192.  Every operation is local to a path, so the results do
    not depend on the block size or the number of threads.
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
    elif driver.chars != model.chars:
        raise LiborLabError("driver path set was simulated for other driver characteristics")
    n_paths = driver.n_paths

    delta = tenor.delta
    l0 = np.asarray(model.curve.libors)
    forward0 = 1.0 + delta * l0[:, None]
    dt = grid[1] - grid[0]  # the equal step width; later dts differ from it by round-off only
    lam = model.vols.values[: n - 1]  # the grid ends at T_{N-1}
    live = [int(np.argmax(row != 0.0)) for row in lam]  # c0 of each interval; 0 if none
    tables = [step.interval(j, c0, lam[j, c0:], dt) for j, c0 in enumerate(live)]
    n_nodes = 0 if step.rule is None else len(step.rule[0])

    # column-major, so each rate's fixings and weights are one contiguous column
    fixings = np.full((n_paths, n), np.nan, order="F")  # nan until the fixing date
    fixings[:, 0] = l0[0]
    fixing_weights = np.ones((n_paths, n), order="F")
    date_values = np.empty((n_paths, n, n)) if store_dates else None  # at T_0 .. T_{N-1}

    def record(rows: slice, state, work: _Work, i_grid: int):
        d, r = divmod(i_grid, m)
        if r or not (d or store_dates):  # at T_0 only a snapshot has anything to record
            return
        lo, hi = (0, n) if store_dates else (d, d + 1)  # only snapshots read the other rates
        libors = work.scratch
        step.rate(state[lo:hi], out=libors[lo:hi])
        if store_dates:
            date_values[rows, d, :] = libors.T
        if d >= 1:
            fixings[rows, d] = libors[d]
            forward = step.forward_price(state[d + 1 : n], out=work.w[d + 1 : n])
            forward /= forward0[d + 1 : n]
            np.prod(forward, axis=0, out=fixing_weights[rows, d])

    def run_block(lo: int):
        rows = slice(lo, min(lo + _BLOCK_PATHS, n_paths))
        dh = driver.dh[:, rows]
        state, aux = step.start(dh.shape[1])
        work = _Work.empty(n, dh.shape[1], n_nodes)
        record(rows, state, work, 0)
        for i, dh_i in enumerate(dh):
            j = i // m
            c0 = live[j]
            s, a, wk = state[c0:], None if aux is None else aux[c0:], work.live(c0)
            ldh = np.multiply(lam[j, c0:, None], dh_i, out=wk.ldh)
            s += np.add(step.drift(s, a, tables[j], wk), ldh, out=wk.drift)
            step.advance(a, tables[j], ldh, wk)
            record(rows, state, work, i + 1)

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
