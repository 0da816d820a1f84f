"""Drift approximation schemes for the market model.

Three schemes trade drift fidelity for tractability, each producing paths
comparable against the exact simulation on the same driver increments:

* ``frozen``  - the forward-price weights delta L / (1 + delta L) in the
  drift (and in the jump tilt factors) are pinned to their time-zero
  values.  The drift becomes deterministic, so each log-rate is a
  deterministic integral plus a loaded driver integral; in the Brownian
  case the rate is exactly log-normal with closed-form mean and variance.
* ``picard1`` - for continuous drivers only: the weight processes are
  replaced by their first Picard iterate, which is Gaussian because the
  iterate's coefficients are evaluated at the constant zeroth iterate.
  Order 0 reproduces the frozen scheme identically.
* ``taylor``  - universal: each rate's log is expanded to first order in a
  perturbation of its dynamics.  The first-variation processes carry the
  frozen drift plus the loaded driver integrals, and the exact drift is
  then evaluated with the subsequent rates replaced by their first-order
  approximations L(0, T_l) exp(Y(t, T_l)).

All three exponentiate, so approximate rates stay strictly positive.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import LiborLabError, UnsupportedSchemeError
from .levy import DriverPathSet
from .lmm import (
    LiborPathSet,
    LmmModel,
    _FrozenStep,
    _PicardStep,
    _TaylorStep,
    _simulate_core,
)


def frozen_drift_simulate(
    model: LmmModel,
    grid,
    n_paths: int,
    seed: int,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
    store_grid: bool = False,
    antithetic: bool = False,
) -> LiborPathSet:
    """Simulation with the weights frozen at their time-zero values."""
    return _simulate_core(
        model, grid, n_paths, seed, _FrozenStep(model), "frozen",
        driver, store_dates, store_grid, antithetic,
    )


def picard_simulate(
    model: LmmModel,
    grid,
    n_paths: int,
    seed: int,
    order: int = 1,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
    store_grid: bool = False,
    antithetic: bool = False,
) -> LiborPathSet:
    """Simulation with the drift weights replaced by a Picard iterate.

    ``order=0`` uses the constant zeroth iterate and coincides with the
    frozen-drift scheme; ``order=1`` uses the Gaussian first iterate driven
    by the shared Brownian path, making each rate log-normal conditional on
    the driver.
    """
    if model.chars.has_jumps:
        raise UnsupportedSchemeError("Picard approximation requires a continuous driver")
    if order not in (0, 1):
        raise LiborLabError(f"Picard order must be 0 or 1, got {order}")
    step = _FrozenStep(model) if order == 0 else _PicardStep(model)
    return _simulate_core(
        model, grid, n_paths, seed, step, f"picard{order}",
        driver, store_dates, store_grid, antithetic,
    )


def taylor_simulate(
    model: LmmModel,
    grid,
    n_paths: int,
    seed: int,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
    store_grid: bool = False,
    antithetic: bool = False,
) -> LiborPathSet:
    """First-order strong Taylor scheme on the shared driver path.

    The first variation of each log-rate,

        Y(t, T_k) = int_0^t beta0(s, T_k) ds + int_0^t lambda(s, T_k) dH_s,

    carries the deterministic frozen drift beta0 (the exact drift evaluated
    at the initial state).  The exact drift of each rate is then evaluated
    with every subsequent rate replaced by its first-order approximation
    L(0, T_l) exp(Y(t, T_l)), which decouples the system while tracking the
    realized weights to first order.
    """
    return _simulate_core(
        model, grid, n_paths, seed, _TaylorStep(model), "taylor",
        driver, store_dates, store_grid, antithetic,
    )


def frozen_drift_table(model: LmmModel, grid) -> np.ndarray:
    """Deterministic drift beta0 per (step, rate) on the given grid."""
    step, lam = _FrozenStep(model), model.vols.values
    return np.array([step.interval(j, 0, lam[j])[0] for j in map(model.tenor.index_of, grid[:-1])])


def frozen_drift_law(model: LmmModel, grid, k: int, t: float):
    """Mean and variance of log L(t, T_k) under the frozen-drift scheme.

    Only defined for continuous drivers, where the scheme's log-rate is
    Gaussian:  mean = log L(0,T_k) + int_0^t beta0,  var = int_0^t lambda^2 c.
    Both integrals are sums over steps because the integrands are piecewise
    constant on the grid.
    """
    if model.chars.has_jumps:
        raise UnsupportedSchemeError("closed-form law requires a continuous driver")
    grid = np.asarray(grid, dtype=float)
    hits = np.nonzero(np.abs(grid - t) <= 1e-10)[0]
    if not hits.size:
        raise LiborLabError(f"time {t} is not a grid point")
    stop = int(hits[0])
    table = frozen_drift_table(model, grid)
    dts = np.diff(grid)[:stop]
    lam = np.array(
        [model.vols.values[model.tenor.index_of(s), k] for s in grid[:stop]]
    )
    mean = float(np.log(model.curve.libor(k)) + np.sum(table[:stop, k] * dts))
    var = float(model.chars.diffusion_c * np.sum(lam**2 * dts))
    return mean, var
