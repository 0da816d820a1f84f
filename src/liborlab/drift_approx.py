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

import math
from typing import Optional

import numpy as np

from .errors import LiborLabError, UnsupportedSchemeError
from .levy import DriverPathSet
from .lmm import (
    LiborPathSet,
    LmmModel,
    _Drift,
    _simulate_core,
    _Step,
    _tail_sums,
)


class _FrozenStep(_Step):
    """Deterministic drift beta0, the exact drift at the time-zero weights."""

    def interval(self, j: int, c0: int, lam_row, dt: float):
        return _Drift(lam_row, self.chars, self.rule, dt)(self.w0[c0:])

    def drift(self, log_state, aux, table, work):
        return table


class _TaylorStep(_Step):
    """First-order expansion of the subsequent rates inside the drift.

    The first-variation process Y of each log-rate (the auxiliary state)
    accumulates the frozen (deterministic) drift plus the loaded driver
    increments; the drift of the main state is then evaluated at rates
    L(0) * exp(Y) instead of the frozen initial values, i.e. at the
    log-state log(delta L(0)) + Y.
    """

    def interval(self, j: int, c0: int, lam_row, dt: float):
        drift = _Drift(lam_row, self.chars, self.rule, dt)
        return drift(self.w0[c0:]), self.log_x0[c0:], drift  # beta0 dt, log delta L(0), the drift

    def start(self, n_paths: int):
        return np.tile(self.log_x0, (1, n_paths)), np.zeros((len(self.log_x0), n_paths))

    def drift(self, log_state, y, table, work):
        return super().drift(np.add(table[1], y, out=work.drift), None, table[2], work)

    def advance(self, y, table, dw, ldh, work):
        y += np.add(table[0], ldh, out=work.scratch)


class _PicardStep(_Step):
    """Gaussian first Picard iterate z of the forward-price weights.

    Only continuous drivers reach this step, so the drift has no jump part.
    """

    def interval(self, j: int, c0: int, lam_row, dt: float):
        drift, vol = picard_tables_row(self.w0[c0:, 0], lam_row, self.chars.diffusion_c)
        return drift[:, None] * dt, vol[:, None], _Drift(lam_row, self.chars, None, dt)

    def start(self, n_paths: int):
        return np.tile(self.log_x0, (1, n_paths)), np.tile(self.w0, (1, n_paths))

    def drift(self, log_state, z, table, work):
        return table[2](z, work.drift, work)

    def advance(self, z, table, dw, ldh, work):
        drift, vol = table[:2]
        z += np.add(drift, np.multiply(vol, dw, out=work.scratch), out=work.scratch)


def picard_tables_row(w0: np.ndarray, lam_row: np.ndarray, c: float):
    """Drift and diffusion coefficients of the weight-process SDE at w0.

    Writing w = f(L) with f(x) = delta x / (1 + delta x), Ito's formula on
    the log-normal rate dynamics gives (with f'(L) L = w (1 - w) and
    f''(L) L^2 = -2 w^2 (1 - w))

        drift_k = -c lambda_k w_k (1 - w_k) ( sum_{l>k} w_l lambda_l + w_k lambda_k ),
        vol_k   = sqrt(c) lambda_k w_k (1 - w_k).
    """
    wl = w0 * lam_row
    tail = _tail_sums(wl)
    g = w0 * (1.0 - w0)
    drift = -c * lam_row * g * (tail + wl)
    vol = math.sqrt(c) * lam_row * g
    return drift, vol


def frozen_drift_simulate(
    model: LmmModel,
    grid,
    n_paths: int,
    seed: int,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
) -> LiborPathSet:
    """Simulation with the weights frozen at their time-zero values."""
    return _simulate_core(model, grid, n_paths, seed, _FrozenStep(model), driver, store_dates)


def picard_simulate(
    model: LmmModel,
    grid,
    n_paths: int,
    seed: int,
    order: int = 1,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
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
    return _simulate_core(model, grid, n_paths, seed, step, driver, store_dates)


def taylor_simulate(
    model: LmmModel,
    grid,
    n_paths: int,
    seed: int,
    driver: Optional[DriverPathSet] = None,
    store_dates: bool = False,
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
    return _simulate_core(model, grid, n_paths, seed, _TaylorStep(model), driver, store_dates)


def frozen_drift_law(model: LmmModel, k: int, d: int):
    """Mean and variance of log L(T_d, T_k) under the frozen-drift scheme.

    Only defined for continuous drivers, where the scheme's log-rate is
    Gaussian:  mean = log L(0,T_k) + int_0^{T_d} beta0,  var = int_0^{T_d} lambda^2 c.
    Both integrands are constant on each tenor interval, so the integrals
    are sums over the intervals j < d, for d in 0..N-1.
    """
    if model.chars.has_jumps:
        raise UnsupportedSchemeError("closed-form law requires a continuous driver")
    model.tenor.check("date", d, 0, model.tenor.n - 1)
    log_l0 = np.log(model.curve.libor(k))  # refuses k outside 0..N-1
    step, lam = _FrozenStep(model), model.vols.values[:d]
    beta0 = sum(step.interval(j, 0, lam[j], 1.0)[k, 0] for j in range(d))
    mean = float(log_l0 + beta0 * model.delta)
    var = float(model.chars.diffusion_c * np.sum(lam[:, k] ** 2) * model.delta)
    return mean, var
