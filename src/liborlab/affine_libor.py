"""Affine LIBOR model: bond quotients as exponential-affine martingales.

Bond prices relative to the terminal numeraire are modeled as

    B(t, T_k) / B(t, T_N) = M_t^{u_k} = exp( phi_{T_N - t}(u_k) + psi_{T_N - t}(u_k) X_t ),

where X is the nonnegative square-root diffusion of :mod:`liborlab.affine`
and (u_k) is a nonincreasing parameter sequence with u_N = 0.  Because
X >= 0 and u >= 0, each martingale stays >= 1 and is nondecreasing in u,
which makes bond prices decreasing in maturity and every rate

    1 + delta L(t, T_k) = M_t^{u_k} / M_t^{u_{k+1}} = exp(A_k(t) + B_k(t) X_t) >= 1

nonnegative by construction.  Fitting the initial curve is a sequence of
scalar root-finds M_0^{u_k} = B(0, T_k) / B(0, T_N).

Under any forward measure the driver stays affine (time inhomogeneous):
the conditional exponential moment of X under the T_k forward measure has
the closed exponential-affine form produced by composing the flow with
psi_{T_N - r}(u_k), so caplets price by one-dimensional Fourier inversion;
for this driver the transition laws are scaled noncentral chi-square, so a
closed form in terms of the chi-square distribution function is available
as a cross-check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
import numpy as np

from ._roots import bracketed_root
from .affine import (
    CirParams,
    cir_flow,
    explosion_threshold,
    simulate_cir,
    transition_constants,
)
from .errors import DomainError, FitInfeasibleError, LiborLabError
from .fourier import damped_call_expectation
from .lmm import LiborPathSet
from .tenor import InitialCurve, TenorStructure

_FIT_RTOL = 1e-10
_DOMAIN_MARGIN = 1.0 - 1e-9
_RAY_ANGLE = math.pi / 6.0


@dataclass(frozen=True)
class MartingaleFamily:
    """Fitted martingale family of one affine LIBOR model.

    ``u_seq[k]`` for k = 0..N is nonincreasing with ``u_seq[N] = 0``; every
    u_k lies in the moment domain at the terminal horizon and reproduces
    the observed bond ratio at time zero.
    """

    curve: InitialCurve
    params: CirParams
    u_seq: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.u_seq, dtype=float)
        n = self.curve.tenor.n
        if u.shape != (n + 1,):
            raise LiborLabError(f"need {n + 1} martingale parameters, got {u.shape}")
        if np.any(np.diff(u) > 0.0):
            raise LiborLabError("martingale parameters must be nonincreasing")
        if u[n] != 0.0:
            raise LiborLabError("the terminal parameter must be 0")
        object.__setattr__(self, "u_seq", u)

    @property
    def tenor(self) -> TenorStructure:
        return self.curve.tenor

    @property
    def horizon(self) -> float:
        return self.tenor.horizon


def martingale_value(family: MartingaleFamily, u: float, t: float, x) -> np.ndarray:
    """M_t^u = exp(phi_{T_N - t}(u) + psi_{T_N - t}(u) x); >= 1 for u >= 0."""
    if t < 0.0 or t > family.horizon:
        raise LiborLabError(f"time {t} outside [0, {family.horizon}]")
    phi, psi = cir_flow(family.params, family.horizon - t, u)
    return np.exp(phi + psi * np.asarray(x, dtype=float))[()]


def fit_initial_curve(curve: InitialCurve, params: CirParams) -> MartingaleFamily:
    """Solve M_0^{u_k} = B(0, T_k) / B(0, T_N) for every k in one bracketed root-find.

    A flat curve (all ratios 1) maps to u identically zero.  Ratios beyond
    the attainable supremum of u -> M_0^u raise ``FitInfeasibleError``
    naming the offending tenor index (the largest, where several offend).
    """
    n, horizon = curve.tenor.n, curve.tenor.horizon

    def log_m0(u):
        phi, psi = cir_flow(params, horizon, u)
        return phi + psi * params.x0

    targets = np.array([math.log(curve.bond(k) / curve.bond(n)) for k in range(n)])
    live = np.flatnonzero(targets != 0.0)
    u = np.zeros(n + 1)
    degenerate = params.x0 == 0.0 and (params.mean_reversion == 0.0 or params.long_run_level == 0.0)
    if live.size and degenerate:
        raise FitInfeasibleError(
            f"bond ratio at index {live[-1]} unattainable: the martingale family is degenerate "
            "(x0 = 0 and no mean-reversion level)",
            tenor_index=int(live[-1]),
        )
    # bracket ends u_max (1 - 2^-j), j = 1..49: the last stays below u_max, the
    # edge of the flow's domain; each target takes the first end that reaches it
    ends = float(explosion_threshold(params, horizon)) * (1.0 - 0.5 ** np.arange(1, 50))
    reached = log_m0(ends) >= targets[live, None]
    unreached = live[~reached.any(axis=1)]
    if unreached.size:
        raise FitInfeasibleError(
            f"bond ratio at index {unreached[-1]} exceeds the attainable supremum",
            tenor_index=int(unreached[-1]),
        )
    u[live] = bracketed_root(
        lambda v: log_m0(v) - targets[live], 0.0, ends[reached.argmax(axis=1)], xtol=1e-15
    )
    missed = live[np.abs(log_m0(u[live]) - targets[live]) > _FIT_RTOL]
    if missed.size:
        raise FitInfeasibleError(
            f"curve fit at index {missed[-1]} missed the target ratio", tenor_index=int(missed[-1])
        )
    return MartingaleFamily(curve=curve, params=params, u_seq=u)


def libor_coefficients(family: MartingaleFamily, k: int, t: float):
    """(A_k(t), B_k(t)) with 1 + delta L(t, T_k) = exp(A + B X_t).

    A and B are flow differences at the remaining horizon; B >= 0 because
    the parameters are nonincreasing and psi is increasing in u.
    """
    family.tenor.check("rate", k, 0, family.tenor.n - 1)
    rem = family.horizon - t
    phi_k, psi_k = cir_flow(family.params, rem, family.u_seq[k])
    phi_n, psi_n = cir_flow(family.params, rem, family.u_seq[k + 1])
    return phi_k - phi_n, psi_k - psi_n


def libor_value(family: MartingaleFamily, k: int, t: float, x) -> np.ndarray:
    """L(t, T_k; x) = (exp(A_k(t) + B_k(t) x) - 1) / delta; never negative."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise LiborLabError("driver state must be nonnegative")
    a, b = libor_coefficients(family, k, t)
    return (np.expm1(a + b * x) / family.tenor.delta)[()]


def forward_measure_mgf(family: MartingaleFamily, k: int, v, s: float, r: float, x_s):
    """E^{T_k}[ exp(v X_r) | X_s = x_s ], see :func:`forward_measure_cgf`."""
    return np.exp(forward_measure_cgf(family, k, v, s, r, x_s))[()]


def forward_measure_cgf(family: MartingaleFamily, k: int, v, s: float, r: float, x_s):
    """log E^{T_k}[ exp(v X_r) | X_s = x_s ] in affine closed form.

    The measure change to the T_k forward measure tilts the driver by
    psi_{T_N - r}(u_k); composing the flow gives

        phi_{r-s}(q + v) - phi_{r-s}(q)
        + [psi_{r-s}(q + v) - psi_{r-s}(q)] x_s,   q = psi_{T_N - r}(u_k).

    ``v`` may be complex (Fourier pricing): off the real axis this is the
    analytic continuation, which :func:`cir_flow` evaluates.
    """
    if not 0.0 <= s <= r <= family.horizon:
        raise LiborLabError("need 0 <= s <= r <= horizon")
    family.tenor.check("measure", k, 1, family.tenor.n)
    q = cir_flow(family.params, family.horizon - r, family.u_seq[k])[1]
    phi_qv, psi_qv = cir_flow(family.params, r - s, q + np.asarray(v))
    phi_q, psi_q = cir_flow(family.params, r - s, q)
    return phi_qv - phi_q + (psi_qv - psi_q) * np.asarray(x_s)


def _caplet_setup(family: MartingaleFamily, k: int, strike: float):
    family.tenor.check("rate", k, 1, family.tenor.n - 1)
    if strike < 0.0:
        raise LiborLabError("caplet strike must be nonnegative")
    delta = family.tenor.delta
    t_fix = family.tenor.dates[k]
    a, b = libor_coefficients(family, k, t_fix)
    return delta, t_fix, a, b


def caplet_price_fourier(family: MartingaleFamily, k: int, strike: float) -> float:
    """Caplet value B(0,T_{k+1}) delta E^{T_{k+1}}[(L(T_k,T_k) - K)^+].

    The accrual-scaled payoff is e^A times a call on exp(B X_{T_k}) with
    strike K' = (1 + delta K) e^{-A}, priced by damped Fourier inversion of
    the forward measure's cumulant function of B X_{T_k} on a rotated ray.
    B X >= 0 has no linear asymptote in its cumulant, and its power tail
    decays best on a ray at pi/6.
    """
    delta, t_fix, a, b = _caplet_setup(family, k, strike)
    discount = family.curve.bond(k + 1)
    log_k = math.log1p(delta * strike) - a

    if b <= 1e-14:
        # deterministic rate exp(A) - 1; with u_k = u_{k+1} it is zero
        intrinsic = max(math.expm1(a) / delta - strike, 0.0)
        return discount * delta * intrinsic

    # strip: Re(w) b + psi_{T_N - T_k}(u_{k+1}) below the explosion threshold
    # of the flow at horizon T_k
    q = cir_flow(family.params, family.horizon - t_fix, family.u_seq[k + 1])[1]
    u_max = float(explosion_threshold(family.params, t_fix)) * _DOMAIN_MARGIN
    value = damped_call_expectation(
        lambda w: forward_measure_cgf(family, k + 1, w * b, 0.0, t_fix, family.params.x0),
        math.exp(log_k), -math.inf, (u_max - q) / b, _RAY_ANGLE,
    )
    return discount * math.exp(a) * value


def forward_transition_law(family: MartingaleFamily, k: int, r: float):
    """Scaled noncentral chi-square law of X_r under the T_k forward measure.

    The terminal-measure transition over [0, r] is scale * NCChi2(df, nc);
    the forward measure tilts it by q = psi_{T_N - r}(u_k), which maps a
    scaled noncentral chi-square into another one with

        scale' = scale / (1 - 2 scale q),   nc' = nc / (1 - 2 scale q).

    Returns (scale', df, nc').  A subnormal nc' is returned as 0, which is
    the same law to double precision: scipy's ``ncx2`` misreads it
    (``ncx2.sf(2.0234, 2, 5e-323)`` is 0.509 against 0.364 at 0).
    """
    scale, df, decay = transition_constants(family.params, r)
    nc = family.params.x0 * decay / scale
    q = cir_flow(family.params, family.horizon - r, family.u_seq[k])[1]
    shrink = 1.0 - 2.0 * scale * q
    if shrink <= 0.0:
        raise DomainError("forward-measure tilt outside the transition's moment domain")
    nc = nc / shrink
    return scale / shrink, df, nc if nc >= sys.float_info.min else 0.0


def caplet_price_chi2(family: MartingaleFamily, k: int, strike: float) -> float:
    """Closed-form caplet value through the noncentral chi-square law.

    Splits delta (L - K)^+ = (e^{A + B X} - (1 + delta K)) 1_{X > x*} and
    evaluates both pieces with the chi-square distribution function (the
    exponential piece through one more tilt).  Requires positive degrees of
    freedom (long-run level > 0) and B > 0.  Needs scipy, which the package
    installs only with its ``[test]`` extra.
    """
    from scipy.stats import ncx2  # here, not at the top: keeps scipy.stats out of CLI start-up
    delta, t_fix, a, b = _caplet_setup(family, k, strike)
    discount = family.curve.bond(k + 1)
    strike_factor = 1.0 + delta * strike
    if b <= 1e-14:
        intrinsic = max(math.expm1(a) / delta - strike, 0.0)
        return discount * delta * intrinsic

    scale, df, nc = forward_transition_law(family, k + 1, t_fix)
    if df <= 0.0:
        raise LiborLabError("chi-square form needs positive degrees of freedom")
    x_star = (math.log(strike_factor) - a) / b

    shrink = 1.0 - 2.0 * scale * b
    if shrink <= 0.0:
        raise DomainError("caplet exponent outside the transition's moment domain")
    mgf_b = math.exp(nc * scale * b / shrink) / shrink ** (0.5 * df)
    if x_star <= 0.0:
        exp_piece = mgf_b * math.exp(a)
        prob_piece = 1.0
    else:
        exp_piece = (
            mgf_b * math.exp(a) * ncx2.sf(x_star / (scale / shrink), df, nc / shrink)
        )
        prob_piece = ncx2.sf(x_star / scale, df, nc)
    return discount * (exp_piece - strike_factor * prob_piece)


def simulate_affine_paths(family: MartingaleFamily, n_paths: int, seed: int) -> LiborPathSet:
    """Simulate the model's rates at their fixing dates.

    The driver transitions are sampled exactly, so the grid holds only the
    tenor dates up to the last fixing.  Fixing weights carry the density
    M^{u_{k+1}}_{T_k} / M^{u_{k+1}}_0 of each rate's payment measure.
    """
    tenor = family.tenor
    n = tenor.n
    grid = np.linspace(0.0, tenor.dates[n - 1], n)
    states = simulate_cir(family.params, grid, n_paths, seed)

    l0 = np.asarray(family.curve.libors)
    fixings = np.empty((n_paths, n))
    fixings[:, 0] = l0[0]
    fixing_weights = np.ones((n_paths, n))
    for d in range(1, n):
        fixings[:, d] = libor_value(family, d, tenor.dates[d], states[d])
        m_now = martingale_value(family, family.u_seq[d + 1], tenor.dates[d], states[d])
        m_zero = martingale_value(family, family.u_seq[d + 1], 0.0, family.params.x0)
        fixing_weights[:, d] = m_now / m_zero

    return LiborPathSet(
        tenor=tenor,
        initial_libors=l0,
        fixings=fixings,
        fixing_weights=fixing_weights,
    )
