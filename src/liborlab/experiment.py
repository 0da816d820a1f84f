"""Config-driven experiment runners behind the command-line interface.

Builds the model objects described by an :class:`ExperimentConfig`, runs
the cross-scheme comparison, the invariant verification suite, the pricing
tables, and the Markov-functional calibration, and writes the delimited
outputs.  All randomness derives from the single config seed: the shared
driver of the market-model family and the forward price model uses the
seed itself, the affine driver uses seed + 1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import affine_libor, markov_functional
from .affine import CirParams
from .config import ExperimentConfig
from .errors import ConfigError, CurveError, LiborLabError
from .drift_approx import frozen_drift_simulate, picard_simulate, taylor_simulate
from .forward_price import FpmModel, caplet_price_fourier, negative_rate_fraction, simulate_fpm
from .levy import DoubleExponentialJumps, LevyCharacteristics, NormalJumps, simulate_driver
from .lmm import (
    LiborPathSet, LmmModel, forward_measure_characteristics, simulate_exact, simulation_grid,
)
# implied_vol stays importable here: the layer probes in perfbench/tracing.py wrap it
from .pricing import (  # noqa: F401
    CapletQuote, _mc_mean_stderr, implied_vol, implied_vol_or_none, mc_caplet,
)
from .tenor import InitialCurve, TenorStructure, read_curve_file
from .volatility import VolatilitySurface

_LMM_SCHEMES = {
    "lmm-exact": simulate_exact,
    "lmm-frozen": frozen_drift_simulate,
    "lmm-picard1": lambda *a, **kw: picard_simulate(*a, order=1, **kw),
    "lmm-taylor": taylor_simulate,
}
# a martingale gap with SE 0 is deterministic: held to round-off of L(0, T_k), in ulp
_ROUNDOFF_ULPS = 4


class Context:
    """What one command builds from its config, each member once.

    Every input a listed model reads is built here, so a value outside its
    constructor's range is a ``ConfigError`` before any work, and so is an
    initial rate or a strike of the built curve that a listed model cannot
    run; the models are built on first use.  Path sets are not members: a
    command simulates, quotes and drops one path set before it draws the next.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        try:
            self.curve, self.vols, self.chars
            if any(m in _LMM_SCHEMES or m == "fpm" for m in cfg.models):
                self.grid
            if "affine" in cfg.models:
                self.cir_params
        except LiborLabError as exc:
            raise ConfigError(str(exc)) from exc
        # rates: the market model's log-state needs L(0, T_k) > 0 (every built curve has L >= 0)
        libors = self.curve.libors
        if any(m in _LMM_SCHEMES for m in cfg.models) and not np.all(libors > 0.0):
            raise ConfigError(f"an lmm-* model needs every initial rate > 0, got {min(libors)}")
        if "mfm" in cfg.models:
            self.check_mfm()
        # the lowest strike each listed model values: mfm > 0, affine >= 0, fpm > -1/delta
        strikes = [s for k in self.tenor.rate_indices for s in self.strikes(k)]
        for model, low in (("mfm", 0.0), ("affine", 0.0), ("fpm", -1.0 / cfg.delta)):
            bad = [s for s in strikes if s < low or (s == low and model != "affine")]
            if model in cfg.models and bad:
                raise ConfigError(f"{model} cannot value strike {bad[0]} (limit {low})")

    @cached_property
    def tenor(self) -> TenorStructure:
        return TenorStructure(delta=self.cfg.delta, n=self.cfg.n)

    @cached_property
    def curve(self) -> InitialCurve:
        cfg = self.cfg
        if cfg.curve_file is not None:
            try:
                curve = read_curve_file(cfg.curve_file)
            except CurveError as exc:
                raise ConfigError(f"curve file {cfg.curve_file!r}: {exc}") from exc
            if curve.tenor.n != cfg.n or abs(curve.tenor.delta - cfg.delta) > 1e-12:
                raise ConfigError("curve file tenor disagrees with the [tenor] block")
            return InitialCurve(self.tenor, curve.bonds)  # T_k = k * delta of the config
        return InitialCurve.flat(self.tenor, cfg.flat_libor)

    @cached_property
    def chars(self) -> LevyCharacteristics:
        cfg = self.cfg
        law = None  # a brownian driver has jump_intensity 0
        if cfg.driver_type == "jump-normal":
            law = NormalJumps(cfg.jump_mean, cfg.jump_sd)
        elif cfg.driver_type == "jump-double-exp":
            law = DoubleExponentialJumps(cfg.p_up, cfg.alpha_pos, cfg.alpha_neg)
        return LevyCharacteristics(cfg.drift_b, cfg.diffusion_c, cfg.jump_intensity, law)

    @cached_property
    def vols(self) -> VolatilitySurface:
        cfg = self.cfg
        if cfg.vol_rows:
            return VolatilitySurface.from_columns(self.tenor, cfg.vol_rows)
        return VolatilitySurface.flat(self.tenor, cfg.vol_flat)

    @cached_property
    def grid(self) -> np.ndarray:
        return simulation_grid(self.tenor, self.cfg.steps_per_period)

    @cached_property
    def driver(self):
        cfg = self.cfg
        return simulate_driver(
            self.chars, self.grid, cfg.n_paths, cfg.seed, antithetic=cfg.antithetic
        )

    @cached_property
    def lmm(self) -> LmmModel:
        return LmmModel(self.tenor, self.curve, self.vols, self.chars)

    @cached_property
    def fpm(self) -> FpmModel:
        return FpmModel(self.tenor, self.curve, self.vols, self.chars)

    @cached_property
    def mfm_driver(self) -> markov_functional.MfmDriver:
        cfg = self.cfg
        sigma = cfg.mfm_sigma if cfg.mfm_sigma is not None else cfg.vol_flat
        if sigma is None:
            raise ConfigError("mfm needs [mfm] sigma or a flat vols value")
        return markov_functional.MfmDriver.flat(self.tenor, sigma)

    def check_mfm(self) -> None:
        """Build the MFM driver; at sigma > 0 its calibration needs every L(0, T_k) > 0, k >= 1."""
        try:
            moves = np.any(self.mfm_driver.sigma[: self.cfg.n - 1])
        except LiborLabError as exc:
            raise ConfigError(str(exc)) from exc
        if moves and not np.all(self.curve.libors[1:] > 0.0):
            raise ConfigError("mfm at sigma > 0 needs every initial rate from T_1 on > 0")

    @cached_property
    def mfm_grid(self) -> markov_functional.FunctionalGrid:
        return markov_functional.calibrate_backward(
            self.curve, self.mfm_driver, quad_order=self.cfg.quad_order
        )

    @cached_property
    def cir_params(self) -> CirParams:
        cfg = self.cfg
        return CirParams(cfg.affine_mean_reversion, cfg.affine_long_run_level,
                         cfg.affine_vol_of_vol, cfg.affine_x0)

    @cached_property
    def affine_family(self) -> affine_libor.MartingaleFamily:
        return affine_libor.fit_initial_curve(self.curve, self.cir_params)

    def simulate(self, name: str, store_dates: bool = False) -> LiborPathSet:
        """Path set of a market-model scheme or the FPM on the shared driver."""
        cfg = self.cfg
        driver = self.driver  # before the model is built, so this first work call ends set-up
        if name == "fpm":
            return simulate_fpm(self.fpm, self.grid, cfg.n_paths, cfg.seed, driver=driver)
        return _LMM_SCHEMES[name](self.lmm, self.grid, cfg.n_paths, cfg.seed, driver=driver,
                                  store_dates=store_dates)

    def strikes(self, k: int) -> list:
        if self.cfg.strikes:
            return list(self.cfg.strikes)
        factors = self.cfg.strike_factors or (1.0,)
        return [f * self.curve.libor(k) for f in factors]


# perfbench/run.py builds these two models for its output checks
def build_lmm(cfg: ExperimentConfig) -> LmmModel:
    return Context(cfg).lmm


def build_affine_family(cfg: ExperimentConfig) -> affine_libor.MartingaleFamily:
    return Context(cfg).affine_family


def _fmt(value) -> str:
    """One CSV field: None empty, a str as it is, a number with every digit (.17g)."""
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value:.17g}"


def _write_csv(path, header: str, rows) -> None:
    """The header line, then one line of comma-joined fields per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _write_quotes(path, rows) -> None:
    _write_csv(path, "model,scheme,k,strike,price,stderr,implied_vol",
               [(m, s, q.k, q.strike, q.price, q.stderr, q.implied_vol) for m, s, q in rows])


def weighted_martingale_gap(paths: LiborPathSet, k: int):
    """(|gap|, stderr) of E_N[w (L(T_k,T_k) - L(0,T_k))], the martingale statistic."""
    d = paths.fixing_weights[:, k] * (paths.fixings[:, k] - paths.initial_libors[k])
    gap, se = _mc_mean_stderr(d, paths.antithetic)
    return abs(gap), se


@dataclass
class CheckResult:
    model: str
    check: str
    status: str  # PASS | FAIL | WITNESS
    detail: str


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    def add(self, model: str, check: str, ok: bool, detail: str, witness: bool = False):
        """One line: WITNESS if ``witness``, else PASS or FAIL by ``ok``; FAIL fails the run."""
        status = "WITNESS" if witness else ("PASS" if ok else "FAIL")
        self.checks.append(CheckResult(model, check, status, detail))

    @property
    def failed(self) -> bool:
        return any(c.status == "FAIL" for c in self.checks)

    def render(self) -> str:
        lines = ["model      check       status   detail", "-" * 72]
        for c in self.checks:
            lines.append(f"{c.model:<10} {c.check:<11} {c.status:<8} {c.detail}")
        lines.append("-" * 72)
        lines.append("RESULT: " + ("FAIL" if self.failed else "PASS"))
        return "\n".join(lines)


def _worst(values) -> float:
    """Largest of nonnegative statistics, 0 for none; NaN if any is NaN."""
    return float(np.max(np.asarray(values, dtype=float), initial=0.0))


def _martingale_line(report: VerifyReport, model: str, paths: LiborPathSet) -> None:
    """Worst martingale gap across rates in SE units, held to 3 SE; with no SE, to round-off."""
    ratios = []
    for k in paths.tenor.rate_indices:
        gap, se = weighted_martingale_gap(paths, k)
        se = 0.0 if np.ptp(paths.fixings[:, k]) == 0.0 else se  # one fixing on every path: no SE
        tol = _ROUNDOFF_ULPS * np.spacing(paths.initial_libors[k])
        ratios.append(gap / se if se > 0.0 else (0.0 if gap <= tol else math.inf))
    ratios.append(0.0)  # a tenor without rates reports 0 SE at rate 1
    i = int(np.argmax(ratios))  # the first NaN, else the first largest ratio
    report.add(model, "martingale", ratios[i] <= 3.0,
               f"worst martingale gap {ratios[i]:.2f} SE (rate {i + 1})")


def _lmm_checks(ctx: Context, report: VerifyReport, models: list) -> None:
    at_t1 = None  # rates at T_1 of the first scheme, for the structure witness
    for name in models:
        paths = ctx.simulate(name, store_dates=at_t1 is None)
        if at_t1 is None:
            at_t1 = paths.date_values[:, 1, :].copy()
            paths = replace(paths, date_values=None)  # positivity reads the fixings only
        min_rate = paths.min_rate()
        report.add(name, "positivity", min_rate > 0.0 and np.isfinite(min_rate),
                   f"min simulated rate {min_rate:.3e}")
        _martingale_line(report, name, paths)
        del paths  # one path set at a time

    # structure witness: rate 1's measure-change data at T_1 depends on the later
    # rates through their loadings on [T_1, T_2); all of them zero: nothing to witness
    lmm = ctx.lmm
    shift, factor = forward_measure_characteristics(at_t1, 1, 1, lmm.chars, lmm.vols, lmm.delta)
    jumps = lmm.chars.has_jumps
    witness = float(np.var(factor(0.25 / max(lmm.vols.max_abs, 1e-12)) if jumps else shift))
    label = "compensator factor" if jumps else "Brownian shift"
    report.add(models[0], "structure", not np.any(lmm.vols.values[1, 2:]),
               f"forward-measure {label} variance {witness:.3e} (> 0: structure not preserved)",
               witness=witness > 0.0)


def _fpm_checks(ctx: Context, report: VerifyReport) -> None:
    paths = ctx.simulate("fpm")
    fpm, m = ctx.fpm, ctx.cfg.steps_per_period
    frac = negative_rate_fraction(paths)  # NaN on a NaN fixing: the line fails
    note = " (reported, not a failure)" if frac > 0.0 else ""
    report.add("fpm", "positivity", not math.isnan(frac),
               f"negative fixing fraction {frac:.4f}{note}", witness=frac > 0.0)
    _martingale_line(report, "fpm", paths)
    # structure: the log density against the terminal measure minus the loaded
    # driver integral must be the same constant on every path; the k * m
    # steps before T_k lie in intervals 0 .. k - 1, m steps each.
    dh = ctx.driver.dh
    spreads = []
    for k in range(1, ctx.cfg.n - 1):
        stoch = np.repeat(fpm.loading_tails[:k, k + 1], m) @ dh[: k * m]
        resid = np.log(paths.fixing_weights[:, k]) - stoch
        spreads.append(np.max(resid) - np.min(resid))
    spread = _worst(spreads)
    report.add("fpm", "structure", spread <= 1e-10,
               f"density exponent spread across paths {spread:.3e}")


def _mfm_checks(ctx: Context, report: VerifyReport) -> None:
    grid = ctx.mfm_grid
    n = ctx.cfg.n
    min_rate = float(np.min([np.min(grid.libor_values[i]) for i in range(1, n)]))
    report.add("mfm", "positivity", min_rate >= 0.0, f"min rate functional {min_rate:.3e}")
    errors = []
    for i in range(1, n):
        target = grid.curve.bond(i + 1)
        errors.append(abs(markov_functional.initial_bond_repricing(grid, i) - target) / target)
    worst = _worst(errors)
    report.add("mfm", "martingale", worst <= 1e-7,
               f"worst initial-curve repricing error {worst:.2e} (tol 1e-7)")
    report.add("mfm", "structure", True, "all functionals are functions of the scalar driver state")


def _affine_checks(ctx: Context, report: VerifyReport) -> None:
    cfg, family = ctx.cfg, ctx.affine_family
    tenor = family.tenor
    x_grid = np.linspace(0.0, 8.0 * max(family.params.x0, family.params.long_run_level, 0.1), 33)
    min_rate = math.inf
    for k in tenor.rate_indices:
        for t in np.linspace(0.0, tenor.dates[k], 5):
            vals = np.asarray(affine_libor.libor_value(family, k, t, x_grid))
            min_rate = float(np.minimum(min_rate, np.min(vals)))
    report.add("affine", "positivity", min_rate >= 0.0,
               f"min rate over the state grid {min_rate:.3e}")
    paths = affine_libor.simulate_affine_paths(family, cfg.n_paths, cfg.seed + 1)
    _martingale_line(report, "affine", paths)
    # structure: the forward-measure exponential moment is log-affine in the state
    deviations = []
    r = tenor.dates[max(1, cfg.n - 1)]
    s = 0.5 * r
    for k in (1, cfg.n):
        for v in (-0.5, 0.25):
            xs = np.array([0.02, 0.2, 1.0])
            logs = np.log(affine_libor.forward_measure_mgf(family, k, v, s, r, xs))
            slope1 = (logs[1] - logs[0]) / (xs[1] - xs[0])
            slope2 = (logs[2] - logs[1]) / (xs[2] - xs[1])
            deviations.append(abs(slope2 - slope1))
    worst_dev = _worst(deviations)
    report.add("affine", "structure", worst_dev <= 1e-10,
               f"forward-measure moment log-affinity deviation {worst_dev:.2e} (tol 1e-10)")


def run_verify(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> VerifyReport:
    """Invariant suite of every configured model; returns the report."""
    ctx = Context(cfg)
    report = VerifyReport()
    lmm_models = [m for m in cfg.models if m in _LMM_SCHEMES]
    if lmm_models:
        _lmm_checks(ctx, report, lmm_models)
    if "fpm" in cfg.models:
        _fpm_checks(ctx, report)
    if "mfm" in cfg.models:
        _mfm_checks(ctx, report)
    if "affine" in cfg.models:
        _affine_checks(ctx, report)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verify_report.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.render() + "\n")
    return report


def _producers(ctx: Context, name: str) -> list:
    """``(model, scheme, quote(k, strikes))`` producers of one configured model.

    ``quote`` returns one ``CapletQuote`` per strike of rate k, with its price
    (and Monte Carlo standard error) but no implied vol.  A simulated model
    draws its path set here, which lives as long as the producers.  A
    market-model path set with a rate that is not positive raises: the
    paper's positivity claim, checked before any quote.
    """
    curve = ctx.curve

    def priced(price):  # the quotes of a transform or grid price(k, strike)
        return lambda k, ss: [CapletQuote(k=k, strike=s, price=price(k, s)) for s in ss]

    if name == "mfm":
        grid = ctx.mfm_grid
        return [("mfm", "grid", priced(lambda k, s: markov_functional.caplet_value(grid, k, s)))]
    if name == "affine":
        family = ctx.affine_family
        paths = affine_libor.simulate_affine_paths(family, ctx.cfg.n_paths, ctx.cfg.seed + 1)
        return [
            ("affine", "fourier",
             priced(lambda k, s: affine_libor.caplet_price_fourier(family, k, s))),
            ("affine", "mc", lambda k, ss: mc_caplet(paths, k, ss, curve)),
        ]
    paths = ctx.simulate(name)
    if name == "fpm":
        fpm = ctx.fpm
        return [
            ("fpm", "mc", lambda k, ss: mc_caplet(paths, k, ss, curve)),
            ("fpm", "fourier", priced(lambda k, s: caplet_price_fourier(fpm, k, s))),
        ]
    if not paths.min_rate() > 0.0:
        raise LiborLabError(f"positivity violated by scheme {name}")
    return [("lmm", name.replace("lmm-", ""), lambda k, ss: mc_caplet(paths, k, ss, curve))]


def _quote_loop(ctx: Context, producers: list) -> list:
    """``(model, scheme, CapletQuote)`` rows by rate, then strike, then producer.

    Each producer quotes all strikes of a rate in one call.  Once the prices
    are known, every quote gets its implied vol here, the one place that
    inverts them; None where Black has no vol.
    """
    rows = []
    for k in ctx.tenor.rate_indices:
        strikes = ctx.strikes(k)
        by_producer = [[(model, scheme, q) for q in quote(k, strikes)]
                       for model, scheme, quote in producers]
        rows += [row for per_strike in zip(*by_producer) for row in per_strike]
    curve = ctx.curve
    return [(model, scheme, replace(q, implied_vol=implied_vol_or_none(q.price, curve, q.k, q.strike)))
            for model, scheme, q in rows]


@dataclass
class CompareResult:
    quotes: dict  # scheme -> list[(model, scheme, CapletQuote)]
    diffs: dict  # scheme -> list[(k, strike, iv_diff)]
    summary: dict  # scheme -> (max_abs, mean_abs), None without implied-vol pairs
    files: list


def run_compare(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> CompareResult:
    """Cross-scheme implied-volatility comparison on one shared driver.

    Requires ``lmm-exact`` in the model list as the baseline; the other
    market-model schemes and the forward price model reuse the identical
    driver increments, so per-strike differences isolate the drift
    treatment rather than Monte Carlo noise.  Every model is quoted by
    Monte Carlo only.
    """
    schemes = [m for m in cfg.models if m in _LMM_SCHEMES or m == "fpm"]
    if "lmm-exact" not in schemes:
        raise ConfigError("compare needs lmm-exact in the model list as baseline")
    ctx = Context(cfg)
    quotes = {name: _quote_loop(ctx, _producers(ctx, name)[:1]) for name in schemes}

    base = {(q.k, q.strike): q for _, _, q in quotes["lmm-exact"]}
    diffs, summary = {}, {}
    for name in schemes:
        if name == "lmm-exact":
            continue
        rows = []
        for _, _, q in quotes[name]:
            ref = base[(q.k, q.strike)]
            if q.implied_vol is None or ref.implied_vol is None:
                continue
            rows.append((q.k, q.strike, q.implied_vol - ref.implied_vol))
        diffs[name] = rows
        if rows:
            arr = np.array([r[2] for r in rows])
            summary[name] = (float(np.max(np.abs(arr))), float(np.mean(np.abs(arr))))
        else:
            summary[name] = None  # no implied-vol pair to compare

    files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        qpath = os.path.join(out_dir, "quotes.csv")
        _write_quotes(qpath, [row for name in schemes for row in quotes[name]])
        files.append(qpath)
        for name, rows in diffs.items():
            dpath = os.path.join(out_dir, f"ivdiff_{name}_vs_lmm-exact.csv")
            _write_csv(dpath, "k,strike,iv_diff", rows)
            files.append(dpath)
        spath = os.path.join(out_dir, "summary.txt")
        # a scheme without implied-vol pairs gets empty fields, not NaN
        _write_csv(spath, "scheme,max_abs_iv_diff,mean_abs_iv_diff",
                   [(name, *(summary[name] or (None, None))) for name in sorted(summary)])
        files.append(spath)
    return CompareResult(quotes=quotes, diffs=diffs, summary=summary, files=files)


def run_price(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> list:
    """Quote tables for every configured model; returns the CSV rows."""
    ctx = Context(cfg)
    rows = [row for name in cfg.models for row in _quote_loop(ctx, _producers(ctx, name))]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_quotes(os.path.join(out_dir, "prices.csv"), rows)
    return rows


def run_calibrate_mfm(cfg: ExperimentConfig, out_dir: Optional[str] = None):
    """Backward-induction calibration; exports the functional grid CSV."""
    context = Context(cfg)
    context.check_mfm()  # also when no listed model is the MFM
    grid = context.mfm_grid
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rows = [(i, *node) for i in range(1, grid.tenor.n)
                for node in zip(grid.x_nodes[i], grid.libor_values[i], grid.numeraire_values[i])]
        _write_csv(os.path.join(out_dir, "mfm_grid.csv"),
                   "i,x,L_functional,numeraire_functional", rows)
    return grid
