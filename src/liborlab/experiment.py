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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import affine_libor, markov_functional
from .affine import CirParams
from .config import ExperimentConfig
from .errors import ConfigError, LiborLabError
from .drift_approx import frozen_drift_simulate, picard_simulate, taylor_simulate
from .forward_price import FpmModel, caplet_price_fourier, negative_rate_fraction, simulate_fpm
from .levy import DoubleExponentialJumps, LevyCharacteristics, NormalJumps, simulate_driver
from .lmm import LiborPathSet, LmmModel, simulate_exact, simulation_grid
# implied_vol stays importable here: the layer probes in perfbench/tracing.py wrap it
from .pricing import CapletQuote, implied_vol, implied_vol_or_none, mc_caplet  # noqa: F401
from .tenor import InitialCurve, TenorStructure, read_curve_file
from .volatility import VolatilitySurface

_LMM_SCHEMES = {
    "lmm-exact": simulate_exact,
    "lmm-frozen": frozen_drift_simulate,
    "lmm-picard1": lambda *a, **kw: picard_simulate(*a, order=1, **kw),
    "lmm-taylor": taylor_simulate,
}


def build_tenor(cfg: ExperimentConfig) -> TenorStructure:
    return TenorStructure(delta=cfg.delta, n=cfg.n)


def build_curve(cfg: ExperimentConfig) -> InitialCurve:
    if cfg.curve_file is not None:
        curve = read_curve_file(cfg.curve_file)
        if curve.tenor.n != cfg.n or abs(curve.tenor.delta - cfg.delta) > 1e-12:
            raise ConfigError("curve file tenor disagrees with the [tenor] block")
        return curve
    return InitialCurve.flat(build_tenor(cfg), cfg.flat_libor)


def build_chars(cfg: ExperimentConfig) -> LevyCharacteristics:
    if cfg.driver_type == "brownian":
        law, intensity = None, 0.0
    elif cfg.driver_type == "jump-normal":
        law, intensity = NormalJumps(cfg.jump_mean, cfg.jump_sd), cfg.jump_intensity
    else:
        law = DoubleExponentialJumps(cfg.p_up, cfg.alpha_pos, cfg.alpha_neg)
        intensity = cfg.jump_intensity
    return LevyCharacteristics(
        drift_b=cfg.drift_b,
        diffusion_c=cfg.diffusion_c,
        jump_intensity=intensity,
        jump_law=law,
    )


def build_vols(cfg: ExperimentConfig) -> VolatilitySurface:
    tenor = build_tenor(cfg)
    if cfg.vol_rows:
        if len(cfg.vol_rows) != cfg.n - 1:
            raise ConfigError(f"need {cfg.n - 1} vol rows (rate_1..rate_{cfg.n - 1})")
        return VolatilitySurface.from_columns(tenor, list(cfg.vol_rows))
    return VolatilitySurface.flat(tenor, cfg.vol_flat)


def build_lmm(cfg: ExperimentConfig) -> LmmModel:
    return LmmModel(build_tenor(cfg), build_curve(cfg), build_vols(cfg), build_chars(cfg))


def build_fpm(cfg: ExperimentConfig) -> FpmModel:
    return FpmModel(build_tenor(cfg), build_curve(cfg), build_vols(cfg), build_chars(cfg))


def build_mfm_driver(cfg: ExperimentConfig) -> markov_functional.MfmDriver:
    sigma = cfg.mfm_sigma if cfg.mfm_sigma is not None else cfg.vol_flat
    if sigma is None:
        raise ConfigError("mfm needs [mfm] sigma or a flat vols value")
    return markov_functional.MfmDriver.flat(build_tenor(cfg), sigma)


def build_affine_family(cfg: ExperimentConfig) -> affine_libor.MartingaleFamily:
    params = CirParams(
        mean_reversion=cfg.affine_mean_reversion,
        long_run_level=cfg.affine_long_run_level,
        vol_of_vol=cfg.affine_vol_of_vol,
        x0=cfg.affine_x0,
    )
    return affine_libor.fit_initial_curve(build_curve(cfg), params)


def strikes_for(cfg: ExperimentConfig, curve: InitialCurve, k: int) -> list:
    if cfg.strikes:
        return list(cfg.strikes)
    factors = cfg.strike_factors or (1.0,)
    return [f * curve.libor(k) for f in factors]


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def write_quotes_csv(path, rows) -> None:
    """``model,scheme,k,strike,price,stderr,implied_vol`` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model,scheme,k,strike,price,stderr,implied_vol\n")
        for model, scheme, q in rows:
            fh.write(
                f"{model},{scheme},{q.k},{_fmt(q.strike)},{_fmt(q.price)},"
                f"{_fmt(q.stderr)},{_fmt(q.implied_vol)}\n"
            )


def weighted_martingale_gap(paths: LiborPathSet, k: int):
    """(|gap|, stderr) of E_N[w (L(T_k,T_k) - L(0,T_k))], the martingale statistic."""
    l0 = paths.initial_libors[k]
    d = paths.fixing_weights[:, k] * (paths.fixings[:, k] - l0)
    if paths.antithetic:
        half = len(d) // 2
        d = 0.5 * (d[:half] + d[half:])
    gap = float(np.mean(d))
    se = float(np.std(d, ddof=1) / math.sqrt(len(d))) if len(d) > 1 else 0.0
    return abs(gap), se


@dataclass
class CheckResult:
    model: str
    check: str
    status: str  # PASS | FAIL | WITNESS
    detail: str
    genuine_failure: bool = False


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    def add(self, *args, **kwargs):
        self.checks.append(CheckResult(*args, **kwargs))

    @property
    def failed(self) -> bool:
        return any(c.genuine_failure for c in self.checks)

    def render(self) -> str:
        lines = ["model      check       status   detail", "-" * 72]
        for c in self.checks:
            lines.append(f"{c.model:<10} {c.check:<11} {c.status:<8} {c.detail}")
        lines.append("-" * 72)
        lines.append("RESULT: " + ("FAIL" if self.failed else "PASS"))
        return "\n".join(lines)


def _se_ratio_line(paths: LiborPathSet) -> tuple:
    """Worst martingale gap across rates, in standard-error units."""
    worst, worst_k = 0.0, 1
    for k in paths.tenor.rate_indices:
        gap, se = weighted_martingale_gap(paths, k)
        ratio = gap / se if se > 0.0 else (0.0 if gap == 0.0 else math.inf)
        if ratio > worst:
            worst, worst_k = ratio, k
    return worst, worst_k


def _lmm_checks(cfg: ExperimentConfig, report: VerifyReport, models: list,
                shared: dict) -> None:
    lmm = shared["lmm_model"]
    grid = shared["grid"]
    driver = shared["driver"]
    for name in models:
        paths = _LMM_SCHEMES[name](lmm, grid, cfg.n_paths, cfg.seed, driver=driver)
        shared.setdefault("lmm_paths", {})[name] = paths
        min_rate = paths.min_rate()
        report.add(
            name,
            "positivity",
            "PASS" if min_rate > 0.0 and np.isfinite(min_rate) else "FAIL",
            f"min simulated rate {min_rate:.3e}",
            genuine_failure=not (min_rate > 0.0 and np.isfinite(min_rate)),
        )
        worst, worst_k = _se_ratio_line(paths)
        report.add(
            name,
            "martingale",
            "PASS" if worst <= 3.0 else "FAIL",
            f"worst martingale gap {worst:.2f} SE (rate {worst_k})",
            genuine_failure=worst > 3.0,
        )

    # structure witness on the exact paths: the measure-change data is state
    # dependent, so its empirical spread across paths is positive.
    paths = shared["lmm_paths"][models[0]]
    state = None
    if paths.date_values is not None:
        state = paths.date_values[:, 1, :]
    else:
        redo = _LMM_SCHEMES[models[0]](
            lmm, grid, min(cfg.n_paths, 4096), cfg.seed, store_dates=True
        )
        state = redo.date_values[:, 1, :]
    w = state * lmm.delta / (1.0 + lmm.delta * state)
    lam_row = lmm.vols.values[1]
    if lmm.chars.has_jumps:
        x_probe = 0.25 / max(lmm.vols.max_abs, 1e-12)
        factors = 1.0 + w[:, 2:] * np.expm1(lam_row[2:] * x_probe)
        witness = float(np.var(np.prod(factors, axis=1)))
        label = "compensator factor"
    else:
        witness = float(np.var(np.sum(w[:, 2:] * lam_row[2:], axis=1)))
        label = "Brownian shift"
    status = "WITNESS" if witness > 0.0 else ("PASS" if cfg.n <= 2 else "FAIL")
    report.add(
        models[0],
        "structure",
        status,
        f"forward-measure {label} variance {witness:.3e} (> 0: structure not preserved)",
        genuine_failure=status == "FAIL",
    )


def _fpm_checks(cfg: ExperimentConfig, report: VerifyReport, shared: dict) -> None:
    fpm = shared["fpm_model"]
    grid = shared["grid"]
    driver = shared["driver"]
    paths = simulate_fpm(fpm, grid, cfg.n_paths, cfg.seed, driver=driver)
    shared["fpm_paths"] = paths
    frac = negative_rate_fraction(paths)
    report.add(
        "fpm",
        "positivity",
        "WITNESS" if frac > 0.0 else "PASS",
        f"negative fixing fraction {frac:.4f}" + (" (reported, not a failure)" if frac else ""),
    )
    worst, worst_k = _se_ratio_line(paths)
    report.add(
        "fpm",
        "martingale",
        "PASS" if worst <= 3.0 else "FAIL",
        f"worst martingale gap {worst:.2f} SE (rate {worst_k})",
        genuine_failure=worst > 3.0,
    )
    # structure: the log density against the terminal measure minus the loaded
    # driver integral must be the same constant on every path.
    dh = driver.increments(fpm.chars)
    spreads = []
    for k in range(1, cfg.n - 1):
        steps = np.searchsorted(grid, fpm.tenor.dates[k], side="left")
        tail_vals = np.array(
            [fpm.loading_tails[fpm.tenor.index_of(grid[i]), k + 1] for i in range(steps)]
        )
        stoch = tail_vals @ dh[:steps]
        resid = np.log(paths.fixing_weights[:, k]) - stoch
        spreads.append(float(np.max(resid) - np.min(resid)))
    spread = max(spreads) if spreads else 0.0
    report.add(
        "fpm",
        "structure",
        "PASS" if spread <= 1e-10 else "FAIL",
        f"density exponent spread across paths {spread:.3e}",
        genuine_failure=spread > 1e-10,
    )


def _mfm_checks(cfg: ExperimentConfig, report: VerifyReport, shared: dict) -> None:
    grid = markov_functional.calibrate_backward(
        build_curve(cfg), build_mfm_driver(cfg), quad_order=cfg.quad_order
    )
    shared["mfm_grid"] = grid
    min_rate = float(np.min([np.min(grid.libor_values[i]) for i in range(1, cfg.n)]))
    report.add(
        "mfm",
        "positivity",
        "PASS" if min_rate >= 0.0 else "FAIL",
        f"min rate functional {min_rate:.3e}",
        genuine_failure=not min_rate >= 0.0,
    )
    worst = 0.0
    for i in range(1, cfg.n):
        target = grid.curve.bond(i + 1)
        got = markov_functional.initial_bond_repricing(grid, i)
        worst = max(worst, abs(got - target) / target)
    report.add(
        "mfm",
        "martingale",
        "PASS" if worst <= 1e-7 else "FAIL",
        f"worst initial-curve repricing error {worst:.2e} (tol 1e-7)",
        genuine_failure=worst > 1e-7,
    )
    report.add(
        "mfm",
        "structure",
        "PASS",
        "all functionals are functions of the scalar driver state",
    )


def _affine_checks(cfg: ExperimentConfig, report: VerifyReport, shared: dict) -> None:
    family = build_affine_family(cfg)
    shared["affine_family"] = family
    tenor = family.tenor
    x_grid = np.linspace(0.0, 8.0 * max(family.params.x0, family.params.long_run_level, 0.1), 33)
    min_rate = math.inf
    for k in tenor.rate_indices:
        for t in np.linspace(0.0, tenor.dates[k], 5):
            vals = np.asarray(affine_libor.libor_value(family, k, t, x_grid))
            min_rate = float(np.minimum(min_rate, np.min(vals)))
    report.add(
        "affine",
        "positivity",
        "PASS" if min_rate >= 0.0 else "FAIL",
        f"min rate over the state grid {min_rate:.3e}",
        genuine_failure=not min_rate >= 0.0,
    )
    paths = affine_libor.simulate_affine_paths(family, cfg.n_paths, cfg.seed + 1)
    shared["affine_paths"] = paths
    worst, worst_k = _se_ratio_line(paths)
    report.add(
        "affine",
        "martingale",
        "PASS" if worst <= 3.0 else "FAIL",
        f"worst martingale gap {worst:.2f} SE (rate {worst_k})",
        genuine_failure=worst > 3.0,
    )
    # structure: the forward-measure exponential moment is log-affine in the state
    worst_dev = 0.0
    r = tenor.dates[max(1, cfg.n - 1)]
    s = 0.5 * r
    for k in (1, cfg.n):
        for v in (-0.5, 0.25):
            xs = np.array([0.02, 0.2, 1.0])
            logs = np.log(affine_libor.forward_measure_mgf(family, k, v, s, r, xs))
            slope1 = (logs[1] - logs[0]) / (xs[1] - xs[0])
            slope2 = (logs[2] - logs[1]) / (xs[2] - xs[1])
            worst_dev = max(worst_dev, abs(slope2 - slope1))
    report.add(
        "affine",
        "structure",
        "PASS" if worst_dev <= 1e-10 else "FAIL",
        f"forward-measure moment log-affinity deviation {worst_dev:.2e} (tol 1e-10)",
        genuine_failure=worst_dev > 1e-10,
    )


def run_verify(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> VerifyReport:
    """Invariant suite of every configured model; returns the report."""
    report = VerifyReport()
    shared = _prepare_shared(cfg)
    lmm_models = [m for m in cfg.models if m in _LMM_SCHEMES]
    if lmm_models:
        _lmm_checks(cfg, report, lmm_models, shared)
    if "fpm" in cfg.models:
        _fpm_checks(cfg, report, shared)
    if "mfm" in cfg.models:
        _mfm_checks(cfg, report, shared)
    if "affine" in cfg.models:
        _affine_checks(cfg, report, shared)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verify_report.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.render() + "\n")
    return report


def _prepare_shared(cfg: ExperimentConfig) -> dict:
    shared = {}
    needs_driver = any(m in _LMM_SCHEMES or m == "fpm" for m in cfg.models)
    if needs_driver:
        tenor = build_tenor(cfg)
        grid = simulation_grid(tenor, cfg.steps_per_period)
        chars = build_chars(cfg)
        shared["grid"] = grid
        shared["driver"] = simulate_driver(
            chars, grid, cfg.n_paths, cfg.seed, antithetic=cfg.antithetic
        )
        if any(m in _LMM_SCHEMES for m in cfg.models):
            shared["lmm_model"] = build_lmm(cfg)
        if "fpm" in cfg.models:
            shared["fpm_model"] = build_fpm(cfg)
    return shared


@dataclass
class CompareResult:
    quotes: dict  # scheme -> list[(k, strike, CapletQuote)]
    diffs: dict  # scheme -> list[(k, strike, iv_diff)]
    summary: dict  # scheme -> (max_abs, mean_abs)
    files: list


def run_compare(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> CompareResult:
    """Cross-scheme implied-volatility comparison on one shared driver.

    Requires ``lmm-exact`` in the model list as the baseline; the other
    market-model schemes and the forward price model reuse the identical
    driver increments, so per-strike differences isolate the drift
    treatment rather than Monte Carlo noise.
    """
    schemes = [m for m in cfg.models if m in _LMM_SCHEMES or m == "fpm"]
    if "lmm-exact" not in schemes:
        raise ConfigError("compare needs lmm-exact in the model list as baseline")
    shared = _prepare_shared(cfg)
    lmm = shared.get("lmm_model") or build_lmm(cfg)
    curve = lmm.curve
    grid, driver = shared["grid"], shared["driver"]

    quotes = {}
    for name in schemes:
        if name == "fpm":
            paths = simulate_fpm(shared["fpm_model"], grid, cfg.n_paths, cfg.seed, driver=driver)
        else:
            paths = _LMM_SCHEMES[name](lmm, grid, cfg.n_paths, cfg.seed, driver=driver)
            if not paths.min_rate() > 0.0:
                raise LiborLabError(f"positivity violated by scheme {name}")
        rows = []
        for k in curve.tenor.rate_indices:
            for strike in strikes_for(cfg, curve, k):
                rows.append((k, strike, mc_caplet(paths, k, strike, curve)))
        quotes[name] = rows

    base = {(k, strike): q for k, strike, q in quotes["lmm-exact"]}
    diffs, summary = {}, {}
    for name in schemes:
        if name == "lmm-exact":
            continue
        rows = []
        for k, strike, q in quotes[name]:
            ref = base[(k, strike)]
            if q.implied_vol is None or ref.implied_vol is None:
                continue
            rows.append((k, strike, q.implied_vol - ref.implied_vol))
        diffs[name] = rows
        if rows:
            arr = np.array([r[2] for r in rows])
            summary[name] = (float(np.max(np.abs(arr))), float(np.mean(np.abs(arr))))
        else:
            summary[name] = (math.nan, math.nan)

    files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        qpath = os.path.join(out_dir, "quotes.csv")
        write_quotes_csv(
            qpath,
            [
                ("fpm", "mc", q) if name == "fpm" else ("lmm", name.replace("lmm-", ""), q)
                for name in schemes
                for _, _, q in quotes[name]
            ],
        )
        files.append(qpath)
        for name, rows in diffs.items():
            dpath = os.path.join(out_dir, f"ivdiff_{name}_vs_lmm-exact.csv")
            with open(dpath, "w", encoding="utf-8") as fh:
                fh.write("k,strike,iv_diff\n")
                for k, strike, dv in rows:
                    fh.write(f"{k},{_fmt(strike)},{_fmt(dv)}\n")
            files.append(dpath)
        spath = os.path.join(out_dir, "summary.txt")
        with open(spath, "w", encoding="utf-8") as fh:
            fh.write("scheme,max_abs_iv_diff,mean_abs_iv_diff\n")
            for name in sorted(summary):
                mx, mn = summary[name]
                fh.write(f"{name},{_fmt(mx)},{_fmt(mn)}\n")
        files.append(spath)
    return CompareResult(quotes=quotes, diffs=diffs, summary=summary, files=files)


def run_price(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> list:
    """Quote tables for every configured model; returns the CSV rows."""
    shared = _prepare_shared(cfg)
    curve = build_curve(cfg)
    rows = []
    for name in cfg.models:
        if name in _LMM_SCHEMES:
            paths = _LMM_SCHEMES[name](
                shared["lmm_model"], shared["grid"], cfg.n_paths, cfg.seed,
                driver=shared["driver"],
            )
            for k in curve.tenor.rate_indices:
                for strike in strikes_for(cfg, curve, k):
                    rows.append(("lmm", name.replace("lmm-", ""), mc_caplet(paths, k, strike, curve)))
        elif name == "fpm":
            fpm = shared["fpm_model"]
            paths = simulate_fpm(fpm, shared["grid"], cfg.n_paths, cfg.seed, driver=shared["driver"])
            for k in curve.tenor.rate_indices:
                for strike in strikes_for(cfg, curve, k):
                    rows.append(("fpm", "mc", mc_caplet(paths, k, strike, curve)))
                    price = caplet_price_fourier(fpm, k, strike)
                    iv = implied_vol_or_none(price, curve, k, strike)
                    rows.append(
                        ("fpm", "fourier", CapletQuote(k=k, strike=strike, price=price, implied_vol=iv))
                    )
        elif name == "mfm":
            grid = markov_functional.calibrate_backward(
                curve, build_mfm_driver(cfg), quad_order=cfg.quad_order
            )
            for k in curve.tenor.rate_indices:
                for strike in strikes_for(cfg, curve, k):
                    price = markov_functional.caplet_value(grid, k, strike)
                    iv = implied_vol_or_none(price, curve, k, strike)
                    rows.append(
                        ("mfm", "grid", CapletQuote(k=k, strike=strike, price=price, implied_vol=iv))
                    )
        elif name == "affine":
            family = build_affine_family(cfg)
            paths = affine_libor.simulate_affine_paths(family, cfg.n_paths, cfg.seed + 1)
            for k in curve.tenor.rate_indices:
                for strike in strikes_for(cfg, curve, k):
                    price = affine_libor.caplet_price_fourier(family, k, strike)
                    iv = implied_vol_or_none(price, curve, k, strike)
                    rows.append(
                        ("affine", "fourier", CapletQuote(k=k, strike=strike, price=price, implied_vol=iv))
                    )
                    rows.append(("affine", "mc", mc_caplet(paths, k, strike, curve)))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_quotes_csv(os.path.join(out_dir, "prices.csv"), rows)
    return rows


def run_calibrate_mfm(cfg: ExperimentConfig, out_dir: Optional[str] = None):
    """Backward-induction calibration; exports the functional grid CSV."""
    grid = markov_functional.calibrate_backward(
        build_curve(cfg), build_mfm_driver(cfg), quad_order=cfg.quad_order
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        markov_functional.export_grid_csv(os.path.join(out_dir, "mfm_grid.csv"), grid)
    return grid
