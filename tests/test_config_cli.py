import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liborlab
from liborlab import affine_libor, cli, config, experiment, markov_functional
from liborlab.config import ExperimentConfig, override, parse_config, serialize_config
from liborlab.errors import ConfigError
from liborlab.experiment import run_calibrate_mfm, run_compare, run_price, run_verify

SMALL_COMPARE = """
[experiment]
seed = 99
n_paths = 4000
steps_per_period = 4
out_dir = out

[tenor]
delta = 0.5
n = 4

[curve]
flat_libor = 0.04

[driver]
type = brownian

[vols]
flat = 0.2

[models]
run = lmm-exact, lmm-frozen, lmm-taylor

[pricing]
strike_factors = 0.8, 1.0, 1.2
"""

VERIFY_ALL = """
[experiment]
seed = 7
n_paths = 20000
steps_per_period = 4
out_dir = out
quad_order = 64

[tenor]
delta = 0.5
n = 4

[curve]
flat_libor = 0.04

[driver]
type = jump-normal
drift_b = 0.0
diffusion_c = 0.4
jump_intensity = 0.6
jump_mean = -0.08
jump_sd = 0.25

[vols]
flat = 0.15

[models]
run = lmm-exact, fpm, mfm, affine

[pricing]
strike_factors = 1.0

[mfm]
sigma = 0.2

[affine]
mean_reversion = 1.2
long_run_level = 0.06
vol_of_vol = 0.5
x0 = 0.06
"""


def test_parse_and_round_trip():
    cfg = parse_config(SMALL_COMPARE)
    assert cfg.seed == 99
    assert cfg.models == ("lmm-exact", "lmm-frozen", "lmm-taylor")
    assert cfg.strike_factors == (0.8, 1.0, 1.2)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    third = parse_config(serialize_config(again))
    assert third == again


def test_round_trip_with_jump_driver_and_extras():
    cfg = parse_config(VERIFY_ALL)
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        parse_config(SMALL_COMPARE.replace("flat_libor = 0.04", "nothing = 1"))
    with pytest.raises(ConfigError):
        parse_config(SMALL_COMPARE.replace("type = brownian", "type = warp-drive"))
    with pytest.raises(ConfigError):
        parse_config(
            SMALL_COMPARE.replace(
                "run = lmm-exact, lmm-frozen, lmm-taylor", "run = lmm-exact, nonsense"
            )
        )
    # picard on a jump driver is rejected up front
    bad = VERIFY_ALL.replace("run = lmm-exact, fpm, mfm, affine", "run = lmm-picard1")
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(SMALL_COMPARE.replace("seed = 99", "seed = quux"))
    with pytest.raises(ConfigError, match=r"'no_such_experiment\.cfg' does not exist"):
        parse_config("no_such_experiment.cfg")
    committed = Path(__file__).resolve().parent.parent / "configs" / "verify_all.cfg"
    assert parse_config(committed) == parse_config(str(committed))


@pytest.mark.parametrize("old, new, named", [
    ("strike_factors = 0.8", "strike_factor = 0.8", "'strike_factor' in [pricing]"),
    ("[models]", "[model]", "section [model]"),
    ("flat = 0.2", "flat = 0.2\nrate_2 = 0.2, 0.2", "'rate_2' in [vols]"),
    ("[experiment]", "[DEFAULT]\nseed = 1\n[experiment]", "section [DEFAULT]"),
])
def test_unknown_section_or_key_refused(old, new, named):
    # a misspelt key would otherwise drop its setting without a word
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config(SMALL_COMPARE.replace(old, new))


# command, (old, new, ...) config edits made in turn, CLI flags
RUN_AND_PRICING = "run = lmm-exact, fpm, mfm, affine\n\n[pricing]\nstrike_factors = 1.0"
DOUBLE_EXP = "type = jump-double-exp\np_up = {p_up}\nalpha_pos = {alpha}\nalpha_neg = 7.0"
UNRUNNABLE = {
    "jump-intensity-nan": ("verify", ("jump_intensity = 0.6", "jump_intensity = nan"), ()),
    "mfm-sigma-nan": ("verify", ("sigma = 0.2", "sigma = nan"), ()),
    "flat-libor-nan": ("verify", ("flat_libor = 0.04", "flat_libor = nan"), ()),
    "strike-factor-inf": ("price", ("strike_factors = 1.0", "strike_factors = 1.0, inf"), ()),
    "quad-order-0": ("calibrate-mfm", None, ("--quad-order", "0")),
    "quad-order-1": ("calibrate-mfm", None, ("--quad-order", "1")),
    "negative-seed": ("verify", None, ("--seed", "-1")),
    "antithetic-odd-paths": (
        "verify",
        ("strike_factors = 1.0", "strike_factors = 1.0\nantithetic = true"),
        ("--paths", "201"),
    ),
    # strikes a listed model cannot value: mfm needs > 0, affine >= 0, fpm > -1/delta
    "mfm-zero-strike": ("price", ("strike_factors = 1.0", "strikes = 0.0, 0.04"), ()),
    "mfm-zero-strike-factor": ("price", ("strike_factors = 1.0", "strike_factors = 0.0"), ()),
    "affine-negative-strike": (
        "price", (RUN_AND_PRICING, "run = affine\n\n[pricing]\nstrikes = 0, -0.01"), ()
    ),
    "fpm-strike-at-minus-one-over-delta": (
        "price", (RUN_AND_PRICING, "run = lmm-exact, fpm\n\n[pricing]\nstrikes = -2.0"), ()
    ),
    # ranges of the chosen driver's jump law and diffusion
    "jump-sd-negative": ("verify", ("jump_sd = 0.25", "jump_sd = -0.1"), ()),
    "jump-sd-zero": ("verify", ("jump_sd = 0.25", "jump_sd = 0.0"), ()),
    "p-up-above-one": ("verify", ("type = jump-normal", DOUBLE_EXP.format(p_up=1.5, alpha=9.0)), ()),
    "p-up-negative": ("verify", ("type = jump-normal", DOUBLE_EXP.format(p_up=-0.1, alpha=9.0)), ()),
    "alpha-zero": ("verify", ("type = jump-normal", DOUBLE_EXP.format(p_up=0.45, alpha=0.0)), ()),
    "diffusion-c-negative": ("verify", ("diffusion_c = 0.4", "diffusion_c = -0.4"), ()),
    # a negative flat rate for every model; a zero one where the market model runs
    "flat-libor-negative-fpm": (
        "price", ("flat_libor = 0.04", "flat_libor = -0.01", RUN_AND_PRICING, "run = fpm"), ()
    ),
    "flat-libor-negative-lmm": (
        "compare", ("flat_libor = 0.04", "flat_libor = -0.01", RUN_AND_PRICING, "run = lmm-exact"), ()
    ),
    "flat-libor-zero-compare": (
        "compare", ("flat_libor = 0.04", "flat_libor = 0.0", RUN_AND_PRICING, "run = lmm-exact, fpm"), ()
    ),
    "flat-libor-zero-verify": (
        "verify", ("flat_libor = 0.04", "flat_libor = 0.0", RUN_AND_PRICING, "run = lmm-exact, affine"), ()
    ),
    # steps longer than delta / 4 where the market model or the FPM simulates
    "steps-per-period-2-lmm": ("verify", ("steps_per_period = 4", "steps_per_period = 2"), ()),
    "steps-per-period-3-fpm": (
        "price", ("steps_per_period = 4", "steps_per_period = 3", RUN_AND_PRICING, "run = fpm"), ()
    ),
    # ranges of the affine and MFM drivers and the shape of the loading rows
    "affine-vol-of-vol-zero": ("verify", ("vol_of_vol = 0.5", "vol_of_vol = 0"), ()),
    "affine-x0-negative": ("verify", ("x0 = 0.06", "x0 = -0.01"), ()),
    "mfm-sigma-negative": ("verify", ("sigma = 0.2", "sigma = -0.2"), ()),
    "vol-row-too-short": (
        "verify", ("flat = 0.15", "rate_1 = 0.15\nrate_2 = 0.1\nrate_3 = 0.15, 0.15, 0.15"), ()
    ),
    # rates and strikes judged on the built curve, flat or from a file (CURVE_FILES):
    # fpm strikes at or below -1/delta = -2, market-model rates and mfm rates at sigma > 0
    # that are zero
    "fpm-strike-factor-below-floor-flat": (
        "price", (RUN_AND_PRICING, "run = fpm\n\n[pricing]\nstrike_factors = -400, 1.0"), ()
    ),
    "fpm-strike-factor-below-floor-file": (
        "price", ("flat_libor = 0.04", "file = rising.txt",
                  RUN_AND_PRICING, "run = fpm\n\n[pricing]\nstrike_factors = -400, 1.0"), ()
    ),
    "lmm-zero-forward-file": (
        "price", ("flat_libor = 0.04", "file = zero_forward.txt",
                  RUN_AND_PRICING, "run = lmm-exact, lmm-taylor\n\n[pricing]\nstrike_factors = 1.0"), ()
    ),
    "lmm-zero-forward-file-verify": (
        "verify", ("flat_libor = 0.04", "file = zero_forward.txt",
                   RUN_AND_PRICING, "run = lmm-exact, lmm-taylor"), ()
    ),
    "mfm-zero-flat-libor": (
        "price", ("flat_libor = 0.04", "flat_libor = 0.0",
                  RUN_AND_PRICING, "run = mfm\n\n[pricing]\nstrikes = 0.04"), ()
    ),
    "mfm-zero-forward-file": (
        "price", ("flat_libor = 0.04", "file = zero_forward.txt",
                  RUN_AND_PRICING, "run = mfm\n\n[pricing]\nstrikes = 0.04"), ()
    ),
    "mfm-zero-forward-file-calibrate": (
        "calibrate-mfm", ("flat_libor = 0.04", "file = zero_forward.txt",
                          RUN_AND_PRICING, "run = mfm\n\n[pricing]\nstrikes = 0.04"), ()
    ),
    # calibrate-mfm calibrates the MFM also when the listed models do not include it
    "mfm-zero-forward-file-calibrate-unlisted": (
        "calibrate-mfm", ("flat_libor = 0.04", "file = zero_forward.txt",
                          RUN_AND_PRICING, "run = fpm\n\n[pricing]\nstrike_factors = 1.0"), ()
    ),
    "mfm-zero-flat-libor-calibrate-unlisted": (
        "calibrate-mfm", ("flat_libor = 0.04", "flat_libor = 0.0",
                          RUN_AND_PRICING, "run = fpm\n\n[pricing]\nstrike_factors = 1.0"), ()
    ),
    "mfm-sigma-negative-calibrate-unlisted": (
        "calibrate-mfm", ("sigma = 0.2", "sigma = -0.2",
                          RUN_AND_PRICING, "run = fpm\n\n[pricing]\nstrike_factors = 1.0"), ()
    ),
}
# T_k,B(0,T_k) on VERIFY_ALL's tenor (delta = 0.5, n = 4): rates of 2% to 3.5%, and
# B(0, T_1) = B(0, T_2), so L(0, T_1) = 0
CURVE_FILES = {
    "rising.txt": "0,1\n0.5,0.9900990099009901\n1,0.9778755653343112\n"
                  "1.5,0.9634242022998141\n2,0.9468542528745101\n",
    "zero_forward.txt": "0,1\n0.5,0.99\n1,0.99\n1.5,0.97\n2,0.95\n",
}


def _no_work(*args, **kwargs):
    raise AssertionError("a config error must stop the command before any model work")


@pytest.mark.parametrize("case", list(UNRUNNABLE))
def test_cli_refuses_values_it_cannot_run(tmp_path, capsys, monkeypatch, case):
    # values that parse but cannot run stop at the config check with exit 2,
    # rather than run as something else, end in a traceback or exit 1, and
    # they stop there before any simulation, calibration or curve fit
    for module, name in ((experiment, "simulate_driver"), (markov_functional, "calibrate_backward"),
                         (affine_libor, "fit_initial_curve")):
        monkeypatch.setattr(module, name, _no_work)
    command, edits, flags = UNRUNNABLE[case]
    text, edits = VERIFY_ALL, edits or ()
    for old, new in zip(edits[::2], edits[1::2]):
        assert old in text, old
        text = text.replace(old, new)
    for name, curve in CURVE_FILES.items():
        (tmp_path / name).write_text(curve)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    code = cli.main([command, str(cfg_file), "--out-dir", str(tmp_path / "out"), *flags])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_every_field_is_reached_by_one_table_key():
    reached = [name for keys in config._TABLE.values() for name in keys.values()]
    reached.append("vol_rows")  # through [vols] rate_1, rate_2, ...
    assert sorted(reached) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FLOAT_LISTS = st.lists(FINITE, min_size=1, max_size=4).map(tuple)


@st.composite
def configs(draw):
    driver_type = draw(st.sampled_from(config.DRIVER_TYPES))
    models = [m for m in config.KNOWN_MODELS if driver_type == "brownian" or m != "lmm-picard1"]
    models = tuple(draw(st.lists(st.sampled_from(models), min_size=1, unique=True)))
    # the market model and the FPM step at most delta / 4
    simulated = any(m.startswith("lmm-") or m == "fpm" for m in models)
    antithetic = draw(st.booleans())
    vol_rows = tuple(draw(st.lists(FLOAT_LISTS, max_size=4)))
    strikes = draw(st.sampled_from(["strikes", "strike_factors", None]))
    values = dict(
        seed=draw(st.integers(0, 2**63)),
        n_paths=draw(st.integers(1, 10**6)) * (2 if antithetic else 1),
        delta=draw(POSITIVE),
        n=draw(st.integers(2, 12)),
        models=models,
        steps_per_period=draw(st.integers(4 if simulated else 1, 8)),
        out_dir=draw(st.text("abcxyz019_./-", min_size=1, max_size=12)),
        quad_order=draw(st.integers(2, 128)),
        driver_type=driver_type,
        jump_intensity=0.0 if driver_type == "brownian" else draw(POSITIVE),
        vol_flat=draw(FINITE if not vol_rows else st.none() | FINITE),
        vol_rows=vol_rows,
        antithetic=antithetic,
        mfm_sigma=draw(st.none() | FINITE),
    )
    if draw(st.booleans()):
        values["flat_libor"] = draw(FINITE)  # its range is the built curve's, as are the strikes'
    else:
        values["curve_file"] = os.path.abspath(__file__)  # only its existence is checked
    if strikes:
        values[strikes] = draw(FLOAT_LISTS)
    double_exp = driver_type == "jump-double-exp"
    values.update(
        drift_b=draw(FINITE),
        diffusion_c=draw(st.floats(min_value=0.0, allow_infinity=False)),
        jump_mean=draw(FINITE),
        jump_sd=draw(POSITIVE if driver_type == "jump-normal" else FINITE),
        p_up=draw(st.floats(0.0, 1.0) if double_exp else FINITE),
        alpha_pos=draw(POSITIVE if double_exp else FINITE),
        alpha_neg=draw(POSITIVE if double_exp else FINITE),
    )
    if draw(st.booleans()):  # an [affine] section
        for name in ("mean_reversion", "long_run_level", "vol_of_vol", "x0"):
            values[f"affine_{name}"] = draw(FINITE)
    return ExperimentConfig(**values)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cfg=configs())
def test_serialized_config_parses_back_equal(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_zero_flat_libor_is_refused_only_with_the_market_model():
    text = VERIFY_ALL.replace("flat_libor = 0.04", "flat_libor = 0.0").replace(RUN_AND_PRICING, "run = fpm")
    assert experiment.Context(parse_config(text)).curve.libor(1) == 0.0
    with pytest.raises(ConfigError, match=r"an lmm-\* model needs every initial rate > 0"):
        experiment.Context(parse_config(text.replace("run = fpm", "run = fpm, lmm-frozen")))


def test_zero_rates_stay_runnable_for_the_deterministic_mfm(tmp_path):
    # at sigma = 0 the MFM calibrates no digitals, so a zero forward rate is fine
    (tmp_path / "zero_forward.txt").write_text(CURVE_FILES["zero_forward.txt"])
    text = VERIFY_ALL.replace("flat_libor = 0.04", "file = zero_forward.txt").replace(
        RUN_AND_PRICING, "run = mfm\n\n[pricing]\nstrikes = 0.03").replace("sigma = 0.2", "sigma = 0.0")
    cfg_file = tmp_path / "zero.cfg"
    cfg_file.write_text(text)
    curve = experiment.Context(parse_config(cfg_file)).curve
    assert curve.libor(1) == 0.0
    assert [q.price for _, _, q in run_price(parse_config(cfg_file))] == [
        curve.bond(k + 1) * 0.5 * max(curve.libor(k) - 0.03, 0.0) for k in (1, 2, 3)]


def test_every_committed_config_parses():
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "configs").glob("*.cfg")):
        parse_config(path)
    parse_config(root / "perfbench" / "price_analytic.cfg")  # sets quad_order


def test_override_replaces_fields():
    cfg = parse_config(SMALL_COMPARE)
    new = override(cfg, seed=123, n_paths=None)
    assert new.seed == 123 and new.n_paths == cfg.n_paths


def test_run_compare_zero_vols_all_differences_zero(tmp_path):
    cfg = parse_config(SMALL_COMPARE.replace("flat = 0.2", "flat = 0.0"))
    result = run_compare(cfg, out_dir=str(tmp_path))
    for rows in result.diffs.values():
        assert rows  # zero-vol quotes are exact, so implied vols exist
        assert all(dv == 0.0 for _, _, dv in rows)


def test_run_compare_positivity_fails_on_nan(monkeypatch):
    # a NaN or zero fixing must not pass the positivity test that guards the
    # market-model quotes, in compare and in price alike
    from liborlab.errors import LiborLabError

    frozen = experiment._LMM_SCHEMES["lmm-frozen"]
    cfg = override(parse_config(SMALL_COMPARE), n_paths=64)
    for poison in (np.nan, 0.0):
        def frozen_with_poison(*args, **kwargs):
            paths = frozen(*args, **kwargs)
            paths.fixings[0, 1] = poison
            return paths

        monkeypatch.setitem(experiment._LMM_SCHEMES, "lmm-frozen", frozen_with_poison)
        for run in (run_compare, run_price):
            with pytest.raises(LiborLabError, match="positivity violated by scheme lmm-frozen"):
                run(cfg)


def test_run_compare_scheme_ordering_and_determinism(tmp_path):
    cfg = parse_config(SMALL_COMPARE)
    a = run_compare(cfg, out_dir=str(tmp_path / "a"))
    assert a.summary["lmm-taylor"][0] < a.summary["lmm-frozen"][0]
    b = run_compare(cfg, out_dir=str(tmp_path / "b"))
    for name in ("quotes.csv", "ivdiff_lmm-frozen_vs_lmm-exact.csv", "summary.txt"):
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb


def test_compare_without_comparable_vols_writes_no_nan(tmp_path, capsys):
    # every FPM price of this config lies above the forward bound, so the
    # scheme has no implied-vol pairs: empty fields, never NaN
    cfg_path = str(Path(__file__).resolve().parent.parent / "configs" / "fpm_negative_rates.cfg")
    assert run_compare(override(parse_config(cfg_path), n_paths=2000)).summary["fpm"] is None
    out = tmp_path / "out"
    assert cli.main(["compare", cfg_path, "--paths", "2000", "--out-dir", str(out)]) == 0
    assert "fpm vs lmm-exact: no comparable implied vols" in capsys.readouterr().out
    assert (out / "summary.txt").read_text().splitlines()[1] == "fpm,,"
    assert not any("nan" in path.read_text() for path in out.iterdir())


def test_run_verify_expected_pattern(tmp_path):
    cfg = parse_config(VERIFY_ALL)
    report = run_verify(cfg, out_dir=str(tmp_path))
    assert not report.failed
    by_key = {(c.model, c.check): c for c in report.checks}
    assert by_key[("lmm-exact", "positivity")].status == "PASS"
    assert by_key[("lmm-exact", "martingale")].status == "PASS"
    assert by_key[("lmm-exact", "structure")].status == "WITNESS"
    assert by_key[("fpm", "martingale")].status == "PASS"
    assert by_key[("fpm", "structure")].status == "PASS"
    assert by_key[("mfm", "positivity")].status == "PASS"
    assert by_key[("mfm", "martingale")].status == "PASS"
    assert by_key[("affine", "positivity")].status == "PASS"
    assert by_key[("affine", "martingale")].status == "PASS"
    assert by_key[("affine", "structure")].status == "PASS"
    assert (tmp_path / "verify_report.txt").exists()


def test_run_verify_simulates_each_scheme_once(monkeypatch):
    # the structure witness reads the rates at T_1 from the main run of the
    # first scheme instead of simulating that scheme a second time
    calls = []
    exact = experiment._LMM_SCHEMES["lmm-exact"]

    def counted(*args, **kwargs):
        calls.append(kwargs.get("store_dates"))
        return exact(*args, **kwargs)

    monkeypatch.setitem(experiment._LMM_SCHEMES, "lmm-exact", counted)
    cfg = parse_config(VERIFY_ALL.replace("run = lmm-exact, fpm, mfm, affine", "run = lmm-exact"))
    report = run_verify(override(cfg, n_paths=500))
    assert calls == [True]
    by_key = {(c.model, c.check): c for c in report.checks}
    assert by_key[("lmm-exact", "structure")].status == "WITNESS"


def _poisoned(fn, poison):
    def wrapped(*args, **kwargs):
        return poison(fn(*args, **kwargs))

    return wrapped


def _nan_rate_functional(grid):
    grid.libor_values[1] = grid.libor_values[1].copy()
    grid.libor_values[1][0] = np.nan
    return grid


def _nan_first(values):
    values = np.array(values, dtype=float)
    values.flat[0] = np.nan
    return values


def _nan_fixing(paths):
    paths.fixings[0, 1] = np.nan
    return paths


def _nan_fixing_weight(paths):
    paths.fixing_weights[0, 1] = np.nan
    return paths


# models run, (module, attribute, poison) patches, and the lines that must fail
NAN_CASES = {
    "positivity": (
        "mfm, affine",
        [
            (markov_functional, "calibrate_backward", _nan_rate_functional),
            (affine_libor, "libor_value", _nan_first),
        ],
        [("mfm", "positivity"), ("affine", "positivity")],
    ),
    "mfm-martingale": (
        "mfm",
        [(markov_functional, "initial_bond_repricing", lambda value: np.nan)],
        [("mfm", "martingale")],
    ),
    "affine-structure": (
        "affine",
        [(affine_libor, "forward_measure_mgf", _nan_first)],
        [("affine", "structure")],
    ),
    "fpm-structure": (
        "fpm",
        [(experiment, "simulate_fpm", _nan_fixing_weight)],
        [("fpm", "structure")],
    ),
    "fpm-positivity": (
        "fpm",
        [(experiment, "simulate_fpm", _nan_fixing)],
        [("fpm", "positivity")],
    ),
}


@pytest.mark.parametrize("case", list(NAN_CASES))
def test_run_verify_fails_on_nan(monkeypatch, case):
    # a NaN statistic must fail its line and the run, not pass or only print FAIL
    models, patches, lines = NAN_CASES[case]
    for module, name, poison in patches:
        monkeypatch.setattr(module, name, _poisoned(getattr(module, name), poison))
    cfg = parse_config(VERIFY_ALL.replace("run = lmm-exact, fpm, mfm, affine", f"run = {models}"))
    report = run_verify(override(cfg, n_paths=500))
    by_key = {(c.model, c.check): c for c in report.checks}
    for line in lines:
        assert by_key[line].status == "FAIL"
    assert report.failed


def test_zero_loadings_hold_a_deterministic_gap_to_round_off(monkeypatch):
    # a rate with zero loadings fixes at L(0, T_k) up to round-off on every
    # path, so its gap has no sampling error, even where the other rates move
    # the weights: the martingale line passes, but a deterministic 1e-10 gap
    # and a NaN fixing on that rate still fail.  All rates still: the
    # structure line passes; rate 2 alone still: the later rates witness it.
    exact = experiment._LMM_SCHEMES["lmm-exact"]

    def patched(poison):
        def run(*args, **kwargs):
            paths = exact(*args, **kwargs)
            poison(paths.fixings)
            return paths
        return run

    def poison(fixings):
        fixings[0, 2] = np.nan

    only_rate_2 = "rate_1 = 0.15\nrate_2 = 0.0, 0.0\nrate_3 = 0.15, 0.15, 0.15"
    for vols, still, structure in (("flat = 0.0", 1, "PASS"), (only_rate_2, 2, "WITNESS")):
        def shift(fixings, k=still):
            fixings[:, k] += 1e-10

        monkeypatch.setitem(experiment._LMM_SCHEMES, "lmm-frozen", patched(shift))
        monkeypatch.setitem(experiment._LMM_SCHEMES, "lmm-taylor", patched(poison))
        cfg = parse_config(VERIFY_ALL.replace("flat = 0.15", vols).replace(
            "run = lmm-exact, fpm, mfm, affine", "run = lmm-exact, lmm-frozen, lmm-taylor"))
        report = run_verify(override(cfg, n_paths=500))
        by_key = {(c.model, c.check): c for c in report.checks}
        assert by_key[("lmm-exact", "martingale")].status == "PASS", vols
        assert by_key[("lmm-exact", "structure")].status == structure
        for scheme in ("lmm-frozen", "lmm-taylor"):
            line = by_key[(scheme, "martingale")]
            assert line.status == "FAIL" and "inf SE" in line.detail, (vols, line.detail)
        assert report.failed


EDGE_VARIANTS = {
    "zero-loadings": [("flat = 0.15", "flat = 0.0")],
    "mfm-sigma-0": [("sigma = 0.2", "sigma = 0.0")],
    "both": [("flat = 0.15", "flat = 0.0"), ("sigma = 0.2", "sigma = 0.0")],
    "n-2": [("\nn = 5\n", "\nn = 2\n")],
}


@pytest.mark.parametrize("variant", list(EDGE_VARIANTS))
def test_cli_edge_configs_run_without_nan(tmp_path, variant):
    # zero loadings, a zero MFM driver and the shortest tenor: every command
    # exits 0 and writes no nan or inf
    text = (Path(__file__).resolve().parent.parent / "configs" / "verify_all.cfg").read_text()
    for old, new in EDGE_VARIANTS[variant]:
        assert old in text
        text = text.replace(old, new)
    cfg_file = tmp_path / "edge.cfg"
    cfg_file.write_text(text)
    for command in ("compare", "verify", "price", "calibrate-mfm"):
        out = tmp_path / command
        assert cli.main([command, str(cfg_file), "--paths", "2000", "--out-dir", str(out)]) == 0
        for path in out.iterdir():
            assert not re.search(r"\b(nan|inf)\b", path.read_text(), re.I), (command, path.name)


def test_cli_loading_rows_equal_to_the_flat_value_change_no_output(tmp_path):
    # a rate_k row per rate, every value the flat one, is the same loading surface
    text = (Path(__file__).resolve().parent.parent / "configs" / "verify_all.cfg").read_text()
    rows = "\n".join(f"rate_{k} = " + ", ".join(["0.15"] * k) for k in range(1, 5))
    for name, vols in (("flat", "flat = 0.15"), ("rows", rows)):
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(text.replace("flat = 0.15", vols))
        for command in ("verify", "price"):
            out = str(tmp_path / name)
            assert cli.main([command, str(cfg_file), "--paths", "2000", "--out-dir", out]) == 0
    for output in ("verify_report.txt", "prices.csv"):
        assert (tmp_path / "rows" / output).read_bytes() == (tmp_path / "flat" / output).read_bytes()


def test_cli_price_leaves_the_implied_vol_empty_at_a_negative_strike(tmp_path):
    # Black has no implied vol at a nonpositive strike: every fpm quote at
    # -0.01, Monte Carlo and Fourier, writes an empty implied_vol field
    cfg_file = tmp_path / "fpm.cfg"
    fpm_only = "run = fpm\n\n[pricing]\nstrikes = -0.01, 0.02"
    cfg_file.write_text(VERIFY_ALL.replace(RUN_AND_PRICING, fpm_only))
    out = tmp_path / "out"
    assert cli.main(["price", str(cfg_file), "--paths", "2000", "--out-dir", str(out)]) == 0
    rows = [line.split(",") for line in (out / "prices.csv").read_text().splitlines()[1:]]
    negative = [row for row in rows if row[3] == "-0.01"]
    assert len(negative) == 2 * 3  # two schemes, rates 1..3
    assert all(row[6] == "" for row in negative)


@pytest.mark.parametrize("strikes", ["-0.01", "-0.01, 0.04"])
def test_cli_price_refuses_a_nan_density_weight(tmp_path, capsys, monkeypatch, strikes):
    # a NaN weight stops the run (exit 1) before any row is written; at a
    # negative strike no implied-vol root meets it on the way
    monkeypatch.setattr(experiment, "simulate_fpm",
                        _poisoned(experiment.simulate_fpm, _nan_fixing_weight))
    cfg_file = tmp_path / "fpm.cfg"
    cfg_file.write_text(VERIFY_ALL.replace(RUN_AND_PRICING, f"run = fpm\n\n[pricing]\nstrikes = {strikes}"))
    out = tmp_path / "out"
    assert cli.main(["price", str(cfg_file), "--paths", "500", "--out-dir", str(out)]) == cli.EXIT_INVARIANT
    assert "density weight of rate 1 is not finite" in capsys.readouterr().err
    assert not any("nan" in path.read_text() for path in out.glob("*"))


def test_run_price_writes_table(tmp_path):
    cfg = parse_config(VERIFY_ALL.replace("strike_factors = 1.0", "strikes = 0.05, 0.03"))
    rows = run_price(override(cfg, n_paths=2000), out_dir=str(tmp_path))
    assert rows
    lines = (tmp_path / "prices.csv").read_text().splitlines()
    assert lines[0] == "model,scheme,k,strike,price,stderr,implied_vol"
    # configured model order, then rate, then strike as configured, then scheme
    expected = [
        (model, scheme, k, strike)
        for model, schemes in (
            ("lmm", ("exact",)), ("fpm", ("mc", "fourier")), ("mfm", ("grid",)),
            ("affine", ("fourier", "mc")),
        )
        for k in (1, 2, 3)
        for strike in (0.05, 0.03)
        for scheme in schemes
    ]
    got = [
        (model, scheme, int(k), float(strike))
        for model, scheme, k, strike, *_ in (line.split(",") for line in lines[1:])
    ]
    assert got == expected


def test_run_calibrate_mfm_exports_grid(tmp_path):
    cfg = parse_config(VERIFY_ALL)
    grid = run_calibrate_mfm(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "mfm_grid.csv").read_text().strip().splitlines()
    assert lines[0] == "i,x,L_functional,numeraire_functional"
    assert len(lines) == 1 + sum(len(grid.x_nodes[i]) for i in range(1, 4))


def _run_python(args, cwd):
    # The child runs in a scratch directory, where a relative PYTHONPATH entry
    # such as ``src`` no longer resolves; put the directory that holds the
    # liborlab under test first, so the child imports the same code.
    package_root = str(Path(liborlab.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def _run_cli(args, cwd):
    return _run_python(["-m", "liborlab.cli", *args], cwd)


# scipy serves only the tests, as an oracle, and the chi-square cross-check,
# which no command runs; the package has its own normal distribution function,
# root solver and monotone cubic.  Importing scipy.special alone (66 scipy
# modules) would cost every command about 0.3 s of start-up.
def _scipy_loaded(tmp_path, statement):
    """Run ``statement`` after ``from liborlab import cli``; each ``CHECK`` in it
    prints the scipy modules then loaded.  Returns one list per check."""
    proc = _run_python(["-c", f"import sys\nfrom liborlab import cli\n{statement}"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stdout.splitlines() if line.startswith("scipy modules:")]


CHECK = "print('scipy modules:', [m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n"


def test_cli_import_loads_no_scipy(tmp_path):
    assert _scipy_loaded(tmp_path, CHECK) == ["scipy modules: []"]


def test_commands_load_no_scipy(tmp_path):
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text(VERIFY_ALL)
    commands = ("price", "calibrate-mfm", "verify", "compare")
    runs = "".join(
        f"assert cli.main([{command!r}, {str(cfg_file)!r}, '--paths', '2000', "
        f"'--out-dir', {str(tmp_path / command)!r}]) == 0\n{CHECK}"
        for command in commands
    )
    assert _scipy_loaded(tmp_path, runs) == ["scipy modules: []"] * len(commands)
    for command, output in zip(commands, ("prices.csv", "mfm_grid.csv", "verify_report.txt", "quotes.csv")):
        assert (tmp_path / command / output).exists()


def test_cli_end_to_end(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(SMALL_COMPARE)
    out = tmp_path / "cli_out"
    proc = _run_cli(
        ["compare", str(cfg_file), "--out-dir", str(out), "--paths", "2000"], cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.txt").exists()
    proc2 = _run_cli(["price", str(cfg_file), "--out-dir", str(out)], cwd=tmp_path)
    assert proc2.returncode == 0, proc2.stderr


def test_cli_config_error_exit_code(tmp_path):
    cfg_file = tmp_path / "broken.cfg"
    cfg_file.write_text("[experiment]\nseed = 1\n")
    proc = _run_cli(["compare", str(cfg_file)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_cli_verify_exit_codes(tmp_path):
    cfg_file = tmp_path / "verify.cfg"
    cfg_file.write_text(VERIFY_ALL.replace("n_paths = 20000", "n_paths = 5000"))
    out = tmp_path / "vout"
    proc = _run_cli(["verify", str(cfg_file), "--out-dir", str(out)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "RESULT: PASS" in proc.stdout


def test_cli_invariant_failure_exit_code(tmp_path):
    # cumulative loadings beyond the two-sided-exponential moment bound
    # fail at model build, which the CLI reports as an invariant failure
    broken = (
        VERIFY_ALL.replace("flat = 0.15", "flat = 1.5")
        .replace("run = lmm-exact, fpm, mfm, affine", "run = lmm-exact")
        .replace("type = jump-normal", "type = jump-double-exp")
        .replace("jump_mean = -0.08", "p_up = 0.5\nalpha_pos = 4.0\nalpha_neg = 4.0")
    )
    cfg_file = tmp_path / "broken_model.cfg"
    cfg_file.write_text(broken)
    proc = _run_cli(["verify", str(cfg_file)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "invariant failure" in proc.stderr


def test_cli_calibrate_mfm(tmp_path):
    cfg_file = tmp_path / "mfm.cfg"
    cfg_file.write_text(VERIFY_ALL)
    out = tmp_path / "mout"
    proc = _run_cli(
        ["calibrate-mfm", str(cfg_file), "--out-dir", str(out), "--quad-order", "48"],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "mfm_grid.csv").exists()


def test_cli_curve_file_beside_config(tmp_path):
    # a relative [curve] file is found next to the config file, not in the
    # working directory of the command
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    bonds = np.cumprod([1.0] + [1.0 / 1.02] * 4).tolist()  # flat 4% at delta = 0.5
    (cfg_dir / "curve.txt").write_text("".join(f"{0.5 * k},{b!r}\n" for k, b in enumerate(bonds)))
    (cfg_dir / "exp.cfg").write_text(VERIFY_ALL.replace("flat_libor = 0.04", "file = curve.txt"))
    proc = _run_cli(
        ["calibrate-mfm", "cfgdir/exp.cfg", "--out-dir", "mout", "--quad-order", "48"],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "mout" / "mfm_grid.csv").exists()


def _curve_file_config(tmp_path, delta, lines):
    (tmp_path / "curve.txt").write_text("".join(line + "\n" for line in lines))
    text = VERIFY_ALL.replace("flat_libor = 0.04", "file = curve.txt")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(text.replace("delta = 0.5", f"delta = {delta}"))
    return cfg_file


@pytest.mark.parametrize("command", ["verify", "price"])
def test_cli_reads_a_curve_file_with_decimal_dates(tmp_path, command):
    # 0.3 in the file is not 3 * 0.1 in floating point; the models still get
    # the config's tenor T_k = k * delta
    bonds = np.cumprod([1.0] + [1.0 / 1.004] * 4).tolist()  # flat 4% at delta = 0.1
    dates = ["0.0", "0.1", "0.2", "0.3", "0.4"]
    cfg_file = _curve_file_config(tmp_path, 0.1, [f"{t},{b!r}" for t, b in zip(dates, bonds)])
    code = cli.main([command, str(cfg_file), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_OK


BAD_CURVE_FILES = {
    "three-fields": ["0.0,1.0", "0.5,0.98,1", "1.0,0.96", "1.5,0.94", "2.0,0.92"],
    "not-a-number": ["0.0,1.0", "0.5,abc", "1.0,0.96", "1.5,0.94", "2.0,0.92"],
    "bond-above-one": ["0.0,1.0", "0.5,1.01", "1.0,0.96", "1.5,0.94", "2.0,0.92"],
    "bond-nan": ["0.0,1.0", "0.5,nan", "1.0,0.96", "1.5,0.94", "2.0,0.92"],
    "dates-not-k-delta": ["0.0,1.0", "0.5,0.98", "1.2,0.96", "1.5,0.94", "2.0,0.92"],
    "dates-not-from-zero": ["0.1,1.0", "0.6,0.98", "1.1,0.96", "1.6,0.94", "2.1,0.92"],
}


@pytest.mark.parametrize("case", list(BAD_CURVE_FILES))
def test_cli_refuses_a_malformed_curve_file(tmp_path, capsys, case):
    # a curve file the models cannot use is a config error (exit 2), not an
    # invariant failure or a traceback
    cfg_file = _curve_file_config(tmp_path, 0.5, BAD_CURVE_FILES[case])
    code = cli.main(["price", str(cfg_file), "--paths", "200", "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: curve file")


def test_fpm_caplet_table(tmp_path):
    # the closed-form FPM caplets are the fourier rows of the price table; the
    # rows of every producer carry the implied vol of their written price,
    # blank where the price leaves Black's no-arbitrage band
    from liborlab.experiment import Context
    from liborlab.forward_price import caplet_price_fourier
    from liborlab.pricing import implied_vol_or_none

    cfg = parse_config(VERIFY_ALL.replace("strike_factors = 1.0", "strikes = 0.02, 0.04"))
    run_price(override(cfg, n_paths=500), out_dir=str(tmp_path))
    rows = [line.split(",") for line in (tmp_path / "prices.csv").read_text().splitlines()[1:]]
    assert {(model, scheme) for model, scheme, *_ in rows} == {
        ("lmm", "exact"), ("fpm", "mc"), ("fpm", "fourier"), ("mfm", "grid"),
        ("affine", "fourier"), ("affine", "mc"),
    }
    assert len([row for row in rows if row[:2] == ["fpm", "fourier"]]) == 3 * 2
    ctx = Context(cfg)
    for model, scheme, k, strike, price, stderr, iv in rows:
        k, strike, price = int(k), float(strike), float(price)
        if (model, scheme) == ("fpm", "fourier"):
            assert price == caplet_price_fourier(ctx.fpm, k, strike) and stderr == ""
        want = implied_vol_or_none(price, ctx.curve, k, strike)
        assert iv == ("" if want is None else f"{want:.17g}")
    assert any(row[6] for row in rows)
