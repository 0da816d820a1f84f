import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liborlab
from liborlab import affine_libor, experiment, markov_functional
from liborlab.config import override, parse_config, serialize_config
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
    # a NaN fixing must not pass the positivity test that guards the quotes
    from liborlab.errors import LiborLabError

    frozen = experiment._LMM_SCHEMES["lmm-frozen"]

    def frozen_with_nan(*args, **kwargs):
        paths = frozen(*args, **kwargs)
        paths.fixings[0, 1] = np.nan
        return paths

    monkeypatch.setitem(experiment._LMM_SCHEMES, "lmm-frozen", frozen_with_nan)
    cfg = override(parse_config(SMALL_COMPARE), n_paths=64)
    with pytest.raises(LiborLabError, match="positivity violated by scheme lmm-frozen"):
        run_compare(cfg)


def test_run_compare_scheme_ordering_and_determinism(tmp_path):
    cfg = parse_config(SMALL_COMPARE)
    a = run_compare(cfg, out_dir=str(tmp_path / "a"))
    assert a.summary["lmm-taylor"][0] < a.summary["lmm-frozen"][0]
    b = run_compare(cfg, out_dir=str(tmp_path / "b"))
    for name in ("quotes.csv", "ivdiff_lmm-frozen_vs_lmm-exact.csv", "summary.txt"):
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb


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
        assert by_key[line].genuine_failure
    assert report.failed


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


def _run_cli(args, cwd):
    # The child runs in a scratch directory, where a relative PYTHONPATH entry
    # such as ``src`` no longer resolves; put the directory that holds the
    # liborlab under test first, so the child imports the same code.
    package_root = str(Path(liborlab.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "liborlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


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
    from liborlab.tenor import InitialCurve, TenorStructure, write_curve_file

    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    write_curve_file(cfg_dir / "curve.txt", InitialCurve.flat(TenorStructure(delta=0.5, n=4), 0.04))
    (cfg_dir / "exp.cfg").write_text(VERIFY_ALL.replace("flat_libor = 0.04", "file = curve.txt"))
    proc = _run_cli(
        ["calibrate-mfm", "cfgdir/exp.cfg", "--out-dir", "mout", "--quad-order", "48"],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "mout" / "mfm_grid.csv").exists()


def test_fpm_caplet_table(tmp_path):
    # the closed-form FPM caplets are the fourier rows of the price table; the
    # implied vol is blank where the price leaves Black's no-arbitrage band
    from liborlab.experiment import Context
    from liborlab.forward_price import caplet_price_fourier
    from liborlab.pricing import implied_vol_or_none

    cfg = parse_config(
        VERIFY_ALL.replace("run = lmm-exact, fpm, mfm, affine", "run = fpm")
        .replace("strike_factors = 1.0", "strikes = 0.02, 0.04")
    )
    run_price(override(cfg, n_paths=500), out_dir=str(tmp_path))
    lines = (tmp_path / "prices.csv").read_text().strip().splitlines()
    fourier = [line.split(",") for line in lines[1:] if line.startswith("fpm,fourier,")]
    assert len(fourier) == 3 * 2
    fpm = Context(cfg).fpm
    for _, _, k, strike, price, stderr, iv in fourier:
        k, strike, price = int(k), float(strike), float(price)
        assert price == caplet_price_fourier(fpm, k, strike)
        want = implied_vol_or_none(price, fpm.curve, k, strike)
        assert stderr == "" and iv == ("" if want is None else f"{want:.17g}")
