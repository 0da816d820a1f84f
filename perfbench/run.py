"""Layered benchmark of the liborlab CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Each invocation is a fresh process running one CLI command (closed loop, one
client) through ``launch.py``.  With ``--trace 0`` the run repeats untraced
invocations for ``--seconds`` and reports the end-to-end metrics named in
BENCHMARK.json as medians; set-up is timed inside those same invocations, up
to their first simulation or pricing call.  With ``--trace 1`` it alternates
untraced and traced invocations and reports the per-layer metrics.  Every
invocation's outputs are checked (checks.py).  The last stdout line is the
JSON result; the full record, spans included, goes to
``.perfbench_out/``.  ``--smoke`` runs every workload at a few thousand paths
and asserts that every metric is emitted with its unit and every expected
layer records a span.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

HARD_LIMIT_S = 170.0  # a run must end within 180 s
MIN_INVOCATIONS = 2
COPY_MIB = 512  # at least 4x the 105 MiB L3 of the machine the benchmark was built on
SMOKE_PATHS = 4000


@dataclass(frozen=True)
class Workload:
    command: str
    config: str  # relative to the checkout root
    paths: int
    path_sets: int  # path sets simulated per invocation
    ops: int  # quote rows or verify check lines per invocation
    layers: tuple  # layers that must record at least one span
    check: object  # the output check in checks.py
    reference: str = ""  # compare prices at the config seed and ``paths``


# Why each workload exists is recorded in BENCHMARK.json and perfbench/NOTES.md.
WORKLOADS = {
    "compare-brownian-200k": Workload(
        "compare", "configs/compare_brownian.cfg", 200_000, 4, 180,
        ("config", "experiment", "levy", "lmm", "drift_approx", "pricing"),
        checks.check_compare, "perfbench/reference/compare_brownian_seed20160_200k.csv",
    ),
    "verify-jump-100k": Workload(
        "verify", "configs/verify_all.cfg", 100_000, 5, 16,
        ("config", "experiment", "levy", "lmm", "drift_approx", "forward_price",
         "markov_functional", "affine_libor"),
        checks.check_verify,
    ),
    "price-analytic-10": Workload(
        "price", "perfbench/price_analytic.cfg", 100_000, 2, 225,
        ("config", "experiment", "levy", "forward_price", "fourier", "pricing",
         "markov_functional", "affine_libor"),
        checks.check_price,
    ),
}

class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    mode: str
    wall_s: float
    setup_s: float | None
    rss_mb: float
    exit_code: int
    spans: list
    outcome: object


def _env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def _reap(proc: subprocess.Popen, deadline: float) -> float:
    """Exit time of ``proc``, polled every 2 ms; the process is killed at ``deadline``."""
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
        time.sleep(0.002)
    return time.monotonic()


def invoke(wl: Workload, mode: str, run_id: int, seed: int, paths: int, deadline: float,
           ctx: dict) -> Invocation:
    """One fresh CLI process in its own temporary directory."""
    tmp = Path(tempfile.mkdtemp(prefix="inv", dir=TMP))
    try:
        out_dir, probe = tmp / "out", tmp / "probe.json"
        argv = [sys.executable, str(BENCH / "launch.py"), str(probe), mode, str(run_id), "--",
                wl.command, str(ROOT / wl.config), "--seed", str(seed), "--paths", str(paths),
                "--out-dir", str(out_dir)]
        with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=tmp, env=_env(), stdout=out, stderr=err)
            try:
                end = _reap(proc, deadline)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        stderr = (tmp / "stderr").read_text(encoding="utf-8", errors="replace")
        if proc.returncode == tracing.HARNESS_EXIT:
            raise BenchError(stderr.strip())
        data = json.loads(probe.read_text()) if probe.exists() else {}
        first_call = data.get("first_call")
        return Invocation(
            mode, end - start,
            None if first_call is None else first_call - start,
            (data.get("peak_rss_bytes") or 0) / 1e6,
            proc.returncode, data.get("spans", []),
            _checked(out_dir, proc.returncode, stderr, wl.check, ctx),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _checked(out_dir, exit_code, stderr, check, ctx):
    try:
        res = check(out_dir, ctx)
    except Exception:  # missing or malformed output fails the invocation's operations
        res = checks.Outcome(ops=ctx["ops"])
        res.fail_all("output check raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])
    if exit_code != 0:
        res.fail_all(f"exit code {exit_code}: {stderr.strip()[-300:]}")
    return res


def _context(wl: Workload, seed, paths: int) -> dict:
    from liborlab import experiment
    from liborlab.config import override, parse_config, serialize_config

    cfg = parse_config(str(ROOT / wl.config))
    seed = cfg.seed if seed is None else seed
    ctx = {"ops": wl.ops, "seed": seed, "paths": paths, "n_rates": cfg.n}
    run_cfg = serialize_config(override(cfg, seed=seed, n_paths=paths))
    ctx["config_sha256"] = hashlib.sha256(run_cfg.encode()).hexdigest()
    if wl.reference and seed == cfg.seed and paths == wl.paths:
        with open(ROOT / wl.reference, newline="", encoding="utf-8") as fh:
            ctx["reference"] = list(csv.DictReader(fh))
    if "affine" in cfg.models:
        ctx["family"] = experiment.build_affine_family(cfg)
    ctx["quad_nodes"] = 0
    if any(m.startswith("lmm-") for m in cfg.models):
        model = experiment.build_lmm(cfg)
        if model.chars.has_jumps:
            ctx["quad_nodes"] = len(model.chars.jump_quadrature(model.quad_order)[0])
    return ctx


def copy_bandwidth(mib: int = COPY_MIB, reps: int = 5) -> float:
    """Sustained copy rate in GB/s, counting bytes read plus bytes written."""
    src = np.ones(mib * 2**20 // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in every page of dst before timing
    times = []
    for _ in range(reps):
        t0 = time.monotonic()
        np.copyto(dst, src)
        times.append(time.monotonic() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p75(values) -> float:
    values = list(values)
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=4)[2]


def layer_figures(spans: list, ctx: dict, copy_gbps: float) -> dict:
    """Per-layer figures of one traced invocation: name -> (value, unit)."""
    by_name, by_layer = {}, {}
    for span, own in zip(spans, tracing.self_times(spans)):
        by_name[span[0]] = by_name.get(span[0], 0.0) + own
        layer = tracing.layer_of(span[0])
        by_layer[layer] = by_layer.get(layer, 0.0) + own

    def self_s(name):
        return by_name.get(name, 0.0)

    def each_ms(name):
        return [1e3 * (s[2] - s[1]) for s in spans if s[0] == name]

    exact = [s[5] for s in spans if s[0] == "lmm.simulate_exact"]
    path_steps = sum(p * st for p, st in exact)
    n = ctx["n_rates"]
    # computed minimum traffic: increments read once, state read and written
    # every step, fixings and weights written once (8-byte floats)
    min_bytes = sum(8 * p * st + 16 * p * st * n + 16 * p * n for p, st in exact)
    exact_s = self_s("lmm.simulate_exact")
    nodes = [s[5] for s in spans if s[0] == "fourier.damped_call" and s[3] >= 0
             and spans[s[3]][0] == "affine_libor.caplet_fourier"]
    calib = [s[5] for s in spans if s[0] == "markov_functional.calibrate"]
    affine_ms = each_ms("affine_libor.caplet_fourier")
    fig = {
        "levy.simulate_driver_s": (self_s("levy.simulate_driver"), "s"),
        "lmm.simulate_exact_s": (exact_s, "s"),
        "drift_approx.frozen_s": (self_s("drift_approx.frozen"), "s"),
        "drift_approx.picard1_s": (self_s("drift_approx.picard1"), "s"),
        "drift_approx.taylor_s": (self_s("drift_approx.taylor"), "s"),
        "lmm.exact_ns_per_path_step": (1e9 * exact_s / path_steps if path_steps else 0.0, "ns"),
        "lmm.exact_bw_frac": (min_bytes / exact_s / (copy_gbps * 1e9) if exact_s else 0.0, "ratio"),
        "pricing.mc_caplet_s": (self_s("pricing.mc_caplet"), "s"),
        "pricing.implied_vol_s": (self_s("pricing.implied_vol"), "s"),
        "forward_price.simulate_fpm_s": (self_s("forward_price.simulate_fpm"), "s"),
        "forward_price.caplet_fourier_ms": (_median(each_ms("forward_price.caplet_fourier")), "ms"),
        "affine_libor.caplet_fourier_ms": (_median(affine_ms), "ms"),
        "affine_libor.caplet_fourier_p75_ms": (_p75(affine_ms), "ms"),
        "fourier.nodes_per_quote": (_median(nodes), "count"),
        "fourier.nodes_per_quote_max": (max(nodes, default=0), "count"),
        "affine_libor.fit_s": (self_s("affine_libor.fit"), "s"),
        "affine_libor.simulate_s": (self_s("affine_libor.simulate"), "s"),
        "markov_functional.calibrate_s": (self_s("markov_functional.calibrate"), "s"),
        "markov_functional.nodes_kept": (calib[-1] if calib else 0, "count"),
        "markov_functional.caplet_ms": (_median(each_ms("markov_functional.caplet")), "ms"),
    }
    for layer in ("drift_approx", "forward_price", "fourier", "affine_libor",
                  "markov_functional", "pricing", "config", "experiment"):
        fig[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
    return fig


def layer_shares(spans: list, wall_s: float) -> dict:
    """Self time of each module layer, and the affine Fourier quotes in full, over the wall time."""
    shares = {}
    for span, own in zip(spans, tracing.self_times(spans)):
        layer = tracing.layer_of(span[0])
        shares[layer] = shares.get(layer, 0.0) + own / wall_s
    shares["affine Fourier quotes (inclusive)"] = sum(
        s[2] - s[1] for s in spans if s[0] == "affine_libor.caplet_fourier") / wall_s
    return shares


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def _blas() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def manifest(name: str, ctx: dict) -> dict:
    return {
        "workload": name, "seed": ctx["seed"], "paths": ctx["paths"],
        "config_sha256": ctx["config_sha256"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(), "l3_cache": _l3_size(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": _blas(), "blas_threads": int(_env()["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
    }


def run_workload(name: str, seed, seconds: float, trace: bool, paths=None) -> dict:
    wl = WORKLOADS[name]
    paths = paths or wl.paths
    started = time.monotonic()
    ctx = _context(wl, seed, paths)
    seed = ctx["seed"]
    end, hard = started + seconds, started + HARD_LIMIT_S
    problems = []

    def run(mode, run_id):
        return invoke(wl, mode, run_id, seed, paths, hard, ctx)

    modes = ("plain", "trace") if trace else ("plain",)
    full = []
    while True:
        full.append(run(modes[len(full) % len(modes)], len(full)))
        next_end = time.monotonic() + _median(i.wall_s for i in full)
        # at least two invocations: set-up is timed more than once, and a
        # traced run holds an untraced invocation to compare with
        if len(full) >= MIN_INVOCATIONS and next_end > min(end, hard):
            break

    for inv in full:
        if inv.outcome.digest != full[0].outcome.digest and not inv.outcome.whole_failure:
            inv.outcome.fail_all("outputs differ from the first invocation with the same seed")
        problems += inv.outcome.problems
        if inv.exit_code == 0 and inv.setup_s is None:
            problems.append(f"invocation {inv.mode} exited 0 without any work-layer call")
    plain = [i for i in full if i.mode == "plain"]
    traced = [i for i in full if i.mode == "trace"]
    for inv in traced:
        missing = set(wl.layers) - {tracing.layer_of(s[0]) for s in inv.spans}
        if inv.exit_code == 0 and missing:
            raise BenchError(f"{name}: no spans recorded for layers {sorted(missing)}; "
                             "update perfbench/tracing.py")

    wall = _median(i.wall_s for i in plain)
    record = {
        "correct": not problems,
        "attempted": sum(i.outcome.ops for i in full),
        "failed": sum(i.outcome.failed for i in full),
        "workload": name, "trace": int(trace), "seconds": seconds,
        "elapsed_s": time.monotonic() - started,
        "manifest": manifest(name, ctx),
        "problems": problems,
        "accuracy": full[-1].outcome.values,
        "samples": {
            "wall_s": [i.wall_s for i in plain],
            "setup_s": [i.setup_s for i in plain if i.setup_s is not None],
            "peak_rss_mb": [i.rss_mb for i in plain],
        },
    }
    quotes = full[-1].outcome.quotes
    if not trace:
        samples = record["samples"]
        record["metrics"] = {
            "wall_s": (wall, "s"),
            "setup_s": (_median(samples["setup_s"]), "s"),
            "peak_rss_mb": (_median(samples["peak_rss_mb"]), "MB"),
            "paths_per_s": (paths * wl.path_sets / wall, "1/s"),
            "ops_per_s": (wl.ops / wall, "1/s"),
        }
        record["extra"] = {"quotes_per_s": (quotes / wall, "1/s")} if quotes else {}
        record["counts"] = {"wall_s": len(plain), "setup_s": len(samples["setup_s"])}
    else:
        copy_gbps = copy_bandwidth()
        figs = [layer_figures(i.spans, ctx, copy_gbps) for i in traced]
        metrics = {k: (_median(f[k][0] for f in figs), u) for k, (_, u) in figs[0].items()}
        chi2 = [ms for i in full for ms in i.outcome.chi2_ms]
        metrics.update({
            "affine_libor.caplet_chi2_ms": (_median(chi2), "ms"),
            "lmm.quad_nodes": (ctx["quad_nodes"], "count"),
            "host.copy_GBps": (copy_gbps, "GB/s"),
            "pricing.iv_defined_ratio": (full[-1].outcome.iv_defined / quotes if quotes else 0.0, "ratio"),
            "trace.overhead_s": (_median(i.wall_s for i in traced) - wall, "s"),
        })
        record["metrics"] = metrics
        record["extra"] = {}
        record["iv_defined_base"] = quotes
        record["shares"] = layer_shares(traced[0].spans, traced[0].wall_s)
        record["spans"] = [s for i in traced for s in i.spans]
        record["counts"] = {"traced": len(traced), "untraced": len(plain)}
    return record


def print_record(rec: dict) -> None:
    m = rec["manifest"]
    print(f"perfbench {rec['workload']}: seed {m['seed']}, {m['paths']} paths, trace {rec['trace']}, "
          f"{rec['elapsed_s']:.1f} s, sample counts {rec['counts']}")
    for name, (value, unit) in {**rec["metrics"], **rec["extra"]}.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    print(f"  {'ops_total':<38} {rec['attempted']:>14d} count")
    print(f"  {'ops_failed':<38} {rec['failed']:>14d} count")
    for name, value in rec["accuracy"].items():
        print(f"  {name:<38} {value:>14.4g} (fixed by the seed)")
    if rec["trace"]:
        print(f"  pricing.iv_defined_ratio base: {rec['iv_defined_base']} quotes")
        for layer, share in sorted(rec["shares"].items(), key=lambda kv: -kv[1]):
            print(f"  share of traced wall: {layer:<34} {100 * share:6.1f} %")
    for problem in rec["problems"][:20]:
        print(f"  PROBLEM: {problem}")
    print("manifest " + json.dumps(m, sort_keys=True))
    print(json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()},
    }))


def save_record(rec: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{rec['workload']}_seed{rec['manifest']['seed']}_trace{rec['trace']}.json"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke() -> int:
    """Every workload at a few thousand paths, untraced and traced."""
    spec = _spec()
    errors = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            rec = run_workload(name, None, 1.0, trace, paths=SMOKE_PATHS)
            print_record(rec)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: u for k, (_, u) in rec["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace {int(trace)}: metrics {sorted(set(want) ^ set(got))} "
                              f"or units differ from BENCHMARK.json")
            if rec["failed"] or not rec["correct"]:
                errors.append(f"{name} trace {int(trace)}: {rec['failed']} failed ops, {rec['problems'][:3]}")
    for error in errors:
        print(f"SMOKE FAIL: {error}")
    print("smoke: " + ("FAIL" if errors else "OK, every metric emitted with its unit and every layer traced"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="CLI seed (default: the config's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; the benchmark command passes run_seconds from "
                             "BENCHMARK.json, which is also the default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-path check of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")
    # exit through the cleanup below, which kills a running child, on SIGTERM too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (SRC / "liborlab" / "cli.py").is_file():
            raise BenchError(f"no liborlab sources under {SRC}")
        sys.path.insert(0, str(SRC))
        TMP.mkdir(exist_ok=True)
        if args.smoke:
            return smoke()
        seconds = args.seconds or _spec()["run_seconds"]
        rec = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    save_record(rec)
    print_record(rec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
