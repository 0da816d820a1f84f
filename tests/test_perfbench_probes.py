"""The benchmark's layer probes still find every name they wrap.

``perfbench/tracing.py`` wraps, by name, functions that the CLI resolves at
call time.  A refactor that renames one, or binds it where the probes
cannot replace it, stops the benchmark or silently loses a layer; this test
runs the probe launcher on the four commands at a few thousand paths and
checks that every target records a span.  It only reads ``perfbench/``.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import liborlab

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

COMMANDS = {
    "verify": ("verify", ROOT / "configs" / "verify_all.cfg"),
    "price": ("price", BENCH / "price_analytic.cfg"),
    "compare": ("compare", ROOT / "configs" / "compare_brownian.cfg"),
    "calibrate-mfm": ("calibrate-mfm", ROOT / "configs" / "verify_all.cfg"),
}


def _env() -> dict:
    """Environment that imports the package under test and writes no bytecode cache."""
    src = str(Path(liborlab.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": src + (os.pathsep + inherited if inherited else ""),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def test_benchmark_probes_record_every_target(tmp_path):
    # run_path compiles the module without writing a bytecode cache
    targets = {name for name, _, _ in runpy.run_path(str(BENCH / "tracing.py"))["TARGETS"]}
    env = _env()
    recorded = set()
    for tag, (command, config) in COMMANDS.items():
        probe = tmp_path / f"{tag}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "launch.py"), str(probe), "trace", "0", "--",
             command, str(config), "--paths", "2000", "--out-dir", str(tmp_path / tag)],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, f"{tag}: {proc.stderr[-2000:]}"
        recorded |= {span[0] for span in json.loads(probe.read_text())["spans"]}
    assert targets - recorded == set()


def test_benchmark_context_reads_the_chosen_jump_order():
    # perfbench/run.py records the market model's jump-rule size from
    # ``LmmModel.quad_order``; a rename would break only the benchmark run
    script = (
        "import json, runpy, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        f"run = runpy.run_path({str(BENCH / 'run.py')!r})\n"
        "print(json.dumps({name: run['_context'](wl, None, 2000)['quad_nodes']\n"
        "                  for name, wl in run['WORKLOADS'].items()}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=ROOT, env=_env())
    assert proc.returncode == 0, proc.stderr[-2000:]
    nodes = json.loads(proc.stdout.splitlines()[-1])
    assert nodes["verify-jump-100k"] == 16
    assert nodes["compare-brownian-200k"] == 0
