"""Run one liborlab CLI command in this process with the benchmark's probes.

    python3 perfbench/launch.py PROBE_JSON MODE RUN_ID -- CLI_ARGS...

MODE is ``plain`` (record only the first work-layer call) or ``trace``
(record every span).  PROBE_JSON receives
``{"first_call": ..., "spans": [...], "peak_rss_bytes": ...}``; times are
``time.monotonic()`` values, comparable with the parent's clock.  Exit status
is the CLI's, or ``tracing.HARNESS_EXIT`` when a wrapped name is gone.
"""

from __future__ import annotations

import json
import sys

import tracing


def _peak_rss_bytes():
    """High-water resident set of this process image.

    Read from /proc rather than getrusage: a child started with vfork inherits
    its parent's high-water mark in ``ru_maxrss``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _write(path, recorder):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"first_call": recorder.first_call, "spans": recorder.spans,
                   "peak_rss_bytes": _peak_rss_bytes()}, fh)


def main(argv) -> int:
    probe_path, mode, run_id, sep, *cli_args = argv
    if mode not in ("plain", "trace") or sep != "--":
        raise SystemExit(f"usage: {__doc__.splitlines()[2].strip()}")
    recorder = tracing.Recorder(int(run_id), trace=mode == "trace")
    try:
        tracing.install(recorder)
    except tracing.HarnessError as exc:
        print(exc, file=sys.stderr)
        return tracing.HARNESS_EXIT
    from liborlab import cli

    try:
        return cli.main(cli_args)
    finally:
        _write(probe_path, recorder)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
