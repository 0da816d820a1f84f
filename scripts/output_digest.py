"""Print the sha256 of each parsed config and of every CLI output file.

    PYTHONPATH=src python scripts/output_digest.py [--seed 11] [--paths 20000]

Runs ``compare``, ``verify``, ``price`` and ``calibrate-mfm`` on each
``configs/*.cfg`` and on ``perfbench/price_analytic.cfg``, wherever the
command applies (``compare`` needs ``lmm-exact`` in the model list).  Each
config first gets one line with the sha256 of its parsed field values, where
a curve file's absolute path is replaced by the sha256 of its bytes, so the
directory a tree sits in does not enter.  Each
run is a child ``python -m liborlab.cli`` with this process's environment,
writing into a temporary directory; it prints its exit code and the sha256
of each output file.  Two trees give the same lines exactly when they parse
every config alike and their outputs are byte-identical, so a refactor is
checked with

    PYTHONPATH=<old tree>/src python scripts/output_digest.py > old.txt
    PYTHONPATH=src python scripts/output_digest.py > new.txt
    diff old.txt new.txt

With ``--keep DIR`` the output trees are written under DIR and kept, one
directory ``<config>-<command>`` per run; ``scripts/output_diff.py`` then
states how far two kept trees differ where their digests do not match.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

from liborlab.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("compare", "verify", "price", "calibrate-mfm")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="CLI output digests")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--keep", metavar="DIR", help="write the output trees here and keep them")
    args = parser.parse_args(argv)
    configs = sorted((ROOT / "configs").glob("*.cfg")) + [ROOT / "perfbench" / "price_analytic.cfg"]
    with nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory() as tmp:
        for cfg_path in configs:
            cfg = parse_config(cfg_path)
            fields = dataclasses.asdict(cfg)
            if cfg.curve_file is not None:
                fields["curve_file"] = hashlib.sha256(Path(cfg.curve_file).read_bytes()).hexdigest()
            digest = hashlib.sha256(repr(sorted(fields.items())).encode()).hexdigest()
            print(f"{cfg_path.relative_to(ROOT)} parsed {digest}")
            for command in COMMANDS:
                if command == "compare" and "lmm-exact" not in cfg.models:
                    continue
                out = Path(tmp) / f"{cfg_path.stem}-{command}"
                proc = subprocess.run(
                    [sys.executable, "-m", "liborlab.cli", command, str(cfg_path),
                     "--seed", str(args.seed), "--paths", str(args.paths), "--out-dir", str(out)],
                    capture_output=True,
                )
                print(f"{cfg_path.relative_to(ROOT)} {command} exit {proc.returncode}", flush=True)
                for path in sorted(out.glob("*")) if out.is_dir() else []:
                    print(f"  {hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")


if __name__ == "__main__":
    main()
