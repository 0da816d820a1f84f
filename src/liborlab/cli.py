"""Command-line interface.

Subcommands::

    liborlab compare <config>        cross-scheme implied-vol differences
    liborlab verify <config>         invariant suite per configured model
    liborlab price <config>          caplet quote tables
    liborlab calibrate-mfm <config>  Markov-functional backward induction

Common flags ``--seed``, ``--paths``, ``--out-dir`` and ``--quad-order``
override the config file; ``--quad-order`` sets the Gauss-Hermite order of
the Markov-functional model only.  Exit status: 0 on success, 1 when an invariant
check fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import override, parse_config
from .errors import ConfigError, LiborLabError
from .experiment import run_calibrate_mfm, run_compare, run_price, run_verify

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liborlab", description="LIBOR model comparison harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("compare", "price caplets under every configured scheme and tabulate IV differences"),
        ("verify", "run the positivity/martingale/structure checks per model"),
        ("price", "emit caplet quote tables"),
        ("calibrate-mfm", "run the Markov-functional calibration and export the grid"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="experiment config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--paths", type=int, default=None, help="override the path count")
        cmd.add_argument("--out-dir", default=None, help="override the output directory")
        cmd.add_argument(
            "--quad-order", type=int, default=None,
            help="override the Markov-functional Gauss-Hermite order",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        cfg = override(
            cfg,
            seed=args.seed,
            n_paths=args.paths,
            out_dir=args.out_dir,
            quad_order=args.quad_order,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "compare":
            result = run_compare(cfg, out_dir=cfg.out_dir)
            for name, pair in sorted(result.summary.items()):
                if pair is None:
                    print(f"{name} vs lmm-exact: no comparable implied vols")
                else:
                    print(f"{name} vs lmm-exact: max |iv diff| {pair[0]:.6g}, mean {pair[1]:.6g}")
            print(f"wrote {len(result.files)} files to {cfg.out_dir}")
        elif args.command == "verify":
            report = run_verify(cfg, out_dir=cfg.out_dir)
            print(report.render())
            if report.failed:
                return EXIT_INVARIANT
        elif args.command == "price":
            rows = run_price(cfg, out_dir=cfg.out_dir)
            print(f"priced {len(rows)} quotes; wrote {cfg.out_dir}/prices.csv")
        elif args.command == "calibrate-mfm":
            grid = run_calibrate_mfm(cfg, out_dir=cfg.out_dir)
            n_nodes = sum(len(grid.x_nodes[i]) for i in range(1, grid.tenor.n))
            print(f"calibrated {grid.tenor.n - 1} dates ({n_nodes} nodes); wrote {cfg.out_dir}/mfm_grid.csv")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LiborLabError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
