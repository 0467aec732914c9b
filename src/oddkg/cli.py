"""Command-line front end: one subcommand per scenario.

    oddkg decay --config run.cfg --set epsilon=0.025 --set output_dir=out
    oddkg spectral --set lambda=1 --set L=40 --set N=3999
    oddkg breather --config run.cfg --describe

The subcommand fixes the scenario (overriding any scenario= line in the
file); --set overrides are applied after the file is parsed.  --describe
prints the fully resolved configuration and exits without running.

Exit codes: 0 success, 1 scenario assertion failure (NaN abort, smallness
abort, failed identity checks), 2 configuration error (including an
output_dir that cannot be created or an output file that cannot be written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .experiments import (
    SCENARIOS, ConfigError, build_config, describe, format_summary, parse_pairs, run_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddkg",
        description="Numerical experiments on decay of small odd Klein-Gordon waves.",
    )
    parser.add_argument("--version", action="version", version=f"oddkg {__version__}")
    sub = parser.add_subparsers(dest="scenario", metavar="scenario")
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--describe", action="store_true",
                       help="print the resolved config and exit")
    return parser


def _resolve_config(args):
    pairs = {}
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        pairs.update(parse_pairs(text))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    pairs["scenario"] = args.scenario  # the subcommand is authoritative
    return build_config(pairs)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.scenario is None:
        parser.print_help()
        return 2
    try:
        cfg = _resolve_config(args)
        if args.describe:
            print(describe(cfg), end="")
            return 0
        result = run_scenario(cfg)  # an unusable output_dir or file is a config error
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(format_summary(result.summary), end="")
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.summary_path}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
