"""Command-line front end: `simulate --config sweep.cfg [overrides]`.

Exit codes: 0 success, 2 config error, 3 solver error, 4 truncation error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, CutoffTooSmallError, SimulationError
from .sweep import MODES, SweepConfig, coerce_field, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Steady-state sweeps of a squeezed-vacuum-driven atom-cavity system.",
    )
    parser.add_argument("--config", help="path to a flat key = value config file")
    # every other flag stores into the SweepConfig field named by its dest,
    # whose declared type parses the value (`resolve_config`)
    parser.add_argument("--mode", choices=MODES, help="sweep mode")
    parser.add_argument("--r", dest="r_values", metavar="R",
                        help="comma-separated squeezing strengths, e.g. 0.25,0.5,1.0")
    parser.add_argument("--g0", help="atom-cavity coupling in units of kappa")
    parser.add_argument("--gamma", help="atomic damping in units of kappa")
    parser.add_argument("--phi", help="squeezing phase in radians")
    parser.add_argument("--no-atom", dest="atom_present", action="store_false", default=None,
                        help="empty-cavity model")
    parser.add_argument("--cutoff", dest="fock_cutoff", metavar="CUTOFF",
                        help="Fock-space truncation")
    parser.add_argument("--guard", help="guard levels for the tail check")
    parser.add_argument("--epsilon", help="truncation adequacy threshold")
    parser.add_argument("--out", dest="output_path", metavar="OUT",
                        help="output file (or directory for multi-file modes)")
    return parser


def resolve_config(args: argparse.Namespace) -> SweepConfig:
    """The config file, if any, with every flag given in place of its key."""
    config = load_config(args.config) if args.config else SweepConfig()
    flags = {action.dest: action.option_strings[0] for action in build_parser()._actions}
    overrides = {key: coerce_field(key, value, f"bad {flags[key]} value")
                 for key, value in vars(args).items() if key != "config" and value is not None}
    return replace(config, **overrides).validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        result = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CutoffTooSmallError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    target = config.effective_output_path()
    if MODES[config.mode].file_name:
        print(f"wrote {len(result)} file(s) under {target.resolve()}")
    else:
        print(f"wrote {target}")
    return 0


def entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
