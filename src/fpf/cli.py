"""Command-line front end.

Exit codes: 0 success, 2 validation failure, 3 domain error, 4 internal
numerical check failure, each error with one machine-readable line (CODE:
message) on stderr; 1, with nothing on stderr, when stdout closes early.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .errors import FpfError, ValidationError
from .scenario import QUERY_KINDS, parse_scenario, random_scenario, run, serialize_scenario
from .tolerances import checked_overrides


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other failure: one CODE: message line
    on stderr and exit 2. Subparsers are built from the same class."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="fpf",
        description="Evaluate contour-time history measures from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario's query")
    run_p.add_argument("file", type=Path)
    run_p.add_argument("--format", choices=("json", "table"), default="json")
    run_p.add_argument(
        "--tol-override",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a tolerance field for this invocation (repeatable)",
    )

    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("file", type=Path)

    rand_p = sub.add_parser("random", help="emit a deterministic random scenario")
    rand_p.add_argument("--seed", type=int, required=True)
    rand_p.add_argument("--dim", type=int, default=2)
    rand_p.add_argument("--pieces", type=int, default=1)
    rand_p.add_argument("--query", choices=QUERY_KINDS, default="born")
    return parser, sub.choices


# argparse keeps no per-call state on a parser, so one serves every call
_PARSER, _COMMANDS = _build_parser()


def _parse_overrides(pairs: list[str]) -> dict[str, float]:
    """--tol-override values, checked before any file is read."""
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValidationError(f"tolerance override {pair!r} is not NAME=VALUE")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ValidationError(f"tolerance override {pair!r} has a non-numeric value") from None
    try:
        return checked_overrides(overrides)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _command(args: argparse.Namespace) -> int:
    if args.command == "run":
        flags = _parse_overrides(args.tol_override)
        report = run(parse_scenario(_read(args.file), flags))
        print(report.to_json() if args.format == "json" else report.to_table())
        return 0
    if args.command == "validate":
        parse_scenario(_read(args.file))
        print(f"VALID: {args.file}")
        return 0
    print(serialize_scenario(random_scenario(args.seed, args.dim, args.pieces, args.query)))  # random
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        if argv and argv[0] in _COMMANDS:  # one argparse pass: the rest go to the command's parser
            args, extras = _COMMANDS[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extras:  # reported as the top level reports them
                _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = _PARSER.parse_args(argv)
        # overflow and NaN surface through the engine's finiteness and
        # unitarity checks, which report them as one error line
        with np.errstate(over="ignore", invalid="ignore"):
            code = _command(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except FpfError as exc:
        message = " ".join(str(exc).split())
        print(f"{exc.code}: {message}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader left (`| head`): the flush at exit writes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
