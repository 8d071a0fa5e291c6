"""Command-line front end.

Exit codes: 0 success, 2 validation failure, 3 domain error, 4 internal
numerical check failure. Every error prints one machine-readable line
(CODE: message) on stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DomainError, FpfError, NumericalCheckFailure, ValidationError
from .scenario import (
    QUERY_KINDS,
    decode_scenario,
    parse_scenario,
    random_scenario,
    run,
    scenario_tolerances,
    serialize_scenario,
)
from .tolerances import checked_overrides, tolerance_overrides


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other failure: one CODE: message line
    on stderr and exit 2. Subparsers are built from the same class."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
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
    return parser


# argparse keeps no per-call state on the parser, so one serves every call
_PARSER = _build_parser()


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


@contextmanager
def _loaded(path: Path, cli_overrides: dict[str, float]):
    """Decode a scenario file once and parse it under its own tolerances
    plus the command line's, which win; the scenario is used inside the
    same context."""
    raw = decode_scenario(_read(path))
    with tolerance_overrides(**{**scenario_tolerances(raw), **cli_overrides}):
        yield parse_scenario(raw)


def _command(args: argparse.Namespace) -> int:
    if args.command == "run":
        with _loaded(args.file, _parse_overrides(args.tol_override)) as scenario:
            report = run(scenario)
        print(report.to_json() if args.format == "json" else report.to_table())
        return 0
    if args.command == "validate":
        with _loaded(args.file, {}):
            pass
        print(f"VALID: {args.file}")
        return 0
    if args.command == "random":
        print(serialize_scenario(random_scenario(args.seed, args.dim, args.pieces, args.query)))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # overflow and NaN surface through the engine's finiteness and
        # unitarity checks, which report them as one error line
        with np.errstate(over="ignore", invalid="ignore"):
            return _command(args)
    except NumericalCheckFailure as exc:
        _report_error(exc)
        return 4
    except DomainError as exc:
        _report_error(exc)
        return 3
    except ValidationError as exc:
        _report_error(exc)
        return 2
    except FpfError as exc:  # uncategorized engine error: treat as internal
        _report_error(exc)
        return 4


def _report_error(exc: FpfError) -> None:
    message = " ".join(str(exc).split())
    print(f"{exc.code}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
