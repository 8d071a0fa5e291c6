"""Exception hierarchy shared across the engine.

Every concrete class is a code that `fpf` can print, as `CODE: message`
on stderr, and carries its exit status as `exit_code`. `FpfError` and
`DomainError` name the families: validation errors (bad input, exit 2),
domain errors (well-formed input whose query has no answer, exit 3), and
internal numerical check failures (exit 4).
"""

from __future__ import annotations


class FpfError(Exception):
    """Base class for all engine errors. exit_code is the CLI's exit status
    for the family; an uncategorized engine error counts as internal."""

    code = "FPF_ERROR"
    exit_code = 4


# -- validation family: malformed or inconsistent inputs (exit 2) -----------

class ValidationError(FpfError):
    code = "VALIDATION_ERROR"
    exit_code = 2


class ScenarioSyntaxError(ValidationError):
    """Scenario text is not valid JSON."""

    code = "SYNTAX_ERROR"


class SchemaError(ValidationError):
    """Scenario JSON parses but misses or mistypes required fields."""

    code = "SCHEMA_ERROR"


class InstanceTooLarge(ValidationError):
    """Brute-force oracle guard: instance exceeds its size limits."""

    code = "INSTANCE_TOO_LARGE"


# -- domain family: valid input, query has no defined answer (exit 3) -------

class DomainError(FpfError):
    code = "DOMAIN_ERROR"
    exit_code = 3


class RealnessViolation(DomainError):
    """A history weight came out complex or negative beyond tolerance."""

    code = "REALNESS_VIOLATION"


class ImpossiblePostSelection(DomainError):
    """No intermediate outcome connects preparation to post-selection."""

    code = "IMPOSSIBLE_POST_SELECTION"


class DegenerateNormalizer(DomainError):
    """Outcome weights sum to (numerically) zero; basis cannot be complete."""

    code = "DEGENERATE_NORMALIZER"


# -- internal checks (exit 4) ------------------------------------------------

class NumericalCheckFailure(FpfError):
    """A self-consistency check failed; results cannot be trusted."""

    code = "NUMERICAL_CHECK_FAILURE"
    exit_code = 4
