"""Scenario files, result reports, and the query runner.

Scenarios are JSON (schema version 1): complex numbers are [re, im]
pairs, matrices row-major nested lists, and states either explicit
vectors or named basis elements like "z:0" or "x:+". Natural units are
used throughout (hbar = 1). Every runnable query gets an independent
oracle comparison attached to its report.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Sequence

import numpy as np
import orjson

from . import measure, oracle
from .contour import Branch
from .dynamics import HamiltonianSchedule, SchedulePiece, propagator_laws
from .errors import NumericalCheckFailure, ScenarioSyntaxError, SchemaError, ValidationError
from .histories import build_network, make_history
from .statespace import Basis, FixedPoint, HermitianOperator, _flat_norm, hermitians, is_unit, standard_basis
from .tolerances import active_tolerances, block_overrides, tolerance_overrides

SCHEMA_VERSION = 1
QUERY_KINDS = ("born", "abl", "chain", "network", "validate")
ORACLE_STEPS = 512  # line-integral resolution used for chain reports

_SQRT2 = float(np.sqrt(2.0))
_X_ALIASES = {"+": 0, "-": 1}


@dataclass(frozen=True)
class Query:
    kind: str
    # (time, basis name, basis) triples: a born or abl query's one outcome
    # slot, a chain's interior slots, a network's layers; the name is kept
    # for the report's query echo and for serialize_scenario
    slots: tuple[tuple[float, str, Basis], ...] = ()
    selection: tuple[int, ...] = ()  # a chain's selected outcome per slot


@dataclass(frozen=True)
class Scenario:
    schedule: HamiltonianSchedule
    fixed_points: tuple[FixedPoint, ...]
    query: Query
    tolerance_overrides: dict[str, float] = field(default_factory=dict)


# -- parsing -----------------------------------------------------------------


def _want(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return obj[key]


def _real(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{path}: integer beyond float range") from None


def _number(value: Any, path: str) -> float:
    """A time: a finite real number. Array entries are read by `_real`;
    their finiteness is checked by the wrapper they build."""
    number = _real(value, path)
    if not math.isfinite(number):
        raise ValidationError(f"{path}: expected a finite number, got {number!r}")
    return number


_LEAF_TYPES = {int, float}


def _complex_array(value: Any, shape: tuple[int, ...], path: str) -> np.ndarray:
    """value as a complex128 array of `shape`: that nesting of lists
    ending in [re, im] pairs of numbers (bools excluded). When it is exactly
    lists and int or float leaves, the leaves go through one numpy
    conversion and the float64 pairs are viewed as complex128, so signed
    zeros are kept; anything else goes to `_entries`, which names the
    first faulty entry below path."""
    level = [value]
    for size in (*shape, 2):
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            break
        level = list(chain.from_iterable(level))
    else:  # exactly that nesting of lists
        if set(map(type, level)) <= _LEAF_TYPES:
            try:
                return np.array(level, dtype=np.float64).view(np.complex128).reshape(shape)
            except OverflowError:  # an integer beyond float range
                pass
    return np.array(_entries(value, shape, path), dtype=np.complex128)


def _entries(value: Any, shape: tuple[int, ...], path: str) -> Any:
    """value as nested lists of complex, entry by entry; the first fault
    in reading order raises SchemaError naming its entry."""
    if not shape:
        if not (isinstance(value, list) and len(value) == 2):
            raise SchemaError(f"{path}: complex values are [re, im] pairs")
        return complex(_real(value[0], path + "[0]"), _real(value[1], path + "[1]"))
    if not (isinstance(value, list) and len(value) == shape[0]):
        what = f"length-{shape[0]} vector" if len(shape) == 1 else f"{shape[0]}x{shape[1]} matrix"
        raise SchemaError(f"{path}: expected a {what}")
    return [_entries(v, shape[1:], f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_pieces(value: Any, dim: int, path: str) -> tuple[SchedulePiece, ...]:
    if not (isinstance(value, list) and value):
        raise SchemaError(f"{path}: expected a nonempty list of schedule pieces")
    # all matrices at once; if any is faulty, the loop names the first fault
    mats = [raw.get("matrix") if isinstance(raw, dict) else None for raw in value]
    try:
        generators = hermitians(_complex_array(mats, (len(mats), dim, dim), path))
    except ValidationError:
        generators = None
    pieces = []
    for i, raw in enumerate(value):
        ppath = f"{path}[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{ppath}: expected an object")
        t_start = _number(_want(raw, "t_start", ppath), ppath + ".t_start")
        t_end = _number(_want(raw, "t_end", ppath), ppath + ".t_end")
        if generators is not None:
            h = generators[i]
        else:
            mat = _complex_array(_want(raw, "matrix", ppath), (dim, dim), ppath + ".matrix")
            try:
                h = HermitianOperator(mat)
            except ValidationError as exc:
                raise ValidationError(f"{ppath}: {exc}") from exc
        try:
            pieces.append(SchedulePiece(t_start, t_end, h))
        except ValidationError as exc:
            raise ValidationError(f"{ppath}: {exc}") from exc
    return tuple(pieces)


def _check_covered(schedule: HamiltonianSchedule, t: float, path: str) -> None:
    if not schedule.covers(t):
        raise ValidationError(
            f"{path}: {t} is outside schedule coverage "
            f"[{schedule.t_start}, {schedule.t_end}]"
        )


def _basis(bases: dict[str, Basis], name: str, dim: int) -> Basis | None:
    """The parse's basis `name`: the file's own, else the built-in one ("z"
    in any dim, "x" in dim 2), which joins bases the first time it is
    named; None where there is neither."""
    if name not in bases:
        if name == "z":
            bases[name] = standard_basis(dim)
        elif name == "x" and dim == 2:
            bases[name] = Basis(np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2)
        else:
            return None
    return bases[name]


def _parse_point(
    item: Any, schedule: HamiltonianSchedule, bases: dict[str, Basis], path: str
) -> FixedPoint:
    if not isinstance(item, dict):
        raise SchemaError(f"{path}: expected an object")
    t = _number(_want(item, "time", path), path + ".time")
    _check_covered(schedule, t, path + ".time")
    value, dim, path = _want(item, "state", path), schedule.dim, path + ".state"
    if isinstance(value, str):
        name, _, key = value.partition(":")
        if not key:
            raise SchemaError(f"{path}: state names look like 'basis:element'")
        basis = _basis(bases, name, dim)
        if basis is None:
            raise ValidationError(f"{path}: unknown basis {name!r}")
        if basis.dim != dim:
            raise ValidationError(f"{path}: basis {name!r} has dim {basis.dim}, not {dim}")
        if name == "x" and key in _X_ALIASES:
            index = _X_ALIASES[key]
        else:
            try:  # ASCII digits only: int() alone also takes " 1", "-0", "1_0" and other digits
                if not (key.isascii() and key.isdigit()):
                    raise ValueError
                index = int(key)
            except ValueError:  # also raised past int()'s digit limit
                raise SchemaError(f"{path}: bad basis element {key!r}") from None
        if index >= len(basis):
            raise ValidationError(f"{path}: element {index} out of range for {name!r}")
        return FixedPoint(t, basis.rows[index])
    amps = _complex_array(value, (dim,), path)
    try:
        point = FixedPoint(t, amps)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if not is_unit(point.state):
        raise ValidationError(f"{path}: state norm is {float(_flat_norm(point.state))!r}, not 1")
    return point


def _parse_slot(raw: Any, path: str) -> tuple[float, str]:
    """A measurement slot: its time and the name of its outcome basis."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    t = _number(_want(raw, "time", path), path + ".time")
    outcomes = _want(raw, "outcomes", path)
    if not isinstance(outcomes, str):
        raise SchemaError(f"{path}.outcomes: expected a basis name")
    return t, outcomes


def _outcome_basis(bases: dict[str, Basis], name: str, dim: int) -> Basis:
    basis = _basis(bases, name, dim)
    if basis is None:
        raise ValidationError(f"query references unknown basis {name!r}")
    if basis.dim != dim:
        raise ValidationError(
            f"outcome basis {name!r} has dim {basis.dim}, scenario has dim {dim}"
        )
    return basis


def _parse_query(
    raw: Any,
    schedule: HamiltonianSchedule,
    fixed_points: Sequence[FixedPoint],
    bases: dict[str, Basis],
    path: str,
) -> Query:
    """The query at path, read and then checked against the schedule, the
    fixed points and the parse's bases."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = _want(raw, "kind", path)
    if kind not in QUERY_KINDS:
        raise SchemaError(f"{path}.kind: {kind!r} is not one of {list(QUERY_KINDS)}")
    if kind in ("born", "abl"):
        t, outcomes = _parse_slot(raw, path)
        if kind == "born" and len(fixed_points) != 1:
            raise ValidationError("born queries need exactly one fixed point (the preparation)")
        if kind == "abl" and len(fixed_points) != 2:
            raise ValidationError("abl queries need exactly two fixed points (pre and post)")
        _check_covered(schedule, t, path + ".time")
        if kind == "born" and not fixed_points[0].t < t:
            raise ValidationError("query.time must follow the preparation time")
        if kind == "abl" and not fixed_points[0].t < t < fixed_points[1].t:
            raise ValidationError("query.time must lie strictly between the selections")
        return Query(kind, ((t, outcomes, _outcome_basis(bases, outcomes, schedule.dim)),))
    if kind == "chain":
        interior_raw = _want(raw, "interior", path)
        if not isinstance(interior_raw, list):
            raise SchemaError(f"{path}.interior: expected a list")
        interior = tuple(_parse_slot(x, f"{path}.interior[{i}]") for i, x in enumerate(interior_raw))
        selection = _want(raw, "selection", path)
        if not (
            isinstance(selection, list)
            and all(isinstance(s, int) and not isinstance(s, bool) for s in selection)
        ):
            raise SchemaError(f"{path}.selection: expected a list of integers")
        if len(fixed_points) != 2:
            raise ValidationError("chain queries need exactly two fixed points (the endpoints)")
        times = [fixed_points[0].t, *(t for t, _ in interior), fixed_points[1].t]
        if any(not a < b for a, b in zip(times, times[1:])):
            raise ValidationError("interior times must increase strictly between the endpoints")
        # the slots lie strictly between covered endpoints, so they are covered
        slots = tuple((t, name, _outcome_basis(bases, name, schedule.dim)) for t, name in interior)
        if len(selection) != len(interior):
            raise ValidationError("selection length must match the number of interior slots")
        for i, (idx, (_, _, basis)) in enumerate(zip(selection, slots)):
            if not 0 <= idx < len(basis):
                raise ValidationError(f"{path}.selection[{i}]: index {idx} out of range")
        return Query(kind, slots, tuple(selection))
    if kind == "network":
        times_raw = _want(raw, "times", path)
        if not isinstance(times_raw, list):
            raise SchemaError(f"{path}.times: expected a list")
        layer_bases = _want(raw, "bases", path)
        if not (isinstance(layer_bases, list) and all(isinstance(b, str) for b in layer_bases)):
            raise SchemaError(f"{path}.bases: expected a list of basis names")
        times = tuple(_number(t, f"{path}.times[{i}]") for i, t in enumerate(times_raw))
        if len(times) < 2 or len(times) != len(layer_bases):
            raise ValidationError("network queries need matching times and bases, two or more")
        if any(not a < b for a, b in zip(times, times[1:])):
            raise ValidationError("network layer times must be strictly increasing")
        for i, t in enumerate(times):
            _check_covered(schedule, t, f"{path}.times[{i}]")
        layers = tuple(
            (t, name, _basis(bases, name, schedule.dim)) for t, name in zip(times, layer_bases)
        )
        for _, name, basis in layers:
            if basis is None:
                raise ValidationError(f"{path}.bases: unknown basis {name!r}")
        return Query(kind, layers)
    return Query(kind)


# orjson has no nesting limit (it crashes on a million levels), and json
# refuses nesting past the recursion limit (1,000) less its caller's stack
# depth. orjson reads only text with fewer opening brackets than this, so
# the two agree for any caller under about 290 frames deep; a benchmark
# file holds at most 667 (a dim-8 network of 4 pieces and 5 layers)
_ORJSON_MAX_OPENINGS = 700
_INT64_MIN, _UINT64_END = -(2.0**63), 2.0**64


def _fast_document(text: bytes | str) -> Any:
    """orjson's document for text where `parse_scenario` reads it as it
    reads json's, else None. orjson refuses what json reads as NaN,
    infinity, beyond float range or lone surrogates, and reads integer
    literals outside [-2**63, 2**64) as floats. Array entries and times
    become floats either way, so that is seen only in the fields whose
    message or type check tells an int from a float: schema, dim,
    query.kind, query.selection and tolerances."""
    opening = (b"[", b"{") if isinstance(text, bytes) else ("[", "{")
    if text.count(opening[0]) + text.count(opening[1]) >= _ORJSON_MAX_OPENINGS:
        return None
    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    if type(doc) is not dict:
        return doc
    query = doc.get("query")
    query = query if type(query) is dict else {}
    stack = [doc.get("schema"), doc.get("dim"), doc.get("tolerances")]
    stack += [query.get("kind"), query.get("selection")]
    while stack:  # every value within them, at any depth
        value = stack.pop()
        if type(value) is float:
            if not _INT64_MIN < value < _UINT64_END:  # strict: -2**63 - 1 rounds to -2.0**63
                return None
        elif type(value) is list:
            stack.extend(value)
        elif type(value) is dict:
            stack.extend(value.values())
    return doc


def decode_scenario(text: bytes | str) -> Any:
    """The JSON document in scenario text: orjson's where `parse_scenario`
    reads it as json's (`_fast_document`; elsewhere in it an integer
    outside [-2**63, 2**64) may be a float), else json's. Bytes that are
    not UTF-8 and text that is not JSON raise ScenarioSyntaxError."""
    doc = _fast_document(text)
    if doc is not None:
        return doc
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioSyntaxError(f"scenario is not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(f"scenario is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting past the
        # recursion limit
        raise ScenarioSyntaxError(f"scenario cannot be decoded: {exc}") from None


def parse_scenario(source: Any, overrides: dict[str, float] | None = None) -> Scenario:
    """Parse and validate a scenario. source is scenario text (bytes or
    str) or the document `decode_scenario` made of it. The file's own
    `tolerances` block goes on top of the active tolerances, and overrides
    on top of the block; the scenario keeps the merged overrides, and `run`
    applies them too. A bad value in overrides raises ValueError."""
    raw = decode_scenario(source) if isinstance(source, (bytes, str)) else source
    if not isinstance(raw, dict):
        raise SchemaError("scenario root must be an object")
    overrides = {**block_overrides(raw.get("tolerances")), **(overrides or {})}
    with tolerance_overrides(**overrides):
        schema = _want(raw, "schema", "scenario")
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise SchemaError(f"scenario.schema: version {schema!r} unsupported, want {SCHEMA_VERSION}")
        dim = _want(raw, "dim", "scenario")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise SchemaError("scenario.dim: expected a positive integer")

        ham = _want(raw, "hamiltonian", "scenario")
        if not isinstance(ham, dict):
            raise SchemaError("scenario.hamiltonian: expected an object")
        pieces = _parse_pieces(_want(ham, "pieces", "hamiltonian"), dim, "hamiltonian.pieces")
        override = None
        if ham.get("branch_override") is not None:
            override = _parse_pieces(ham["branch_override"], dim, "hamiltonian.branch_override")
        try:
            schedule = HamiltonianSchedule(pieces, override)
        except ValidationError as exc:
            raise ValidationError(f"hamiltonian: {exc}") from exc

        bases_raw = {} if raw.get("bases") is None else raw["bases"]
        if not isinstance(bases_raw, dict):
            raise SchemaError("scenario.bases: expected an object")
        bases: dict[str, Basis] = {}
        for name, value in bases_raw.items():
            bpath = f"bases.{name}"
            if name in ("z", "x"):
                raise SchemaError(f"{bpath}: name shadows a built-in basis")
            if not (isinstance(value, list) and value):
                raise SchemaError(f"{bpath}: expected a nonempty list of vectors")
            rows = _complex_array(value, (len(value), len(value)), bpath)
            try:
                bases[name] = Basis(rows)
            except ValidationError as exc:
                raise ValidationError(f"{bpath}: {exc}") from exc

        fps_raw = [] if raw.get("fixed_points") is None else raw["fixed_points"]
        if not isinstance(fps_raw, list):
            raise SchemaError("scenario.fixed_points: expected a list")
        fixed_points = tuple(
            _parse_point(item, schedule, bases, f"fixed_points[{i}]") for i, item in enumerate(fps_raw)
        )
        query = _parse_query(_want(raw, "query", "scenario"), schedule, fixed_points, bases, "query")
        return Scenario(schedule, fixed_points, query, overrides)


# -- serialization -----------------------------------------------------------


_JSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS


def _write(value: Any) -> str:
    """value spelt as json.dumps(value, indent=2, sort_keys=True) spells it,
    for str-keyed dicts, lists, tuples, str, int, float, bool and None; any
    other key or value raises TypeError. orjson writes that layout, and its
    floats are respelt as repr spells them. json.dumps writes what orjson
    spells otherwise: subclasses of float and tuple, ints past 64 bits,
    text that is not ASCII or holds an escape or DEL, NaN and the
    infinities (which orjson writes as null)."""
    try:
        text = orjson.dumps(value, option=_JSON_OPTIONS).decode()
    except TypeError:
        _non_finite(value)  # raises at a non-str key, which json.dumps would make a str
    else:
        if text.isascii() and "\\" not in text and "\x7f" not in text:
            # With no backslash there is no escaped quote, so the even pieces
            # lie outside string literals, where only null holds an n. A
            # leading space puts one before every number.
            pieces = (" " + text).split('"')
            outside = pieces[::2]
            if not any("n" in piece for piece in outside) or not _non_finite(value):
                pieces[::2] = map(_repr_spelling, outside)
                return '"'.join(pieces)[1:]
    return json.dumps(value, indent=2, sort_keys=True)


def _non_finite(value: Any) -> bool:
    """Whether value holds a NaN or an infinity, looking at every item; a
    dict key that is not a str raises TypeError."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("dict keys must be str")
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return any([_non_finite(v) for v in value])


_UNSIGNED_EXPONENT = re.compile(r"e(?=\d)")
_ONE_DIGIT_EXPONENT = re.compile(r"e-(?=\d(?!\d))")


def _repr_spelling(text: str) -> str:
    """orjson's text outside string literals, each number after a space,
    with its floats as float.__repr__ spells them. Both write the shortest
    digits that read back to the float (Ryu); orjson places them otherwise
    in three cases only: 1e16 for 1e+16, 1.5e-7 for 1.5e-07, and
    positionally where 1e-5 <= |x| < 1e-4 (0.0000999 for 9.99e-05)."""
    if "e" in text:
        text = _ONE_DIGIT_EXPONENT.sub("e-0", _UNSIGNED_EXPONENT.sub("e+", text))
    if "0.0000" not in text:
        return text
    parts = text.split("0.0000")
    for i in range(1, len(parts)):
        entry = parts[i]
        if not parts[i - 1].endswith((" ", " -")):  # inside a number, as in 10.00001
            parts[i] = "0.0000" + entry
            continue
        end = len(entry) - len(entry.lstrip("0123456789"))  # at a comma or a line end
        dot = "." if end > 1 else ""  # 0.0000ddd is d.dde-05, and 0.00001 is 1e-05
        parts[i] = f"{entry[0]}{dot}{entry[1:end]}e-05{entry[end:]}"
    return "".join(parts)


def _dump_array(a: np.ndarray) -> list:
    """A complex array as nested lists ending in [re, im] pairs of floats."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _dump_pieces(pieces: Sequence[SchedulePiece]) -> list[dict]:
    return [
        {
            "t_start": float(p.t_start),
            "t_end": float(p.t_end),
            "matrix": _dump_array(p.hamiltonian.mat),
        }
        for p in pieces
    ]


def _dump_query(q: Query) -> dict:
    if q.kind in ("born", "abl"):
        ((t, name, _),) = q.slots
        return {"kind": q.kind, "time": float(t), "outcomes": name}
    if q.kind == "chain":
        return {
            "kind": "chain",
            "interior": [{"time": float(t), "outcomes": name} for t, name, _ in q.slots],
            "selection": [int(i) for i in q.selection],
        }
    if q.kind == "network":
        return {
            "kind": "network",
            "times": [float(t) for t, _, _ in q.slots],
            "bases": [name for _, name, _ in q.slots],
        }
    return {"kind": "validate"}


def serialize_scenario(s: Scenario) -> str:
    """s as a scenario file that parses to a scenario running to the same
    report: fixed points are written as vectors, and the bases are those
    the query's slots hold, but for the built-ins, which a file may not
    define. A file names one basis per name, so a slot whose basis differs
    from another slot's of its name, or from the built-in it is named
    after, raises ValueError."""
    bases: dict[str, Basis] = {}
    for _, name, basis in s.query.slots:
        # the basis the written file names `name`: a built-in, or the first slot's
        named = _basis({}, name, s.schedule.dim) if name in ("z", "x") else bases.setdefault(name, basis)
        if named != basis:
            raise ValueError(f"query slot {name!r} holds another basis than {name!r} names in a file")
    doc = {
        "schema": SCHEMA_VERSION,
        "dim": s.schedule.dim,
        "hamiltonian": {
            "pieces": _dump_pieces(s.schedule.pieces),
            "branch_override": (
                None
                if s.schedule.branch_override is None
                else _dump_pieces(s.schedule.branch_override)
            ),
        },
        "fixed_points": [{"time": float(p.t), "state": _dump_array(p.state)} for p in s.fixed_points],
        "bases": {name: _dump_array(basis.rows) for name, basis in sorted(bases.items())},
        "query": _dump_query(s.query),
        "tolerances": dict(sorted(s.tolerance_overrides.items())),
    }
    return _write(doc)


# -- random generation -------------------------------------------------------


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianOperator:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((a + a.conj().T) / 2.0)


def random_basis(rng: np.random.Generator, dim: int) -> Basis:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    return Basis(q.T)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / _flat_norm(v)


def random_schedule(
    rng: np.random.Generator, dim: int, n_pieces: int
) -> HamiltonianSchedule:
    bounds = [0.0]
    for length in rng.uniform(0.3, 0.9, n_pieces):
        bounds.append(bounds[-1] + float(length))
    pieces = tuple(
        SchedulePiece(bounds[i], bounds[i + 1], random_hermitian(rng, dim))
        for i in range(n_pieces)
    )
    return HamiltonianSchedule(pieces)


def random_scenario(seed: int, dim: int, n_pieces: int, kind: str) -> Scenario:
    """Deterministic scenario from a seed: Gaussian Hermitized pieces,
    QR-orthonormalized bases, random unit preparation states."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if not 2 <= dim <= 8:
        raise ValidationError(f"dim must be in [2, 8], got {dim}")
    if not 1 <= n_pieces <= 4:
        raise ValidationError(f"n_pieces must be in [1, 4], got {n_pieces}")
    if kind not in QUERY_KINDS:
        raise ValidationError(f"query kind must be one of {list(QUERY_KINDS)}")
    rng = np.random.default_rng(seed)
    schedule = random_schedule(rng, dim, n_pieces)
    t0, t1 = schedule.t_start, schedule.t_end

    fixed_points: tuple[FixedPoint, ...] = ()
    if kind == "born":
        fixed_points = (FixedPoint(t0, random_state(rng, dim)),)
        query = Query("born", ((t1, "m", random_basis(rng, dim)),))
    elif kind == "abl":
        fixed_points = (
            FixedPoint(t0, random_state(rng, dim)),
            FixedPoint(t1, random_state(rng, dim)),
        )
        basis = random_basis(rng, dim)
        t_mid = t0 + (t1 - t0) * float(rng.uniform(0.25, 0.75))
        query = Query("abl", ((t_mid, "a", basis),))
    elif kind == "chain":
        fixed_points = (
            FixedPoint(t0, random_state(rng, dim)),
            FixedPoint(t1, random_state(rng, dim)),
        )
        fractions = (float(rng.uniform(0.15, 0.45)), float(rng.uniform(0.55, 0.85)))
        slots = tuple(
            (t0 + (t1 - t0) * f, f"a{i}", random_basis(rng, dim)) for i, f in enumerate(fractions)
        )
        selection = tuple(int(k) for k in rng.integers(0, dim, size=len(slots)))
        query = Query("chain", slots, selection)
    elif kind == "network":
        sizes = [int(n) for n in rng.integers(1, 6, size=3)]
        times = [float(t) for t in np.linspace(t0, t1, len(sizes))]
        layers = tuple((t, f"n{i}", random_basis(rng, n)) for i, (t, n) in enumerate(zip(times, sizes)))
        query = Query("network", layers)
    else:
        fixed_points = (FixedPoint(t0, random_state(rng, dim)),)
        query = Query("validate")

    return Scenario(schedule, fixed_points, query)


# -- running -----------------------------------------------------------------


@dataclass
class ResultReport:
    query: dict
    delta_psi: list[float] | None = None
    normalizer: float | None = None
    measures: list[float] | None = None
    oracle: list[float] | None = None
    max_deviation: float | None = None
    extra: dict = field(default_factory=dict)
    oracle_bound: float | None = None  # the largest max_deviation `run` accepts; not written

    def to_dict(self) -> dict:
        doc = {
            "query": self.query,
            "delta_psi": self.delta_psi,
            "normalizer": self.normalizer,
            "measures": self.measures,
            "oracle": self.oracle,
            "max_deviation": self.max_deviation,
            "errors": [],
        }
        doc.update(self.extra)
        return doc

    def to_json(self) -> str:
        return _write(self.to_dict())

    def to_table(self) -> str:
        lines = [f"query: {self.query.get('kind', '?')}"]
        if self.measures is not None:
            labels = self.extra.get("labels")
            if type(labels) is tuple:  # chain_measure's rows print as lists, [0, 1]
                labels = [list(row) for row in labels]
            # born and abl oracles are per outcome; a chain's is its selected weight
            oracle_vals = self.oracle if self.query.get("kind") in ("born", "abl") else None
            header = f"{'outcome':<12} {'delta_psi':>18} {'measure':>18}"
            lines.append(header + (f" {'oracle':>18}" if oracle_vals else ""))
            for i, (d, mval) in enumerate(zip(self.delta_psi, self.measures)):
                label = labels[i] if labels else i
                row = f"{str(label):<12} {d:>18.12f} {mval:>18.12f}"
                if oracle_vals:
                    row += f" {oracle_vals[i]:>18.12f}"
                lines.append(row)
            lines.append(f"normalizer: {self.normalizer:.12f}")
            if self.oracle and oracle_vals is None:
                lines.append(f"oracle: {self.oracle}")
        for key, value in self.extra.items():
            if key != "labels":
                lines.append(f"{key}: {value}")
        if self.max_deviation is not None:
            lines.append(f"max_deviation: {self.max_deviation:.3e}")
        return "\n".join(lines)


def run(scenario: Scenario) -> ResultReport:
    """Execute a scenario's query under the tolerance overrides it keeps,
    and attach the oracle comparison."""
    with tolerance_overrides(**scenario.tolerance_overrides):
        q, sched = scenario.query, scenario.schedule
        report = ResultReport(query=_dump_query(q))
        if q.kind == "validate":  # propagator-law residuals over the covered interval
            checks = propagator_laws(sched)
            worst = max(checks.values())
            if worst > active_tolerances().unitary:
                raise NumericalCheckFailure(
                    f"propagator law residual {worst:.3e} exceeds tolerance"
                )
            report.extra = {"checks": checks}
            return report
        slots = [(t, basis) for t, _, basis in q.slots]
        bound = active_tolerances().oracle_agreement
        if q.kind == "network":
            sizes = build_network([t for t, _ in slots], [basis for _, basis in slots])
            pairs = [
                {
                    "layers": [i, i + 1],
                    "edges": 2 * n1 * n2,
                    "channels": n1 * n2,
                    "expected_edges": 2 * n1 * n2,
                    "expected_channels": n1 * n2,
                }
                for i, (n1, n2) in enumerate(zip(sizes, sizes[1:]))
            ]
            report.oracle = [float(pair["expected_edges"]) for pair in pairs]
            report.max_deviation = 0.0  # the counts are the formula itself
            report.extra = {
                "layers": [{"time": float(t), "size": n} for (t, _), n in zip(slots, sizes)],
                "edge_count": sum(pair["edges"] for pair in pairs),
                "adjacent_pairs": pairs,
            }
            return _check_agreement(report, bound)
        # born: source and one slot; abl: source, one slot, sink; chain:
        # source, any slots, sink
        src, snk = (*scenario.fixed_points, None)[:2]
        selection = q.selection if q.kind == "chain" else None
        result = measure.chain_measure(sched, (src, snk), slots, selection)
        report.delta_psi = result.delta_psi.tolist()
        report.normalizer = float(result.normalizer)
        report.measures = result.measures.tolist()
        if q.kind == "chain":
            points = (
                src,
                *(FixedPoint(t, basis.rows[k]) for (t, basis), k in zip(slots, selection)),
                snk,
            )
            value, estimate, truncation = oracle.contour_line_integral(
                sched, make_history(points), ORACLE_STEPS
            )
            weight = report.delta_psi[result.selected]
            report.oracle = [value]
            report.max_deviation = abs(weight - value)
            report.extra = {
                "labels": result.labels,
                "selected_index": result.selected,
                "selected_measure": float(result.measures[result.selected]),
                "oracle_error_estimate": estimate,
            }
            # the oracle's truncation, and rounding relative to the weight
            bound = truncation + bound * max(1.0, abs(weight))
        else:
            ((t, outcomes),) = slots
            if snk is None:
                (u1,) = oracle.propagators(sched, Branch.FORWARD, (src.t, t))
                report.oracle = oracle.born_rule(u1, src.state, outcomes)
                # the Born oracle does not normalize a preparation state_norm let through
                bound += abs(1.0 - math.fsum(report.oracle))
            else:
                u1, u2 = oracle.propagators(sched, Branch.FORWARD, (src.t, t, snk.t))
                report.oracle = oracle.abl_rule(u1, u2, src.state, outcomes, snk.state)
            report.max_deviation = max(abs(m - r) for m, r in zip(report.measures, report.oracle))
        return _check_agreement(report, bound)


def _check_agreement(report: ResultReport, bound: float) -> ResultReport:
    """report, holding bound, if its engine and oracle agree within it (a
    NaN deviation does not); else NumericalCheckFailure."""
    report.oracle_bound = bound
    if not report.max_deviation <= bound:
        raise NumericalCheckFailure(
            f"engine and oracle differ by {report.max_deviation:.3e}, "
            f"above {bound:.1e} ({report.query['kind']})"
        )
    return report
