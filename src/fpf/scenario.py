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
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Sequence

import numpy as np

from . import measure, oracle
from .contour import Branch
from .dynamics import HamiltonianSchedule, SchedulePiece, compose_check, propagate
from .errors import (
    SchemaError,
    ScenarioSyntaxError,
    NumericalCheckFailure,
    ValidationError,
)
from .histories import FixedPoint, build_network, make_history
from .statespace import Basis, HermitianOperator, StateVector, standard_basis, unitarity_defect
from .tolerances import _FIELD_NAMES as _TOLERANCE_FIELDS
from .tolerances import active_tolerances, tolerance_value

SCHEMA_VERSION = 1
QUERY_KINDS = ("born", "abl", "chain", "network", "validate")
ORACLE_STEPS = 512  # line-integral resolution used for chain reports

_SQRT2 = float(np.sqrt(2.0))
_X_ALIASES = {"+": 0, "-": 1}


@dataclass(frozen=True)
class Query:
    kind: str
    time: float | None = None
    outcomes: str | None = None
    interior: tuple[tuple[float, str], ...] = ()
    selection: tuple[int, ...] = ()
    times: tuple[float, ...] = ()
    layer_bases: tuple[str, ...] = ()


@dataclass(frozen=True)
class Scenario:
    dim: int
    schedule: HamiltonianSchedule
    fixed_points: tuple[FixedPoint, ...]
    bases: dict[str, Basis]
    query: Query
    tolerance_overrides: dict[str, float] = field(default_factory=dict)

    def resolve_basis(self, name: str) -> Basis:
        found = resolve_basis(name, self.dim, self.bases)
        if found is None:
            raise ValidationError(f"query references unknown basis {name!r}")
        return found


def builtin_basis(name: str, dim: int) -> Basis | None:
    if name == "z":
        return standard_basis(dim)
    if name == "x" and dim == 2:
        plus = StateVector(np.array([1.0, 1.0]) / _SQRT2)
        minus = StateVector(np.array([1.0, -1.0]) / _SQRT2)
        return Basis((plus, minus))
    return None


def resolve_basis(name: str, dim: int, bases: dict[str, Basis]) -> Basis | None:
    if name in bases:
        return bases[name]
    return builtin_basis(name, dim)


# -- parsing -----------------------------------------------------------------


def _want(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return obj[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{path}: integer beyond float range") from None


_LEAF_TYPES = {int, float}


def _complex_array(value: Any, shape: tuple[int, ...]) -> np.ndarray | None:
    """value as a complex128 array of `shape` when it is exactly that
    nesting of lists ending in [re, im] pairs of int or float leaves
    (bools excluded), else None. The leaves go through one numpy
    conversion, and the float64 pairs are viewed as complex128, so every
    value, signed zeros included, is the one `_complex_pair` would give."""
    level = [value]
    for size in (*shape, 2):
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= _LEAF_TYPES:
        return None
    try:
        pairs = np.array(level, dtype=np.float64)
    except OverflowError:  # an integer beyond float range
        return None
    return pairs.view(np.complex128).reshape(shape)


# The per-entry path below runs only when _complex_array refuses its input;
# its job is the message naming the faulty entry.


def _complex_pair(value: Any, path: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise SchemaError(f"{path}: complex values are [re, im] pairs")
    return complex(_number(value[0], path + "[0]"), _number(value[1], path + "[1]"))


def _vector_entries(value: Any, dim: int, path: str) -> np.ndarray:
    if not (isinstance(value, list) and len(value) == dim):
        raise SchemaError(f"{path}: expected a length-{dim} vector")
    return np.array([_complex_pair(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _vector(value: Any, dim: int, path: str) -> np.ndarray:
    whole = _complex_array(value, (dim,))
    return _vector_entries(value, dim, path) if whole is None else whole


def _matrix(value: Any, dim: int, path: str) -> np.ndarray:
    whole = _complex_array(value, (dim, dim))
    if whole is not None:
        return whole
    if not (isinstance(value, list) and len(value) == dim):
        raise SchemaError(f"{path}: expected a {dim}x{dim} matrix")
    return np.array([_vector_entries(row, dim, f"{path}[{i}]") for i, row in enumerate(value)])


def _parse_pieces(value: Any, dim: int, path: str) -> tuple[SchedulePiece, ...]:
    if not (isinstance(value, list) and value):
        raise SchemaError(f"{path}: expected a nonempty list of schedule pieces")
    pieces = []
    for i, raw in enumerate(value):
        ppath = f"{path}[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{ppath}: expected an object")
        t_start = _number(_want(raw, "t_start", ppath), ppath + ".t_start")
        t_end = _number(_want(raw, "t_end", ppath), ppath + ".t_end")
        mat = _matrix(_want(raw, "matrix", ppath), dim, ppath + ".matrix")
        try:
            h = HermitianOperator(mat)
        except ValidationError as exc:
            raise ValidationError(f"{ppath}: {exc}") from exc
        try:
            pieces.append(SchedulePiece(t_start, t_end, h))
        except ValidationError as exc:
            raise ValidationError(f"{ppath}: {exc}") from exc
    return tuple(pieces)


def _parse_state(
    value: Any, dim: int, bases: dict[str, Basis], path: str
) -> StateVector:
    if isinstance(value, str):
        name, _, key = value.partition(":")
        if not key:
            raise SchemaError(f"{path}: state names look like 'basis:element'")
        basis = resolve_basis(name, dim, bases)
        if basis is None:
            raise ValidationError(f"{path}: unknown basis {name!r}")
        if basis.dim != dim:
            raise ValidationError(f"{path}: basis {name!r} has dim {basis.dim}, not {dim}")
        if name == "x" and key in _X_ALIASES:
            index = _X_ALIASES[key]
        else:
            try:
                index = int(key)
            except ValueError:
                raise SchemaError(f"{path}: bad basis element {key!r}") from None
        if not 0 <= index < len(basis):
            raise ValidationError(f"{path}: element {index} out of range for {name!r}")
        return basis[index]
    state = StateVector(_vector(value, dim, path))
    if not state.is_normalized():
        raise ValidationError(f"{path}: state norm is {state.norm!r}, not 1")
    return state


def _parse_query(raw: Any, path: str) -> Query:
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = _want(raw, "kind", path)
    if kind not in QUERY_KINDS:
        raise SchemaError(f"{path}.kind: {kind!r} is not one of {list(QUERY_KINDS)}")
    if kind in ("born", "abl"):
        return Query(
            kind=kind,
            time=_number(_want(raw, "time", path), path + ".time"),
            outcomes=str(_want(raw, "outcomes", path)),
        )
    if kind == "chain":
        interior_raw = _want(raw, "interior", path)
        if not isinstance(interior_raw, list):
            raise SchemaError(f"{path}.interior: expected a list")
        interior = []
        for i, item in enumerate(interior_raw):
            ipath = f"{path}.interior[{i}]"
            if not isinstance(item, dict):
                raise SchemaError(f"{ipath}: expected an object")
            interior.append(
                (
                    _number(_want(item, "time", ipath), ipath + ".time"),
                    str(_want(item, "outcomes", ipath)),
                )
            )
        selection_raw = _want(raw, "selection", path)
        if not (
            isinstance(selection_raw, list)
            and all(isinstance(s, int) and not isinstance(s, bool) for s in selection_raw)
        ):
            raise SchemaError(f"{path}.selection: expected a list of integers")
        return Query(kind=kind, interior=tuple(interior), selection=tuple(selection_raw))
    if kind == "network":
        times_raw = _want(raw, "times", path)
        if not isinstance(times_raw, list):
            raise SchemaError(f"{path}.times: expected a list")
        layer_raw = _want(raw, "bases", path)
        if not (isinstance(layer_raw, list) and all(isinstance(b, str) for b in layer_raw)):
            raise SchemaError(f"{path}.bases: expected a list of basis names")
        times = tuple(_number(t, f"{path}.times[{i}]") for i, t in enumerate(times_raw))
        return Query(kind=kind, times=times, layer_bases=tuple(layer_raw))
    return Query(kind="validate")


def decode_scenario(text: bytes | str) -> Any:
    """The JSON document in scenario text. Bytes that are not UTF-8 and
    text that is not JSON raise ScenarioSyntaxError."""
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


def scenario_tolerances(raw: Any) -> dict[str, float]:
    """The checked `tolerances` block of a decoded scenario document; {}
    when it is absent or the root is not an object. A block that is not an
    object, an unknown field or a value that is not a JSON number is a
    SchemaError; a number or boolean that is not finite and >= 0 is a
    ValidationError."""
    block = (raw.get("tolerances") if isinstance(raw, dict) else None) or {}
    if not isinstance(block, dict):
        raise SchemaError("scenario.tolerances: expected an object")
    overrides = {}
    for key, value in block.items():
        if key not in _TOLERANCE_FIELDS:
            raise SchemaError(f"tolerances.{key}: unknown tolerance field")
        try:
            overrides[key] = tolerance_value(key, value)
        except ValueError as exc:
            # bools are ints in Python: they are out of range, not mistyped
            error = ValidationError if isinstance(value, (int, float)) else SchemaError
            raise error(str(exc)) from None
    return overrides


def parse_scenario(source: Any) -> Scenario:
    """Parse and validate a scenario under the active tolerances. source is
    scenario text (bytes or str) or the document `decode_scenario` made of
    it, so a caller that has decoded the text need not decode it again."""
    raw = decode_scenario(source) if isinstance(source, (bytes, str)) else source
    if not isinstance(raw, dict):
        raise SchemaError("scenario root must be an object")
    overrides = scenario_tolerances(raw)
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

    bases_raw = raw.get("bases") or {}
    if not isinstance(bases_raw, dict):
        raise SchemaError("scenario.bases: expected an object")
    bases: dict[str, Basis] = {}
    for name, value in bases_raw.items():
        bpath = f"bases.{name}"
        if name in ("z", "x"):
            raise SchemaError(f"{bpath}: name shadows a built-in basis")
        if not (isinstance(value, list) and value):
            raise SchemaError(f"{bpath}: expected a nonempty list of vectors")
        size = len(value)
        rows = _complex_array(value, (size, size))
        if rows is None:
            rows = (_vector_entries(v, size, f"{bpath}[{i}]") for i, v in enumerate(value))
        vectors = [StateVector(row) for row in rows]
        try:
            bases[name] = Basis(tuple(vectors))
        except ValidationError as exc:
            raise ValidationError(f"{bpath}: {exc}") from exc

    fps_raw = raw.get("fixed_points", [])
    if not isinstance(fps_raw, list):
        raise SchemaError("scenario.fixed_points: expected a list")
    fixed_points = []
    for i, item in enumerate(fps_raw):
        fpath = f"fixed_points[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{fpath}: expected an object")
        t = _number(_want(item, "time", fpath), fpath + ".time")
        if not schedule.covers(t):
            raise ValidationError(
                f"{fpath}.time: {t} is outside schedule coverage "
                f"[{schedule.t_start}, {schedule.t_end}]"
            )
        state = _parse_state(_want(item, "state", fpath), dim, bases, fpath + ".state")
        fixed_points.append(FixedPoint(t, state))

    query = _parse_query(_want(raw, "query", "scenario"), "query")

    scenario = Scenario(
        dim=dim,
        schedule=schedule,
        fixed_points=tuple(fixed_points),
        bases=bases,
        query=query,
        tolerance_overrides=overrides,
    )
    _check_query(scenario)
    return scenario


def _check_query(s: Scenario) -> None:
    q = s.query
    if q.kind == "born":
        if len(s.fixed_points) != 1:
            raise ValidationError("born queries need exactly one fixed point (the preparation)")
        _check_covered(s, q.time, "query.time")
        if not s.fixed_points[0].t < q.time:
            raise ValidationError("query.time must follow the preparation time")
        _check_outcome_basis(s, q.outcomes)
    elif q.kind == "abl":
        if len(s.fixed_points) != 2:
            raise ValidationError("abl queries need exactly two fixed points (pre and post)")
        _check_covered(s, q.time, "query.time")
        if not s.fixed_points[0].t < q.time < s.fixed_points[1].t:
            raise ValidationError("query.time must lie strictly between the selections")
        _check_outcome_basis(s, q.outcomes)
    elif q.kind == "chain":
        if len(s.fixed_points) != 2:
            raise ValidationError("chain queries need exactly two fixed points (the endpoints)")
        times = [s.fixed_points[0].t, *(t for t, _ in q.interior), s.fixed_points[1].t]
        if any(not a < b for a, b in zip(times, times[1:])):
            raise ValidationError("interior times must increase strictly between the endpoints")
        for i, (t, name) in enumerate(q.interior):
            _check_covered(s, t, f"query.interior[{i}].time")
            _check_outcome_basis(s, name)
        if len(q.selection) != len(q.interior):
            raise ValidationError("selection length must match the number of interior slots")
        for i, (idx, (_, name)) in enumerate(zip(q.selection, q.interior)):
            if not 0 <= idx < len(s.resolve_basis(name)):
                raise ValidationError(f"query.selection[{i}]: index {idx} out of range")
    elif q.kind == "network":
        if len(q.times) < 2 or len(q.times) != len(q.layer_bases):
            raise ValidationError("network queries need matching times and bases, two or more")
        if not all(math.isfinite(t) for t in q.times):
            raise ValidationError("query.times: network layer times must be finite")
        if any(not a < b for a, b in zip(q.times, q.times[1:])):
            raise ValidationError("network layer times must be strictly increasing")
        for name in q.layer_bases:
            if resolve_basis(name, s.dim, s.bases) is None:
                raise ValidationError(f"query.bases: unknown basis {name!r}")


def _check_covered(s: Scenario, t: float | None, path: str) -> None:
    if t is None or not s.schedule.covers(t):
        raise ValidationError(
            f"{path}: {t} is outside schedule coverage "
            f"[{s.schedule.t_start}, {s.schedule.t_end}]"
        )


def _check_outcome_basis(s: Scenario, name: str | None) -> None:
    basis = resolve_basis(name, s.dim, s.bases) if name else None
    if basis is None:
        raise ValidationError(f"query references unknown basis {name!r}")
    if basis.dim != s.dim:
        raise ValidationError(
            f"outcome basis {name!r} has dim {basis.dim}, scenario has dim {s.dim}"
        )


# -- serialization -----------------------------------------------------------


def _dump_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _dump_matrix(mat: np.ndarray) -> list[list[list[float]]]:
    return [[_dump_complex(z) for z in row] for row in mat]


def _dump_pieces(pieces: Sequence[SchedulePiece]) -> list[dict]:
    return [
        {
            "t_start": float(p.t_start),
            "t_end": float(p.t_end),
            "matrix": _dump_matrix(p.hamiltonian.mat),
        }
        for p in pieces
    ]


def _dump_query(q: Query) -> dict:
    if q.kind in ("born", "abl"):
        return {"kind": q.kind, "time": float(q.time), "outcomes": q.outcomes}
    if q.kind == "chain":
        return {
            "kind": "chain",
            "interior": [{"time": float(t), "outcomes": name} for t, name in q.interior],
            "selection": [int(i) for i in q.selection],
        }
    if q.kind == "network":
        return {
            "kind": "network",
            "times": [float(t) for t in q.times],
            "bases": list(q.layer_bases),
        }
    return {"kind": "validate"}


def serialize_scenario(s: Scenario) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "dim": s.dim,
        "hamiltonian": {
            "pieces": _dump_pieces(s.schedule.pieces),
            "branch_override": (
                None
                if s.schedule.branch_override is None
                else _dump_pieces(s.schedule.branch_override)
            ),
        },
        "fixed_points": [
            {"time": float(p.t), "state": [_dump_complex(z) for z in p.state.amps]}
            for p in s.fixed_points
        ],
        "bases": {
            name: [[_dump_complex(z) for z in e.amps] for e in basis]
            for name, basis in sorted(s.bases.items())
        },
        "query": _dump_query(s.query),
        "tolerances": dict(sorted(s.tolerance_overrides.items())),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# -- random generation -------------------------------------------------------


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianOperator:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((a + a.conj().T) / 2.0)


def random_basis(rng: np.random.Generator, dim: int) -> Basis:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    return Basis(tuple(StateVector(q[:, k]) for k in range(dim)))


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v))


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
    if not 2 <= dim <= 8:
        raise ValidationError(f"dim must be in [2, 8], got {dim}")
    if not 1 <= n_pieces <= 4:
        raise ValidationError(f"n_pieces must be in [1, 4], got {n_pieces}")
    if kind not in QUERY_KINDS:
        raise ValidationError(f"query kind must be one of {list(QUERY_KINDS)}")
    rng = np.random.default_rng(seed)
    schedule = random_schedule(rng, dim, n_pieces)
    t0, t1 = schedule.t_start, schedule.t_end

    bases: dict[str, Basis] = {}
    fixed_points: tuple[FixedPoint, ...] = ()
    if kind == "born":
        fixed_points = (FixedPoint(t0, random_state(rng, dim)),)
        bases["m"] = random_basis(rng, dim)
        query = Query(kind="born", time=t1, outcomes="m")
    elif kind == "abl":
        fixed_points = (
            FixedPoint(t0, random_state(rng, dim)),
            FixedPoint(t1, random_state(rng, dim)),
        )
        bases["a"] = random_basis(rng, dim)
        t_mid = t0 + (t1 - t0) * float(rng.uniform(0.25, 0.75))
        query = Query(kind="abl", time=t_mid, outcomes="a")
    elif kind == "chain":
        fixed_points = (
            FixedPoint(t0, random_state(rng, dim)),
            FixedPoint(t1, random_state(rng, dim)),
        )
        fractions = (float(rng.uniform(0.15, 0.45)), float(rng.uniform(0.55, 0.85)))
        interior = []
        for i, frac in enumerate(fractions):
            name = f"a{i}"
            bases[name] = random_basis(rng, dim)
            interior.append((t0 + (t1 - t0) * frac, name))
        selection = tuple(int(k) for k in rng.integers(0, dim, size=len(interior)))
        query = Query(kind="chain", interior=tuple(interior), selection=selection)
    elif kind == "network":
        sizes = [int(n) for n in rng.integers(1, 6, size=3)]
        names = []
        for i, size in enumerate(sizes):
            name = f"n{i}"
            bases[name] = random_basis(rng, size)
            names.append(name)
        times = tuple(float(t) for t in np.linspace(t0, t1, len(sizes)))
        query = Query(kind="network", times=times, layer_bases=tuple(names))
    else:
        fixed_points = (FixedPoint(t0, random_state(rng, dim)),)
        query = Query(kind="validate")

    return Scenario(
        dim=dim,
        schedule=schedule,
        fixed_points=fixed_points,
        bases=bases,
        query=query,
    )


# -- running -----------------------------------------------------------------


@dataclass
class ResultReport:
    query: dict
    delta_psi: list[float] | None = None
    normalizer: float | None = None
    measures: list[float] | None = None
    oracle: list[float] | None = None
    max_deviation: float | None = None
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "query": self.query,
            "delta_psi": self.delta_psi,
            "normalizer": self.normalizer,
            "measures": self.measures,
            "oracle": self.oracle,
            "max_deviation": self.max_deviation,
            "errors": self.errors,
        }
        doc.update(self.extra)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"query: {self.query.get('kind', '?')}"]
        if self.measures is not None:
            labels = self.extra.get("labels")
            # per-outcome oracle column only when the oracle is per-outcome
            oracle_vals = self.oracle if self.oracle and len(self.oracle) == len(self.measures) else None
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
        if self.errors:
            lines.extend(f"error: {e}" for e in self.errors)
        return "\n".join(lines)


def run(scenario: Scenario) -> ResultReport:
    """Execute a scenario's query and attach the oracle comparison."""
    q = scenario.query
    echo = _dump_query(q)
    sched = scenario.schedule
    if q.kind in ("born", "abl", "chain"):
        # born: source and one slot; abl: source, one slot, sink; chain:
        # source, any slots, sink
        src, snk = (*scenario.fixed_points, None)[:2]
        if q.kind == "chain":
            interior = [(t, scenario.resolve_basis(name)) for t, name in q.interior]
            selection = q.selection
        else:
            interior = [(q.time, scenario.resolve_basis(q.outcomes))]
            selection = None
        result = measure.chain_measure(sched, (src, snk), interior, selection)
        report = ResultReport(
            query=echo,
            delta_psi=[float(d) for d in result.delta_psi],
            normalizer=float(result.normalizer),
            measures=[float(m) for m in result.measures],
        )
        if q.kind == "chain":
            points = (
                src,
                *(FixedPoint(t, basis[k]) for (t, basis), k in zip(interior, q.selection)),
                snk,
            )
            value, estimate = oracle.contour_line_integral(
                sched, make_history(points), ORACLE_STEPS
            )
            report.oracle = [value]
            report.max_deviation = abs(report.delta_psi[result.selected] - value)
            report.extra = {
                "labels": [list(lbl) for lbl in result.labels],
                "selected_index": result.selected,
                "selected_measure": float(result.measures[result.selected]),
                "oracle_error_estimate": estimate,
            }
            return report
        t, outcomes = interior[0]
        u1 = oracle.propagator(sched, Branch.FORWARD, src.t, t)
        if snk is None:
            report.oracle = [oracle.standard_born(u1, src.state, phi) for phi in outcomes]
        else:
            u2 = oracle.propagator(sched, Branch.FORWARD, t, snk.t)
            report.oracle = oracle.abl_rule(u1, u2, src.state, outcomes, snk.state)
        report.max_deviation = max(abs(m - r) for m, r in zip(report.measures, report.oracle))
        return report
    if q.kind == "network":
        layer_bases = [resolve_basis(n, scenario.dim, scenario.bases) for n in q.layer_bases]
        net = build_network(q.times, layer_bases)
        pairs = []
        expected = []
        deviations = []
        for i in range(len(net.layers) - 1):
            n1, n2 = net.layers[i].size, net.layers[i + 1].size
            edges = len(net.edges_between(i))
            channels = len(net.channels_between(i))
            pairs.append(
                {
                    "layers": [i, i + 1],
                    "edges": edges,
                    "channels": channels,
                    "expected_edges": 2 * n1 * n2,
                    "expected_channels": n1 * n2,
                }
            )
            expected.append(float(2 * n1 * n2))
            deviations.append(abs(edges - 2 * n1 * n2))
            deviations.append(abs(channels - n1 * n2))
        return ResultReport(
            query=echo,
            oracle=expected,
            max_deviation=float(max(deviations)),
            extra={
                "layers": [
                    {"time": float(l.t), "size": l.size} for l in net.layers
                ],
                "edge_count": len(net.edges),
                "adjacent_pairs": pairs,
            },
        )
    # validate: propagator-law residuals over the covered interval
    checks = _validate_checks(scenario)
    worst = max(checks.values())
    if worst > active_tolerances().unitary:
        raise NumericalCheckFailure(
            f"propagator law residual {worst:.3e} exceeds tolerance"
        )
    return ResultReport(query=echo, extra={"checks": checks})


def _validate_checks(scenario: Scenario) -> dict[str, float]:
    sched = scenario.schedule
    t0, t1 = sched.t_start, sched.t_end
    tm = 0.5 * (t0 + t1)
    u = propagate(sched, Branch.FORWARD, t0, t1)
    unitarity = unitarity_defect(u.mat)
    composition = compose_check(sched, Branch.FORWARD, t0, tm, t1)
    reversal = float(
        np.linalg.norm(propagate(sched, Branch.FORWARD, t1, t0).mat - u.mat.conj().T)
    )
    return {
        "unitarity": unitarity,
        "composition": composition,
        "reversal": reversal,
    }
