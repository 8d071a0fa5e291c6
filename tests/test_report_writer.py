"""The report writer against json.dumps(indent=2, sort_keys=True), byte for
byte: reports of every query kind, random scenarios (a chain of 1024
joints among them), `fpf random` documents, edge values, label rows and
lists that nearly are, float lists of every magnitude (written through
orjson and respelt as repr spells them), text that reads like orjson's
floats, values orjson spells otherwise, and random JSON-like trees."""

import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf.cli import main
from fpf.scenario import (
    QUERY_KINDS,
    Query,
    ResultReport,
    _write,
    parse_scenario,
    random_scenario,
    run,
    serialize_scenario,
)
from fpf.statespace import standard_basis

ROOT = Path(__file__).resolve().parent.parent


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def assert_same(value):
    assert _write(value) == reference(value)


def assert_report_same(s):
    report = run(s)
    assert report.to_json() == reference(report.to_dict())


# every file but abl_impossible, which ends in IMPOSSIBLE_POSTSELECTION
REPORT_FILES = [
    p for p in sorted((ROOT / "scenarios").glob("*.json")) if p.stem != "abl_impossible"
]


@pytest.mark.parametrize("path", REPORT_FILES, ids=lambda p: p.stem)
def test_scenario_files(path):
    assert_report_same(parse_scenario(path.read_bytes()))


def test_scenario_files_cover_every_report_kind():
    kinds = {parse_scenario(p.read_bytes()).query.kind for p in REPORT_FILES}
    assert kinds == {"born", "abl", "chain", "network"}  # validate: test_random_reports


@pytest.mark.parametrize("kind", QUERY_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_random_reports(kind, seed):
    assert_report_same(random_scenario(seed, 2 + 2 * seed, 1 + seed, kind))


def test_chain_of_1024_joints():
    s = random_scenario(7, 4, 2, "chain")
    t0, t1 = s.schedule.t_start, s.schedule.t_end
    names = ("a0", "a1", "a0", "a1", "a0")
    bases = {name: basis for _, name, basis in s.query.slots}
    interior = tuple(
        (t0 + (t1 - t0) * (k + 1) / (len(names) + 1), name, bases[name]) for k, name in enumerate(names)
    )
    s = replace(s, query=Query(kind="chain", slots=interior, selection=(0, 1, 2, 3, 0)))
    report = run(s)
    assert len(report.extra["labels"]) == 4**5
    assert report.to_json() == reference(report.to_dict())


def chain_of(dim, slots):
    """A seeded chain of `slots` interior slots over bases of dim elements;
    dim 1 uses the built-in basis, larger dims the scenario's two random ones."""
    s = random_scenario(7, dim, 2, "chain") if dim > 1 else parse_scenario(json.dumps({
        "schema": 1,
        "dim": 1,
        "hamiltonian": {"pieces": [{"t_start": 0.0, "t_end": 1.0, "matrix": [[[0.5, 0.0]]]}]},
        "fixed_points": [{"time": 0.0, "state": "z:0"}, {"time": 1.0, "state": "z:0"}],
        "query": {"kind": "chain", "interior": [], "selection": []},
    }))
    t0, t1 = s.schedule.t_start, s.schedule.t_end
    names = ["z" if dim == 1 else f"a{k % 2}" for k in range(slots)]
    bases = {name: basis for _, name, basis in s.query.slots} if dim > 1 else {"z": standard_basis(1)}
    interior = tuple((t0 + (t1 - t0) * (k + 1) / (slots + 1), name, bases[name]) for k, name in enumerate(names))
    selection = tuple((3 * k + 1) % dim for k in range(slots))
    return replace(s, query=Query(kind="chain", slots=interior, selection=selection))


@pytest.mark.parametrize("dim, slots", [(2, 0), (3, 1), (8, 2), (4, 5), (2, 8), (1, 63)])
def test_chain_labels_are_written_from_the_slot_sizes(dim, slots):
    report = run(chain_of(dim, slots))
    labels = tuple(itertools.product(range(dim), repeat=slots))
    assert report.extra["labels"] == labels  # ((),) for a chain without slots
    assert report.extra["selected_index"] == labels.index(tuple((3 * k + 1) % dim for k in range(slots)))
    assert report.to_json() == reference(report.to_dict())
    assert report.to_json() == reference(json.loads(json.dumps(report.to_dict())))  # plain lists
    if slots:  # the rows cannot be edited; a caller's own list of rows is written as it stands
        with pytest.raises(TypeError):
            report.extra["labels"][0][0] = dim
        report.extra["labels"] = [list(row) for row in labels]
        report.extra["labels"][0][0] = dim
        assert report.to_json() == reference(report.to_dict())


# SHA-256 and length of `fpf run --format table` on chain_of(dim, slots)
CHAIN_TABLES = {
    (3, 2): ("303bff540803b3d9618b1b847ec871f31b4b2076eac2173cdbce90250992b9a5", 706),
    (2, 3): ("498bd3917b7127385ed9a39d5fb06408d49b65645bb8c537ca71a6c890eca58f", 656),
}


@pytest.mark.parametrize("dim, slots", sorted(CHAIN_TABLES))
def test_chain_table_prints_label_rows_as_lists(tmp_path, dim, slots):
    path = tmp_path / "chain.json"
    path.write_text(serialize_scenario(chain_of(dim, slots)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", str(path), "--format", "table"]) == 0
    text = out.getvalue()
    rows = text.splitlines()[2:2 + dim**slots]
    assert [row[:12].rstrip() for row in rows] == [
        str(list(joint)) for joint in itertools.product(range(dim), repeat=slots)
    ]
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == CHAIN_TABLES[dim, slots]


SIZES = st.lists(st.integers(1, 8), max_size=8).filter(lambda sizes: math.prod(sizes) <= 4096)


@given(SIZES)
@settings(max_examples=60, deadline=None)
def test_joint_labels_are_the_odometer_and_write_as_json_does(sizes):
    # chain_measure's labels: a plain tuple of index rows, the last index turning fastest
    labels = tuple(itertools.product(*map(range, sizes)))
    row, odometer = [0] * len(sizes), []
    for _ in range(math.prod(sizes)):
        odometer.append(tuple(row))
        for k in reversed(range(len(sizes))):
            row[k] = (row[k] + 1) % sizes[k]
            if row[k]:
                break
    assert labels == tuple(odometer)
    report = ResultReport(query={"kind": "chain"}, extra={"labels": labels})
    assert report.to_json() == reference(report.to_dict())


@pytest.mark.parametrize("kind", QUERY_KINDS)
@pytest.mark.parametrize("dim, pieces", [(2, 1), (5, 3), (8, 4)])
def test_serialize_scenario(kind, dim, pieces):
    for seed in range(3):
        text = serialize_scenario(random_scenario(seed, dim, pieces, kind))
        # floats round-trip through repr, so the decoded document is the one written
        assert text == reference(json.loads(text))


EDGE_VALUES = [
    -0.0,
    5e-324,
    1e-320,
    1e308,
    math.nan,
    math.inf,
    -math.inf,
    [0.5, math.nan, -0.0],
    [math.inf, 1.0],
    [-math.inf],
    [5e-324, 1e-320, 1e308, -0.0],
    [1, True, 2],
    [False],
    [1, 2.5, 3],
    [[1, 2], [3]],
    [[1, 2], []],
    [[], []],
    [[1, 2], [3, 4.0]],
    [[1, True], [3, 4]],
    [(1, 2), [3, 4]],
    [[[1]], [[2]]],
    [[-1, 10**30], [0, -(10**30)]],
    [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
    [[0], [1], [2]],
    [[0, 0], [0, 1], [1, 0], [1, True]],
    [[0, 0], [0, 1.0], [1, 0], [1, 1]],
    [[0, 0], [0, 1], [1, 1], [1, 0]],
    [[0, 0], [1, 1], [1, 0], [1, 1]],
    [[0, 0], [0, 1], [1, 0], [1, 1], [1, 1]],
    [(0, 0), (0, 1), (1, 0), (1, 1)],
    [[0], [10**30]],
    [[-1]],
    [[-2, -2], [-2, -2], [-2, -2], [-2, -2]],
    [],
    {},
    [[]],
    [{}],
    {"a": [], "b": {}},
    (1, "two", 3.0),
    ((0, 1), (1, 0)),
    "",
    "plain",
    "ünïcödé ∮ 𝄞",
    "tab\tnewline\nquote\"backslash\\nul\x00bell\x07del\x7f",
    {"é": 1, "\n": 2, "a": 3, "B": 4},
    "del\x7f",  # the one ASCII character json escapes and orjson does not
    {"key\x7f": [2e-05]},
    np.float64(0.1),
    [np.float64(1.5), np.float64(-0.0), 2.0],
    {"x": np.float64(math.nan), "y": [np.float64(math.inf)]},
    None,
    True,
    False,
    0,
    -7,
    {"z": None, "a": [True, False, None], "m": {"deep": [[0.25]]}},
    # floats orjson places otherwise, alone and as dict values
    *(v for x in (2e-05, -9.99e-05, 1.5e-07, 1e+16) for v in (x, {"normalizer": x})),
    # text that reads like those floats, as keys and values beside float lists
    *(
        v
        for text in ("0.00001", " 0.0000123", "e-5", "base1e7")
        for v in ({text: [2e-05, 1e+16], "measures": [text, -9.99e-05, 1.5e-07]}, [text, 1e-05, text])
    ),
    [10.00001, -100.00001, 1.0000012, {"x": 20.00003}],  # 0.0000 inside a number, not a band float
    [None, math.nan],
    {"oracle": None, "max_deviation": math.inf},
    {"oracle": None, "measures": [2e-05, -9.99e-05, 1.5e-07, 1e+16]},
    [None, 2e-05, None, 1e+16],
    # ints at the edges of orjson's 64-bit range, and past them
    -(2**63) - 1,
    -(2**63),
    2**64 - 1,
    2**64,
    [-(2**63) - 1, -(2**63), 2**64 - 1, 2**64, 2e-05],
    collections.namedtuple("Pair", "re im")(0.5, 2e-05),
    {"pair": collections.namedtuple("Pair", "re im")(1e+16, -0.0)},
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_edge_values(value):
    assert_same(value)


@pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, [{(1,): 0}], {1: "é"}], ids=repr)
def test_non_str_key_raises(value):
    with pytest.raises(TypeError):
        _write(value)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), [np.int64(3)], 1j])
def test_unknown_type_raises(value):
    with pytest.raises(TypeError):
        _write(value)


FLOATS = st.floats() | st.floats().map(np.float64)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
INT_ROWS = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(), min_size=k, max_size=k), max_size=4)
)
ODOMETERS = st.lists(st.integers(1, 3), max_size=4).map(
    lambda sizes: [list(row) for row in itertools.product(*map(range, sizes))]
)
TREES = st.recursive(
    SCALARS | st.lists(st.floats()) | st.lists(st.integers()) | INT_ROWS | ODOMETERS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=30,
)


@given(TREES)
@settings(max_examples=300, deadline=None)
def test_json_like_trees(value):
    assert_same(value)


# Float lists go through orjson, whose spelling is converted to repr's; if a
# new orjson spells a float otherwise, these are the tests that fail.


def _neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


SPELLING_EDGES = [
    *(sign * v for sign in (1.0, -1.0) for x in (1e-5, 1e-4, 1e16) for v in _neighbours(x)),
    0.0,
    -0.0,
    *(sign * v for sign in (1.0, -1.0) for x in (5e-324, 2.2250738585072014e-308) for v in _neighbours(x)),
    *(sign * x for sign in (1.0, -1.0) for x in (2.0**53, 1e15, 1e16, 1e22)),
    1.5e-7, 1e-9, 1e-10, 9.99e-5, 1.7976931348623157e308, 0.1, 1.0, 123456789.0,
]


@pytest.mark.parametrize("x", SPELLING_EDGES, ids=repr)
def test_float_edges_in_every_list_position(x):
    for value in ([x], [x, x], [x, 0.5], [0.5, x], [0.5, x, 0.5], [x, 2e-5, x, -3e-5, x], (x, 1e-5)):
        assert_same(value)


def test_seeded_floats_of_every_binary_exponent():
    # four random significands per biased exponent (0 is the subnormals), both signs
    rng = np.random.default_rng(41)
    bits = [
        (sign << 63) | (exponent << 52) | int(significand)
        for exponent in range(2047)
        for significand in rng.integers(0, 2**52, size=4)
        for sign in (0, 1)
    ]
    floats = list(struct.unpack(f"<{len(bits)}d", struct.pack(f"<{len(bits)}Q", *bits)))
    assert len(floats) == 16376 and all(map(math.isfinite, floats))
    assert_same(floats)
    for start in range(0, len(floats), 7):
        assert_same(floats[start:start + 7])


def test_seeded_short_decimals_of_every_decade():
    # one to seventeen significant digits per decade, so both one-digit and
    # long spellings meet each exponent form
    rng = np.random.default_rng(41)
    floats = []
    for exponent in range(-324, 309):
        for digits in (1, 2, 3, 9, 17):
            mantissa = "".join(map(str, rng.integers(1, 10, size=digits)))
            x = float(f"{mantissa[0]}.{mantissa[1:]}e{exponent}")
            if math.isfinite(x):
                floats.append(x if rng.integers(2) else -x)
    assert len(floats) > 3000
    assert_same(floats)
    for start in range(0, len(floats), 5):
        assert_same(floats[start:start + 5])


@pytest.mark.parametrize("value", [
    [1e-5, math.nan],
    [math.inf, 2e-5, 1e16],
    [1.5e-7, -math.inf, -9.99e-5],
    [9.99e-5, math.nan, 1e22, math.inf, -1e-5],
], ids=repr)
def test_non_finite_entries_in_float_lists(value):
    assert_same(value)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NEAR_THE_EDGES = st.sampled_from(SPELLING_EDGES) | st.floats(-2e-4, 2e-4) | st.floats(1e15, 1e17)


@given(st.lists(FINITE | NEAR_THE_EDGES, min_size=1, max_size=40))
@settings(max_examples=500, deadline=None)
def test_finite_float_lists(value):
    assert_same(value)
