import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpf import scenario as scenario_module
from fpf.cli import main
from fpf.errors import FpfError, SchemaError, ScenarioSyntaxError, ValidationError
from fpf.scenario import (
    QUERY_KINDS,
    parse_scenario,
    random_basis,
    random_scenario,
    run,
    serialize_scenario,
)
from fpf.histories import FixedPoint
from fpf.statespace import HermitianOperator, standard_basis

QUARTER = math.pi / 4
ZERO2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
SX = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_born(**overrides):
    doc = {
        "schema": 1,
        "dim": 2,
        "hamiltonian": {"pieces": [{"t_start": 0.0, "t_end": QUARTER, "matrix": SX}]},
        "fixed_points": [{"time": 0.0, "state": "z:0"}],
        "query": {"kind": "born", "time": QUARTER, "outcomes": "z"},
    }
    doc.update(overrides)
    return doc


class TestParse:
    def test_minimal_qubit_scenario(self):
        s = parse_scenario(json.dumps(minimal_born()).encode())
        assert s.schedule.dim == 2
        assert s.query.kind == "born"
        assert len(s.fixed_points) == 1

    def test_malformed_json(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario(b"{not json")

    def test_missing_field_names_path(self):
        doc = minimal_born()
        del doc["hamiltonian"]
        with pytest.raises(SchemaError, match="hamiltonian"):
            parse_scenario(json.dumps(doc))

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaError, match="schema"):
            parse_scenario(json.dumps(minimal_born(schema=99)))

    def test_non_hermitian_piece_names_path(self):
        bad = [[[0.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]
        doc = minimal_born(
            hamiltonian={"pieces": [{"t_start": 0.0, "t_end": 1.0, "matrix": bad}]},
            query={"kind": "born", "time": 1.0, "outcomes": "z"},
        )
        with pytest.raises(ValidationError, match=r"hamiltonian\.pieces\[0\]"):
            parse_scenario(json.dumps(doc))

    def test_fixed_point_outside_coverage_names_time(self):
        doc = minimal_born(fixed_points=[{"time": 7.5, "state": "z:0"}])
        with pytest.raises(ValidationError, match="7.5"):
            parse_scenario(json.dumps(doc))

    def test_unnormalized_state_rejected(self):
        doc = minimal_born(
            fixed_points=[{"time": 0.0, "state": [[0.5, 0.0], [0.5, 0.0]]}]
        )
        with pytest.raises(ValidationError, match="norm"):
            parse_scenario(json.dumps(doc))

    def test_named_states_expand(self):
        doc = minimal_born(fixed_points=[{"time": 0.0, "state": "x:+"}])
        s = parse_scenario(json.dumps(doc))
        assert s.fixed_points[0].state[0] == pytest.approx(1 / math.sqrt(2))

    def test_unknown_basis_in_state(self):
        doc = minimal_born(fixed_points=[{"time": 0.0, "state": "w:0"}])
        with pytest.raises(ValidationError, match="w"):
            parse_scenario(json.dumps(doc))

    def test_builtin_basis_shadowing_rejected(self):
        doc = minimal_born(bases={"z": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
        with pytest.raises(SchemaError, match="built-in"):
            parse_scenario(json.dumps(doc))

    def test_unknown_tolerance_field(self):
        doc = minimal_born(tolerances={"bogus": 1e-3})
        with pytest.raises(SchemaError, match="bogus"):
            parse_scenario(json.dumps(doc))

    def test_born_needs_one_fixed_point(self):
        doc = minimal_born(
            fixed_points=[
                {"time": 0.0, "state": "z:0"},
                {"time": 0.1, "state": "z:1"},
            ]
        )
        with pytest.raises(ValidationError, match="exactly one"):
            parse_scenario(json.dumps(doc))

    def test_measurement_time_must_follow_preparation(self):
        doc = minimal_born(query={"kind": "born", "time": 0.0, "outcomes": "z"})
        with pytest.raises(ValidationError):
            parse_scenario(json.dumps(doc))


class TestRoundTrip:
    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_parse_serialize_round_trip(self, kind):
        s = random_scenario(17, 3, 2, kind)
        text = serialize_scenario(s)
        again = parse_scenario(text)
        assert again == s
        assert serialize_scenario(again) == text

    def test_branch_override_round_trips(self):
        doc = minimal_born(
            hamiltonian={
                "pieces": [{"t_start": 0.0, "t_end": QUARTER, "matrix": SX}],
                "branch_override": [
                    {"t_start": 0.0, "t_end": QUARTER, "matrix": ZERO2}
                ],
            }
        )
        s = parse_scenario(json.dumps(doc))
        assert s.schedule.branch_override is not None
        assert parse_scenario(serialize_scenario(s)) == s

    @pytest.mark.parametrize("kind", ["born", "abl", "chain"])
    def test_serialized_scenario_runs_to_the_same_report(self, kind):
        # the basis a slot holds is the one written, whatever its name
        for seed in range(50):
            s = random_scenario(seed, 2 + seed % 7, 1 + seed % 4, kind)
            (t, name, basis), *rest = s.query.slots
            swapped = random_basis(np.random.default_rng(1000 + seed), len(basis))
            s = replace(s, query=replace(s.query, slots=((t, name, swapped), *rest)))
            assert run(s).to_json() == run(parse_scenario(serialize_scenario(s))).to_json(), seed

    def test_one_name_for_two_bases_is_refused(self):
        # a file names one basis per name: the second slot's would read back as the first's
        s = random_scenario(3, 3, 2, "chain")
        (t0, _, b0), (t1, _, b1) = s.query.slots
        shared = replace(s, query=replace(s.query, slots=((t0, "a0", b0), (t1, "a0", b1))))
        with pytest.raises(ValueError, match="^query slot 'a0' holds another basis"):
            serialize_scenario(shared)
        same = replace(s, query=replace(s.query, slots=((t0, "a0", b0), (t1, "a0", b0))))
        assert run(parse_scenario(serialize_scenario(same))).to_json() == run(same).to_json()

    @pytest.mark.parametrize("name, dim", [("z", 3), ("x", 2), ("x", 3)])
    def test_a_built_in_name_for_another_basis_is_refused(self, name, dim):
        # a file may not define z or x, so a slot of that name reads back as the
        # built-in (or, for x outside dim 2, as no basis at all)
        s = random_scenario(3, dim, 2, "chain")
        (t0, _, b0), rest = s.query.slots
        renamed = replace(s, query=replace(s.query, slots=((t0, name, b0), rest)))
        with pytest.raises(ValueError, match=f"^query slot '{name}' holds another basis"):
            serialize_scenario(renamed)
        z = replace(s, query=replace(s.query, slots=((t0, "z", standard_basis(dim)), rest)))
        assert run(parse_scenario(serialize_scenario(z))).to_json() == run(z).to_json()

    @pytest.mark.parametrize(
        "path", sorted(SCENARIOS.glob("*.json")) + sorted(SCENARIOS.glob("gallery/*.json")), ids=lambda p: p.name
    )
    def test_scenario_files_survive_a_round_trip(self, path):
        def outcome(s):
            try:
                return run(s).to_json()
            except FpfError as exc:
                return exc.code

        s = parse_scenario(path.read_bytes())
        assert outcome(parse_scenario(serialize_scenario(s))) == outcome(s)


class TestRandomScenario:
    def test_identical_seed_identical_bytes(self):
        a = serialize_scenario(random_scenario(1, 2, 1, "born"))
        b = serialize_scenario(random_scenario(1, 2, 1, "born"))
        assert a == b

    def test_distinct_seeds_differ(self):
        a = serialize_scenario(random_scenario(1, 2, 1, "born"))
        b = serialize_scenario(random_scenario(2, 2, 1, "born"))
        assert a != b

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_generated_scenarios_parse(self, kind):
        s = random_scenario(5, 4, 3, kind)
        assert parse_scenario(serialize_scenario(s)) == s

    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            random_scenario(0, 1, 1, "born")
        with pytest.raises(ValidationError):
            random_scenario(0, 2, 9, "born")
        with pytest.raises(ValidationError):
            random_scenario(0, 2, 1, "nonsense")

    @pytest.mark.parametrize("seed", range(30))
    def test_born_oracle_deviation_small(self, seed):
        report = run(random_scenario(seed, 2 + seed % 7, 1 + seed % 4, "born"))
        assert report.max_deviation <= 1e-10


class TestRunReports:
    def test_run_is_deterministic(self):
        s = random_scenario(8, 3, 2, "abl")
        assert run(s).to_json() == run(s).to_json()

    def test_report_has_required_fields(self):
        doc = run(random_scenario(8, 2, 1, "born")).to_dict()
        for key in ("measures", "delta_psi", "normalizer", "oracle", "max_deviation", "errors"):
            assert key in doc

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_network_report_counts(self, sizes):
        # layer k holds the identity basis of size sizes[k], at time k
        identity = {n: [[[float(i == j), 0.0] for j in range(n)] for i in range(n)] for n in set(sizes)}
        doc = minimal_born(
            bases={f"id{n}": rows for n, rows in identity.items()},
            hamiltonian={"pieces": [{"t_start": 0.0, "t_end": float(len(sizes)), "matrix": ZERO2}]},
            fixed_points=[],
            query={
                "kind": "network",
                "times": [float(k) for k in range(len(sizes))],
                "bases": [f"id{n}" for n in sizes],
            },
        )
        report = run(parse_scenario(doc))
        pairs = report.extra["adjacent_pairs"]
        assert len(pairs) == len(sizes) - 1
        for i, (pair, n1, n2) in enumerate(zip(pairs, sizes, sizes[1:])):
            assert pair["layers"] == [i, i + 1]
            assert pair["edges"] == pair["expected_edges"] == 2 * n1 * n2
            assert pair["channels"] == pair["expected_channels"] == n1 * n2
        assert report.oracle == [float(2 * n1 * n2) for n1, n2 in zip(sizes, sizes[1:])]
        assert report.extra["edge_count"] == sum(2 * n1 * n2 for n1, n2 in zip(sizes, sizes[1:]))
        assert report.max_deviation == 0.0

    def test_validate_report_residuals(self):
        report = run(random_scenario(13, 4, 3, "validate"))
        assert all(v <= 1e-10 for v in report.extra["checks"].values())

    def test_chain_report_marks_selection(self):
        report = run(random_scenario(23, 2, 2, "chain"))
        sel = report.extra["selected_index"]
        assert report.extra["labels"][sel] == tuple(
            random_scenario(23, 2, 2, "chain").query.selection
        )
        assert abs(report.delta_psi[sel] - report.oracle[0]) <= report.extra[
            "oracle_error_estimate"
        ]


class TestBuiltinBases:
    """A built-in basis is built and checked once per parsed scenario."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = scenario_module.standard_basis

        def counted(dim):
            calls.append(dim)
            return build(dim)

        monkeypatch.setattr(scenario_module, "standard_basis", counted)
        return calls

    @pytest.mark.parametrize(
        "name, code",
        [
            ("born_sx_quarter", 0),
            ("chain_sx_interior", 0),
            ("abl_plus_postselection", 0),
            ("network_2x3", 0),
            ("abl_impossible", 3),
        ],
    )
    def test_one_build_per_run(self, builds, capsys, name, code):
        assert main(["run", str(SCENARIOS / f"{name}.json")]) == code
        assert len(builds) == 1
        assert main(["run", str(SCENARIOS / f"{name}.json")]) == code
        assert len(builds) == 2  # nothing is kept from one run to the next

    def test_each_run_checks_under_its_own_tolerances(self, capsys):
        # the x basis has a Gram defect of 2.2e-16: accepted by default,
        # rejected at basis_orthonormal 0, whatever ran before
        path = str(SCENARIOS / "chain_sx_interior.json")
        assert main(["run", path]) == 0
        capsys.readouterr()
        assert main(["run", path, "--tol-override", "basis_orthonormal=0"]) == 2
        assert capsys.readouterr().err.startswith("VALIDATION_ERROR: basis elements are not orthonormal")
        assert main(["run", path]) == 0
        # a file naming only z never builds x, so nothing fails at 0
        z_only = str(SCENARIOS / "born_sx_quarter.json")
        assert main(["run", z_only, "--tol-override", "basis_orthonormal=0"]) == 0


class TestBasisRows:
    """A basis is one checked matrix: only fixed points copy and check a
    state, and the oracles read the rows of a basis as they are."""

    @pytest.fixture
    def wrapped(self, monkeypatch):
        calls = []
        init = FixedPoint.__post_init__

        def counted(self):
            calls.append(self)
            init(self)

        monkeypatch.setattr(FixedPoint, "__post_init__", counted)
        return calls

    def test_network_file_wraps_no_state(self, wrapped):
        s = parse_scenario((SCENARIOS / "network_2x3.json").read_bytes())
        _, name, basis = s.query.slots[1]
        assert name == "triple" and basis.rows.shape == (3, 3)
        assert wrapped == []

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_custom_basis_file_wraps_only_its_preparation(self, wrapped, dim):
        text = serialize_scenario(random_scenario(3, dim, 2, "born"))
        wrapped.clear()
        s = parse_scenario(text)
        ((_, _, basis),) = s.query.slots
        assert basis.rows.shape == (dim, dim)
        assert len(wrapped) == 1

    @pytest.mark.parametrize("kind", ["born", "abl"])
    def test_born_and_abl_runs_make_no_fixed_point(self, wrapped, kind):
        s = parse_scenario(serialize_scenario(random_scenario(3, 4, 2, kind)))
        wrapped.clear()
        run(s)
        assert wrapped == []

    @pytest.mark.parametrize("slots", [1, 2, 3])
    def test_chain_run_makes_one_fixed_point_per_slot(self, wrapped, slots):
        doc = json.loads((SCENARIOS / "chain_sx_interior.json").read_text())
        t0, t1 = (p["time"] for p in doc["fixed_points"])
        doc["query"]["interior"] = [
            {"time": t0 + (t1 - t0) * (k + 1) / (slots + 1), "outcomes": "x"} for k in range(slots)
        ]
        doc["query"]["selection"] = [0] * slots
        s = parse_scenario(json.dumps(doc))
        wrapped.clear()
        run(s)
        assert len(wrapped) == slots


class TestStackedGenerators:
    """A branch's generators are converted and checked as one stack: one
    `hermitians` call per parsed branch schedule, and no matrix of a valid
    file goes through HermitianOperator's own check."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"stacks": [], "one": 0}
        stacked, init = scenario_module.hermitians, HermitianOperator.__post_init__

        def counted_stack(stack):
            calls["stacks"].append(stack.shape)
            return stacked(stack)

        def counted_one(self):
            calls["one"] += 1
            init(self)

        monkeypatch.setattr(scenario_module, "hermitians", counted_stack)
        monkeypatch.setattr(HermitianOperator, "__post_init__", counted_one)
        return calls

    @staticmethod
    def text(n_pieces, kind, override):
        doc = json.loads(serialize_scenario(random_scenario(n_pieces, 4, n_pieces, kind)))
        if override:
            doc["hamiltonian"]["branch_override"] = json.loads(json.dumps(doc["hamiltonian"]["pieces"]))
        return json.dumps(doc)

    @pytest.mark.parametrize("override", [False, True])
    @pytest.mark.parametrize("kind", QUERY_KINDS)
    @pytest.mark.parametrize("n_pieces", [1, 4])
    def test_one_stack_per_branch_schedule(self, counts, n_pieces, kind, override):
        text = self.text(n_pieces, kind, override)
        counts["one"] = 0  # random_scenario checks its own generators
        s = parse_scenario(text)
        assert counts["stacks"] == [(n_pieces, 4, 4)] * (1 + override)
        assert counts["one"] == 0
        assert s == parse_scenario(text)
        run(s)
        assert counts["one"] == 0

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
    def test_golden_files_check_no_single_generator(self, counts, path):
        parse_scenario(path.read_bytes())
        assert len(counts["stacks"]) == 1
        assert counts["one"] == 0

    def test_a_faulty_stack_is_named_piece_by_piece(self, counts):
        doc = json.loads(self.text(4, "abl", False))
        doc["hamiltonian"]["pieces"][2]["matrix"][0][1] = [3.0, 0.0]
        counts["one"] = 0
        with pytest.raises(ValidationError, match=r"^hamiltonian.pieces\[2\]: operator is not Hermitian"):
            parse_scenario(json.dumps(doc))
        # the stack fails as a whole; the loop then names pieces 0 to 2 one at a time
        assert counts["one"] == 3


S = 1 / math.sqrt(2)


class TestWholeArrayConversion:
    @pytest.fixture
    def no_per_entry_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("valid input reached the per-entry path")

        monkeypatch.setattr(scenario_module, "_entries", refuse)

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
    def test_golden_files_skip_the_per_entry_path(self, no_per_entry_path, path):
        parse_scenario(path.read_bytes())

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_random_scenarios_skip_the_per_entry_path(self, no_per_entry_path, kind):
        s = random_scenario(0, 3, 2, kind)
        assert parse_scenario(serialize_scenario(s)) == s

    def test_decoded_document_parses_like_its_text(self):
        text = serialize_scenario(random_scenario(2, 4, 3, "chain"))
        assert parse_scenario(json.loads(text)) == parse_scenario(text)

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_float64_leaves_take_the_per_entry_path(self, monkeypatch, kind):
        # np.float64 leaves fail the exact-type scan, so every array of this
        # document is read entry by entry, and must read as the text does
        text = serialize_scenario(random_scenario(5, 3, 2, kind))
        doc = json.loads(text, parse_float=np.float64)
        walked = []
        entries = scenario_module._entries
        monkeypatch.setattr(scenario_module, "_entries", lambda *a: walked.append(a[2]) or entries(*a))
        s = parse_scenario(doc)
        assert s == parse_scenario(text) and serialize_scenario(s) == text
        assert "hamiltonian.pieces" in walked

    def test_signed_zeros_and_basis_orientation_round_trip(self):
        # -0.0 in real and imaginary parts of a matrix, a state and a basis
        # whose rows differ from its columns: a whole-array path that loses
        # a sign or transposes would change these bytes
        doc = {
            "schema": 1,
            "dim": 2,
            "hamiltonian": {
                "pieces": [
                    {
                        "t_start": 0.0,
                        "t_end": 1.0,
                        "matrix": [[[-0.0, -0.0], [1.0, -0.0]], [[1.0, 0.0], [0.0, -0.0]]],
                    }
                ],
                "branch_override": None,
            },
            "fixed_points": [{"time": 0.0, "state": [[-0.0, -0.0], [1.0, -0.0]]}],
            "bases": {"m": [[[S, -0.0], [0.0, S]], [[S, 0.0], [-0.0, -S]]]},
            "query": {"kind": "born", "time": 1.0, "outcomes": "m"},
            "tolerances": {},
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert serialize_scenario(parse_scenario(text)) == text


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    pieces=st.integers(1, 4),
    kind=st.sampled_from(QUERY_KINDS),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(seed, dim, pieces, kind):
    s = random_scenario(seed, dim, pieces, kind)
    text = serialize_scenario(s)
    again = parse_scenario(text)
    assert again == s
    assert serialize_scenario(again) == text
