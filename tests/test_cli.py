import json
import warnings
from pathlib import Path

import pytest

import fpf.cli
from fpf.cli import main
from fpf.errors import FpfError
from fpf.scenario import parse_scenario, random_scenario, serialize_scenario
from fpf.tolerances import tolerance_overrides

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_born_golden(self, capsys):
        code, out, err = run_cli(capsys, "run", str(SCENARIOS / "born_sx_quarter.json"))
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["measures"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert doc["max_deviation"] <= 1e-10
        assert doc["errors"] == []

    def test_abl_golden(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(SCENARIOS / "abl_plus_postselection.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["measures"] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_impossible_postselection_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "run", str(SCENARIOS / "abl_impossible.json"))
        assert code == 3
        assert out == ""
        line = err.strip().splitlines()
        assert len(line) == 1
        assert line[0].startswith("IMPOSSIBLE_POST_SELECTION:")

    def test_branch_inconsistent_schedule_exit_code(self, capsys, tmp_path):
        # forward sigma_x vs free backward branch: weights over the x basis
        # come out complex, which has no measure
        import math

        quarter = math.pi / 4
        doc = {
            "schema": 1,
            "dim": 2,
            "hamiltonian": {
                "pieces": [
                    {
                        "t_start": 0.0,
                        "t_end": quarter,
                        "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                    }
                ],
                "branch_override": [
                    {
                        "t_start": 0.0,
                        "t_end": quarter,
                        "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    }
                ],
            },
            "fixed_points": [{"time": 0.0, "state": "z:0"}],
            "query": {"kind": "born", "time": quarter, "outcomes": "x"},
        }
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 3
        assert err.startswith("REALNESS_VIOLATION:")

    def test_chain_golden(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(SCENARIOS / "chain_sx_interior.json"))
        assert code == 0
        doc = json.loads(out)
        assert abs(sum(doc["measures"]) - 1.0) <= 1e-10

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", str(SCENARIOS / "born_sx_quarter.json"), "--format", "table"
        )
        assert code == 0
        assert "outcome" in out and "measure" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "no_such_file.json")
        assert code == 2
        assert err.startswith("VALIDATION_ERROR:")

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert err.startswith("SYNTAX_ERROR:")

    def test_run_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "run", str(SCENARIOS / "born_sx_quarter.json"))
        _, out2, _ = run_cli(capsys, "run", str(SCENARIOS / "born_sx_quarter.json"))
        assert out1 == out2


class TestToleranceOverrides:
    @pytest.fixture
    def slightly_crooked(self, tmp_path):
        # Hermitian defect ~1e-11: rejected at the default 1e-12 tolerance
        # but small enough that downstream unitarity checks stay green
        doc = {
            "schema": 1,
            "dim": 2,
            "hamiltonian": {
                "pieces": [
                    {
                        "t_start": 0.0,
                        "t_end": 1.0,
                        "matrix": [
                            [[0.0, 0.0], [1.0, 1e-11]],
                            [[1.0, 0.0], [0.0, 0.0]],
                        ],
                    }
                ]
            },
            "fixed_points": [{"time": 0.0, "state": "z:0"}],
            "query": {"kind": "born", "time": 1.0, "outcomes": "z"},
        }
        path = tmp_path / "crooked.json"
        path.write_text(json.dumps(doc))
        return path

    def test_default_rejects(self, capsys, slightly_crooked):
        code, _, err = run_cli(capsys, "run", str(slightly_crooked))
        assert code == 2
        assert "Hermitian" in err

    def test_override_loosens(self, capsys, slightly_crooked):
        code, out, _ = run_cli(
            capsys, "run", str(slightly_crooked), "--tol-override", "hermitian=1e-9"
        )
        assert code == 0
        assert json.loads(out)["max_deviation"] <= 1e-8

    def test_unknown_override_name(self, capsys, slightly_crooked):
        code, _, err = run_cli(
            capsys, "run", str(slightly_crooked), "--tol-override", "nope=1"
        )
        assert code == 2

    def test_bad_override_syntax(self, capsys, slightly_crooked):
        code, _, err = run_cli(capsys, "run", str(slightly_crooked), "--tol-override", "x")
        assert code == 2

    def test_override_does_not_outlive_its_call(self, capsys, slightly_crooked):
        # the parser is built once per process; a flag given to one call
        # must not leak into the next
        code, _, _ = run_cli(
            capsys, "run", str(slightly_crooked), "--tol-override", "hermitian=1e-9"
        )
        assert code == 0
        code, out, err = run_cli(capsys, "run", str(slightly_crooked))
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")


class TestValidate:
    def test_valid_file(self, capsys):
        code, out, _ = run_cli(capsys, "validate", str(SCENARIOS / "born_sx_quarter.json"))
        assert code == 0
        assert out.startswith("VALID:")

    def test_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1}))
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert err.startswith("SCHEMA_ERROR:")


class TestNetwork:
    def test_network_counts(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(SCENARIOS / "network_2x3.json"))
        assert code == 0
        doc = json.loads(out)
        pair = doc["adjacent_pairs"][0]
        assert pair["edges"] == 12 and pair["channels"] == 6
        assert doc["max_deviation"] == 0.0

    def test_table_format(self, capsys):
        code, out, err = run_cli(
            capsys, "run", str(SCENARIOS / "network_2x3.json"), "--format", "table"
        )
        assert code == 0 and err == ""
        assert "edge_count: 12" in out

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "times", [[float("nan"), 1.0], [0.0, float("nan")], [0.0, float("inf")], [float("-inf"), 1.0]]
    )
    def test_non_finite_layer_times_are_rejected(self, capsys, tmp_path, command, times):
        doc = json.loads((SCENARIOS / "network_2x3.json").read_text())
        doc["query"]["times"] = times
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")
        assert "query.times" in err


class TestRandom:
    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "random", "--seed", "1", "--dim", "2")
        _, out2, _ = run_cli(capsys, "random", "--seed", "1", "--dim", "2")
        assert out1 == out2

    def test_generated_scenario_runs(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "random", "--seed", "4", "--dim", "3", "--pieces", "2", "--query", "abl"
        )
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        assert json.loads(out)["max_deviation"] <= 1e-10


def _born_doc(**changes):
    doc = {
        "schema": 1,
        "dim": 2,
        "hamiltonian": {
            "pieces": [
                {
                    "t_start": 0.0,
                    "t_end": 1.0,
                    "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                }
            ]
        },
        "fixed_points": [{"time": 0.0, "state": "z:0"}],
        "query": {"kind": "born", "time": 1.0, "outcomes": "z"},
    }
    doc.update(changes)
    return doc


def _write(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _one_error_line(err, code):
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(f"{code}:"), err


class TestInputRobustness:
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_file_tolerances_govern_both_commands(self, capsys, tmp_path, command):
        doc = _born_doc(
            fixed_points=[{"time": 0.0, "state": [[1.0005, 0.0], [0.0, 0.0]]}],
            tolerances={"state_norm": 1e-3},
        )
        code, _, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert code == 0 and err == ""

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("bases", [[1], 1, "x", True])
    def test_non_object_bases_is_a_schema_error(self, capsys, tmp_path, command, bases):
        code, out, err = run_cli(capsys, command, _write(tmp_path, _born_doc(bases=bases)))
        assert code == 2 and out == ""
        _one_error_line(err, "SCHEMA_ERROR")
        assert "scenario.bases" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_overflowing_generator_is_rejected(self, capsys, tmp_path, command):
        doc = _born_doc()
        doc["hamiltonian"]["pieces"][0]["matrix"] = [
            [[0.0, 0.0], [0.0, 0.0]],
            [[1e308, 0.0], [0.0, 0.0]],
        ]
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")
        assert "hamiltonian.pieces[0]" in err

    def test_joint_count_guard(self, capsys, tmp_path):
        # 2**17 joint outcomes: twice the enumeration limit
        doc = _born_doc(
            fixed_points=[{"time": 0.0, "state": "z:0"}, {"time": 1.0, "state": "z:0"}],
            query={
                "kind": "chain",
                "interior": [{"time": 0.05 * k, "outcomes": "z"} for k in range(1, 18)],
                "selection": [0] * 17,
            },
        )
        code, out, err = run_cli(capsys, "run", _write(tmp_path, doc))
        assert code == 2 and out == ""
        _one_error_line(err, "INSTANCE_TOO_LARGE")


def _field_paths(node, path=()):
    """Paths to every object member and list element below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _stretched(name, t_end):
    """A golden scenario with its one piece ending at t_end."""
    doc = json.loads((SCENARIOS / name).read_text())
    doc["hamiltonian"]["pieces"][0]["t_end"] = t_end
    return doc


def _far_born(t):
    doc = _stretched("born_sx_quarter.json", t)
    doc["query"]["time"] = t
    return doc


def _far_chain():
    # the interior x outcomes of a z:0 -> z:0 chain over 1e20 time units
    doc = _stretched("chain_sx_interior.json", 1e20)
    doc["fixed_points"][1] = {"time": 1e20, "state": "z:0"}
    doc["query"]["interior"][0]["time"] = 5e19
    return doc


def _huge_validate():
    doc = _stretched("born_sx_quarter.json", 1e300)
    doc["query"] = {"kind": "validate"}
    doc["hamiltonian"]["pieces"][0]["matrix"] = [[[0, 0], [1e10, 0]], [[1e10, 0], [0, 0]]]
    return doc


class TestOverflow:
    """Spans long enough to overflow the oracle or the propagator end in
    one error line: no traceback, no NaN in a report, no numpy warning."""

    @pytest.mark.parametrize(
        "make, code_name",
        [
            pytest.param(lambda: _far_born(1e308), "INSTANCE_TOO_LARGE", id="series-scale"),
            pytest.param(lambda: _far_born(1e20), "INSTANCE_TOO_LARGE", id="series-result"),
            pytest.param(_far_chain, "INSTANCE_TOO_LARGE", id="line-integral"),
            pytest.param(_huge_validate, "VALIDATION_ERROR", id="propagator"),
        ],
    )
    def test_one_error_line(self, capsys, tmp_path, make, code_name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "run", _write(tmp_path, make()))
        assert code == 2 and out == ""
        _one_error_line(err, code_name)


class TestParserFuzz:
    REPLACEMENTS = ([1], 1, "x", None, {}, True, [])

    @pytest.mark.parametrize("name", ["network_2x3.json", "chain_sx_interior.json"])
    def test_every_field_mutation_ends_in_one_error_line(self, capsys, tmp_path, name):
        base = json.loads((SCENARIOS / name).read_text())
        path = tmp_path / name
        for fpath in _field_paths(base):
            for value in self.REPLACEMENTS:
                doc = json.loads(json.dumps(base))
                parent = doc
                for key in fpath[:-1]:
                    parent = parent[key]
                parent[fpath[-1]] = value
                path.write_text(json.dumps(doc))
                code, out, err = run_cli(capsys, "validate", str(path))
                where = (fpath, value, err)
                assert code in (0, 2, 3, 4), where
                if code == 0:
                    assert err == "", where
                else:
                    assert out == "" and len(err.splitlines()) == 1, where


BAD_TOLERANCES = [float("nan"), float("inf"), float("-inf"), -1.0, True]


class TestOutOfSchemaValues:
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_boolean_schema_version(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, command, _write(tmp_path, _born_doc(schema=True)))
        assert code == 2 and out == ""
        _one_error_line(err, "SCHEMA_ERROR")
        assert "scenario.schema" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_float_schema_version(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, command, _write(tmp_path, _born_doc(schema=1.0)))
        assert code == 2 and out == ""
        _one_error_line(err, "SCHEMA_ERROR")
        assert "scenario.schema" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("field", ["unitary", "hermitian"])
    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    def test_bad_tolerance_in_file(self, capsys, tmp_path, command, field, value):
        doc = _born_doc(tolerances={field: value})
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")
        assert f"tolerances.{field}" in err
        assert "not Hermitian" not in err

    @pytest.mark.parametrize("field", ["unitary", "hermitian"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1.0", "true"])
    def test_bad_tolerance_flag(self, capsys, field, value):
        born = str(SCENARIOS / "born_sx_quarter.json")
        code, out, err = run_cli(capsys, "run", born, "--tol-override", f"{field}={value}")
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")
        assert field in err

    def test_zero_tolerance_is_allowed(self, capsys):
        born = str(SCENARIOS / "born_sx_quarter.json")
        code, _, err = run_cli(capsys, "run", born, "--tol-override", "degenerate_normalizer=0")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    def test_bad_tolerance_in_code(self, value):
        with pytest.raises(ValueError, match="tolerances.unitary"):
            tolerance_overrides(unitary=value)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["run"],
            ["run", "f", "--format", "xml"],
            ["random", "--seed", "x"],
            ["network", "f"],  # network files run through `fpf run`
        ],
    )
    def test_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: fpf" in capsys.readouterr().out


class TestDecodeOnce:
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_file_is_decoded_once(self, capsys, monkeypatch, command):
        loads, parse = json.loads, fpf.cli.parse_scenario
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(json, "loads", counted(loads))
        monkeypatch.setattr(fpf.cli, "parse_scenario", counted(parse))
        code, _, err = run_cli(capsys, command, str(SCENARIOS / "chain_sx_interior.json"))
        assert code == 0 and err == ""
        assert calls.count(loads) == 1 and calls.count(parse) == 1

    @pytest.mark.parametrize("flag", ["nope=1", "unitary=nan", "hermitian=-1"])
    def test_bad_flag_on_malformed_file_is_reported_first(self, capsys, tmp_path, flag):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, out, err = run_cli(capsys, "run", str(bad), "--tol-override", flag)
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")


HUGE = 10**400  # an integer literal beyond float range


def _huge_matrix(doc):
    doc["hamiltonian"]["pieces"][0]["matrix"][1][0] = [HUGE, 0.0]


def _huge_t_end(doc):
    doc["hamiltonian"]["pieces"][0]["t_end"] = HUGE


def _huge_query_time(doc):
    doc["query"]["time"] = HUGE


def _huge_state(doc):
    doc["fixed_points"][0]["state"] = [[HUGE, 0.0], [0.0, 0.0]]


def _huge_tolerance(doc):
    doc["tolerances"] = {"unitary": HUGE}


class TestHugeIntegers:
    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "mutate, code_name, where",
        [
            (_huge_matrix, "SCHEMA_ERROR", "hamiltonian.pieces[0].matrix[1][0][0]:"),
            (_huge_t_end, "SCHEMA_ERROR", "hamiltonian.pieces[0].t_end:"),
            (_huge_query_time, "SCHEMA_ERROR", "query.time:"),
            (_huge_state, "SCHEMA_ERROR", "fixed_points[0].state[0][0]:"),
            (_huge_tolerance, "VALIDATION_ERROR", "tolerances.unitary:"),
        ],
    )
    def test_one_line_naming_the_field(self, capsys, tmp_path, command, mutate, code_name, where):
        doc = _born_doc()
        mutate(doc)
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert code == 2 and out == ""
        _one_error_line(err, code_name)
        assert where in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "text",
        [
            # an integer literal past Python's int-to-string digit limit
            '{"schema": 1, "dim": 1' + "0" * 5000 + "}",
            # nesting past the recursion limit
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["digit-limit", "deep-nesting"],
    )
    def test_undecodable_documents_are_syntax_errors(self, capsys, tmp_path, command, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == ""
        _one_error_line(err, "SYNTAX_ERROR")


TOLERANCE_FAULTS = [
    ({"bogus": 1e-3}, "SCHEMA_ERROR"),
    ({"unitary": "1e-3"}, "SCHEMA_ERROR"),
    ({"unitary": None}, "SCHEMA_ERROR"),
    ({"unitary": [1e-3]}, "SCHEMA_ERROR"),
    ({"unitary": {}}, "SCHEMA_ERROR"),
    ([1e-3], "SCHEMA_ERROR"),
    ("strict", "SCHEMA_ERROR"),
    (1e-3, "SCHEMA_ERROR"),
    ({"unitary": float("nan")}, "VALIDATION_ERROR"),
    ({"unitary": float("inf")}, "VALIDATION_ERROR"),
    ({"unitary": float("-inf")}, "VALIDATION_ERROR"),
    ({"unitary": -1.0}, "VALIDATION_ERROR"),
    ({"unitary": -1}, "VALIDATION_ERROR"),
    ({"unitary": True}, "VALIDATION_ERROR"),
    ({"unitary": False}, "VALIDATION_ERROR"),
    ({"unitary": HUGE}, "VALIDATION_ERROR"),
]


class TestToleranceBlockRule:
    """A file's tolerances block gets the same code from every path: a
    block, field or value of the wrong kind is a schema error, a number
    or boolean out of range a validation error."""

    @pytest.mark.parametrize("path", ["run", "validate", "parse_scenario"])
    @pytest.mark.parametrize("block, expected", TOLERANCE_FAULTS)
    def test_same_code_on_every_path(self, capsys, tmp_path, path, block, expected):
        doc = _born_doc(tolerances=block)
        if path == "parse_scenario":
            with pytest.raises(FpfError) as exc:
                parse_scenario(json.dumps(doc))
            assert exc.value.code == expected
            return
        code, out, err = run_cli(capsys, path, _write(tmp_path, doc))
        assert code == 2 and out == ""
        _one_error_line(err, expected)


def _pairs(doc):
    """(path, parent list, index) of every [re, im] pair in the document's
    matrices, explicit states and custom bases, paths as the parser names
    them."""
    ham = doc["hamiltonian"]
    for part in ("pieces", "branch_override"):
        for i, piece in enumerate(ham.get(part) or ()):
            for r, row in enumerate(piece["matrix"]):
                for c in range(len(row)):
                    yield f"hamiltonian.{part}[{i}].matrix[{r}][{c}]", row, c
    for i, point in enumerate(doc["fixed_points"]):
        if isinstance(point["state"], list):
            for j in range(len(point["state"])):
                yield f"fixed_points[{i}].state[{j}]", point["state"], j
    for name, vectors in doc.get("bases", {}).items():
        for v, vector in enumerate(vectors):
            for j in range(len(vector)):
                yield f"bases.{name}[{v}][{j}]", vector, j


LEAF_FAULTS = (True, "0.5", None, [0.5], {})


def _pair_mutations(pair):
    """(mutated pair, the message's tail) for each leaf and length fault."""
    for k in (0, 1):
        for leaf in LEAF_FAULTS:
            bad = list(pair)
            bad[k] = leaf
            yield bad, f"[{k}]: expected a number, got {type(leaf).__name__}"
    for bad in (pair[:1], pair + [0.0]):
        yield bad, ": complex values are [re, im] pairs"


class TestLeafFuzz:
    """Every pair of the arrays the parser converts whole, mutated one
    fault at a time: the whole-array path refuses each, and the per-entry
    path names the faulty leaf or pair."""

    @pytest.mark.parametrize("name", ["network_2x3", "random_abl"])
    def test_each_mutation_names_its_entry(self, capsys, tmp_path, name):
        if name == "random_abl":
            doc = json.loads(serialize_scenario(random_scenario(0, 2, 2, "abl")))
        else:
            doc = json.loads((SCENARIOS / "network_2x3.json").read_text())
        path = tmp_path / "doc.json"
        for where, parent, index in list(_pairs(doc)):
            pair = parent[index]
            for bad, tail in _pair_mutations(pair):
                parent[index] = bad
                path.write_text(json.dumps(doc))
                code, out, err = run_cli(capsys, "validate", str(path))
                assert (code, out, err) == (2, "", f"SCHEMA_ERROR: {where}{tail}\n")
            parent[index] = pair
