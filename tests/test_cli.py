import json
from pathlib import Path

import pytest

from fpf.cli import main
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
        code, out, _ = run_cli(capsys, "network", str(SCENARIOS / "network_2x3.json"))
        assert code == 0
        doc = json.loads(out)
        pair = doc["adjacent_pairs"][0]
        assert pair["edges"] == 12 and pair["channels"] == 6
        assert doc["max_deviation"] == 0.0

    def test_wrong_kind_rejected(self, capsys):
        code, _, err = run_cli(capsys, "network", str(SCENARIOS / "born_sx_quarter.json"))
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "validate", "network"])
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
