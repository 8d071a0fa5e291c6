import argparse
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import orjson
import pytest

import fpf.cli
import fpf.errors
import fpf.oracle
import fpf.scenario
from fpf.cli import main
from fpf.contour import Branch
from fpf.errors import DomainError, FpfError, ValidationError
from fpf.measure import chain_measure
from fpf.scenario import parse_scenario, random_scenario, run, serialize_scenario
from fpf.tolerances import Tolerances, active_tolerances, tolerance_overrides

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

    def test_only_the_engine_refuses_a_post_selection(self, capsys, tmp_path):
        # a degenerate_normalizer between the oracle's ABL sum and the
        # engine's normalizer is the engine's call alone: the engine accepts
        # the normalizer, so the oracle must answer and the gate compare
        for seed in range(40):
            text = serialize_scenario(random_scenario(seed, 2 + seed % 5, 1 + seed % 3, "abl"))
            scenario = parse_scenario(text)
            src, snk = scenario.fixed_points
            ((t, _, outcomes),) = scenario.query.slots
            u1, u2 = fpf.oracle.propagators(scenario.schedule, Branch.FORWARD, (src.t, t, snk.t))
            fwd, back = u1.mat @ src.state, u2.mat.conj().T @ snk.state
            oracle_sum = sum(float(abs(np.vdot(back, a) * np.vdot(a, fwd)) ** 2) for a in outcomes.rows)
            normalizer = chain_measure(scenario.schedule, (src, snk), [(t, outcomes)], None).normalizer
            if oracle_sum < normalizer:
                break
        else:
            pytest.fail("no seed below 40 has an oracle sum below the engine's normalizer")
        doc = json.loads(text)
        doc["tolerances"] = {"degenerate_normalizer": oracle_sum}
        path = _write(tmp_path, doc)
        code, out, err = run_cli(capsys, "run", path)
        assert (code, err) == (0, "") and out
        report = run(parse_scenario(Path(path).read_bytes()))
        assert report.max_deviation <= report.oracle_bound

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

    @pytest.mark.parametrize("slots", [0, 3])
    def test_one_joint_chain_table_prints_its_oracle_line(self, capsys, tmp_path, slots):
        # one joint and one oracle value, which is still the selected raw
        # weight, not a per-outcome column: no slots, or dim-1 slots
        if slots:
            doc = _chain_doc(1, slots, "z")
        else:
            doc = json.loads((SCENARIOS / "chain_sx_interior.json").read_text())
            doc["query"] = {"kind": "chain", "interior": [], "selection": []}
        path = _write(tmp_path, doc)
        code, out, err = run_cli(capsys, "run", path, "--format", "table")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[1].split() == ["outcome", "delta_psi", "measure"]
        assert lines[2].startswith(f"{[0] * slots} ") and lines[2].split()[-1] == "1.000000000000"
        assert f"oracle: {json.loads(run_cli(capsys, 'run', path)[1])['oracle']}" in lines

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

    def test_measure_sum_override_refuses_rounding(self, capsys, tmp_path):
        # this file's ABL measures sum to 1 - 2**-53 in floating point
        _, doc, _ = run_cli(
            capsys, "random", "--seed", "0", "--dim", "5", "--pieces", "2", "--query", "abl"
        )
        path = tmp_path / "abl.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 0 and out and err == ""
        code, out, err = run_cli(capsys, "run", str(path), "--tol-override", "measure_sum=0")
        assert (code, out) == (4, "")
        assert err == "NUMERICAL_CHECK_FAILURE: measures sum to 0.9999999999999999, not 1\n"


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

    def test_wrong_time_reversal_fails_the_reversal_check(self, capsys, tmp_path, monkeypatch):
        # validate's U(t1 -> t0) comes from the engine; with the engine
        # handing out U(t0 -> t1) for a reversed pair, only reversal can see it
        _, doc, _ = run_cli(capsys, "random", "--seed", "0", "--dim", "4", "--pieces", "3", "--query", "validate")
        path = _write(tmp_path, json.loads(doc))
        code, out, err = run_cli(capsys, "run", path)
        checks = json.loads(out)["checks"]
        assert (code, err) == (0, "") and checks["reversal"] <= 1e-10
        engine = fpf.dynamics._products

        def forward_only(pieces, w, v, times):
            return [engine(pieces, w, v, sorted(pair))[0] for pair in zip(times, times[1:])]

        monkeypatch.setattr(fpf.dynamics, "_products", forward_only)
        code, out, err = run_cli(capsys, "run", path)
        assert (code, out) == (4, "")
        assert err.startswith("NUMERICAL_CHECK_FAILURE: propagator law residual ")

    def test_a_tight_unitary_tolerance_is_refused_before_the_checks(self, capsys, tmp_path):
        # the engine's propagator check holds U(t0 -> t1) to `unitary` first,
        # so a unitarity residual above it is a validation error, never exit 4
        _, doc, _ = run_cli(capsys, "random", "--seed", "0", "--dim", "4", "--pieces", "3", "--query", "validate")
        path = _write(tmp_path, json.loads(doc))
        code, out, err = run_cli(capsys, "run", path, "--tol-override", "unitary=1e-15")
        assert (code, out) == (2, "")
        _one_error_line(err, "VALIDATION_ERROR")
        assert err.startswith("VALIDATION_ERROR: matrix is not unitary: ||U^H U - I||_F = ")


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

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("times, field", [([0.0, 100.0], "[1]"), ([-1.0, 1.0], "[0]")])
    def test_uncovered_layer_time_is_rejected(self, capsys, tmp_path, command, times, field):
        doc = json.loads((SCENARIOS / "network_2x3.json").read_text())
        doc["query"]["times"] = times
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")
        assert f"query.times{field}: " in err and "outside schedule coverage" in err


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

    def test_negative_seed_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "random", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "VALIDATION_ERROR: seed must be non-negative, got -1\n"
        with pytest.raises(ValidationError, match="^seed must be non-negative, got -7$"):
            random_scenario(-7, 2, 1, "born")


def _chain_doc(dim, slots, outcomes):
    """A chain from z:0 back to z:0 through `slots` interior slots over one
    sigma_x piece (dim 2) or a constant energy (dim 1)."""
    matrix = [[[0.5, 0.0]]] if dim == 1 else [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    return {
        "schema": 1,
        "dim": dim,
        "hamiltonian": {"pieces": [{"t_start": 0.0, "t_end": 1.0, "matrix": matrix}]},
        "fixed_points": [{"time": 0.0, "state": "z:0"}, {"time": 1.0, "state": "z:0"}],
        "query": {
            "kind": "chain",
            "interior": [{"time": (k + 1) / (slots + 1), "outcomes": outcomes} for k in range(slots)],
            "selection": [0] * slots,
        },
    }


def _near_unit_w(doc):
    """doc with basis w, the x basis with its first row scaled by 1 + 3e-11:
    inside basis_orthonormal (Gram defect 6e-11), past state_norm."""
    r = 2**-0.5
    s = (1 + 3e-11) * r
    doc["bases"] = {"w": [[[s, 0.0], [s, 0.0]], [[r, 0.0], [-r, 0.0]]]}
    return doc


class TestNearUnitBasis:
    """A basis the parser accepts is accepted by every query kind that
    reads it: the chain's oracle holds no state to a norm of its own."""

    @pytest.mark.parametrize("kind", ["born", "abl", "chain", "chain-endpoint"])
    def test_every_kind_runs(self, capsys, tmp_path, kind):
        doc = _near_unit_w(json.loads((SCENARIOS / "chain_sx_interior.json").read_text()))
        t = doc["query"]["interior"][0]["time"]
        if kind == "born":
            doc["fixed_points"] = doc["fixed_points"][:1]
            doc["query"] = {"kind": "born", "time": t, "outcomes": "w"}
        elif kind == "abl":
            doc["query"] = {"kind": "abl", "time": t, "outcomes": "w"}
        elif kind == "chain":
            doc["query"]["interior"][0]["outcomes"] = "w"
        else:  # a row of w as the chain's sink
            doc["fixed_points"][1]["state"] = "w:0"
        code, out, err = run_cli(capsys, "run", _write(tmp_path, doc))
        assert (code, err) == (0, ""), err
        assert json.loads(out)["query"]["kind"] == doc["query"]["kind"]


class TestStructuralExtremes:
    @pytest.mark.parametrize("slots", [62, 63, 200])
    def test_many_dim1_slots_make_one_joint(self, capsys, tmp_path, slots):
        # one numpy axis per slot would stop at 64 axes
        code, out, err = run_cli(capsys, "run", _write(tmp_path, _chain_doc(1, slots, "z")))
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["labels"] == [[0] * slots]
        assert doc["measures"] == [1.0] and doc["delta_psi"] == [pytest.approx(1.0, abs=1e-12)]

    @pytest.mark.parametrize("slots", [16, 17])
    def test_joints_are_capped_at_65536(self, capsys, tmp_path, slots):
        # 2**slots joint outcomes: 16 slots reach the cap, 17 pass it
        code, out, err = run_cli(capsys, "run", _write(tmp_path, _chain_doc(2, slots, "z")))
        if slots == 16:
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert len(doc["labels"]) == 65_536
            assert math.fsum(doc["measures"]) == pytest.approx(1.0, abs=1e-12)
        else:
            assert (code, out) == (2, "")
            assert err == "INSTANCE_TOO_LARGE: 131072 joint outcomes exceed the limit of 65536\n"

    @pytest.mark.parametrize("layers, want", [(2, 0), (5, 2)])
    def test_network_edges_are_capped_before_they_are_built(self, capsys, tmp_path, layers, want):
        # one 100-element basis per layer in a dim-1 scenario: 20,000 lines per layer pair
        doc = _born_doc(dim=1, fixed_points=[])
        doc["hamiltonian"]["pieces"][0]["matrix"] = [[[0.5, 0.0]]]
        doc["bases"] = {"big": [[[float(i == j), 0.0] for j in range(100)] for i in range(100)]}
        doc["query"] = {"kind": "network", "times": [k / layers for k in range(layers)], "bases": ["big"] * layers}
        code, out, err = run_cli(capsys, "run", _write(tmp_path, doc))
        assert code == want
        if want:
            assert out == ""
            assert err == "INSTANCE_TOO_LARGE: 80000 network branch lines exceed the limit of 65536\n"
        else:
            assert err == "" and json.loads(out)["edge_count"] == 20_000

    @pytest.mark.parametrize("side", ["before", "after"])
    @pytest.mark.parametrize("kind", ["born", "abl", "network", "validate", "chain-0", "chain-1"])
    def test_queries_wholly_in_the_schedule_slack_run(self, capsys, tmp_path, side, kind):
        # every time lies within schedule_gap (1e-9) outside the one piece on
        # [0, 1]: no span is left to step, and a chain's oracle runs on
        # identity propagation, equal to the engine's weight to rounding
        t0, t1, t2 = {"before": (-5e-10, -3e-10, -1e-10), "after": (1 + 1e-10, 1 + 3e-10, 1 + 5e-10)}[side]
        pre, post = {"time": t0, "state": "z:0"}, {"time": t2, "state": "x:+"}
        points, query = {
            "born": ([pre], {"kind": "born", "time": t2, "outcomes": "x"}),
            "abl": ([pre, post], {"kind": "abl", "time": t1, "outcomes": "x"}),
            "network": ([], {"kind": "network", "times": [t0, t1, t2], "bases": ["z", "x", "z"]}),
            "validate": ([pre], {"kind": "validate"}),
            "chain-0": ([pre, post], {"kind": "chain", "interior": [], "selection": []}),
            "chain-1": ([pre, post], {"kind": "chain", "interior": [{"time": t1, "outcomes": "x"}], "selection": [0]}),
        }[kind]
        code, out, err = run_cli(capsys, "run", _write(tmp_path, _born_doc(fixed_points=points, query=query)))
        assert (code, err) == (0, "")
        report = json.loads(out)
        if kind.startswith("chain"):
            assert report["oracle"] == [pytest.approx(report["delta_psi"][report["selected_index"]], abs=1e-15)]

    def test_closed_stdout_ends_without_a_traceback(self, tmp_path):
        # 1,024 joints give a report larger than a pipe buffer
        path = _write(tmp_path, _chain_doc(2, 10, "x"))
        src = str(Path(fpf.cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fpf.cli", "run", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""  # no traceback, no "Exception ignored"


def test_import_runs_9_dataclass_decorations():
    # each decoration costs start-up time in every `fpf` process; the
    # counter is the one scripts/tree_facts.py records for both sides
    spec = importlib.util.spec_from_file_location("tree_facts", SCENARIOS.parent / "scripts" / "tree_facts.py")
    tree_facts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tree_facts)
    decorated = tree_facts.dataclass_decorations(Path(fpf.cli.__file__).resolve().parent.parent)
    assert len(decorated) == 9, decorated
    assert "fpf.oracle.DensityMatrix" not in decorated


def test_no_record_hides_state():
    # every field of an fpf dataclass is given to __init__ and seen by == and
    # repr, so a record holds no cache that earlier calls fill
    package = Path(fpf.cli.__file__).resolve().parent
    records = set()
    for name in (p.stem for p in package.glob("*.py") if p.stem != "__init__"):
        module = importlib.import_module(f"fpf.{name}")
        records |= {cls for cls in vars(module).values() if isinstance(cls, type) and is_dataclass(cls)}
    assert {"HamiltonianSchedule", "Scenario", "Query", "Basis"} <= {cls.__name__ for cls in records}
    hidden = [f"{cls.__name__}.{f.name}" for cls in records for f in fields(cls) if not (f.init and f.compare and f.repr)]
    assert hidden == []


# imports each fpf.<name> of argv alone, with no fpf module loaded before it
IMPORT_EACH_ALONE = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [key for key in sys.modules if key.partition(".")[0] == "fpf"]:
        del sys.modules[loaded]
    importlib.import_module(f"fpf.{name}")
    print(name)
"""


def test_each_module_imports_alone():
    # the package root imports nothing, so no fixed import order hides a cycle
    package = Path(fpf.cli.__file__).resolve().parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert "cli" in modules and "scenario" in modules
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH_ALONE, *modules], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == modules


# finite rows whose Gram product overflows to NaN
NAN_GRAM_BASIS = [[[1e200, 1e200], [1e200, -1e200]], [[1e200, 0.0], [-1e200, 0.0]]]


def _uses_nan_gram_basis(doc):
    doc.setdefault("bases", {})["big"] = NAN_GRAM_BASIS
    query = doc["query"]
    if query["kind"] == "network":
        query["bases"][0] = "big"
    elif query["kind"] == "chain":
        query["interior"][0]["outcomes"] = "big"
    else:
        query["outcomes"] = "big"
    return doc


class TestNanGramBasis:
    """A basis whose Gram product overflows to NaN fails the orthonormality
    check (NaN > tol is False, so the check asks for defect <= tol): run and
    validate both end in one line."""

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "name", ["born_sx_quarter", "abl_plus_postselection", "chain_sx_interior", "network_2x3"]
    )
    def test_refused_with_one_line(self, capsys, tmp_path, command, name):
        doc = _uses_nan_gram_basis(json.loads((SCENARIOS / f"{name}.json").read_text()))
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert code == 2 and out == ""
        assert err == "VALIDATION_ERROR: bases.big: basis elements are not orthonormal within tolerance\n"


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


STATE = "fixed_points[0].state"
BAD_ELEMENT = "SCHEMA_ERROR: " + STATE + ": bad basis element {!r}"


STATE_NAMES = [
    ("z", f"SCHEMA_ERROR: {STATE}: state names look like 'basis:element'"),
    ("z:", f"SCHEMA_ERROR: {STATE}: state names look like 'basis:element'"),
    ("w:0", f"VALIDATION_ERROR: {STATE}: unknown basis 'w'"),
    ("w3:0", f"VALIDATION_ERROR: {STATE}: basis 'w3' has dim 3, not 2"),
    *[(f"z:{key}", BAD_ELEMENT.format(key)) for key in [" 1", "1 ", "١", "-0", "-1", "+1", "1_0", "1.0", "one"]],
    ("z:+", BAD_ELEMENT.format("+")),
    ("z:" + "1" * 5000, BAD_ELEMENT.format("1" * 5000)),  # past int()'s digit limit
    ("z:2", f"VALIDATION_ERROR: {STATE}: element 2 out of range for 'z'"),
    ("z:1", (0.0, 1.0)),
    ("z:01", (0.0, 1.0)),
    ("x:+", (2**-0.5, 2**-0.5)),
    ("x:-", (2**-0.5, -(2**-0.5))),
    ("x:1", (2**-0.5, -(2**-0.5))),
]


@pytest.mark.parametrize("state, want", STATE_NAMES, ids=[state[:8] for state, _ in STATE_NAMES])
def test_state_names(capsys, tmp_path, state, want):
    """A named state is 'basis:element', the element in ASCII decimal digits
    or, in the x basis, '+' or '-'; each other spelling ends in one line."""
    doc = json.loads((SCENARIOS / "born_sx_quarter.json").read_text())
    doc["bases"] = {"w3": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]}
    doc["fixed_points"][0]["state"] = state
    code, out, err = run_cli(capsys, "run", _write(tmp_path, doc))
    if isinstance(want, str):
        assert (code, out, err) == (2, "", want + "\n")
    else:
        assert (code, err) == (0, "")
        assert parse_scenario(json.dumps(doc)).fixed_points[0].state.tolist() == pytest.approx(list(want))


def _split_schedule(doc):
    """The one piece cut in two at its middle, with a gap of 0.1 between."""
    (piece,) = doc["hamiltonian"]["pieces"]
    middle = piece["t_end"] / 2
    doc["hamiltonian"]["pieces"] = [{**piece, "t_end": middle}, {**piece, "t_start": middle + 0.1}]


def _post_selected_at_the_end(doc):
    doc["fixed_points"].append({"time": doc["query"]["time"], "state": "z:0"})
    doc["query"]["kind"] = "abl"


def _outcomes_of_dim_3(doc):
    doc["bases"] = {"m3": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]}
    doc["query"]["outcomes"] = "m3"


QUERY_LINES = [
    (
        "gap",
        _split_schedule,
        "hamiltonian: schedule pieces must be contiguous: piece ending at 0.39269908169872414 "
        "is followed by one starting at 0.4926990816987241",
    ),
    (
        "abl-one-point",
        lambda doc: doc["query"].update(kind="abl"),
        "abl queries need exactly two fixed points (pre and post)",
    ),
    ("abl-at-post", _post_selected_at_the_end, "query.time must lie strictly between the selections"),
    ("unknown-outcomes", lambda doc: doc["query"].update(outcomes="nope"), "query references unknown basis 'nope'"),
    ("outcomes-dim", _outcomes_of_dim_3, "outcome basis 'm3' has dim 3, scenario has dim 2"),
]


@pytest.mark.parametrize("change, message", [case[1:] for case in QUERY_LINES], ids=[case[0] for case in QUERY_LINES])
def test_query_and_schedule_lines(capsys, tmp_path, change, message):
    doc = json.loads((SCENARIOS / "born_sx_quarter.json").read_text())
    change(doc)
    code, out, err = run_cli(capsys, "run", _write(tmp_path, doc))
    assert (code, out, err) == (2, "", f"VALIDATION_ERROR: {message}\n")


def test_an_empty_basis_name_names_outcomes(capsys, tmp_path):
    """A basis named "" serves as an outcome basis, as it serves a state or
    a network layer; with no such basis the query names an unknown one."""
    doc = json.loads((SCENARIOS / "born_sx_quarter.json").read_text())
    identity = [[[float(i == j), 0.0] for j in range(2)] for i in range(2)]
    measures = []
    for name in ("", "m"):
        doc["bases"], doc["query"]["outcomes"] = {name: identity}, name
        code, out, err = run_cli(capsys, "run", _write(tmp_path, doc))
        assert (code, err) == (0, "")
        measures.append(json.loads(out)["measures"])
    assert measures[0] == measures[1]
    doc["bases"], doc["query"]["outcomes"] = {}, ""
    code, out, err = run_cli(capsys, "run", _write(tmp_path, doc))
    assert (code, out, err) == (2, "", "VALIDATION_ERROR: query references unknown basis ''\n")


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
    def test_null_blocks_are_empty(self, capsys, tmp_path, command):
        path = _write(tmp_path, _born_doc(bases=None, tolerances=None))
        code, _, err = run_cli(capsys, command, path)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("bases", [[1], 1, "x", True, [], 0, False, ""])
    def test_non_object_bases_is_a_schema_error(self, capsys, tmp_path, command, bases):
        code, out, err = run_cli(capsys, command, _write(tmp_path, _born_doc(bases=bases)))
        assert code == 2 and out == ""
        _one_error_line(err, "SCHEMA_ERROR")
        assert "scenario.bases" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("outcomes", [5, None, ["m"], True])
    @pytest.mark.parametrize(
        "name, keys",
        [
            ("born_sx_quarter", ("query", "outcomes")),
            ("abl_plus_postselection", ("query", "outcomes")),
            ("chain_sx_interior", ("query", "interior", 0, "outcomes")),
        ],
        ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)),
    )
    def test_non_string_outcomes_is_a_schema_error(
        self, capsys, tmp_path, command, outcomes, name, keys
    ):
        # a basis named "5" must not answer to the number 5
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        doc["bases"] = {"5": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        target[last] = outcomes
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert (code, out, err) == (2, "", f"SCHEMA_ERROR: {path}: expected a basis name\n")

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("fixed_points", ["absent", None])
    def test_null_fixed_points_are_none(self, capsys, tmp_path, command, fixed_points):
        doc = _born_doc(query={"kind": "validate"})
        if fixed_points == "absent":
            del doc["fixed_points"]
        else:
            doc["fixed_points"] = fixed_points
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert code == 0 and err == ""
        assert parse_scenario(json.dumps(doc)).fixed_points == ()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("fixed_points", [{}, 1, "z:0", True, 0, False, ""])
    def test_non_list_fixed_points_is_a_schema_error(
        self, capsys, tmp_path, command, fixed_points
    ):
        doc = _born_doc(query={"kind": "validate"}, fixed_points=fixed_points)
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert (code, out, err) == (2, "", "SCHEMA_ERROR: scenario.fixed_points: expected a list\n")

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

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "base, keys",
        [
            ("born", ("hamiltonian", "pieces", 0, "t_start")),
            ("born", ("hamiltonian", "pieces", 0, "t_end")),
            ("override", ("hamiltonian", "branch_override", 0, "t_start")),
            ("override", ("hamiltonian", "branch_override", 0, "t_end")),
            ("born", ("fixed_points", 0, "time")),
            ("born", ("query", "time")),
            ("validate", ("hamiltonian", "pieces", 0, "t_start")),
            ("chain", ("query", "interior", 0, "time")),
        ],
        ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)),
    )
    def test_non_finite_times_are_rejected(self, capsys, tmp_path, command, value, base, keys):
        # every time field other than the network layer times, which
        # TestNetwork covers: one line naming the field, exit 2
        if base == "chain":
            doc = json.loads((SCENARIOS / "chain_sx_interior.json").read_text())
        else:
            doc = _born_doc(query={"kind": "validate"}) if base == "validate" else _born_doc()
            if base == "override":
                doc["hamiltonian"]["branch_override"] = json.loads(
                    json.dumps(doc["hamiltonian"]["pieces"])
                )
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
        code, out, err = run_cli(capsys, command, _write(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"VALIDATION_ERROR: {path}: expected a finite number, got {value!r}\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"fixed_points": [{"time": 0.0, "state": [[float("nan"), 0.0], [0.0, 0.0]]}]},
                "fixed_points[0].state: state vector contains non-finite entries",
            ),
            (
                {"bases": {"m": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("inf"), 0.0]]]}},
                "bases.m: basis contains non-finite entries",
            ),
        ],
        ids=["state", "basis"],
    )
    def test_non_finite_entry_names_its_field(self, capsys, tmp_path, command, changes, message):
        code, out, err = run_cli(capsys, command, _write(tmp_path, _born_doc(**changes)))
        assert (code, out, err) == (2, "", f"VALIDATION_ERROR: {message}\n")

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

    def test_long_span_is_refused_before_the_oracle_decays(self, capsys, tmp_path):
        # a z:0 -> z:0 chain over 1000 time units: at 256 coarse steps per
        # 500-unit span ||h||_1*|dt| is 1.95, where both RK4 runs decay toward
        # zero (the fine one to 4.5e-6, against a weight of 0.25) and agree
        doc = _stretched("chain_sx_interior.json", 1000.0)
        doc["fixed_points"][1] = {"time": 1000.0, "state": "z:0"}
        doc["query"]["interior"][0]["time"] = 500.0
        code, out, err = run_cli(capsys, "run", _write(tmp_path, doc))
        assert code == 2 and out == ""
        _one_error_line(err, "INSTANCE_TOO_LARGE")
        assert "1.953e+00" in err


class TestExitCodes:
    def test_each_family_carries_its_exit_code(self):
        families = [
            cls for cls in vars(fpf.errors).values()
            if isinstance(cls, type) and issubclass(cls, FpfError)
        ]
        assert len(families) == 10
        for cls in families:
            if issubclass(cls, ValidationError):
                assert cls.exit_code == 2, cls
            elif issubclass(cls, DomainError):
                assert cls.exit_code == 3, cls
            else:
                assert cls.exit_code == 4, cls

    def test_uncategorized_engine_error_is_internal(self, capsys, monkeypatch):
        def fail(scenario):
            raise FpfError("unexpected\n  state")

        monkeypatch.setattr(fpf.cli, "run", fail)
        code, out, err = run_cli(capsys, "run", str(SCENARIOS / "born_sx_quarter.json"))
        assert (code, out, err) == (4, "", "FPF_ERROR: unexpected state\n")


class TestReadme:
    TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_every_printable_code_is_listed(self):
        # DomainError names a family; no code raises it bare
        codes = {
            cls.code for cls in vars(fpf.errors).values()
            if isinstance(cls, type) and issubclass(cls, FpfError) and cls is not DomainError
        }
        assert {code for code in codes if f"`{code}`" not in self.TEXT} == set()

    def test_every_dotted_name_resolves(self):
        unresolved = set()
        for name in set(re.findall(r"(?<![\w/.])fpf(?:\.\w+)+", self.TEXT)):
            try:
                pkgutil.resolve_name(name)
            except (ImportError, AttributeError):
                unresolved.add(name)
        assert unresolved == set()


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
    F = str(SCENARIOS / "born_sx_quarter.json")
    COMMANDS = "(choose from 'run', 'validate', 'random')"

    # each argv's exact stderr line, the same whether argv reaches argparse
    # whole or after its command name
    @pytest.mark.parametrize(
        "argv, line",
        [
            ([], "fpf: the following arguments are required: command"),
            (["bogus"], f"fpf: argument command: invalid choice: 'bogus' {COMMANDS}"),
            (["run"], "fpf run: the following arguments are required: file"),
            (["validate"], "fpf validate: the following arguments are required: file"),
            (["random"], "fpf random: the following arguments are required: --seed"),
            (["run", F, "--bogus"], "fpf: unrecognized arguments: --bogus"),
            (["run", F, "extra"], "fpf: unrecognized arguments: extra"),
            (["run", F, "--", "x", "-y"], "fpf: unrecognized arguments: x -y"),
            (["validate", F, "x"], "fpf: unrecognized arguments: x"),
            (["--bogus", "run", F], "fpf: unrecognized arguments: --bogus"),
            (["run", F, "--format", "xml"], "fpf run: argument --format: invalid choice: 'xml' (choose from 'json', 'table')"),
            (["run", F, "--tol-override"], "fpf run: argument --tol-override: expected one argument"),
            (["random", "--seed", "x"], "fpf random: argument --seed: invalid int value: 'x'"),
            (["network", "f"], f"fpf: argument command: invalid choice: 'network' {COMMANDS}"),
        ],
    )
    def test_one_error_line(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (2, "", f"VALIDATION_ERROR: {line}\n")

    def test_option_prefix_is_matched(self, capsys):
        # argparse reads --form as --format
        table = run_cli(capsys, "run", self.F, "--format", "table")
        assert table[0] == 0 and table[1].startswith("query: born")
        assert run_cli(capsys, "run", "--form", "table", self.F) == table

    @pytest.mark.parametrize("argv, usage", [(["--help"], "usage: fpf "), (["run", "-h"], "usage: fpf run ")])
    def test_help_still_exits_zero(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(usage) and err == ""


class TestFixedWork:
    """What one `fpf` call costs around the physics, pinned as call counts,
    which repeat exactly from run to run: one argparse pass, and no call of
    numpy's Python-level norm, max or sum wrappers."""

    def test_counts(self, capsys, monkeypatch, tmp_path):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
        monkeypatch.setattr(np, "max", counted("max", np.max))
        monkeypatch.setattr(np, "sum", counted("sum", np.sum))
        parse = counted("parse_known_args", argparse.ArgumentParser.parse_known_args)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse)
        validate = tmp_path / "validate.json"
        commands = [["random", "--seed", "3", "--dim", "3", "--pieces", "2", "--query", "validate"]]
        commands += [["run", str(f)] for f in sorted(SCENARIOS.glob("*.json"))] + [["run", str(validate)]]
        assert len(commands) >= 7
        for argv in commands:
            calls.clear()
            code, out, _ = run_cli(capsys, *argv)
            if argv[0] == "random":
                validate.write_text(out)
            assert code in (0, 3) and calls == ["parse_known_args"], (argv, calls)


class TestDecodeOnce:
    """A valid file is decoded once, by orjson; a file that orjson refuses
    (a NaN literal, here) is decoded once more, by json."""

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("nan", [False, True], ids=["valid", "nan-literal"])
    def test_file_is_decoded_once(self, capsys, monkeypatch, tmp_path, command, nan):
        loads, fast_loads, parse = json.loads, orjson.loads, fpf.cli.parse_scenario
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)

            return wrapper

        path = SCENARIOS / "chain_sx_interior.json"
        if nan:
            doc = json.loads(path.read_text())
            doc["hamiltonian"]["pieces"][0]["matrix"][0][0] = [float("nan"), 0.0]
            path = Path(_write(tmp_path, doc))
        monkeypatch.setattr(json, "loads", counted(loads))
        monkeypatch.setattr(orjson, "loads", counted(fast_loads))
        monkeypatch.setattr(fpf.cli, "parse_scenario", counted(parse))
        code, _, err = run_cli(capsys, command, str(path))
        assert (code, err == "") == ((2, False) if nan else (0, True))
        assert (calls.count(fast_loads), calls.count(loads), calls.count(parse)) == (1, int(nan), 1)

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


def _huge_basis(doc):
    doc["bases"] = {"m": [[[HUGE, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


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
            (_huge_basis, "SCHEMA_ERROR", "bases.m[0][0][0]: integer beyond float range"),
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
    ([], "SCHEMA_ERROR"),
    (0, "SCHEMA_ERROR"),
    (False, "SCHEMA_ERROR"),
    ("", "SCHEMA_ERROR"),
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


def _loosened(doc, state_norm=1e-3):
    """A preparation of norm 1.0005, accepted by the file's own block."""
    doc["fixed_points"][0]["state"] = [[1.0005, 0.0], [0.0, 0.0]]
    doc["tolerances"] = {"state_norm": state_norm}


def _strict_basis(doc):
    doc["tolerances"] = {"basis_orthonormal": 0}


def _high_floor(doc):
    doc["tolerances"] = {"degenerate_normalizer": 10}


def _scenario_file(tmp_path, name, mutate=None):
    if mutate is None:
        return SCENARIOS / name
    doc = json.loads((SCENARIOS / name).read_text())
    mutate(doc)
    return Path(_write(tmp_path, doc))


class TestLibraryMatchesCli:
    """`run(parse_scenario(text))` prints what `fpf run` prints, or raises
    an error with the code `fpf run` exits with: a file's tolerances block
    governs both."""

    @pytest.mark.parametrize(
        "name, mutate",
        [
            *((path.name, None) for path in sorted(SCENARIOS.glob("*.json"))),
            ("born_sx_quarter.json", _loosened),
            ("chain_sx_interior.json", _strict_basis),
            ("born_sx_quarter.json", _high_floor),
        ],
    )
    def test_same_report_or_code(self, capsys, tmp_path, name, mutate):
        path = _scenario_file(tmp_path, name, mutate)
        code, out, err = run_cli(capsys, "run", str(path))
        if code == 0:
            assert out == run(parse_scenario(path.read_bytes())).to_json() + "\n"
            return
        with pytest.raises(FpfError) as exc:
            run(parse_scenario(path.read_bytes()))
        _one_error_line(err, exc.value.code)


class TestTolerancePrecedence:
    """The in-code context, then the file's block, then flags or explicit
    overrides: each later one wins."""

    def test_flag_beats_file_block(self, capsys, tmp_path):
        path = _scenario_file(tmp_path, "born_sx_quarter.json", _loosened)
        code, out, err = run_cli(capsys, "run", str(path), "--tol-override", "state_norm=1e-12")
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")
        assert "state norm" in err

    def test_explicit_overrides_beat_file_block(self, tmp_path):
        text = _scenario_file(tmp_path, "born_sx_quarter.json", _loosened).read_bytes()
        with pytest.raises(ValidationError, match="state norm"):
            parse_scenario(text, {"state_norm": 1e-12})

    def test_file_block_beats_context(self, tmp_path):
        loose = _scenario_file(tmp_path, "born_sx_quarter.json", _loosened).read_bytes()
        with tolerance_overrides(state_norm=0):
            assert parse_scenario(loose).tolerance_overrides == {"state_norm": 1e-3}
        strict = json.loads(loose)
        _loosened(strict, state_norm=1e-12)
        with tolerance_overrides(state_norm=1e-2):
            with pytest.raises(ValidationError, match="state norm"):
                parse_scenario(json.dumps(strict))

    def test_run_applies_the_block_over_context(self, tmp_path):
        text = _scenario_file(tmp_path, "born_sx_quarter.json", _high_floor).read_bytes()
        with tolerance_overrides(degenerate_normalizer=0):
            scenario = parse_scenario(text)
            with pytest.raises(fpf.errors.DegenerateNormalizer):
                run(scenario)


class TestOverrideContext:
    def test_no_overrides_yield_the_active_record(self):
        with tolerance_overrides() as t:
            assert t is active_tolerances()
        with tolerance_overrides(unitary=1e-3) as outer:
            with tolerance_overrides() as t:
                assert t is outer is active_tolerances()

    def test_overrides_nest_and_restore(self):
        base = active_tolerances()
        with tolerance_overrides(unitary=1e-3) as outer:
            assert active_tolerances() is outer and outer.unitary == 1e-3
            with tolerance_overrides(state_norm=1e-5) as inner:
                assert (inner.unitary, inner.state_norm) == (1e-3, 1e-5)
            assert active_tolerances() is outer
            with tolerance_overrides():
                pass
            assert active_tolerances() is outer
        assert active_tolerances() is base
        assert base == Tolerances()

    def test_an_override_holds_in_its_own_thread_only(self):
        # one thread reads while another is inside an override
        entered, read = threading.Event(), threading.Event()
        seen = []

        def overriding():
            with tolerance_overrides(hermitian=1.0):
                entered.set()
                read.wait(10)
                seen.append(active_tolerances().hermitian)

        def reading():
            assert entered.wait(10)
            seen.append(active_tolerances().hermitian)
            read.set()

        threads = [threading.Thread(target=overriding), threading.Thread(target=reading)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == [1e-12, 1.0]
        assert active_tolerances() == Tolerances()


REMOVED_FIELDS = ["density_hermitian", "density_trace", "density_eigen_floor", "expectation_imag"]


class TestRemovedToleranceFields:
    """The density-matrix and expectation bounds are oracle constants, not
    tolerances: each channel refuses their names."""

    def test_ten_fields(self):
        names = {f.name for f in fields(Tolerances)}
        assert len(names) == 10 and not names & set(REMOVED_FIELDS)

    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_file_block(self, capsys, tmp_path, name, command):
        path = _write(tmp_path, _born_doc(tolerances={name: 1e-3}))
        code, out, err = run_cli(capsys, command, path)
        assert code == 2 and out == ""
        _one_error_line(err, "SCHEMA_ERROR")
        assert f"tolerances.{name}: unknown tolerance field" in err

    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    def test_flag(self, capsys, name):
        born = str(SCENARIOS / "born_sx_quarter.json")
        code, out, err = run_cli(capsys, "run", born, "--tol-override", f"{name}=1e-3")
        assert code == 2 and out == ""
        _one_error_line(err, "VALIDATION_ERROR")
        assert name in err

    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    def test_in_code(self, name):
        with pytest.raises(ValueError, match=name):
            tolerance_overrides(**{name: 1e-3})
        with pytest.raises(ValueError, match=name):
            parse_scenario((SCENARIOS / "born_sx_quarter.json").read_bytes(), {name: 1e-3})


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


def _add_two_faults(case, pieces):
    """Put the faults of a case into schedule pieces, first fault first."""
    if case == "non_hermitian_then_string_time":
        pieces[0]["matrix"][0][1] = [5.0, 0.0]
        pieces[1]["t_start"] = "0.5"
    elif case == "nan_then_wrong_size":
        pieces[0]["matrix"][1][0] = [float("nan"), 0.0]
        pieces[1]["matrix"] = [[[1.0, 0.0]] * 3] * 3
    elif case == "empty_span_then_non_hermitian":
        pieces[1]["t_start"] = pieces[1]["t_end"]
        pieces[2]["matrix"][0][1] = [0.0, 2.0]
    else:  # a bool leaf in the last piece only
        pieces[-1]["matrix"][1][1][0] = True


class TestScheduleFaultOrder:
    """A schedule with two faults names the first, as a piece-by-piece
    parse would, though valid matrices are converted and checked as one
    stack; the lines are pinned from the per-piece parser."""

    LINES = {
        "non_hermitian_then_string_time": "VALIDATION_ERROR: hamiltonian.{part}[0]: operator is "
        "not Hermitian: defect 7.205e+00 exceeds 1.0e-12 * 5.177e+00",
        "nan_then_wrong_size": "VALIDATION_ERROR: hamiltonian.{part}[0]: Hermitian operator "
        "contains non-finite entries",
        "empty_span_then_non_hermitian": "VALIDATION_ERROR: hamiltonian.{part}[1]: piece must "
        "have t_start < t_end, got [1.1440490406511947, 1.1440490406511947]",
        "bool_leaf_in_last_piece": "SCHEMA_ERROR: hamiltonian.{part}[2].matrix[1][1][0]: "
        "expected a number, got bool",
    }

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("part", ["pieces", "branch_override"])
    @pytest.mark.parametrize("case", sorted(LINES))
    def test_first_fault_names_the_error(self, capsys, tmp_path, case, part, command):
        doc = json.loads(serialize_scenario(random_scenario(0, 2, 3, "abl")))
        ham = doc["hamiltonian"]
        ham["branch_override"] = json.loads(json.dumps(ham["pieces"]))
        _add_two_faults(case, ham[part])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out, err) == (2, "", self.LINES[case].format(part=part) + "\n")
