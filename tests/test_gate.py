"""The oracle decides: `run` refuses a report whose engine and oracle
differ beyond the report's `oracle_bound`, with exit 4 and one line."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import fpf.measure
from fpf.cli import main
from fpf.scenario import run

ROOT = Path(__file__).resolve().parent.parent
MUTANT_LINE = "NUMERICAL_CHECK_FAILURE: engine and oracle differ by 7.330e-01, above 1.0e-12 (abl)\n"


def _cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def abl_file(capsys, tmp_path):
    code, out, _ = _cli(capsys, "random", "--seed", "3", "--dim", "3", "--pieces", "2", "--query", "abl")
    assert code == 0
    path = tmp_path / "abl.json"
    path.write_text(out)
    return path


@pytest.fixture
def transposed(monkeypatch):
    # the engine applies U^T for U on both branches of measure._segment_amplitudes
    propagators = fpf.measure.propagators
    monkeypatch.setattr(
        fpf.measure, "propagators", lambda *args: [SimpleNamespace(mat=u.mat.T) for u in propagators(*args)]
    )


def test_the_engine_alone_passes_the_gate(capsys, abl_file):
    code, out, err = _cli(capsys, "run", str(abl_file))
    assert (code, err) == (0, "") and json.loads(out)["max_deviation"] < 1e-14


@pytest.mark.usefixtures("transposed")
def test_a_transposed_propagator_exits_4_with_one_line(capsys, abl_file):
    assert _cli(capsys, "run", str(abl_file)) == (4, "", MUTANT_LINE)
    assert _cli(capsys, "run", str(abl_file), "--format", "table") == (4, "", MUTANT_LINE)


@pytest.mark.usefixtures("transposed")
def test_oracle_agreement_is_a_tolerance_on_every_channel(capsys, abl_file, tmp_path):
    code, out, err = _cli(capsys, "run", str(abl_file), "--tol-override", "oracle_agreement=1")
    assert (code, err) == (0, "") and json.loads(out)["max_deviation"] == pytest.approx(0.733, abs=1e-3)
    doc = json.loads(abl_file.read_text())
    doc["tolerances"] = {"oracle_agreement": 1}
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(doc))
    assert _cli(capsys, "run", str(loose))[:2] == (0, out)
    # the flag goes on top of the file's block
    assert _cli(capsys, "run", str(loose), "--tol-override", "oracle_agreement=1e-12") == (4, "", MUTANT_LINE)


def _near_bound_scenario(seed):
    spec = importlib.util.spec_from_file_location("convergence_study", ROOT / "scripts" / "convergence_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.near_bound_scenario(seed)[1]


@pytest.mark.parametrize("seed", [701, 6925, 10712, 11270])
def test_a_chain_whose_estimate_misses_passes_by_the_truncation_bound(seed):
    # near the RK4 oracle's step bound the fine and coarse runs' errors can
    # cancel in their difference: these chains' deviations are 11, 103, 74
    # and 28 times their error estimates, and within the a-priori bound
    report = run(_near_bound_scenario(seed))
    assert report.max_deviation > 10 * report.extra["oracle_error_estimate"]
    assert report.max_deviation <= report.oracle_bound
