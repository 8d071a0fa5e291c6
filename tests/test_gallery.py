"""The gallery: one scenario file per textbook claim, each checked through
`fpf run` against its closed form. The closed forms use only `math`, so
they share no code with the engine or the oracles."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

import fpf.measure
from fpf.cli import main

GALLERY = Path(__file__).resolve().parent.parent / "scenarios" / "gallery"


def _abl_sigma_y():
    # H = sigma_y turns the state by the real rotation U(t) = [[cos t, -sin t],
    # [sin t, cos t]]: |0> reaches (cos 0.4, sin 0.4) at the z slot, and from
    # there |0> and |1> reach <+| with squared overlaps (1 +- sin 1.2) / 2
    c, s = math.cos(0.4) ** 2, math.sin(0.4) ** 2
    weights = [c * (1 + math.sin(1.2)) / 2, s * (1 - math.sin(1.2)) / 2]
    return weights, [w / sum(weights) for w in weights]


def _three_box():
    # H = 0: each box k has weight |<phi|k>|^2 |<k|psi>|^2 = 1/9
    # (Aharonov and Vaidman 1991)
    weights = [1 / 9] * 3
    return weights, [1 / 3] * 3


CLOSED_FORMS = {"abl_sigma_y": _abl_sigma_y, "three_box": _three_box}


def _run(capsys, name, *options):
    code = main(["run", str(GALLERY / f"{name}.json"), *options])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    return json.loads(out)


def test_every_gallery_file_has_a_closed_form():
    assert sorted(p.stem for p in GALLERY.glob("*.json")) == sorted(CLOSED_FORMS)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_run_gives_the_closed_form(capsys, name):
    weights, measures = CLOSED_FORMS[name]()
    report = _run(capsys, name)
    assert report["delta_psi"] == pytest.approx(weights, rel=0, abs=1e-13)
    assert report["normalizer"] == pytest.approx(sum(weights), rel=0, abs=1e-13)
    assert report["measures"] == pytest.approx(measures, rel=0, abs=1e-13)
    assert report["oracle"] == pytest.approx(measures, rel=0, abs=1e-12)


def test_sigma_y_sees_a_transposed_propagator(capsys, monkeypatch):
    # sigma_y's propagator is not symmetric, so an engine that applies U^T
    # for U moves P(0) away from its closed form (to about 0.164); the
    # loosened oracle_agreement lets the answer past the oracle's gate
    propagators = fpf.measure.propagators

    def transposed(*args):
        return [SimpleNamespace(mat=u.mat.T) for u in propagators(*args)]

    monkeypatch.setattr(fpf.measure, "propagators", transposed)
    _, measures = _abl_sigma_y()
    report = _run(capsys, "abl_sigma_y", "--tol-override", "oracle_agreement=1")
    assert abs(report["measures"][0] - measures[0]) > 0.5
