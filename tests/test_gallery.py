"""The gallery: one scenario file per textbook claim, each checked through
`fpf run` against its closed form. The closed forms use only `math`, so
they share no code with the engine or the oracles."""

import json
import math
from functools import partial
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


LEGGETT_GARG_TIMES = {"1": 0.5, "2": 0.5 + math.pi / 3, "3": 0.5 + 2 * math.pi / 3}


def _leggett_garg(pair):
    # H = sigma_x / 2 turns |0> by U(t) = exp(-i sigma_x t / 2): the z slot at
    # t_i finds 0 with probability cos^2(t_i / 2), the slot at t_j keeps the
    # outcome with cos^2(tau / 2), tau = t_j - t_i, and the sink <+| passes
    # either outcome with 1/2, since U commutes with sigma_x; so the measures
    # are the unconditioned joint probabilities
    t_i, t_j = (LEGGETT_GARG_TIMES[k] for k in pair)
    first = (math.cos(t_i / 2) ** 2, math.sin(t_i / 2) ** 2)
    keep, flip = math.cos((t_j - t_i) / 2) ** 2, math.sin((t_j - t_i) / 2) ** 2
    measures = [first[a] * (keep if a == b else flip) for a in (0, 1) for b in (0, 1)]
    return [m / 2 for m in measures], measures


CLOSED_FORMS = {
    "abl_sigma_y": _abl_sigma_y,
    "three_box": _three_box,
    **{f"leggett_garg_{pair}": partial(_leggett_garg, pair) for pair in ("12", "23", "13")},
}


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
    # a chain's oracle is the selected joint's weight, born and abl's the measures
    oracle = [weights[report["selected_index"]]] if "selected_index" in report else measures
    assert report["oracle"] == pytest.approx(oracle, rel=0, abs=1e-12)


def test_leggett_garg_exceeds_the_classical_bound(capsys):
    # C_ij = <Q_i Q_j>, Q = +1 for z:0 and -1 for z:1, over the joints
    # (0, 0), (0, 1), (1, 0), (1, 1); K3 = C12 + C23 - C13 is at most 1 for
    # a macrorealist and 3/2, its quantum maximum, here (Leggett and Garg 1985)
    def correlator(pair):
        m = _run(capsys, f"leggett_garg_{pair}")["measures"]
        return m[0] - m[1] - m[2] + m[3]

    k3 = correlator("12") + correlator("23") - correlator("13")
    assert abs(k3 - 1.5) <= 1e-12


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
