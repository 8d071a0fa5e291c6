"""Acceptance suite.

Each criterion prints one pass/fail line (visible with `pytest -s`) and
asserts its stated tolerance. Ensembles are deterministic, seeded 0..N.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from fpf.cli import main
from fpf.dynamics import propagator_laws
from fpf.histories import make_history
from fpf.measure import born_measure, chain_delta_psi
from fpf.oracle import contour_line_integral
from fpf.scenario import (
    Query,
    Scenario,
    random_basis,
    random_scenario,
    random_schedule,
    random_state,
    run,
)
from fpf.statespace import FixedPoint, HermitianOperator, standard_basis
from oracles import DensityMatrix, expectation, tensor_sink_delta_psi

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
N_SEEDS = 200


def _verdict(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _ensemble(kind):
    scenarios = [
        random_scenario(seed, 2 + seed % 7, 1 + seed % 4, kind) for seed in range(N_SEEDS)
    ]
    return scenarios


@pytest.fixture(scope="module")
def born_runs():
    t0 = time.perf_counter()
    scenarios = _ensemble("born")
    reports = [run(s) for s in scenarios]
    return scenarios, reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def abl_runs():
    t0 = time.perf_counter()
    scenarios = _ensemble("abl")
    reports = [run(s) for s in scenarios]
    return scenarios, reports, time.perf_counter() - t0


def test_criterion_1_born_rule_reproduction(born_runs):
    _, reports, elapsed = born_runs
    worst = max(r.max_deviation for r in reports)
    _verdict(
        1,
        "Born-rule reproduction",
        worst <= 1e-10,
        f"max |measure - textbook Born| = {worst:.3e} over {N_SEEDS} scenarios "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_abl_rule_reproduction(abl_runs):
    _, reports, elapsed = abl_runs
    worst = max(r.max_deviation for r in reports)
    _verdict(
        2,
        "ABL-rule reproduction",
        worst <= 1e-10,
        f"max |measure - textbook ABL| = {worst:.3e} over {N_SEEDS} scenarios "
        f"({elapsed:.1f}s)",
    )


def test_criterion_3_normalization(born_runs, abl_runs):
    sum_devs = [
        abs(sum(r.measures) - 1.0) for _, reports, _ in (born_runs, abl_runs) for r in reports
    ]
    born_norms = [abs(r.normalizer - 1.0) for r in born_runs[1]]
    ok = max(sum_devs) <= 1e-10 and max(born_norms) <= 1e-10
    _verdict(
        3,
        "normalization",
        ok,
        f"max |sum(measures) - 1| = {max(sum_devs):.3e}, "
        f"max |born weight sum - 1| = {max(born_norms):.3e}",
    )


def test_criterion_4_line_integral_consistency():
    t0 = time.perf_counter()
    worst_excess = -np.inf
    worst_estimate = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
        ta, tb = sched.t_start, sched.t_end
        times = [ta, tb] if seed % 2 == 0 else [ta, float(rng.uniform(ta + 0.1, tb - 0.1)), tb]
        pts = [FixedPoint(t, random_state(rng, dim)) for t in times]
        closed = chain_delta_psi(sched, pts).real
        value, estimate, _ = contour_line_integral(sched, make_history(pts), 512)
        worst_excess = max(worst_excess, abs(value - closed) - estimate)
        worst_estimate = max(worst_estimate, estimate)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and worst_estimate <= 1e-6
    _verdict(
        4,
        "line-integral consistency",
        ok,
        f"max(|value - closed| - estimate) = {worst_excess:.3e}, "
        f"max estimate = {worst_estimate:.3e} over 50 histories ({elapsed:.1f}s)",
    )


def test_criterion_5_tensor_sink_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed + 5000)
        sched = random_schedule(rng, 2, int(rng.integers(1, 5)))
        ta, tb = sched.t_start, sched.t_end
        times = [ta, tb] if seed % 2 == 0 else [ta, float(rng.uniform(ta + 0.1, tb - 0.1)), tb]
        pts = [FixedPoint(t, random_state(rng, 2)) for t in times]
        brute = tensor_sink_delta_psi(sched, make_history(pts))
        worst = max(worst, abs(brute - chain_delta_psi(sched, pts).real))
    _verdict(
        5,
        "tensor/sink equivalence",
        worst <= 1e-12,
        f"max |brute-force - factorized| = {worst:.3e} over 50 instances",
    )


def test_criterion_6_network_counting():
    sched = random_schedule(np.random.default_rng(0), 2, 1)
    ok = True
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            a, b = standard_basis(n1), standard_basis(n2)
            layers = Query("network", ((sched.t_start, "a", a), (sched.t_end, "b", b)))
            report = run(Scenario(sched, (), layers))
            (pair,) = report.extra["adjacent_pairs"]
            ok = ok and pair["edges"] == report.extra["edge_count"] == 2 * n1 * n2
            ok = ok and pair["channels"] == n1 * n2
    _verdict(6, "network counting", ok, "exact edge/channel counts for all (N1,N2) in [1,5]^2")


def test_criterion_7_realness_and_positivity(born_runs, abl_runs):
    worst_imag = 0.0
    worst_neg = 0.0
    for scenario in born_runs[0]:
        prep = scenario.fixed_points[0]
        ((t, _, outcomes),) = scenario.query.slots
        for phi in outcomes.rows:
            raw = chain_delta_psi(
                scenario.schedule, (prep, FixedPoint(t, phi))
            )
            worst_imag = max(worst_imag, abs(raw.imag))
            worst_neg = max(worst_neg, -raw.real)
    for scenario in abl_runs[0]:
        pre, post = scenario.fixed_points
        ((t, _, outcomes),) = scenario.query.slots
        for a in outcomes.rows:
            raw = chain_delta_psi(
                scenario.schedule, (pre, FixedPoint(t, a), post)
            )
            worst_imag = max(worst_imag, abs(raw.imag))
            worst_neg = max(worst_neg, -raw.real)
    ok = worst_imag <= 1e-12 and worst_neg <= 1e-12
    _verdict(
        7,
        "realness and positivity",
        ok,
        f"max |Im dPsi| = {worst_imag:.3e}, max(-Re dPsi) = {worst_neg:.3e}",
    )


def test_criterion_8_propagator_laws():
    # the residuals a validate report prints, on the born ensemble's
    # schedules: random_scenario draws the schedule before anything that
    # depends on the query kind
    checks = [propagator_laws(scenario.schedule) for scenario in _ensemble("validate")]
    worst = {name: max(c[name] for c in checks) for name in ("unitarity", "composition", "reversal")}
    ok = max(worst.values()) <= 1e-10
    _verdict(
        8,
        "propagator laws",
        ok,
        f"unitarity {worst['unitarity']:.3e}, composition {worst['composition']:.3e}, "
        f"reversal {worst['reversal']:.3e}",
    )


def test_criterion_9_degenerate_case_golden_file(capsys):
    code = main(["run", str(SCENARIOS / "abl_impossible.json")])
    captured = capsys.readouterr()
    ok = code == 3 and captured.err.startswith("IMPOSSIBLE_POST_SELECTION:")
    _verdict(
        9,
        "degenerate-case handling",
        ok,
        f"exit code {code}, diagnostic {captured.err.strip().splitlines()[:1]}",
    )


def test_criterion_10_expectation_linkage():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed + 7000)
        dim = int(rng.integers(2, 9))
        sched = random_schedule(rng, dim, int(rng.integers(1, 5)))
        t0, t1 = sched.t_start, sched.t_end
        psi = random_state(rng, dim)
        outcomes = random_basis(rng, dim)
        rho = DensityMatrix.from_state(psi)
        measures = born_measure(sched, FixedPoint(t0, psi), t1, outcomes).measures
        for i, phi in enumerate(outcomes.rows):
            proj = HermitianOperator(np.outer(phi, phi.conj()))
            worst = max(worst, abs(expectation(rho, sched, t0, t1, proj) - measures[i]))
    _verdict(
        10,
        "expectation linkage",
        worst <= 1e-12,
        f"max |expectation - Born measure| = {worst:.3e} over 50 instances",
    )


def test_criterion_11_oracle_gate_without_false_alarms(born_runs, abl_runs):
    # `run` refuses a deviation above the report's oracle_bound, so every
    # report here passed; the margin is stated: the worst ratios to the
    # bound measured 2.1e-3 (born), 2.0e-3 (abl) and 8.5e-2 (chain)
    chains = [run(s) for s in _ensemble("chain")]
    worst = {
        kind: max(r.max_deviation / r.oracle_bound for r in reports)
        for kind, reports in (("born", born_runs[1]), ("abl", abl_runs[1]), ("chain", chains))
    }
    _verdict(
        11,
        "oracle gate without false alarms",
        max(worst.values()) <= 0.1,
        ", ".join(f"{kind} {ratio:.1e}" for kind, ratio in worst.items())
        + f" of the bound at worst over {N_SEEDS} scenarios each",
    )
