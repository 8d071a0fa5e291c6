"""Reference answers for the generated scenarios, computed without fpf.

Propagators come from `scipy.linalg.expm` of each constant piece, which
shares no code with fpf's eigendecomposition or its series and RK4
oracles. `check` compares one `fpf run` report with them and returns the
problems found; an empty list means the report is right.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import expm

from workloads import Case

TOL = 1e-10  # measures, weights, validate residuals and normalization


def propagator(case: Case, lo: float, hi: float) -> np.ndarray:
    """U(hi, lo) = product of exp(-i (b - a) H) over the pieces in [lo, hi]."""
    u = np.eye(case.dim, dtype=complex)
    for t_start, t_end, h in case.pieces:
        a, b = max(lo, t_start), min(hi, t_end)
        if b > a:
            u = expm(-1j * (b - a) * h) @ u
    return u


def born(case: Case) -> np.ndarray:
    (t0, psi), = case.points
    outcomes = case.bases[case.query["outcomes"]]
    p = np.abs(outcomes.conj() @ (propagator(case, t0, case.query["time"]) @ psi)) ** 2
    return p / p.sum()


def abl(case: Case) -> np.ndarray:
    (t0, psi), (t1, phi) = case.points
    t = case.query["time"]
    outcomes = case.bases[case.query["outcomes"]]
    before = outcomes.conj() @ (propagator(case, t0, t) @ psi)
    after = phi.conj() @ propagator(case, t, t1) @ outcomes.T
    p = np.abs(after * before) ** 2
    return p / p.sum()


def chain_weights(case: Case) -> np.ndarray:
    """Weight of every joint outcome, indexed by the slot outcomes: the
    product over segments of |<next| U(segment) |previous>|^2."""
    (t0, psi), (t1, phi) = case.points
    slots = case.query["interior"]
    times = [t0, *(s["time"] for s in slots), t1]
    rows = [psi[None, :], *(case.bases[s["outcomes"]] for s in slots), phi[None, :]]
    weights = np.ones(1)
    for i in range(len(times) - 1):
        overlap = rows[i + 1].conj() @ propagator(case, times[i], times[i + 1]) @ rows[i].T
        weights = weights[..., :, None] * (np.abs(overlap) ** 2).T
    return weights[..., 0].reshape(weights.shape[1:-1])


def check(case: Case, text: str) -> list[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not a JSON report: {exc}"]
    if not isinstance(report, dict) or report.get("query", {}).get("kind") != case.kind:
        return [f"report does not echo a {case.kind!r} query"]
    try:
        return _CHECKS[case.kind](case, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"report is missing or malformed: {exc!r}"]


def _close(name: str, got, want, tol: float = TOL) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name} has shape {got.shape}, want {want.shape}"]
    worst = float(np.max(np.abs(got - want)))
    return [f"{name} deviates by {worst:.3e} > {tol:.0e}"] if worst > tol else []


def _sums_to_one(measures) -> list[str]:
    total = float(np.sum(measures))
    return [] if abs(total - 1.0) <= TOL else [f"measures sum to {total!r}"]


def _check_born(case: Case, report: dict) -> list[str]:
    return _close("measures", report["measures"], born(case)) + _sums_to_one(report["measures"])


def _check_abl(case: Case, report: dict) -> list[str]:
    return _close("measures", report["measures"], abl(case)) + _sums_to_one(report["measures"])


def _check_chain(case: Case, report: dict) -> list[str]:
    weights = chain_weights(case)
    labels = [tuple(label) for label in report["labels"]]
    if sorted(labels) != sorted(np.ndindex(weights.shape)):
        return ["labels do not enumerate every joint outcome once"]
    want = np.array([weights[label] for label in labels])
    problems = _close("delta_psi", report["delta_psi"], want)
    problems += _close("chain measures", report["measures"], want / want.sum())
    problems += _sums_to_one(report["measures"])
    selection = tuple(case.query["selection"])
    if labels[report["selected_index"]] != selection:
        problems.append("selected_index does not point at the query's selection")
    error = abs(report["oracle"][0] - weights[selection])
    if not error <= report["oracle_error_estimate"]:
        problems.append(
            f"RK4 oracle is {error:.3e} from the reference, "
            f"beyond its estimate {report['oracle_error_estimate']:.3e}"
        )
    return problems


def _check_network(case: Case, report: dict) -> list[str]:
    sizes = [len(case.bases[name]) for name in case.query["bases"]]
    problems = []
    if [layer["size"] for layer in report["layers"]] != sizes:
        problems.append("layer sizes differ from the generated bases")
    if len(report["adjacent_pairs"]) != len(sizes) - 1:
        problems.append("wrong number of adjacent layer pairs")
    for i, pair in enumerate(report["adjacent_pairs"]):
        n1, n2 = sizes[i], sizes[i + 1]
        if (pair["edges"], pair["channels"]) != (2 * n1 * n2, n1 * n2):
            problems.append(f"pair {i}: {pair['edges']} edges, {pair['channels']} channels")
    if report["edge_count"] != sum(2 * a * b for a, b in zip(sizes, sizes[1:])):
        problems.append(f"edge_count {report['edge_count']} is wrong")
    return problems


def _check_validate(case: Case, report: dict) -> list[str]:
    checks = report["checks"]
    if set(checks) != {"unitarity", "composition", "reversal"}:
        return [f"validate checks are {sorted(checks)}"]
    return [f"{name} residual {value:.3e}" for name, value in checks.items() if not value <= TOL]


_CHECKS = {
    "born": _check_born,
    "abl": _check_abl,
    "chain": _check_chain,
    "network": _check_network,
    "validate": _check_validate,
}
