"""Measure the line integrator's convergence order against closed-form weights.

Halving the step size should cut the error ~16x (4th order). Prints one
row per step count for a pair and a triple history; a step count the
oracle refuses as too coarse prints a `refused` row instead.

With `--near-bound N` it instead draws N random chains at the report's
resolution (512 steps), each schedule scaled so that its widest span's
||h||_1*|dt| at the coarse 256 steps lies in (0, 1], the oracle's refusal
bound, and prints per band of that norm the worst ratio of the oracle's
deviation from the closed form to its Richardson error estimate, and to
the bound of `fpf run`'s chain gate (the report's `oracle_bound`), which
must stay below 1; a chain the gate refuses counts as a false alarm.
"""

import argparse

import numpy as np

from fpf.dynamics import HamiltonianSchedule, SchedulePiece
from fpf.errors import InstanceTooLarge, NumericalCheckFailure
from fpf.histories import FixedPoint, make_history
from fpf.measure import chain_delta_psi
from fpf.oracle import contour_line_integral
from fpf.scenario import ORACLE_STEPS, Query, Scenario, random_basis, random_schedule, random_state, run
from fpf.statespace import HermitianOperator

BANDS = (0.25, 0.5, 0.75, 0.9, 1.0)  # upper ends of the span-norm bands


def study(seed: int, dim: int, n_points: int, max_steps: int) -> None:
    rng = np.random.default_rng(seed)
    sched = random_schedule(rng, dim, 2)
    times = np.linspace(sched.t_start, sched.t_end, n_points)
    pts = [FixedPoint(float(t), random_state(rng, dim)) for t in times]
    closed = chain_delta_psi(sched, pts).real
    history = make_history(pts)

    print(f"\n{n_points}-point history (dim {dim}, seed {seed}), closed form {closed:.15f}")
    print(f"{'steps':>8} {'value':>22} {'|error|':>12} {'estimate':>12} {'order':>7}")
    prev_err = None
    steps = 8
    while steps <= max_steps:
        try:
            value, estimate, _ = contour_line_integral(sched, history, steps)
        except InstanceTooLarge as exc:  # steps too coarse for the oracle's step bound
            print(f"{steps:>8} refused: {exc}")
            prev_err = None
        else:
            err = abs(value - closed)
            order = f"{np.log2(prev_err / err):7.3f}" if prev_err and err > 0 else "      -"
            print(f"{steps:>8} {value:>22.15f} {err:>12.3e} {estimate:>12.3e} {order}")
            prev_err = err
        steps *= 2


def near_bound_scenario(seed: int) -> tuple[float, Scenario]:
    """A random chain scenario (dims 2-8, 1-4 pieces, 0-3 interior slots,
    each selecting its basis's first row) whose schedule is scaled so that
    its widest span's coarse ||h||_1*|dt| is drawn from (0, 1]: that norm,
    and the scenario."""
    rng = np.random.default_rng(seed)
    dim, n_pieces, n_slots = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(0, 4))
    base = random_schedule(rng, dim, n_pieces)
    widest = max(
        float(np.abs(p.hamiltonian.mat).sum(axis=0).max()) * (p.t_end - p.t_start) for p in base.pieces
    )
    norm = float(rng.uniform(0.0, 1.0)) or 1.0
    scale = norm * (ORACLE_STEPS // 2) / widest
    sched = HamiltonianSchedule(tuple(
        SchedulePiece(p.t_start, p.t_end, HermitianOperator(scale * p.hamiltonian.mat)) for p in base.pieces
    ))
    t0, t1 = sched.t_start, sched.t_end
    times = np.sort(rng.uniform(t0, t1, n_slots)).tolist()
    src = FixedPoint(t0, random_state(rng, dim))
    bases = {f"a{i}": random_basis(rng, dim) for i in range(n_slots)}
    snk = FixedPoint(t1, random_state(rng, dim))
    slots = tuple((t, *item) for t, item in zip(times, bases.items()))
    query = Query(kind="chain", slots=slots, selection=(0,) * n_slots)
    return norm, Scenario(schedule=sched, fixed_points=(src, snk), query=query)


def near_bound(n_chains: int) -> None:
    worst = {band: [0.0, 0.0] for band in BANDS}  # deviation over estimate, over the gate's bound
    counts = dict.fromkeys(BANDS, 0)
    false_alarms = 0
    for seed in range(n_chains):
        norm, s = near_bound_scenario(seed)
        band = next(b for b in BANDS if norm <= b)
        counts[band] += 1
        try:
            report = run(s)  # the engine's weight is the closed form
        except NumericalCheckFailure:
            false_alarms += 1
            continue
        ratios = (report.max_deviation / report.extra["oracle_error_estimate"],
                  report.max_deviation / report.oracle_bound)
        worst[band] = [max(w, r) for w, r in zip(worst[band], ratios)]
    print(f"{'span norm':>12} {'chains':>7} {'deviation/estimate':>19} {'deviation/gate bound':>21}")
    low = 0.0
    for band in BANDS:
        ratios = worst[band]
        print(f"{f'({low:g}, {band:g}]':>12} {counts[band]:>7} {ratios[0]:>19.4f} {ratios[1]:>21.4f}")
        low = band
    print(
        f"worst ratios {max(w[0] for w in worst.values()):.4f} to the estimate and "
        f"{max(w[1] for w in worst.values()):.4f} to the gate's bound over {n_chains} chains, "
        f"{false_alarms} false alarms"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--max-steps", type=int, default=512)
    parser.add_argument("--near-bound", type=int, metavar="N", help="chains near the oracle's step bound")
    args = parser.parse_args()
    if args.near_bound:
        near_bound(args.near_bound)
        return
    for n_points in (2, 3):
        study(args.seed, args.dim, n_points, args.max_steps)


if __name__ == "__main__":
    main()
