"""Measure the line integrator's convergence order against closed-form weights.

Halving the step size should cut the error ~16x (4th order). Prints one
row per step count for a pair and a triple history; a step count the
oracle refuses as too coarse prints a `refused` row instead.
"""

import argparse

import numpy as np

from fpf.errors import InstanceTooLarge
from fpf.histories import FixedPoint, make_history
from fpf.measure import chain_delta_psi
from fpf.oracle import contour_line_integral
from fpf.scenario import random_schedule, random_state


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
            value, estimate = contour_line_integral(sched, history, steps)
        except InstanceTooLarge as exc:  # steps too coarse for the oracle's step bound
            print(f"{steps:>8} refused: {exc}")
            prev_err = None
        else:
            err = abs(value - closed)
            order = f"{np.log2(prev_err / err):7.3f}" if prev_err and err > 0 else "      -"
            print(f"{steps:>8} {value:>22.15f} {err:>12.3e} {estimate:>12.3e} {order}")
            prev_err = err
        steps *= 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--max-steps", type=int, default=512)
    args = parser.parse_args()
    for n_points in (2, 3):
        study(args.seed, args.dim, n_points, args.max_steps)


if __name__ == "__main__":
    main()
