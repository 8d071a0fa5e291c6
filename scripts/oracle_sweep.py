"""Sweep seeded random scenarios and report the worst oracle deviation.

Exercises the same machinery as the acceptance suite but with a free
choice of ensemble size, useful for soak-testing tolerance margins. Per
kind it prints the worst deviation and the worst ratio of a deviation to
the bound `fpf run` holds it to (the report's `oracle_bound`).
"""

import argparse
import time

from fpf.scenario import random_scenario, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--kinds", nargs="+", default=["born", "abl", "chain"])
    args = parser.parse_args()

    for kind in args.kinds:
        t0 = time.perf_counter()
        worst_seed, worst, worst_ratio = -1, -1.0, 0.0
        for seed in range(args.seeds):
            report = run(random_scenario(seed, 2 + seed % 7, 1 + seed % 4, kind))
            if report.max_deviation > worst:
                worst_seed, worst = seed, report.max_deviation
            worst_ratio = max(worst_ratio, report.max_deviation / report.oracle_bound)
        elapsed = time.perf_counter() - t0
        print(
            f"{kind:>7}: worst deviation {worst:.3e} (seed {worst_seed}), "
            f"worst ratio to bound {worst_ratio:.3e} over {args.seeds} scenarios in {elapsed:.1f}s"
        )


if __name__ == "__main__":
    main()
