"""One workload's `fpf run` calls, timed in a fresh Python process.

Usage: python3 worker.py <spec.json> <result.json>

The spec names the source tree, the scenario files, the warm-up file, the
mode and the time budget. Set-up is the import of fpf plus one untimed
warm-up run. In "setup" mode the worker stops there. In "measure" mode it
then calls `fpf.cli.main(["run", file])` in-process over whole rounds of the
files, serially, with stdout and stderr captured. With tracing on, the
budget is split: untraced rounds first, then the same rounds traced.

Every call is bracketed by two runs of a fixed calibration kernel, and so
is the warm-up run of set-up. The kernel's time tracks the machine's speed
at that moment, which run.py uses to adjust the timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter


class Calls:
    """Per-call times and, per file, the first successful output and how
    many calls failed: a non-zero exit, an exception, or an output that
    differs from the file's first one."""

    def __init__(self, n_files: int) -> None:
        self.file: list[int] = []
        self.seconds: list[float] = []
        self.calibration: list[float] = []
        self.first_output: list[str | None] = [None] * n_files
        self.bad: list[int] = [0] * n_files
        self.error: list[str] = [""] * n_files

    def record(self, index: int, code, out: str, err: str, seconds: float, calibration: float) -> None:
        self.file.append(index)
        self.seconds.append(seconds)
        self.calibration.append(calibration)
        if code == 0 and self.first_output[index] is None:
            self.first_output[index] = out
        if code != 0 or out != self.first_output[index]:
            self.bad[index] += 1
            self.error[index] = self.error[index] or (
                f"exit {code}: {err.strip()}" if code != 0 else "output differs between runs"
            )


def calibrate() -> float:
    """Seconds for a fixed mix of small numpy operations and Python
    bookkeeping, like fpf's own work; it shares no code with fpf. numpy is
    imported here, after set-up is timed, because importing fpf imports it."""
    import numpy as np

    a = np.eye(4, dtype=complex) * 0.5
    v = np.ones(4, dtype=complex)
    norms = {}
    t = perf_counter()
    for i in range(60):
        v = a @ v + 1j * v
        norms[i] = float(np.linalg.norm(v))
        v = v / norms[i]
    return perf_counter() - t


def call(cli, path: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = perf_counter()
        try:
            # looked up at each call, so a traced cli.main is the one timed
            code = cli.main(["run", path])
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        seconds = perf_counter() - t
    return code, out.getvalue(), err.getvalue(), seconds


def run_rounds(cli, files: list[str], calls: Calls, budget: float, min_calls: int, min_rounds: int):
    """Whole rounds over every file until the budget is spent, stopping at
    the round end nearest to it, after at least min_rounds and min_calls."""
    rounds, done = 0, 0
    start = perf_counter()
    before = calibrate()
    while True:
        for index, path in enumerate(files):
            result = call(cli, path)
            after = calibrate()
            calls.record(index, *result, (before + after) / 2)
            before = after
        rounds += 1
        done += len(files)
        elapsed = perf_counter() - start
        if rounds >= min_rounds and done >= min_calls and elapsed + 0.5 * elapsed / rounds >= budget:
            return {"rounds": rounds, "calls": done, "elapsed_s": elapsed}


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    t = perf_counter()
    sys.path.insert(0, spec["src"])
    from fpf import cli

    import_s = perf_counter() - t
    calibrate()  # the first run pays one-off costs, so it is left out
    before = [calibrate() for _ in range(3)]
    code, out, err, warmup_s = call(cli, spec["warmup"])
    after = [calibrate() for _ in range(3)]
    result = {"setup_s": import_s + warmup_s, "setup_calibration_s": sum(sorted(before + after)[2:4]) / 2}
    if code != 0:
        result["warmup_error"] = f"exit {code}: {err.strip()}"
    elif spec["mode"] == "measure":
        files = spec["files"]
        calls = Calls(len(files))
        if spec["trace"]:
            budget = spec["seconds"] / 2
            result["untraced"] = run_rounds(cli, files, calls, budget, 0, 1)
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            result["traced"] = run_rounds(cli, files, calls, budget, 0, 1)
            result["spans"] = tracer.summary()
            tracer.write(spec["spans_path"])
        else:
            result["timed"] = run_rounds(
                cli, files, calls, spec["seconds"], spec["min_calls"], 2
            )
        result.update(
            call_file=calls.file,
            call_seconds=calls.seconds,
            call_calibration_s=calls.calibration,
            outputs=calls.first_output,
            bad_calls=calls.bad,
            errors=calls.error,
        )
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(*sys.argv[1:3])
