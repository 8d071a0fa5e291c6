"""fpf benchmark: in-process `fpf run` throughput and latency per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload short-queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The run writes the workload's scenario files from --seed, times
`fpf.cli.main(["run", file])` over them in a fresh Python process
(worker.py), measures set-up in further fresh processes, then checks every
report against scipy-based references (reference.py). With --trace 0 it
prints the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run; the last line of stdout is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # set-up is measured in this many fresh processes; the median is reported
MIN_CALLS = 100  # so that at least ten timed calls lie beyond query_ms_p90
WORKER_TIMEOUT_S = 170
# The machine's speed swings by up to 1.8x within seconds, and every timed
# call is bracketed by a calibration kernel that slows by the same factor
# (worker.calibrate). Times are reported at the speed where that kernel
# takes CAL_REF_S, about this machine's fastest state; see README.md.
CAL_REF_S = 400e-6


class BenchError(Exception):
    pass


def spawn(spec: dict, work: Path, tag: str) -> dict:
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    # one BLAS thread: the workload process runs serially, with no helper threads
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    if "warmup_error" in result:
        raise BenchError(f"warm-up run failed: {result['warmup_error']}")
    return result


def adjusted_ms(seconds: list[float], calibration: list[float]) -> list[float]:
    """Call times in ms at the reference speed: each scaled by CAL_REF_S
    over the calibration kernel's time around that call."""
    return [1e3 * t * CAL_REF_S / c for t, c in zip(seconds, calibration)]


def src_lines() -> dict[str, int]:
    out = {}
    for path in sorted((SRC / "fpf").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        out[f"{name}.src_lines"] = path.read_bytes().count(b"\n")
    out["src.total_lines"] = sum(out.values())
    return out


def layer_metrics(spans: dict, rounds: int, joints: int, speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round of the workload, from the span summary,
    with self times divided by the traced phase's speed factor, in the
    order BENCHMARK.json lists them; a metric whose function is gone is
    left out."""
    m: dict[str, tuple[float, str]] = {}
    layers: dict[str, float] = {}
    for name, entry in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"] / speed
        m[f"{name}.calls"] = (entry["calls"] / rounds, "count")
        m[f"{name}.self_s"] = (entry["self_s"] / speed / rounds, "s")
        if "distinct" in entry:
            m[f"{name}.distinct"] = (entry["distinct"] / rounds, "count")
            ratio = entry["distinct"] / entry["calls"] if entry["calls"] else 1.0
            m[f"{name}.useful_ratio"] = (ratio, "ratio")
    for layer, self_s in layers.items():
        m[f"{layer}.self_s"] = (self_s / rounds, "s")
    m["measure.joints"] = (float(joints), "count")
    for name, count in src_lines().items():
        m[name] = (float(count), "lines")
    listed = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    return {name: m[name] for name in listed if name in m}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cases = workloads.generate(workload, seed)
    work = ROOT / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        files = []
        for i, case in enumerate(cases):
            path = work / f"{i:03d}-{case.kind}.json"
            path.write_text(case.document())
            files.append(str(path))
        warmup = work / "warmup.json"
        warmup.write_text(workloads.warmup_case(workload).document())
        spec = {"src": str(SRC), "warmup": str(warmup), "files": files, "seconds": seconds,
                "trace": trace, "min_calls": MIN_CALLS, "mode": "measure",
                "spans_path": str(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.tsv.gz")}
        # set-up samples come before and after the timed phase, so that
        # their median spans the run and not one moment of it
        probe = {**spec, "mode": "setup"}
        half = 0 if trace else SETUP_SAMPLES // 2
        setups = [spawn(probe, work, f"setup{i}") for i in range(half)]
        result = spawn(spec, work, "measure")
        setups.append(result)
        setups += [spawn(probe, work, f"setup{i}") for i in range(half, 2 * half)]
        setups = [(r["setup_s"], r["setup_calibration_s"]) for r in setups]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import reference  # scipy is imported only after every timed process has ended

    attempted = len(result["call_file"])
    calls_per_file = Counter(result["call_file"])
    failed, wrong, joints = 0, 0, 0
    for i, (case, output) in enumerate(zip(cases, result["outputs"])):
        problems = reference.check(case, output) if output is not None else []
        if problems:
            wrong += 1
            failed += calls_per_file[i]
            print(f"WRONG {i:03d}-{case.kind}: {'; '.join(problems)}")
            continue
        if result["bad_calls"][i]:
            failed += result["bad_calls"][i]
            print(f"FAILED {i:03d}-{case.kind}: {result['bad_calls'][i]} of "
                  f"{calls_per_file[i]} calls: {result['errors'][i]}")
        if output is not None:
            joints += len(json.loads(output)["delta_psi"] or [])

    files, seconds, calibration = result["call_file"], result["call_seconds"], result["call_calibration_s"]
    adjusted = adjusted_ms(seconds, calibration)
    if trace:
        untraced, traced = result["untraced"], result["traced"]
        k = untraced["calls"]
        speed = statistics.median(calibration[k:]) / CAL_REF_S
        metrics = layer_metrics(result["spans"], traced["rounds"], joints, speed)
        qps_off = 1e3 * k / sum(adjusted[:k])
        qps_on = 1e3 * (len(adjusted) - k) / sum(adjusted[k:])
        print(f"trace_overhead: untraced {qps_off:.2f} 1/s, traced {qps_on:.2f} 1/s, "
              f"difference {qps_off - qps_on:.2f} 1/s ({100 * (1 - qps_on / qps_off):.1f}%)")
        print(f"traced rounds: {traced['rounds']} of {len(cases)} calls; per-layer values are per round; "
              f"speed factor {speed:.3f}")
    else:
        timed = result["timed"]
        n = len(adjusted)
        setup = [s * CAL_REF_S / c for s, c in setups]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "queries_per_s": (1e3 * n / sum(adjusted), "1/s"),
            "query_ms_p50": (statistics.median(adjusted), "ms"),
            "query_ms_p90": (statistics.quantiles(adjusted, n=10, method="inclusive")[8], "ms"),
            "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        }
        wall = [t * 1e3 for t in seconds]
        print(f"timed: {timed['rounds']} rounds of {len(cases)} calls in {timed['elapsed_s']:.2f} s; "
              f"median speed factor {statistics.median(calibration) / CAL_REF_S:.3f}")
        print(f"wall clock, unadjusted: {n / sum(seconds):.4g} 1/s, "
              f"p50 {statistics.median(wall):.4g} ms, "
              f"p90 {statistics.quantiles(wall, n=10, method='inclusive')[8]:.4g} ms, "
              f"setup {statistics.median(s for s, _ in setups):.4g} s")
        print(f"query_ms_p90 samples: {n} calls, {n - int(0.9 * n)} beyond it")
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
        if workload == "short-queries":
            for kind in workloads.SHORT_KINDS:
                times = [a for f, a in zip(files, adjusted) if cases[f].kind == kind]
                print(f"{kind}_ms_p50 {statistics.median(times):.4f} ms (n={len(times)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fpf" / "__init__.py").is_file():
        print(f"benchmark: no fpf source tree at {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            print(f"== {name} seed {args.seed}")
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
