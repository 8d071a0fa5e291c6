"""Smoke tests: the scripts under scripts/ run and say what they should."""

import gc
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout


def test_convergence_study_is_fourth_order():
    out = run_script("convergence_study.py", "--max-steps", "64")
    # rows: steps, value, |error|, estimate, order ("-" on the first row)
    orders = [
        float(cols[4])
        for cols in (line.split() for line in out.splitlines())
        if len(cols) == 5 and cols[0].isdigit() and cols[4] != "-"
    ]
    assert len(orders) == 6, out
    assert min(orders) >= 3.5, out


def test_convergence_study_reports_refused_step_counts():
    # at dim 8, 8 steps (4 coarse) exceed the oracle's step bound; 16 do not
    out = run_script("convergence_study.py", "--dim", "8", "--max-steps", "16")
    rows = [line.split() for line in out.splitlines() if line.split()[:1] in (["8"], ["16"])]
    assert [cols[:2] for cols in rows if cols[1] == "refused:"] == [["8", "refused:"]] * 2, out
    assert [cols[0] for cols in rows if len(cols) == 5] == ["16", "16"], out


def test_oracle_sweep_runs_chains():
    out = run_script("oracle_sweep.py", "--seeds", "20", "--kinds", "chain")
    assert "chain: worst deviation" in out and "worst ratio to bound" in out, out


def test_convergence_study_near_the_bound_stays_inside_the_gate():
    out = run_script("convergence_study.py", "--near-bound", "40")
    last = out.splitlines()[-1].split()
    # "worst ratios R to the estimate and G to the gate's bound over N chains, F false alarms"
    assert last[:2] == ["worst", "ratios"] and float(last[7]) < 1 and last[-3:] == ["0", "false", "alarms"], out


def test_trace_targets_resolve_in_fpf():
    # perfbench/tracing.py skips a target it cannot find, so a renamed or
    # removed function would drop its metrics from the traced benchmark
    # without an error
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module, attr, _ in tracing.TARGETS:
        target = importlib.import_module(f"fpf.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(name)
    assert tracing.TARGETS and missing == []


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(pairs):
    runs = []
    for index, (parent, change) in enumerate(pairs):
        for side, qps in (("parent", parent), ("change", change)):
            metrics = {"queries_per_s": qps, "query_ms_p50": 1000 / qps}
            position = (side == "change") ^ (index % 2)  # alternated as in main
            runs.append({"workload": "w", "pair": index, "side": side, "position": position,
                         "exit": 0, "correct": True, "failed": 0, "metrics": metrics})
    return runs


def test_bench_pairs_counts_wins_in_each_metric_direction():
    better = {"queries_per_s": "higher", "query_ms_p50": "lower"}
    runs = _runs([(100, 110), (102, 111), (98, 98)])
    runs.append({"workload": "w", "pair": 3, "side": "parent", "exit": 1, "error": "x"})
    rows = _bench_pairs().summarize(runs, better)["w"]
    qps = rows["queries_per_s"]
    assert (qps["pairs"], qps["complete_pairs"], qps["change_wins"], qps["ties"]) == (4, 3, 2, 1)
    assert (qps["parent"]["median"], qps["change"]["median"]) == (100, 110)
    assert not qps["gain_rule_met"]  # 2 wins of 4 pairs is under nine tenths
    assert rows["query_ms_p50"]["change_wins"] == 2


def test_bench_pairs_counts_wins_of_the_side_that_ran_second():
    better = {"queries_per_s": "higher", "query_ms_p50": "lower"}
    # pairs 0 and 2 run the change second, pair 1 the parent; pair 3 ties
    runs = _runs([(100, 110), (102, 101), (98, 99), (97, 97)])
    rows = _bench_pairs().summarize(runs, better)["w"]
    qps = rows["queries_per_s"]
    assert (qps["change_wins"], qps["second_wins"], qps["ties"]) == (2, 3, 1)
    assert rows["query_ms_p50"]["second_wins"] == 3
    flipped = _runs([(110, 100), (100, 110)])  # the side that ran first wins both
    assert _bench_pairs().summarize(flipped, better)["w"]["queries_per_s"]["second_wins"] == 0


def test_bench_pairs_gain_rule_needs_a_gap_wider_than_the_parent_spread():
    better = {"queries_per_s": "higher"}
    clear = _bench_pairs().summarize(_runs([(100 + k, 120 + k) for k in range(10)]), better)
    assert clear["w"]["queries_per_s"]["gain_rule_met"]
    # every pair won, but by less than the parent's quartile gap
    narrow = _bench_pairs().summarize(_runs([(100 + 4 * k, 101 + 4 * k) for k in range(10)]), better)
    assert narrow["w"]["queries_per_s"]["change_wins"] == 10
    assert not narrow["w"]["queries_per_s"]["gain_rule_met"]


def test_bench_pairs_gain_rule_counts_every_pair_run():
    better = {"queries_per_s": "higher"}
    runs = _runs([(100 + k, 120 + k) for k in range(9)])
    for index in (9, 10):  # two pairs whose change run crashed
        runs += [{"workload": "w", "pair": index, "side": "parent", "exit": 0, "correct": True,
                  "failed": 0, "metrics": {"queries_per_s": 100}},
                 {"workload": "w", "pair": index, "side": "change", "exit": 1, "error": "x"}]
    qps = _bench_pairs().summarize(runs, better)["w"]["queries_per_s"]
    assert (qps["pairs"], qps["complete_pairs"], qps["change_wins"]) == (11, 9, 9)
    assert not qps["gain_rule_met"]  # 9 wins of 11 pairs run


def test_bench_pairs_gain_rule_fails_on_a_wrong_or_failing_change_run():
    better = {"queries_per_s": "higher"}
    bench_pairs = _bench_pairs()
    wrong = _runs([(100 + k, 120 + k) for k in range(10)])
    wrong[-1]["correct"] = False
    assert not bench_pairs.summarize(wrong, better)["w"]["queries_per_s"]["gain_rule_met"]
    failing = _runs([(100 + k, 120 + k) for k in range(10)])
    failing[-1]["failed"] = 1
    assert not bench_pairs.summarize(failing, better)["w"]["queries_per_s"]["gain_rule_met"]


def test_bench_pairs_counts_a_silent_run_as_failed(monkeypatch):
    bench_pairs = _bench_pairs()
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, "", ""))
    result = bench_pairs.bench_once(ROOT, "short-queries", 1)
    assert result["exit"] != 0 and "metrics" not in result, result


def test_bench_pairs_numbers_pairs_per_workload_across_options(tmp_path, monkeypatch):
    bench_pairs = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "queries_per_s", "better": "higher"}]}')
    calls = []

    def fake_bench_once(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        qps = 120 if checkout.name == "change" else 100
        return {"exit": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"queries_per_s": qps + seed}}

    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                             "--pairs", "w:1,2", "--pairs", "v:7", "--pairs", "w:3",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [(r["workload"], r["seed"], r["pair"]) for r in doc["runs"] if r["side"] == "parent"] == [
        ("w", 1, 0), ("w", 2, 1), ("v", 7, 0), ("w", 3, 2)]
    # the side that runs first alternates per workload, across options
    assert [c[0] for c in calls if c[1] == "w"] == ["parent", "change", "change", "parent",
                                                     "parent", "change"]
    assert doc["summary"]["w"]["queries_per_s"]["pairs"] == 3


def test_bench_pairs_keeps_traced_runs_out_of_the_pairs(tmp_path, monkeypatch):
    bench_pairs = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "queries_per_s", "better": "higher"}]}')
    calls = []

    def fake_bench_once(checkout, workload, seed, trace=False):
        calls.append((checkout.name, workload, seed, trace))
        return {"exit": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"queries_per_s": 100.0 + trace}}

    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                             "--pairs", "w:1", "--traced", "w:5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [c for c in calls if c[3]] == [("parent", "w", 5, True), ("change", "w", 5, True)]
    assert [(r["side"], r["seed"], r["metrics"]["queries_per_s"]) for r in doc["traced"]] == [
        ("parent", 5, 101.0), ("change", 5, 101.0)]
    assert [r["seed"] for r in doc["runs"]] == [1, 1]
    assert doc["summary"]["w"]["queries_per_s"]["pairs"] == 1


def test_bench_pairs_runs_each_side_from_a_copy_without_byte_code(tmp_path, monkeypatch):
    bench_pairs = _bench_pairs()
    for side in ("parent", "change"):
        cache = tmp_path / side / "src" / "pkg" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "mod.cpython-311.pyc").write_bytes(b"stale")
        (cache.parent / "mod.py").write_text(f"SIDE = {side!r}\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "queries_per_s", "better": "higher"}]}')
    seen = []

    def fake_bench_once(checkout, workload, seed, trace=False):
        seen.append((checkout, sorted(p.name for p in checkout.rglob("*"))))
        assert (checkout / "src" / "pkg" / "mod.py").read_text() == f"SIDE = {checkout.name!r}\n"
        return {"exit": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"queries_per_s": 100.0}}

    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench_once)
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                             "--pairs", "w:1,2", "--traced", "w:3",
                             "--out", str(tmp_path / "out.json")]) == 0
    assert len(seen) == 6
    # one copy per side for the whole sweep, outside the trees, gone afterwards
    assert len({checkout for checkout, _ in seen}) == 2
    for checkout, names in seen:
        assert "__pycache__" not in names and "mod.py" in names
        assert tmp_path not in checkout.parents and not checkout.exists()


def _bench_ab(monkeypatch, processes, rounds):
    """scripts/bench_ab.py, importable by name in the processes it spawns,
    measuring in `processes` processes of `rounds` rounds each."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    module = importlib.import_module("bench_ab")
    monkeypatch.setattr(module, "PROCESSES", processes)
    monkeypatch.setattr(module, "ROUNDS", rounds)
    return module


def test_bench_ab_aa_run_writes_ratios_beside_other_keys(tmp_path, monkeypatch, capsys):
    bench_ab = _bench_ab(monkeypatch, 2, 3)
    out = tmp_path / "ab.json"
    out.write_text('{"runs": []}')
    assert bench_ab.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "chain-oracle",
                          "--out", str(out), "--key", "aa"]) == 0
    text = capsys.readouterr().out
    assert "chain-oracle: change/parent round time" in text, text
    doc = json.loads(out.read_text())
    assert doc["runs"] == [] and doc["aa"]["aa"] and doc["aa"]["seed"] == 1
    row = doc["aa"]["workloads"]["chain-oracle"]
    assert (row["processes"], row["rounds"], row["files"]) == (2, 3, 28)
    assert [len(r) for r in row["ratios"]] == [3, 3] and len(row["process_median_ratio"]) == 2
    lo, hi = row["ci95"]
    assert lo <= row["median_ratio"] <= hi
    # rounds 0 and 2 are even, round 1 odd
    assert row["even_round_median_ratio"] == statistics.median(r for run in row["ratios"] for r in run[0::2])
    assert row["odd_round_median_ratio"] == statistics.median(run[1] for run in row["ratios"])
    assert "(even rounds " in text and ", odd " in text
    assert len(row["file_median_ratio"]) == 28


def test_bench_ab_collects_garbage_between_rounds_only(monkeypatch):
    # each round starts with a collection and runs with the collector off
    bench_ab = _bench_ab(monkeypatch, 1, 2)
    events = []
    monkeypatch.setattr(gc, "collect", lambda: events.append("collect"))

    class FakeCli:
        @staticmethod
        def main(argv):
            events.append(gc.isenabled())
            return 0

    monkeypatch.setattr(bench_ab, "load_cli", lambda checkout, side: FakeCli)
    got = bench_ab.measure(dict.fromkeys(bench_ab.SIDES), bench_ab.SIDES, ["a.json", "b.json"], 2)
    assert set(got) == {"times", "differing_keys"} and got["differing_keys"] == {} and gc.isenabled()
    warm_up, timed = events[:4], events[4:]
    assert warm_up == [True] * 4
    assert timed == ["collect", False, False, False, False] * 2


def _change_tree(tmp_path, path, old, new):
    """A copy of this checkout's src and perfbench with `old` replaced by
    `new`, once, in the source file at `path` under src/fpf."""
    change = tmp_path / "change"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, change / part, ignore=shutil.ignore_patterns("__pycache__"))
    source_file = change / "src" / "fpf" / path
    source = source_file.read_text()
    assert source.count(old) == 1
    source_file.write_text(source.replace(old, new))
    return change


@pytest.mark.parametrize("path, old, new", [
    # every chain refused: another exit code and stderr
    ("measure.py", "MAX_JOINTS = 1 << 16", "MAX_JOINTS = 1"),
    # the same JSON objects spelt otherwise: no key differs
    ("scenario.py", "return _write(self.to_dict())", 'return _write(self.to_dict()) + " "'),
], ids=["exit-code", "layout"])
def test_bench_ab_stops_when_the_outputs_differ(tmp_path, monkeypatch, path, old, new):
    bench_ab = _bench_ab(monkeypatch, 1, 1)
    change = _change_tree(tmp_path, path, old, new)
    with pytest.raises(SystemExit, match="outputs differ on"):
        bench_ab.main(["--parent", str(ROOT), "--change", str(change), "--workload", "chain-oracle",
                       "--out", str(tmp_path / "ab.json")])
    assert not (tmp_path / "ab.json").exists()


def test_bench_ab_times_reports_that_differ_in_some_keys(tmp_path, monkeypatch, capsys):
    # a change tree whose chain oracle floors its estimate at 65 eps, not 64:
    # chain reports then differ in oracle_error_estimate alone
    bench_ab = _bench_ab(monkeypatch, 2, 2)
    change = _change_tree(tmp_path, "oracle.py", "64.0 * np.finfo(float).eps", "65.0 * np.finfo(float).eps")
    out = tmp_path / "ab.json"
    assert bench_ab.main(["--parent", str(ROOT), "--change", str(change), "--workload", "chain-oracle",
                          "--out", str(out)]) == 0
    row = json.loads(out.read_text())["bench_ab"]["workloads"]["chain-oracle"]
    assert [len(r) for r in row["ratios"]] == [2, 2] and len(row["file_median_ratio"]) == 28
    keys = row["differing_keys"]
    assert keys and all(names == ["oracle_error_estimate"] for names in keys.values())
    assert f"chain-oracle: {len(keys)} files' reports differ in oracle_error_estimate" in capsys.readouterr().out


def test_bench_ab_stops_when_a_side_changes_its_output(monkeypatch):
    bench_ab = _bench_ab(monkeypatch, 1, 2)
    calls = {side: 0 for side in bench_ab.SIDES}

    def fake_cli(side):
        class FakeCli:
            @staticmethod
            def main(argv):
                calls[side] += 1
                b = calls[side] if side == "change" else 0  # the change side's "b" grows each call
                print(json.dumps({"a": 1, "b": b}))
                return 0
        return FakeCli

    monkeypatch.setattr(bench_ab, "load_cli", lambda checkout, side: fake_cli(side))
    got = bench_ab.measure(dict.fromkeys(bench_ab.SIDES), bench_ab.SIDES, ["a.json"], 2)
    assert got == {"error": "change output changed on a.json in round 0"}


def _byte_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("byte_sweep")


SMALL_SWEEP = ["--random-seeds", "0", "--bench-seeds", "--out"]


def test_byte_sweep_aa_run_finds_no_difference(tmp_path, monkeypatch):
    byte_sweep = _byte_sweep(monkeypatch)
    monkeypatch.setattr(byte_sweep, "RANDOM_SHAPES", ((2, 1),))  # five random documents, one per kind
    out = tmp_path / "sweep.json"
    out.write_text('{"runs": []}')
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--root-depths", "10", "--random-seeds", "1",
            "--bench-seeds", "--out", str(out)]
    assert byte_sweep.main(argv) == 0
    doc = json.loads(out.read_text())
    row = doc["byte_sweep"]
    files = len(list((ROOT / "scenarios").glob("*.json")) + list((ROOT / "scenarios" / "gallery").glob("*.json")))
    randoms = len(byte_sweep.KINDS) * len(byte_sweep.RANDOM_SHAPES)  # one seed
    assert doc["runs"] == [] and row["aa"] and row["bases"] == files + randoms
    assert row["differences"] == 0 and row["first_differences"] == []
    classes = {name.split(":")[0] for name in row["classes"]}
    assert classes == {"random", "base", "big-int", "non-finite", "surrogate", "bom", "invalid-utf8",
                       "trailing", "duplicate-key", "deep-ignored", "query", "roots", "root-deep"}
    assert row["commands"] == sum(c["commands"] for c in row["classes"].values()) > 500
    assert row["classes"]["random"] == {
        "commands": randoms, "differences": 0, "exit_codes": {"0": randoms}, "differing_keys": {}
    }
    assert row["classes"]["root-deep"]["exit_codes"] == {"2": 6}
    query = {name.split(":")[1]: c for name, c in row["classes"].items() if name.startswith("query:")}
    assert set(query) == set(byte_sweep.QUERY_FAULTS) | {"pairs"}
    assert all(c["exit_codes"] == {"2": c["commands"]} for c in query.values())


def test_byte_sweep_names_the_commands_that_differ(tmp_path, monkeypatch):
    # a change tree that reads every integer orjson turns into a float
    byte_sweep = _byte_sweep(monkeypatch)
    change = tmp_path / "change"
    for part in ("src", "perfbench", "scenarios"):
        shutil.copytree(ROOT / part, change / part, ignore=shutil.ignore_patterns("__pycache__"))
    scenario = change / "src" / "fpf" / "scenario.py"
    source = scenario.read_text()
    assert "if not _INT64_MIN < value < _UINT64_END:" in source
    scenario.write_text(source.replace("if not _INT64_MIN < value < _UINT64_END:", "if False:"))
    out = tmp_path / "sweep.json"
    assert byte_sweep.main(["--parent", str(ROOT), "--change", str(change), "--root-depths", *SMALL_SWEEP, str(out)]) == 1
    row = json.loads(out.read_text())["byte_sweep"]
    assert row["differences"] > 0 and len(row["first_differences"]) == byte_sweep.MAX_SHOWN
    assert {d["class"] for d in row["first_differences"]} <= {f"big-int:{site}" for site in byte_sweep.SITES}


def test_byte_sweep_counts_the_report_keys_that_differ(tmp_path, monkeypatch, capsys):
    # a change tree whose chain oracle floors its estimate at 65 eps, not 64:
    # chain reports then differ in oracle_error_estimate alone
    byte_sweep = _byte_sweep(monkeypatch)
    change = tmp_path / "change"
    for part in ("src", "perfbench", "scenarios"):
        shutil.copytree(ROOT / part, change / part, ignore=shutil.ignore_patterns("__pycache__"))
    oracle = change / "src" / "fpf" / "oracle.py"
    source = oracle.read_text()
    assert source.count("64.0 * np.finfo(float).eps") == 1
    oracle.write_text(source.replace("64.0 * np.finfo(float).eps", "65.0 * np.finfo(float).eps"))
    out = tmp_path / "sweep.json"
    assert byte_sweep.main(["--parent", str(ROOT), "--change", str(change), "--root-depths", *SMALL_SWEEP, str(out)]) == 1
    classes = json.loads(out.read_text())["byte_sweep"]["classes"]
    base = classes["base"]
    chains = base["differing_keys"]["oracle_error_estimate"]
    assert base["differing_keys"] == {"oracle_error_estimate": chains} and chains > 0
    assert base["differences"] == 2 * chains  # each chain's json and table report
    assert all(set(row["differing_keys"]) <= {"oracle_error_estimate"} for row in classes.values())
    assert f"base: {base['commands']} commands, {base['differences']} differences; " \
           f"run reports differ in oracle_error_estimate ({chains})" in capsys.readouterr().out


def test_byte_sweep_reads_no_keys_from_reports_that_are_not_objects(monkeypatch):
    byte_sweep = _byte_sweep(monkeypatch)
    parent, change = '{"a": 1, "b": [1.5], "c": 0}', '{"a": 2, "b": [1.5], "d": 0}'
    assert byte_sweep.differing_keys(parent, change) == ["a", "c", "d"]
    assert byte_sweep.differing_keys('{"a": NaN}', '{"a": NaN}') == []
    assert byte_sweep.differing_keys("", '{"a": 1}') == byte_sweep.differing_keys("[1]", "[2]") == []


def test_unreached_lists_the_raises_a_test_file_never_runs(tmp_path):
    # pytest passes but leaves raises unrun: exit 1
    out = tmp_path / "unreached.json"
    stdout = run_script("unreached.py", "--out", str(out), "-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests" / "test_contour.py"), code=1)
    doc = json.loads(out.read_text())
    assert doc["pytest_exit_code"] == 0
    files = {row["file"] for row in doc["unreached"]}
    assert "src/fpf/contour.py" not in files and "src/fpf/scenario.py" in files
    assert {row["source"].partition(" ")[0] for row in doc["unreached"]} == {"raise"}
    assert doc["raises"] > len(doc["unreached"])
    assert stdout.splitlines()[-len(doc["unreached"]) - 1].startswith(
        f"{len(doc['unreached'])} of {doc['raises']} raise statements"
    )


def test_unreached_exits_with_a_failing_pytest_code_first(tmp_path):
    # no test selected: pytest exits 5, which outranks the unrun raises
    out = tmp_path / "unreached.json"
    run_script("unreached.py", "--out", str(out), "-q", "-p", "no:cacheprovider",
               "-k", "no_such_test", str(ROOT / "tests" / "test_contour.py"), code=5)
    doc = json.loads(out.read_text())
    assert doc["pytest_exit_code"] == 5 and doc["unreached"]


def test_tree_facts_counts_lines_beside_other_keys(tmp_path):
    out = tmp_path / "facts.json"
    out.write_text(json.dumps({"other": 1}))
    run_script("tree_facts.py", "--parent", str(ROOT), "--change", str(ROOT), "--out", str(out),
               "--tier1-runs", "0")
    doc = json.loads(out.read_text())
    assert doc["other"] == 1 and doc["tree_facts"]["tier1"]["change"] == []
    decorations = doc["tree_facts"]["dataclass_decorations"]
    assert decorations["parent"] == decorations["change"] != []
    lines = doc["tree_facts"]["src_lines"]
    modules = sorted((ROOT / "src" / "fpf").glob("*.py"))
    assert {p.name: lines[p.name]["change"] for p in modules} == {
        p.name: p.read_bytes().count(b"\n") for p in modules
    }
    assert lines["src/fpf"]["parent"] == lines["src/fpf"]["change"] == sum(
        lines[p.name]["change"] for p in modules
    )


def test_tree_facts_reads_pytest_summary_counts():
    spec = importlib.util.spec_from_file_location("tree_facts", ROOT / "scripts" / "tree_facts.py")
    tree_facts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tree_facts)
    assert tree_facts.summary_counts("1371 passed in 30.25s") == {"passed": 1371}
    assert tree_facts.summary_counts("2 failed, 5 passed, 1 error in 1.20s") == {
        "failed": 2, "passed": 5, "errors": 1,
    }
