import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def run(side, workload, seed, wall, rss=50.0, failed=0, trace=0):
    return {"side": side, "workload": workload, "seed": seed, "trace": trace,
            "failed": failed, "attempted": 10,
            "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": rss}}}


def ledger(parent_walls, change_walls, workload="w", rss=(50.0, 50.0)):
    runs = []
    for seed, (pw, cw) in enumerate(zip(parent_walls, change_walls)):
        runs.append(run("parent", workload, seed, pw, rss[0]))
        runs.append(run("change", workload, seed, cw, rss[1]))
    return runs


def statuses(lines):
    return {key: rest for key, _, rest in (line.partition(": ") for line in lines)}


def test_parse_seeds_ranges_and_singles():
    assert bench_pairs.parse_seeds("1-3,424242") == [1, 2, 3, 424242]
    assert bench_pairs.parse_seeds("7") == [7]
    assert bench_pairs.parse_seeds("2-2,5-6") == [2, 5, 6]


def test_parse_claim():
    assert bench_pairs.parse_claim("sensing-gaussian:wall_s") == ("sensing-gaussian", "wall_s")
    with pytest.raises(bench_pairs.argparse.ArgumentTypeError):
        bench_pairs.parse_claim("wall_s")


def test_claim_holds_on_nine_of_ten_with_wide_gap():
    parent = [5.0, 5.1, 4.9, 5.2, 5.0, 4.8, 5.1, 5.0, 4.9, 5.3]
    change = [3.8, 3.9, 3.7, 4.0, 3.6, 3.9, 3.8, 3.7, 4.9, 3.9]   # pair 9 ties
    lines, ok = bench_pairs.verdict(ledger(parent, change), ["w"], ("w", "wall_s"),
                                    END_TO_END)
    st = statuses(lines)
    assert st["w wall_s"].startswith("claim holds") and "9/10" in st["w wall_s"]
    assert st["w peak_rss_mb"].startswith("within bound")
    assert ok


def test_claim_not_met_on_eight_of_ten():
    parent = [5.0] * 10
    change = [3.0] * 8 + [5.5, 5.5]
    lines, ok = bench_pairs.verdict(ledger(parent, change), ["w"], ("w", "wall_s"),
                                    END_TO_END)
    assert statuses(lines)["w wall_s"].startswith("claim not met")
    assert not ok


def test_claim_not_met_inside_parent_spread():
    # wins every pair, but by less than the parent's quartile distance
    parent = [4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0]
    change = [p - 0.1 for p in parent]
    lines, ok = bench_pairs.verdict(ledger(parent, change), ["w"], ("w", "wall_s"),
                                    END_TO_END)
    assert "10/10" in statuses(lines)["w wall_s"]
    assert statuses(lines)["w wall_s"].startswith("claim not met")
    assert not ok


def test_bounds_on_unclaimed_metrics():
    parent = [5.0] * 10
    within = ledger(parent, [6.0] * 10, rss=(50.0, 54.0))        # +20%, +8%
    lines, ok = bench_pairs.verdict(within, ["w"], None, END_TO_END)
    assert all(s.startswith("within bound") for s in statuses(lines).values())
    assert ok
    over = ledger(parent, [6.5] * 10, rss=(50.0, 56.0))          # +30%, +12%
    lines, ok = bench_pairs.verdict(over, ["w"], None, END_TO_END)
    assert all(s.startswith("over bound") for s in statuses(lines).values())
    assert not ok


def test_wide_parent_spread_is_unresolved_unless_separated():
    parent = [2.0, 8.0] * 5                 # quartile distance far over 25%
    lines, ok = bench_pairs.verdict(ledger(parent, [5.0] * 10), ["w"], None, END_TO_END)
    assert statuses(lines)["w wall_s"].startswith("unresolved")
    assert not ok
    lines, ok = bench_pairs.verdict(ledger(parent, [1.0] * 10), ["w"], None, END_TO_END)
    assert statuses(lines)["w wall_s"].startswith("within bound")


def test_failed_operations_and_traced_runs():
    runs = ledger([5.0] * 10, [5.0] * 10)
    runs.append(run("change", "w", 0, 9.0, trace=1))      # traced runs are not paired
    runs[1]["failed"] = 1
    lines, ok = bench_pairs.verdict(runs, ["w", "absent"], None, END_TO_END)
    assert "w: 1 failed operations" in lines
    assert "absent: no pairs" in lines
    assert statuses(lines)["w wall_s"].startswith("within bound")
    assert not ok


def finished(stdout, returncode=0):
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr="")
    return fake_run


RESULT = {"correct": True, "attempted": 4, "failed": 0,
          "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}


def test_run_once_merges_env_and_result(monkeypatch):
    env = json.dumps({"env": {"nproc": 2}})
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        finished(f"# table\n{env}\n{json.dumps(RESULT)}\n"))
    run = bench_pairs.run_once("/tree", "w", 3, 0, 1.0)
    assert run["env"] == {"nproc": 2} and run["metrics"] == RESULT["metrics"]


@pytest.mark.parametrize("last", [
    "# wall_s 1.25 s",                                         # not JSON
    json.dumps([1, 2]),                                        # not an object
    json.dumps({k: v for k, v in RESULT.items() if k != "failed"}),
    json.dumps({**RESULT, "metrics": {"wall_s": {"value": None, "unit": "s"}}}),
    json.dumps({**RESULT, "metrics": {"x.s": {"value": float("nan"), "unit": "s"}}}),
    json.dumps({**RESULT, "metrics": {"x.s": {"value": float("inf"), "unit": "s"}}}),
])
def test_run_once_rejects_a_malformed_result(monkeypatch, last):
    env = json.dumps({"env": {}})
    monkeypatch.setattr(bench_pairs.subprocess, "run", finished(f"{env}\n{last}\n"))
    with pytest.raises(RuntimeError) as err:
        bench_pairs.run_once("/tree", "sensing-gaussian", 16, 1, 1.0)
    assert "/tree: sensing-gaussian seed 16" in str(err.value)


@pytest.mark.parametrize("change_wall, status, verdict_line", [
    (5.0, 0, "w wall_s: within bound"),
    (7.0, 1, "w wall_s: over bound"),
])
def test_main_without_claim_prints_verdict_and_exit_status(
        monkeypatch, tmp_path, capsys, change_wall, status, verdict_line):
    # a run that claims nothing still gets a verdict, and any case not within
    # bound makes the exit status 1
    def fake_run_once(tree, workload, seed, trace, seconds):
        wall = change_wall if tree == str(bench_pairs.ROOT) else 5.0
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {
            m: {"value": wall} for m in ("setup_s", "wall_s", "op_s.p50", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    rc = bench_pairs.main(["--out", str(tmp_path / "b.json"), "--workloads", "w",
                           "--seeds", "1-3"])
    assert rc == status
    assert verdict_line in capsys.readouterr().out
