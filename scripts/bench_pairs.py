"""Benchmark a change against its parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --out BENCH_3.json --parent HEAD \\
        --workloads sensing-gaussian completion-optspace harness-jobs2 \\
        --seeds 1-10,424242 --trace-seeds 16 --seconds 30

Writes two trees side by side into one temporary directory (make_trees): the
parent revision ("parent", by `git archive`) and a snapshot of this working
tree ("change": its tracked files as they are on disk, and its untracked
files that git does not ignore), so both sides run from copies made the
same way at the same depth.  Then for each seed and workload it runs
``perfbench/run.py`` once on each tree, alternating from one pair to the
next which side runs first.  Each run's last two stdout lines
(environment, result) are kept with side, workload, seed, trace and ran_first
added, and the output file is rewritten after every run.  Traced runs
(``--trace 1``) are made once per side for each ``--trace-seeds`` seed.

A run whose last line is not a JSON object with the keys correct, attempted,
failed and metrics, or that reports a metric as null or non-finite (the
traced run's sign of a hook target that is gone), stops the script with an
error naming the tree, workload and seed.

At the end it prints, per workload and end-to-end metric, each side's median
and quartiles over the untraced runs, the median and quartiles of the
per-pair ratio change/parent (pairs whose parent reads 0 left out), and the
number of pairs in which the change read lower, then the share of failed
operations on each side.  The ratios are reported only; the verdict below
does not read them.

It then prints a verdict by the benchmark's rule, and exits 1 unless every
line of it passes.  With ``--claim WORKLOAD:METRIC``, the claim holds when
the change reads better (as BENCHMARK.json's ``better`` says) in at least
9/10 of the pairs, ties counting for neither side, and the two medians
differ by more than the distance between the parent's quartiles.  Every
other workload and end-to-end metric is "within
bound" when the change's median is worse than the parent's by no more than
the metric's ``bound`` in BENCHMARK.json, "over bound" when it is worse by
more, and "unresolved" when the parent's own spread (quartile distance over
median) is wider than the bound and not every change run reads better than
every parent run.  Standard library only.
"""

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
CLAIM_WIN_SHARE = 0.9   # the change must read better in this share of pairs
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def parse_seeds(text):
    """'1-3,424242' -> [1, 2, 3, 424242]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="ledger file to write, BENCH_<n>.json")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="paired untraced seeds, e.g. 1-10,424242")
    ap.add_argument("--trace-seeds", type=parse_seeds, default=[],
                    help="seeds for one traced run per side")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--claim", type=parse_claim, default=None, metavar="WORKLOAD:METRIC",
                    help="end-to-end metric the change claims to improve, e.g. "
                         "sensing-gaussian:wall_s; prints a verdict at the end")
    return ap.parse_args(argv)


def parse_claim(text):
    """'sensing-gaussian:wall_s' -> ('sensing-gaussian', 'wall_s')."""
    workload, sep, metric = text.partition(":")
    if not (sep and workload and metric):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC, got {text!r}")
    return workload, metric


def make_trees(rev, tmp, repo=ROOT):
    """The two trees a comparison runs, written side by side under ``tmp``:
    ``tmp/parent`` holds the tree of git revision ``rev`` of ``repo``, and
    ``tmp/change`` a snapshot of ``repo``'s working tree, its tracked files as
    they are on disk (a deleted one left out) and its untracked files that
    git does not ignore.  Returns (the parent's full commit id, {"parent":
    path, "change": path})."""
    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True,
                              check=True).stdout

    trees = {side: Path(tmp) / side for side in ("parent", "change")}
    commit = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tf:
        tf.extractall(trees["parent"], filter="data")
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, map(os.fsdecode, listed.split(b"\0"))):
        src, dst = Path(repo) / name, trees["change"] / name
        if src.is_file() or src.is_symlink():
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst, follow_symlinks=False)
    trees["change"].mkdir(exist_ok=True)
    return commit, trees


def run_once(tree, workload, seed, trace, seconds):
    """One perfbench run; returns its environment and result lines merged."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    where = f"{tree}: {workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        raise RuntimeError(f"{where}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    try:
        env, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    except ValueError:   # fewer than two lines, or one that is not JSON
        env = result = None
    if (not isinstance(result, dict) or any(k not in result for k in RESULT_KEYS)
            or not isinstance(result["metrics"], dict)):
        raise RuntimeError(f"{where}: stdout does not end in an environment line and "
                           f"a result with keys {', '.join(RESULT_KEYS)}")
    bad = [name for name, m in result["metrics"].items()
           if not isinstance(m, dict) or not _finite(m.get("value"))]
    if bad:
        raise RuntimeError(f"{where}: null or non-finite metrics: {', '.join(bad)}")
    return {**env, **result}


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pairs_of(runs, workload):
    """The untraced runs of ``workload`` as [{"parent": run, "change": run}]."""
    paired = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == 0:
            paired.setdefault(run["seed"], {})[run["side"]] = run
    return [p for p in paired.values() if len(p) == 2]


def values(pairs, side, name):
    return [p[side]["metrics"][name]["value"] for p in pairs]


def summarize(runs, workloads):
    lines = []
    for workload in workloads:
        pairs = pairs_of(runs, workload)
        if not pairs:
            continue
        lines.append(f"{workload}: {len(pairs)} pairs")
        for name in pairs[0]["parent"]["metrics"]:
            cols = []
            for side in ("parent", "change"):
                vals = values(pairs, side, name)
                q1, q3 = quartiles(vals)
                cols.append(f"{side} {statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}]")
            ratios = [c / p for p, c in zip(values(pairs, "parent", name),
                                            values(pairs, "change", name)) if p]
            if ratios:
                q1, q3 = quartiles(ratios)
                cols.append(f"ratio {statistics.median(ratios):.4g} [{q1:.4g}, {q3:.4g}]")
            else:
                cols.append("ratio -")
            wins = sum(p["change"]["metrics"][name]["value"]
                       < p["parent"]["metrics"][name]["value"] for p in pairs)
            lines.append(f"  {name:12s} {cols[0]:32s} {cols[1]:32s} {cols[2]:30s} "
                         f"change lower in {wins}/{len(pairs)}")
        fails = []
        for side in ("parent", "change"):
            failed = sum(p[side]["failed"] for p in pairs)
            attempted = sum(p[side]["attempted"] for p in pairs)
            fails.append(f"{side} {failed}/{attempted}")
        lines.append(f"  {'failed':12s} {fails[0]:32s} {fails[1]}")
    return "\n".join(lines)


def verdict(runs, workloads, claim, end_to_end):
    """Lines judging ``claim`` = (workload, metric) and every other workload x
    end-to-end metric by the rule in the module docstring.  ``end_to_end`` is
    BENCHMARK.json's list of {name, better, bound}.  Returns (lines, ok), ok
    when the claim holds, nothing is over bound or unresolved, and no side
    has a failed operation."""
    lines, ok = [], True
    for workload in workloads:
        pairs = pairs_of(runs, workload)
        if not pairs:
            lines.append(f"{workload}: no pairs")
            ok = False
            continue
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            parent = [sign * v for v in values(pairs, "parent", name)]
            change = [sign * v for v in values(pairs, "change", name)]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            q1, q3 = quartiles(parent)
            if (workload, name) == claim:
                wins = sum(c < p for c, p in zip(change, parent))
                holds = (wins >= CLAIM_WIN_SHARE * len(pairs)
                         and p_med - c_med > q3 - q1)
                status = (f"claim {'holds' if holds else 'not met'}: better in "
                          f"{wins}/{len(pairs)} pairs, medians differ by "
                          f"{abs(p_med - c_med):.4g}, parent quartile distance "
                          f"{q3 - q1:.4g}")
                ok &= holds
            else:
                worse = (c_med - p_med) / abs(p_med) if p_med else 0.0
                if worse > metric["bound"]:
                    status = "over bound"
                elif (q3 - q1) / abs(p_med) > metric["bound"] and max(change) >= min(parent):
                    status = "unresolved"
                else:
                    status = "within bound"
                status += f": change {worse:+.1%} against a bound of {metric['bound']:.0%}"
                ok &= status.startswith("within")
            lines.append(f"{workload} {name}: {status}")
        failed = sum(p[side]["failed"] for p in pairs for side in ("parent", "change"))
        if failed:
            lines.append(f"{workload}: {failed} failed operations")
            ok = False
    return lines, ok


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim and (args.claim[0] not in args.workloads
                       or args.claim[1] not in {m["name"] for m in end_to_end}):
        print(f"--claim {':'.join(args.claim)} names no workload in --workloads "
              f"and end-to-end metric in BENCHMARK.json", file=sys.stderr)
        return 2
    out = Path(args.out)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        commit, trees = make_trees(args.parent, tmp)
        ledger = {
            "about": (f"Result lines of perfbench/run.py (its last two stdout lines: "
                      f"env, then the result), one per run, for the parent commit "
                      f"{commit[:7]} and the working tree on top of it, each run from "
                      f"its own copy under one temporary directory. Untraced runs "
                      f"are pairs that alternate which side runs first (ran_first); "
                      f"trace 1 runs are one per side per traced seed."),
            "command": " ".join(["python3", "scripts/bench_pairs.py", *argv]),
            "runs": [],
        }
        # k counts the pairs of one workload, so its sides alternate
        schedule = [(k, seed, workload, 0) for k, seed in enumerate(args.seeds)
                    for workload in args.workloads]
        schedule += [(k, seed, workload, 1) for k, seed in enumerate(args.trace_seeds)
                     for workload in args.workloads]
        for k, seed, workload, trace in schedule:
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, seed, trace, args.seconds)
                run.update(side=side, workload=workload, seed=seed, trace=trace,
                           ran_first=order[0])
                ledger["runs"].append(run)
                out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
                wall = run["metrics"].get("wall_s", run["metrics"].get("trace.wall_s", {}))
                print(f"{workload} seed {seed} trace {trace} {side}: "
                      f"wall {wall.get('value', float('nan')):.3f} s, "
                      f"failed {run['failed']}/{run['attempted']}", flush=True)
    print(summarize(ledger["runs"], args.workloads))
    lines, ok = verdict(ledger["runs"], args.workloads, args.claim, end_to_end)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
