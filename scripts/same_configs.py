"""Check that a change gives the same `lowrankrec bench` results as its
parent commit on whole experiment configs, and time each config end to end.

    python3 scripts/same_configs.py --parent HEAD --jobs 2 configs/*.cfg \\
        [--out CONFIGS_<n>.json]

Writes the parent revision ("parent") and a snapshot of this working tree
("change") side by side into one temporary directory with bench_pairs.py's
make_trees.  Then, for every config, it runs
``python3 -m lowrankrec.cli bench --config CFG --jobs N`` once on each tree,
each importing its own ``src/``, with BLAS pinned to one thread.  Which tree runs first alternates
from one config to the next.

Per config it prints the wall time of each side's run, then compares:
  * the exit codes;
  * the CSV, without its ``seconds`` column;
  * the JSON ``cells`` and ``trials``, without their ``seconds`` fields.
A difference in any of them is a result difference.  Keys of the JSON config
echo that differ (dotted, e.g. ``solver.max_iters``) are printed as a note,
not a failure, since a change may add or drop a setting on purpose.

Beside that exact comparison it prints a gate-level one: gates are "same"
when the exit codes match (floor violations exit 1) and every cell's
successes, failures and non-convergences match, and "differ" otherwise.  A
change that moves rel_err at rounding level then reads results "differ"
but gates "same".  Successes are "same" when the exit codes and every
cell's successes match, so a trial that moves from non-converged to a
converged failure reads gates "differ" but successes "same".

With ``--out FILE.json`` it also writes a ledger: the parent commit, --jobs,
and per config each side's wall time and exit code, the differences and the
config-echo notes, the verdict ("identical" or "differ"), the gates and
the successes ("same" or "differ").  The file is rewritten after every config.

Exits 1 when any config's results differ.  Standard library only.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import make_trees

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 3600
TIMING = "seconds"
GATE_COUNTS = ("successes", "failures", "non_convergences")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--jobs", type=int, default=1, help="--jobs of each bench run")
    ap.add_argument("--out", default=None, help="ledger file to write, CONFIGS_<n>.json")
    ap.add_argument("configs", nargs="+", help="experiment config files")
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be positive")
    return args


def run_bench(tree, config, out_dir, jobs):
    """One `lowrankrec bench` run of ``tree``; returns (exit code, wall seconds)."""
    env = {**os.environ, **{var: "1" for var in BLAS_VARS},
           "PYTHONPATH": str(Path(tree) / "src")}
    cmd = [sys.executable, "-m", "lowrankrec.cli", "bench", "--config", str(config),
           "--out", str(out_dir), "--jobs", str(jobs)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    return proc.returncode, time.perf_counter() - t0


def _without_timing(rows):
    return [{k: v for k, v in row.items() if k != TIMING} for row in rows]


def load_outputs(out_dir):
    """What a bench run wrote to ``out_dir``, timing removed: {"csv": rows,
    "cells": ..., "trials": ..., "config": ...}; empty if it wrote nothing."""
    out = Path(out_dir)
    loaded = {}
    for path in sorted(out.glob("*.csv")) if out.is_dir() else []:
        with open(path, newline="") as fh:
            loaded["csv"] = _without_timing(csv.DictReader(fh))
    for path in sorted(out.glob("*.json")) if out.is_dir() else []:
        payload = json.loads(path.read_text())
        loaded["cells"] = _without_timing(payload["cells"])
        loaded["trials"] = [_without_timing(recs) for recs in payload["trials"]]
        loaded["config"] = payload["config"]
    return loaded


def _flatten(value, prefix=""):
    """Nested dicts as {dotted key: leaf}; lists are leaves."""
    if not isinstance(value, dict):
        return {prefix: value}
    flat = {}
    for key, sub in value.items():
        flat.update(_flatten(sub, f"{prefix}.{key}" if prefix else key))
    return flat


def compare(parent, change):
    """Compare two runs, each (exit code, load_outputs dict).  Returns
    (differences, config-echo keys that differ); the first must be empty
    for the results to be the same."""
    (p_code, p_out), (c_code, c_out) = parent, change
    diffs = []
    if p_code != c_code:
        diffs.append(f"exit code {p_code} -> {c_code}")
    for part in ("csv", "cells", "trials"):
        if p_out.get(part) != c_out.get(part):
            diffs.append(f"{part} differ")
    p_echo, c_echo = _flatten(p_out.get("config", {})), _flatten(c_out.get("config", {}))
    missing = object()
    echo = sorted(k for k in set(p_echo) | set(c_echo)
                  if p_echo.get(k, missing) != c_echo.get(k, missing))
    return diffs, echo


def gates(parent, change, keys=GATE_COUNTS):
    """Gate-level verdict of two runs, each (exit code, load_outputs dict):
    "same" when the exit codes and every cell's ``keys`` counts match."""
    def counts(out):
        return [{k: cell.get(k) for k in keys} for cell in out.get("cells", [])]
    (p_code, p_out), (c_code, c_out) = parent, change
    return "same" if p_code == c_code and counts(p_out) == counts(c_out) else "differ"


def ledger_entry(config, runs, diffs, echo, gate, successes):
    """One config's ledger record; ``runs`` maps side -> (exit code, outputs,
    wall seconds)."""
    return {
        "config": Path(config).name,
        "wall_s": {side: round(runs[side][2], 3) for side in ("parent", "change")},
        "exit": {side: runs[side][0] for side in ("parent", "change")},
        "differences": diffs,
        "echo_notes": echo,
        "verdict": "differ" if diffs else "identical",
        "gates": gate,
        "successes": successes,
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    configs = [Path(c).resolve() for c in args.configs]
    ok = True
    with tempfile.TemporaryDirectory(prefix="same-configs-") as tmp:
        commit, trees = make_trees(args.parent, tmp)
        print(f"parent {commit[:7]} against the working tree; --jobs {args.jobs}")
        ledger = {"parent": commit, "jobs": args.jobs, "configs": []}
        for k, config in enumerate(configs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {}
            for side in order:
                out_dir = Path(tmp) / "out" / side / str(k)
                code, wall = run_bench(trees[side], config, out_dir, args.jobs)
                runs[side] = (code, load_outputs(out_dir), wall)
            pair = (runs["parent"][:2], runs["change"][:2])
            diffs, echo = compare(*pair)
            gate, succ = gates(*pair), gates(*pair, ("successes",))
            ok &= not diffs
            print(f"{config.name}: wall parent {runs['parent'][2]:.2f} s, change "
                  f"{runs['change'][2]:.2f} s; exit {runs['parent'][0]} / "
                  f"{runs['change'][0]}; "
                  + ("results identical" if not diffs else "RESULTS DIFFER: "
                     + ", ".join(diffs))
                  + f"; gates {gate}, successes {succ}")
            if echo:
                print(f"  note: config echo differs in {', '.join(echo)}")
            if args.out:
                ledger["configs"].append(ledger_entry(config, runs, diffs, echo, gate, succ))
                Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    print("same results" if ok else "RESULTS DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
