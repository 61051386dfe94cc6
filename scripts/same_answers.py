"""Check that a change gives the same answers as its parent commit on the
benchmark's instances.

    python3 scripts/same_answers.py --parent HEAD --seeds 1-3,424242 --passes 3

Extracts the parent revision into a temporary directory with bench_pairs.py's
`git archive` helper.  Then, in a subprocess per tree ("parent" and this
working tree, "change"), it imports that tree's package and its
``perfbench/workloads.py`` (read only) and, for every seed, pass and
operation of the sensing-gaussian and completion-optspace workloads, draws
the instance as the benchmark does, runs the operation and applies its gate.
BLAS is pinned to one thread.

Per workload and operation kind it prints:
  * the gate outcomes (valid, passed) on each side and how many differ;
  * how many estimates are bit-identical;
  * one line for the bit-identical operations and one for the changed ones,
    so a changed estimate does not hide how close the others are, each
    with: the largest relative difference of the estimate's nuclear norm;
    the largest |change rel_err - parent rel_err| and the largest rel_err
    on each side, rel_err being ||X^ - X||_F / ||X||_F against the
    instance's truth; the largest relative difference of each report
    scalar (objective, equality_residual, dual_residual); and in how many
    operations the report's flags differ;
  * iterations, prox steps (SVDs), restarts (momentum resets; rejected
    Anderson points in the noiseless program), the `stage-iteration-cap`
    and `iteration-cap` flags and the `converged=False` reports summed on
    each side, and in how many operations `iterations`, `prox_steps`,
    `restarts` and `converged` differ (equal sums can hide a +1 in one
    operation and a -1 in another).

Exits 1 when any gate outcome differs or the two sides did not run the same
operations.  harness-jobs2 is left out: its operation is a whole bench run
gated on a digest of a --jobs 1 run of the same tree.  The comparison itself
is standard library only; numpy is imported by the collector.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract, parse_seeds

WORKLOADS = ("sensing-gaussian", "completion-optspace")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COLLECT_TIMEOUT_S = 3600
CAP_FLAG = "stage-iteration-cap"
ITER_CAP_FLAG = "iteration-cap"
REPORT_SCALARS = ("objective", "equality_residual", "dual_residual")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-3,424242"),
                    help="workload seeds, e.g. 1-3,424242")
    ap.add_argument("--passes", type=int, default=3, help="passes 0 .. N-1 per seed")
    ap.add_argument("--collect", metavar="TREE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be positive")
    return args


def collect(tree, seeds, passes):
    """Records of every operation, run on the package and workloads of ``tree``."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import numpy as np
    import workloads as wl

    records = []
    for workload in WORKLOADS:
        for seed in seeds:
            for p in range(passes):
                for inst in wl.make_pass(workload, seed, p):
                    result = wl.run_op(inst, None)
                    valid, ok = wl.check(inst, result, None)
                    est = np.ascontiguousarray(result.estimate, dtype=float)
                    records.append({
                        "workload": workload, "kind": inst.spec.name,
                        "seed": seed, "pass": p,
                        "valid": bool(valid), "ok": bool(ok),
                        "nuclear": float(np.linalg.svd(est, compute_uv=False).sum()),
                        "rel_err": float(np.linalg.norm(est - inst.truth)
                                         / np.linalg.norm(inst.truth)),
                        "digest": hashlib.sha256(est.tobytes()).hexdigest(),
                        "iterations": int(result.iterations),
                        "prox_steps": int(getattr(result, "prox_steps", 0)),
                        "restarts": int(getattr(result, "restarts", 0)),
                        "capped": CAP_FLAG in result.flags,
                        "iter_capped": ITER_CAP_FLAG in result.flags,
                        "unconverged": not result.converged,
                        **{k: float(getattr(result, k)) for k in REPORT_SCALARS},
                        "flags": list(result.flags),
                    })
    return records


def run_collector(tree, args):
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree),
           "--seeds", ",".join(map(str, args.seeds)), "--passes", str(args.passes)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=COLLECT_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"collector in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _key(rec):
    return rec["workload"], rec["kind"], rec["seed"], rec["pass"]


def _rel_diff(a, b):
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def _group_line(label, pairs):
    """How far apart the two sides of ``pairs`` are: estimates, errors
    against the truth, report scalars and flags."""
    if not pairs:
        return f"    {label:<10} 0"
    d_nuc = max(_rel_diff(p["nuclear"], c["nuclear"]) for p, c in pairs)
    d_err = max(abs(c["rel_err"] - p["rel_err"]) for p, c in pairs)
    err = " -> ".join(f"{max(pair[k]['rel_err'] for pair in pairs):.2g}" for k in (0, 1))
    d_report = " ".join(f"{k} {max(_rel_diff(p[k], c[k]) for p, c in pairs):.2g};"
                        for k in REPORT_SCALARS)
    flag_diff = sum(p["flags"] != c["flags"] for p, c in pairs)
    return (f"    {label:<10} {len(pairs)}: max rel nuclear-norm diff {d_nuc:.2g}; "
            f"max |d rel_err| {d_err:.2g}; max rel_err {err}; "
            f"max rel diff {d_report} flags differ in {flag_diff}")


def compare(parent, change):
    """Lines comparing two record lists, one block per (workload, kind), and
    ok: the same operations ran on both sides with the same gate outcomes."""
    p_by, c_by = {_key(r): r for r in parent}, {_key(r): r for r in change}
    lines, ok = [], True
    missing = sorted(set(p_by) ^ set(c_by))
    if missing:
        ok = False
        lines.append(f"{len(missing)} operations ran on one side only, e.g. {missing[0]}")
    kinds = {}
    for key in sorted(set(p_by) & set(c_by)):
        kinds.setdefault(key[:2], []).append((p_by[key], c_by[key]))
    for (workload, kind), pairs in kinds.items():
        n = len(pairs)
        differ = sum((p["valid"], p["ok"]) != (c["valid"], c["ok"]) for p, c in pairs)
        ok &= differ == 0
        same = [pc for pc in pairs if pc[0]["digest"] == pc[1]["digest"]]
        changed = [pc for pc in pairs if pc[0]["digest"] != pc[1]["digest"]]
        def total(field, side):   # side 0: parent, 1: change
            return sum(pair[side][field] for pair in pairs)

        def differ_in(field):
            return sum(p[field] != c[field] for p, c in pairs)

        gates = " ".join(f"{side} valid {total('valid', k)}/{n} passed {total('ok', k)}/{n}"
                         for k, side in enumerate(("parent", "change")))
        lines += [
            f"{workload} {kind}: {n} operations",
            f"  gates        {gates}; outcomes differ in {differ}",
            f"  estimates    bit-identical in {len(same)}/{n}",
            _group_line("identical", same),
            _group_line("changed", changed),
            f"  work         iterations {total('iterations', 0)} -> {total('iterations', 1)} "
            f"(differs in {differ_in('iterations')}), "
            f"prox steps {total('prox_steps', 0)} -> {total('prox_steps', 1)} "
            f"(differs in {differ_in('prox_steps')}), "
            f"restarts {total('restarts', 0)} -> {total('restarts', 1)} "
            f"(differs in {differ_in('restarts')}), "
            f"{CAP_FLAG} {total('capped', 0)} -> {total('capped', 1)}, "
            f"{ITER_CAP_FLAG} {total('iter_capped', 0)} -> {total('iter_capped', 1)}, "
            f"converged=False {total('unconverged', 0)} -> {total('unconverged', 1)} "
            f"(differs in {differ_in('unconverged')})",
        ]
    return lines, ok


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.collect:
        print(json.dumps(collect(args.collect, args.seeds, args.passes)))
        return 0
    with tempfile.TemporaryDirectory(prefix="same-answers-parent-") as tmp:
        commit = extract(args.parent, tmp)
        parent = run_collector(tmp, args)
    change = run_collector(ROOT, args)
    print(f"parent {commit[:7]} against the working tree; seeds "
          f"{','.join(map(str, args.seeds))}, passes 0-{args.passes - 1}")
    lines, ok = compare(parent, change)
    print("\n".join(lines))
    print("same gate outcomes" if ok else "GATE OUTCOMES DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
