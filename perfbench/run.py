"""lowrankrec benchmark: time to solution of the recovery programs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout and imports the package from
``src/``.  One run is one workload in one process, closed loop: passes over
the workload's fixed list of operations (see workloads.py) repeat until
``--seconds`` have elapsed and at least three passes are done, each pass on
fresh instances drawn from the seed, and every result goes through its
correctness gate.  BLAS is pinned to one thread per process.

--trace 0 prints the end-to-end metrics:
  setup_s      median of 5 fresh-process set-ups: package import plus drawing
               the first pass's instances (truths, masks or ensembles, data)
  wall_s       median over passes of the time to finish the list once
  op_s.p50     median time of one operation; with several operation kinds in
               the list, the mean over the list of each kind's median.  A
               fifth to a third of kappa=1 optspace runs take 3-15x its
               median, so a geometric mean, which weights each kind's
               median alike, was unsteady over the few passes a run has
               time for
  peak_rss_mb  peak resident memory of this process, in MiB
The share of failed operations is `failed` / `attempted` in the last line.

--trace 1 runs pass 0 untraced, then again with spans recorded around the
package's public functions and numpy.linalg (tracing.py), and prints the
per-layer metrics of the traced pass.  Spans are written to
.perfbench_out/.  --workload all runs every workload in its own process and
prints a table of their end-to-end metrics.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("sensing-gaussian", "completion-optspace", "harness-jobs2")
BLAS_THREADS = "1"   # faster than 2 at these sizes; bench workers run one each
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_PASSES = 3   # a median over passes then ignores one slow outlier instance
CHILD_TIMEOUT_S = 170

RECORD_KEYS = ("kind", "s", "valid", "ok")   # per-operation record kept
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_s.p50", "s"),
              ("peak_rss_mb", "MiB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lowrankrec" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lowrankrec'}; run from a "
              "lowrankrec checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:   # before numpy is imported, here and in children
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    setup = [run_child(["--probe-setup", "--workload", args.workload,
                        "--seed", str(args.seed)]) for _ in range(SETUP_PROBES)]
    if args.trace:
        record = traced_run(args, setup)
    else:
        record = timed_run(args, setup)
    record["env"] = environment()
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_summary(args.workload, record)
    print(json.dumps({"env": record["env"]}, sort_keys=True))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


def probe_setup(args):
    """One set-up in a fresh process; prints its parts as JSON."""
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    clock = {"truth_s": 0.0, "measure_s": 0.0}
    workloads.make_pass(args.workload, args.seed, 0, clock)
    print(json.dumps({"import_s": import_s, **clock}))
    return 0


def run_child(extra):
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + extra,
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {extra} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_metrics(setup):
    med = {k: statistics.median(p[k] for p in setup)
           for k in ("import_s", "truth_s", "measure_s")}
    med["setup_s"] = statistics.median(sum(p.values()) for p in setup)
    return med


def run_pass(wl, insts, harness, tracer=None):
    """Run one pass; returns per-op records and the pass wall time."""
    ops = []
    for k, inst in enumerate(insts):
        if tracer is not None:
            tracer.op_id = k
        t0 = time.perf_counter()
        try:
            result = wl.run_op(inst, harness)
        except Exception:   # an operation that raises counts as failed
            traceback.print_exc()
            result = None
        ops.append({"inst": inst, "kind": inst.spec.name, "program": inst.spec.program,
                    "s": time.perf_counter() - t0, "result": result})
    return ops, sum(op["s"] for op in ops)


def grade(wl, ops, harness):
    """Apply each operation's gate; outside the timed and traced region."""
    for op in ops:
        valid, ok = (False, False) if op["result"] is None else \
            wl.check(op["inst"], op["result"], harness)
        if not ok:
            print(f"{op['kind']}: gate missed (valid={valid})", file=sys.stderr)
        op["valid"], op["ok"] = bool(valid), bool(ok)


def outcome(ops):
    """correct: every result valid.  failed: operations that raised or
    missed their gate (fail_frac = failed / attempted)."""
    return {"correct": all(op["valid"] for op in ops), "attempted": len(ops),
            "failed": sum(not op["ok"] for op in ops)}


def start_harness(wl, args):
    if args.workload != "harness-jobs2":
        return None
    harness = wl.Harness(args.seed, OUT)
    rc, digest, _ = harness.invoke(1)
    harness.reference = digest if rc == 0 else None
    return harness


def timed_run(args, setup):
    import workloads as wl
    harness = start_harness(wl, args)
    passes, ops = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        insts = wl.make_pass(args.workload, args.seed, len(passes))
        pass_ops, wall = run_pass(wl, insts, harness)
        grade(wl, pass_ops, harness)
        passes.append(wall)
        # keep no instance or result past its pass, so peak RSS is one pass's
        ops.extend({k: op[k] for k in RECORD_KEYS} for op in pass_ops)
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op["s"])
    median = {kind: statistics.median(times) for kind, times in by_kind.items()}
    values = {
        "setup_s": setup_metrics(setup)["setup_s"],
        "wall_s": statistics.median(passes),
        "op_s.p50": statistics.fmean(median[spec.name]
                                     for spec in wl.WORKLOADS[args.workload]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        **outcome(ops),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END},
        "passes_s": passes,
        "ops": ops,
    }


def traced_run(args, setup):
    import workloads as wl
    from tracing import HARNESS_HOOKS, LIBRARY_HOOKS, Tracer, SpanTable, write_spans

    harness = start_harness(wl, args)
    insts = wl.make_pass(args.workload, args.seed, 0)
    plain_ops, plain_wall = run_pass(wl, insts, harness)
    grade(wl, plain_ops, harness)

    tracer = Tracer()
    tracer.install(HARNESS_HOOKS if harness else LIBRARY_HOOKS)
    cpu0 = _cpu_seconds()
    try:
        ops, wall = run_pass(wl, insts, harness, tracer)
    finally:
        tracer.uninstall()
    cpu_s = _cpu_seconds() - cpu0
    grade(wl, ops, harness)
    write_spans(OUT / f"spans-{args.workload}-s{args.seed}.tsv", tracer.spans)

    layer = per_layer(SpanTable(tracer.spans), tracer.missing, ops, wall,
                      plain_wall, cpu_s, setup_metrics(setup), wl.HARNESS_JOBS)
    all_ops = plain_ops + ops
    return {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        **outcome(all_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in layer.items()},
        "ops": [{k: op[k] for k in RECORD_KEYS} for op in all_ops],
    }


def _cpu_seconds():
    t = os.times()   # children count once reaped, as the bench pool's are
    return t.user + t.system + t.children_user + t.children_system


def per_layer(tab, missing, ops, wall, plain_wall, cpu_s, setup, jobs):
    """Per-layer metrics of one traced pass: {name: (value, unit)}.  A
    metric that depends on a missing hook is None."""
    def needs(value, *names):
        return None if missing.intersection(names) else value

    def results(*programs):
        return [op["result"] for op in ops
                if op["program"] in programs and op["result"] is not None]

    def in_descent(name):
        return tab.select(name, lambda s: tab.has_ancestor(s, "optspace.descent"))[0]

    solve_spans = ("solve.noiseless", "solve.dantzig", "solve.lasso",
                   "solve.penalized", "solve.lipschitz")
    norm_spans = ("matcore.nuclear_norm", "matcore.operator_norm")
    prox_n, prox_s = tab.select(
        "linalg.svd", lambda s: tab.parent_name(s).startswith("solve."))
    norm_n, norm_s = tab.select(
        "linalg.svd", lambda s: tab.parent_name(s).startswith("matcore."))
    solve_self = sum(v for k, v in tab.self_s.items()
                     if k.startswith("solve.") and k != "solve.lipschitz")
    solve_reps = results("noiseless", "dantzig", "lasso")
    descent_iters = sum(rep.iterations for rep in results("optspace"))
    ls_trials = in_descent("linalg.qr") / 2   # one QR per factor per trial
    trial_s = sum(res[2] for res in results("bench"))
    run_s = tab.total["bench.run"]

    S, N, R = "s", "count", "ratio"
    return {
        "setup.import_s": (setup["import_s"], S),
        "setup.truth_s": (setup["truth_s"], S),
        "setup.measure_s": (setup["measure_s"], S),
        "measure.apply.calls": (needs(tab.calls["measure.apply"], "measure.apply"), N),
        "measure.apply.s": (needs(tab.total["measure.apply"], "measure.apply"), S),
        "measure.adjoint.calls": (needs(tab.calls["measure.adjoint"],
                                        "measure.adjoint"), N),
        "measure.adjoint.s": (needs(tab.total["measure.adjoint"], "measure.adjoint"), S),
        "solve.prox_svd.calls": (needs(prox_n, "linalg.svd", *solve_spans), N),
        "solve.prox_svd.s": (needs(prox_s, "linalg.svd", *solve_spans), S),
        "solve.norm_svd.calls": (needs(norm_n, "linalg.svd", *norm_spans), N),
        "solve.norm_svd.s": (needs(norm_s, "linalg.svd", *norm_spans), S),
        "solve.lipschitz.s": (needs(tab.total["solve.lipschitz"], "solve.lipschitz"), S),
        "solve.self_s": (needs(solve_self, *solve_spans), S),
        "solve.iters": (sum(rep.iterations for rep in solve_reps), N),
        "solve.stages": (sum(len(rep.tau_path) for rep in solve_reps), N),
        "optspace.trim.s": (needs(tab.total["optspace.trim"], "optspace.trim"), S),
        "optspace.spectral_init.s": (needs(tab.total["optspace.spectral_init"],
                                           "optspace.spectral_init"), S),
        "optspace.descent.s": (needs(tab.total["optspace.descent"],
                                     "optspace.descent"), S),
        "optspace.descent.self_s": (needs(tab.self_s["optspace.descent"],
                                          "optspace.descent"), S),
        "optspace.descent.iters": (descent_iters, N),
        "optspace.inner_solve.calls": (needs(in_descent("linalg.solve"),
                                             "linalg.solve", "optspace.descent"), N),
        "optspace.ls_trials": (needs(ls_trials, "linalg.qr", "optspace.descent"), N),
        "optspace.ls_accept_ratio": (
            needs(descent_iters / ls_trials if ls_trials else 0.0,
                  "linalg.qr", "optspace.descent"), R),
        "bench.run.s": (needs(run_s, "bench.run"), S),
        "bench.emit.s": (needs(tab.total["bench.emit"], "bench.emit"), S),
        "bench.trial_s.sum": (trial_s, S),
        "bench.pool_busy_frac": (
            needs(trial_s / (jobs * run_s) if run_s else 0.0, "bench.run"), R),
        "cli.self_s": (needs(tab.self_s["cli.main"], "cli.main"), S),
        "proc.cpu_s": (cpu_s, S),
        "proc.cpu_util": (cpu_s / wall, R),
        "linalg.svd.calls": (needs(tab.calls["linalg.svd"], "linalg.svd"), N),
        "linalg.svd.s": (needs(tab.total["linalg.svd"], "linalg.svd"), S),
        "trace.wall_s": (wall, S),
        "trace.overhead_frac": (wall / plain_wall - 1.0, R),
        "trace.uncovered_frac": (1.0 - tab.top_level_s / wall, R),
    }


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
    }


def print_summary(workload, record):
    rate = record["failed"] / record["attempted"]
    print(f"# {workload} seed={record['seed']}: {record['attempted']} operations, "
          f"fail_frac={rate:.4g}")
    for name, m in record["metrics"].items():
        print(f"#   {name:<28} {_fmt(m['value']):>14} {m['unit']}")


def _fmt(value):
    return "null" if value is None else f"{value:.6g}"


def run_all(args):
    """Every workload in its own process; a table of all their metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        res = run_child(["--workload", workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = m
        merged["metrics"][f"{workload}/fail_frac"] = {
            "value": res["failed"] / res["attempted"], "unit": "ratio"}
    for name, m in merged["metrics"].items():
        print(f"# {name:<48} {_fmt(m['value']):>14} {m['unit']}")
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
