"""Run every workload over several seeds and report each end-to-end metric's
median and spread (the distance between the first and third quartile as a
share of the median), against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b]
                                [--trace-seed N] [--out FILE]

Runs go seed by seed, each workload in turn, one at a time.  --trace-seed
adds one traced run per workload.  --out writes every value, with medians,
spreads, traced per-layer metrics and the environment, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    def run(w, seed, trace):
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-2])["env"], json.loads(lines[-1])

    runs = {w: [] for w in workloads}
    env = None
    for seed in args.seeds:
        for w in workloads:
            env, res = run(w, seed, 0)
            res["seed"] = seed
            runs[w].append(res)
            vals = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
            print(f"{w} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    summary = {}
    print(f"\n{'workload':<22}{'metric':<14}{'median':>10}{'spread':>9}{'bound':>7}")
    for w in workloads:
        summary[w] = {"fail_frac": sum(r["failed"] for r in runs[w])
                      / sum(r["attempted"] for r in runs[w])}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(vals)
            spr = spread(vals) if len(vals) >= 2 else 0.0
            summary[w][name] = {"median": med, "spread": spr, "values": vals}
            flag = "" if spr <= metric["bound"] / 3 else "  > bound/3"
            print(f"{w:<22}{name:<14}{med:>10.4g}{spr:>9.3f}{metric['bound']:>7}{flag}")
        print(f"{w:<22}{'fail_frac':<14}{summary[w]['fail_frac']:>10.4g}")
    if args.trace_seed is not None:
        for w in workloads:
            _, res = run(w, args.trace_seed, 1)
            summary[w]["traced"] = {"seed": args.trace_seed, "correct": res["correct"],
                                    **{k: m["value"] for k, m in res["metrics"].items()}}
            print(f"{w} traced: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()
                if m["value"] is not None))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "env": env,
             "workloads": summary}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
