"""Command-line interface.

Subcommands:
  diagnose   coherence profile of a matrix, optional sample-size advisor table
  solve      nuclear-norm programs over stored measurements
  optspace   trim / spectral-init / descent pipeline on observed entries
  bounds     closed-form error bounds
  bench      Monte Carlo experiment harness driven by a config file
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from ._version import VERSION
from . import bench as bench_mod
from .diagnostics import coherence, theory_advisor
from .matcore import read_lrm
from .measure import (NoiseModel, add_noise, adjoint_ensemble, apply_ensemble,
                      entry_sampling_ensemble, read_omega, vectorization_ensemble)
from .oracle import (completion_stability_bound, gaussian_noise_opnorm,
                     ideal_risk, instance_optimal_bound, minimax_bound,
                     optspace_noisy_bound)
from .optspace import OptspaceConfig, optspace
from .solve import (SolverConfig, choose_delta, choose_lambda, solve_dantzig,
                    solve_lasso, solve_noiseless)

__all__ = ["main"]


def _nulled(values):
    """``values`` with each non-finite float as None, which JSON writes as
    null (RFC 8259 has no NaN or Infinity)."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in values.items()}


def _write_report(rep, out):
    if out:
        with open(out, "w") as fh:
            json.dump(rep.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _report_summary(rep):
    flags = ",".join(rep.flags) if rep.flags else "-"
    return (f"objective={rep.objective:.6g} eq_residual={rep.equality_residual:.6g} "
            f"dual_residual={rep.dual_residual:.6g} iters={rep.iterations} "
            f"converged={rep.converged} flags={flags}")


def _config(cls, args):
    """``cls`` (SolverConfig or OptspaceConfig) with --max-iters, if given."""
    return cls() if args.max_iters is None else cls(max_iters=args.max_iters)


def _cmd_diagnose(args):
    matrix = read_lrm(args.matrix)
    rep = coherence(matrix, r=args.rank)
    measures = asdict(rep)
    del measures["r"]   # written as the top-level rank
    payload = {"n1": matrix.shape[0], "n2": matrix.shape[1], "rank": rep.r,
               "coherence": _nulled(measures)}
    rows = None
    if args.m is not None:
        n = max(matrix.shape)
        rows = theory_advisor(rep, n, rep.r, args.m)
        payload["m"] = args.m
        payload["advisor"] = [_nulled(asdict(w)) for w in rows]

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
        return 0
    print(f"matrix {matrix.shape[0]} x {matrix.shape[1]}, rank {rep.r}")
    for key, value in measures.items():
        print(f"  {key:<9} = {value:.6g}")
    if rows is not None:
        print(f"\nsample-size requirements at m = {args.m}:")
        print(f"  {'row':<24} {'requirement':>14} {'ratio':>10}  ok   condition")
        for w in rows:
            cond = w.condition or "-"
            if w.condition_met is False:
                cond += "  (not met)"
            ok = "yes" if w.satisfied else "no"
            print(f"  {w.row_id:<24} {w.requirement:>14.6g} {w.ratio:>10.4g}  "
                  f"{ok:<4} {cond}")
    return 0


def _load_problem(args):
    matrix = read_lrm(args.matrix)
    if args.omega:
        omega = read_omega(args.omega)
        if (omega.n1, omega.n2) != matrix.shape:
            raise ValueError(f"omega is {omega.n1} x {omega.n2} but matrix is "
                             f"{matrix.shape[0]} x {matrix.shape[1]}")
        ens = entry_sampling_ensemble(omega)
    else:
        ens = vectorization_ensemble(*matrix.shape)
    return matrix, ens, apply_ensemble(ens, matrix)


def _cmd_solve(args):
    if not np.isfinite(args.sigma):
        raise ValueError(f"--sigma must be finite, got {args.sigma}")
    if args.sigma < 0:
        raise ValueError(f"--sigma must be nonnegative, got {args.sigma}")
    matrix, ens, y = _load_problem(args)
    if args.seed is not None and args.sigma > 0:
        y = add_noise(y, NoiseModel(args.sigma, args.seed))
    cfg = _config(SolverConfig, args)
    n = max(matrix.shape)
    if args.program == "noiseless":
        rep = solve_noiseless(ens, y, cfg)
    elif args.program == "dantzig":
        lam = args.lam if args.lam is not None else choose_lambda(n, args.sigma)
        rep = solve_dantzig(ens, y, lam, cfg)
    else:
        delta = args.delta if args.delta is not None else choose_delta(y.size, args.sigma)
        rep = solve_lasso(ens, y, delta, cfg)
    print(f"{args.program}: {_report_summary(rep)}")
    _write_report(rep, args.out)
    return 0


def _cmd_optspace(args):
    _, ens, y = _load_problem(args)
    # A*(y) of entry sampling: the observed entries, zero elsewhere
    rep = optspace(adjoint_ensemble(ens, y), ens.omega, r=args.rank,
                   config=_config(OptspaceConfig, args))
    print(f"optspace: {_report_summary(rep)}")
    _write_report(rep, args.out)
    return 0


def _parse_sigmas(text):
    items = text.split(",")
    if not all(t.strip() for t in items):
        raise ValueError(f"--sigmas needs at least one value in every "
                         f"comma-separated item, got {text!r}")
    return np.array([float(t) for t in items])


def _cmd_bounds(args):
    kind = args.bound
    if kind == "minimax":
        rep = minimax_bound(args.n, args.r, args.sigma, delta_r=args.delta_r)
    elif kind == "ideal":
        rep = ideal_risk(_parse_sigmas(args.sigmas), args.n, args.sigma)
    elif kind == "instance":
        rep = instance_optimal_bound(_parse_sigmas(args.sigmas), args.n,
                                     args.sigma, args.r_bar)
    elif kind == "stable":
        rep = completion_stability_bound(args.n, args.p, args.delta)
    else:
        noise_op = args.noise_opnorm
        if noise_op is None:
            noise_op = gaussian_noise_opnorm(args.n, args.m, args.sigma)
        rep = optspace_noisy_bound(args.n, args.m, args.r, args.kappa, noise_op)
    print(json.dumps(asdict(rep), indent=2, sort_keys=True, allow_nan=False))
    return 0


def _cmd_bench(args):
    with open(args.config) as fh:
        sections = bench_mod.parse_config_text(fh.read())
    cfg = bench_mod.build_experiment_config(sections, seed_override=args.seed)
    result = bench_mod.run_experiment(cfg, jobs=args.jobs)
    written = bench_mod.emit(result, args.out, plot=args.plot)
    for path in written:
        print(f"wrote {path}")
    for c in result.cells:
        kappa = f" kappa={c.kappa:g}" if c.kappa != 1.0 else ""
        line = (f"cell n={c.n} r={c.r} m={c.m}{kappa}: success {c.successes}/"
                f"{c.trials}, median rel err {c.median_rel_err:.3g}")
        if c.fitted_constant is not None:
            line += f", fitted constant {c.fitted_constant:.3g}"
        for key, value in c.extra.items():
            line += f", {key} {value:.3g}"
        print(line)
    violations = bench_mod.check_floors(result)
    for v in violations:
        print(f"FLOOR VIOLATION: {v}")
    return 1 if violations else 0


def build_parser():
    p = argparse.ArgumentParser(prog="lowrankrec",
                                description="low-rank matrix recovery toolkit")
    p.add_argument("--version", action="version", version=f"lowrankrec {VERSION}")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diagnose", help="coherence profile and sample-size advisor")
    d.add_argument("--matrix", required=True, help="matrix file (lrm format)")
    d.add_argument("--rank", type=int, default=None,
                   help="target rank (default: numerical rank)")
    d.add_argument("--m", type=int, default=None,
                   help="measurement count for the advisor table")
    d.add_argument("--format", choices=("text", "json"), default="text")
    d.set_defaults(func=_cmd_diagnose)

    s = sub.add_parser("solve", help="nuclear-norm recovery programs")
    s.add_argument("--program", choices=("noiseless", "dantzig", "lasso"),
                   default="noiseless")
    s.add_argument("--matrix", required=True,
                   help="observed data matrix (lrm format)")
    s.add_argument("--omega", default=None,
                   help="observed-entry file; omitted = every entry observed")
    s.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="dantzig threshold (default: 1.5 sqrt(2n) sigma)")
    s.add_argument("--delta", type=float, default=None,
                   help="lasso residual radius (default from --sigma)")
    s.add_argument("--sigma", type=float, default=0.0,
                   help="noise level used for default lambda/delta")
    s.add_argument("--seed", type=int, default=None,
                   help="with --sigma > 0, add synthetic noise to the "
                        "measurements before solving")
    s.add_argument("--max-iters", type=int, default=None)
    s.add_argument("--out", default=None, help="write the full report as JSON")
    s.set_defaults(func=_cmd_solve)

    o = sub.add_parser("optspace", help="trim + spectral init + rank-incremental "
                                        "alternating least squares")
    o.add_argument("--matrix", required=True,
                   help="observed data matrix (lrm format)")
    o.add_argument("--omega", required=True, help="observed-entry file")
    o.add_argument("--rank", type=int, default=None,
                   help="target rank (default: estimated from the spectrum)")
    o.add_argument("--max-iters", type=int, default=None,
                   help="cap on the descent's sweeps, counted over all ranks")
    o.add_argument("--out", default=None, help="write the full report as JSON")
    o.set_defaults(func=_cmd_optspace)

    b = sub.add_parser("bounds", help="closed-form error bounds")
    b.add_argument("--bound", required=True,
                   choices=("minimax", "ideal", "instance", "stable", "optspace"))
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--r", type=int, default=None)
    b.add_argument("--m", type=int, default=None)
    b.add_argument("--sigma", type=float, default=0.0)
    b.add_argument("--sigmas", default=None,
                   help="comma-separated singular values of the truth")
    b.add_argument("--delta-r", type=float, default=0.0,
                   help="restricted-isometry constant in the minimax bound")
    b.add_argument("--r-bar", type=int, default=None,
                   help="truncation rank for the instance bound")
    b.add_argument("--p", type=float, default=None,
                   help="observed fraction for the stable completion bound")
    b.add_argument("--delta", type=float, default=None,
                   help="residual radius for the stable completion bound")
    b.add_argument("--kappa", type=float, default=1.0)
    b.add_argument("--noise-opnorm", type=float, default=None,
                   help="operator norm of the observed noise matrix")
    b.set_defaults(func=_cmd_bounds)

    e = sub.add_parser("bench", help="Monte Carlo experiment harness")
    e.add_argument("--config", required=True, help="experiment config file")
    e.add_argument("--out", default="bench_out", help="output directory")
    e.add_argument("--seed", type=int, default=None,
                   help="override the seed in the config file")
    e.add_argument("--jobs", type=int, default=1,
                   help="worker processes for trials")
    e.add_argument("--plot", action="store_true",
                   help="emit an SVG of the success-rate grid")
    e.set_defaults(func=_cmd_bench)
    return p


_BOUND_ARGS = {
    "minimax": ("n", "r"),
    "ideal": ("n", "sigmas"),
    "instance": ("n", "sigmas", "r_bar"),
    "stable": ("n", "p", "delta"),
    "optspace": ("n", "m", "r"),
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bounds":
        missing = [a for a in _BOUND_ARGS[args.bound]
                   if getattr(args, a) is None]
        if missing:
            parser.error(f"bound {args.bound!r} needs --"
                         + " --".join(m.replace("_", "-") for m in missing))
    if args.command == "bench" and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
