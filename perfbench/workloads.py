"""The benchmark's workloads: instances made from the workload seed, the
operation run on each, and the correctness gate each result must pass.

A workload is a fixed list of operation kinds (one "pass").  Pass p of a run
draws fresh instances keyed by (seed, p, position in the list), so the same
seed always gives the same inputs.  Truths, masks and noise are drawn here
with numpy alone; the program only receives them (and builds its own dense
gaussian rows from a seed, which is part of its measurement model).
"""

import hashlib
import importlib
import io
import json
import math
import os
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# importlib, not `import a.b as c`: the package re-exports a function named
# optspace that shadows the submodule attribute.
cli_mod = importlib.import_module("lowrankrec.cli")
measure_mod = importlib.import_module("lowrankrec.measure")
optspace_mod = importlib.import_module("lowrankrec.optspace")
oracle_mod = importlib.import_module("lowrankrec.oracle")
solve_mod = importlib.import_module("lowrankrec.solve")

HERE = Path(__file__).resolve().parent
HARNESS_CFG = HERE / "harness.cfg"
HARNESS_STEM = "phase-transition"   # the experiment harness.cfg runs
HARNESS_JOBS = 2

# Correctness gates.
RECOVERY_REL_ERR = 1e-3   # the harness's success test for noiseless recovery
NUCLEAR_SLACK = 1e-5      # noiseless: ||X^||_* <= (1 + slack) ||X||_*
FEASIBLE_SLACK = 1e-6     # on a recomputed constraint, as solve certifies it
# Noisy programs: relative error ceilings, about 2.5x the largest seen over
# 40 instances of each kind at the benchmark's first commit (dantzig 0.23,
# lasso 0.21, optspace 0.047 at kappa=1 and 0.097 at kappa=10).  The
# closed-form bounds alone accept the zero matrix at these sizes.
REL_ERR_CEILING = {"dantzig-n40": 0.5, "lasso-n40": 0.5, "optspace-k1": 0.12,
                   "optspace-k10": 0.25}


@dataclass(frozen=True)
class OpSpec:
    name: str
    program: str          # noiseless | dantzig | lasso | optspace | bench
    n: int = 0
    r: int = 0
    m: int = 0            # dense gaussian measurement count
    p: float = 0.0        # entry-sampled observed fraction
    sigma: float = 0.0
    kappa: float = 1.0
    recoverable: bool = True   # noiseless only: gate the recovery error

    @property
    def count(self):
        return self.m if self.m else int(round(self.p * self.n * self.n))


WORKLOADS = {
    # Dense A / A* and a 30x30 prox share the time; all three programs,
    # the Lipschitz estimate and both continuation and bisection drivers.
    "sensing-gaussian": (
        OpSpec("noiseless-m180", "noiseless", n=30, r=2, m=180, recoverable=False),
        OpSpec("noiseless-m300", "noiseless", n=30, r=2, m=300),
        OpSpec("dantzig-n40", "dantzig", n=40, r=2, m=640, sigma=1e-2),
        OpSpec("lasso-n40", "lasso", n=40, r=2, m=640, sigma=1e-2),
    ),
    # Never enters the solve engine; conditioning sets the descent length.
    "completion-optspace": (
        OpSpec("optspace-k1", "optspace", n=300, r=3, p=0.3, sigma=1e-3, kappa=1.0),
        OpSpec("optspace-k10", "optspace", n=300, r=3, p=0.3, sigma=1e-3, kappa=10.0),
    ),
    # One `lowrankrec bench` run over harness.cfg with a 2-process pool.
    "harness-jobs2": (
        OpSpec("bench-jobs2", "bench"),
    ),
}


@dataclass
class Instance:
    spec: OpSpec
    truth: np.ndarray = None
    ens: object = None
    y: np.ndarray = None
    y_mat: np.ndarray = None   # optspace: observed entries as a matrix


def _haar(rng, n, r):
    q, rr = np.linalg.qr(rng.standard_normal((n, r)))
    return q * np.sign(np.where(np.diag(rr) == 0, 1.0, np.diag(rr)))


def make_instance(spec, seed, pass_idx, op_idx, clock=None):
    """Draw one instance; adds its truth and measurement time to ``clock``."""
    inst = Instance(spec)
    if spec.program == "bench":
        return inst
    ss = np.random.SeedSequence(seed, spawn_key=(pass_idx, op_idx))
    s_truth, s_meas, s_noise = (int(s) for s in ss.generate_state(3, np.uint64))

    t0 = time.perf_counter()
    rng = np.random.default_rng(s_truth)
    n, r = spec.n, spec.r
    spectrum = np.array([spec.kappa ** ((r - 1 - i) / max(r - 1, 1)) for i in range(r)])
    inst.truth = (_haar(rng, n, r) * spectrum) @ _haar(rng, n, r).T
    t1 = time.perf_counter()

    m = spec.count
    if spec.m:
        inst.ens = measure_mod.gaussian_ensemble(n, n, m, s_meas)
    else:
        lin = np.random.default_rng(s_meas).choice(n * n, size=m, replace=False)
        pairs = np.column_stack(np.unravel_index(lin, (n, n)))
        omega = measure_mod.ObservationSet(n1=n, n2=n, pairs=pairs)
        inst.ens = measure_mod.entry_sampling_ensemble(omega)
    y = measure_mod.apply_ensemble(inst.ens, inst.truth)
    inst.y = y + spec.sigma * np.random.default_rng(s_noise).standard_normal(m)
    if spec.program == "optspace":
        pairs = inst.ens.omega.pairs
        inst.y_mat = np.zeros((n, n))
        inst.y_mat[pairs[:, 0], pairs[:, 1]] = inst.y
    t2 = time.perf_counter()
    if clock is not None:
        clock["truth_s"] += t1 - t0
        clock["measure_s"] += t2 - t1
    return inst


def make_pass(workload, seed, pass_idx, clock=None):
    return [make_instance(spec, seed, pass_idx, k, clock)
            for k, spec in enumerate(WORKLOADS[workload])]


def run_op(inst, harness):
    """The timed call into the program.  Looks the entry point up on its
    module at call time, so a traced run's hooks see it."""
    spec = inst.spec
    if spec.program == "noiseless":
        return solve_mod.solve_noiseless(inst.ens, inst.y)
    if spec.program == "dantzig":
        return solve_mod.solve_dantzig(inst.ens, inst.y,
                                       solve_mod.choose_lambda(spec.n, spec.sigma))
    if spec.program == "lasso":
        return solve_mod.solve_lasso(inst.ens, inst.y, _lasso_delta(spec))
    if spec.program == "optspace":
        return optspace_mod.optspace(inst.y_mat, inst.ens.omega, r=spec.r)
    return harness.invoke(HARNESS_JOBS)


def _lasso_delta(spec):
    # the residual radius the harness uses for the residual-ball program
    m = spec.count
    return math.sqrt((m + math.sqrt(8.0 * m)) * spec.sigma ** 2)


def check(inst, result, harness):
    """Correctness of one operation: (valid, passed).

    valid: the program did what it promises.  Noiseless: finite, converged,
    feasible when recomputed from the estimate, and no larger in nuclear
    norm than the truth, which is feasible, so a larger norm means the
    program was not solved.  Dantzig
    and lasso: finite, their constraint holds when recomputed from the
    estimate, and the relative error is under its ceiling.  OptSpace:
    finite, within its closed-form error bound and under its ceiling.
    Harness: exit code 0 and the --jobs 1 digest.
    passed: valid and, for a recoverable noiseless instance, recovered
    (rel_err <= 1e-3).  The nuclear-norm program does not recover every
    such instance; a miss counts as a failed operation but not as wrong.
    """
    spec = inst.spec
    if spec.program == "bench":
        rc, digest, _ = result
        valid = rc == 0 and digest is not None and digest == harness.reference
        return valid, valid
    est = result.estimate
    if not np.all(np.isfinite(est)):
        return False, False
    err = float(np.linalg.norm(est - inst.truth))
    rel = err / float(np.linalg.norm(inst.truth))
    if spec.program == "optspace":
        noise_op = oracle_mod.gaussian_noise_opnorm(spec.n, spec.count, spec.sigma)
        bound = oracle_mod.optspace_noisy_bound(spec.n, spec.count, spec.r,
                                                spec.kappa, noise_op)
        valid = err <= bound.value and rel <= REL_ERR_CEILING[spec.name]
        return valid, valid
    resid = inst.y - measure_mod.apply_ensemble(inst.ens, est)
    if spec.program == "noiseless":
        # ||A(X^) - y||_2 <= eq_tol ||y||_2, the program's feasibility test
        limit = solve_mod.SolverConfig().eq_tol * float(np.linalg.norm(inst.y))
        feasible = float(np.linalg.norm(resid)) <= limit * (1.0 + FEASIBLE_SLACK)
        norm_ratio = _nuclear_norm(est) / _nuclear_norm(inst.truth)
        valid = bool(result.converged) and feasible and norm_ratio <= 1.0 + NUCLEAR_SLACK
        return valid, valid and (not spec.recoverable or rel <= RECOVERY_REL_ERR)
    if spec.program == "dantzig":
        # ||A*(y - A(X^))||_op <= lambda
        limit = solve_mod.choose_lambda(spec.n, spec.sigma)
        value = float(np.linalg.norm(measure_mod.adjoint_ensemble(inst.ens, resid), 2))
    else:
        # ||A(X^) - y||_2 <= delta
        limit, value = _lasso_delta(spec), float(np.linalg.norm(resid))
    valid = value <= limit * (1.0 + FEASIBLE_SLACK) and rel <= REL_ERR_CEILING[spec.name]
    return valid, valid


def _nuclear_norm(x):
    return float(np.linalg.svd(x, compute_uv=False).sum())


class Harness:
    """`lowrankrec bench` over harness.cfg, run in-process through cli.main.

    ``reference`` is the digest of a --jobs 1 run of the same seed; each
    timed --jobs 2 run must reproduce it once timing fields are removed.
    """

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.runs = 0
        self.reference = None

    def invoke(self, jobs):
        out = self.work_dir / f"bench-{os.getpid()}-{self.runs}"
        self.runs += 1
        argv = ["bench", "--config", str(HARNESS_CFG), "--out", str(out),
                "--seed", str(self.seed), "--jobs", str(jobs)]
        with redirect_stdout(io.StringIO()):
            rc = cli_mod.main(argv)
        digest, trial_s = _collect(out)
        shutil.rmtree(out, ignore_errors=True)
        return rc, digest, trial_s


def _collect(out):
    """(sha256 of the emitted CSV and JSON with their timing fields removed,
    sum of the per-trial seconds); (None, 0.0) if the files are unreadable."""
    try:
        csv_text = (out / f"{HARNESS_STEM}.csv").read_text()
        payload = json.loads((out / f"{HARNESS_STEM}.json").read_text())
    except (OSError, ValueError):
        return None, 0.0
    trial_s = sum(trial.pop("seconds") for cell in payload["trials"] for trial in cell)
    for cell in payload["cells"]:
        cell.pop("seconds")
    rows = [line.split(",") for line in csv_text.splitlines()]
    col = rows[0].index("seconds")
    csv_kept = "\n".join(",".join(c for k, c in enumerate(row) if k != col)
                         for row in rows)
    blob = csv_kept + "\n" + json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest(), float(trial_s)
