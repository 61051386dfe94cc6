"""Monte Carlo experiment harness.

Six experiment families, each driving the solvers over a parameter grid with
independent trials:

* phase-transition      noiseless nuclear-norm recovery success rate
* dantzig-scaling       squared error of the residual-correlation program
                        against the n r sigma^2 yardstick
* bias-variance         full-observation shrinkage error against ideal risk
* instance-optimal      gaussian-ensemble error against the truncation bound
* completion-stability  residual-ball completion error against its guarantee
* optspace-compare      spectral pipeline vs nuclear norm on the same data

Per-trial randomness is keyed by (master seed, cell index, trial index), so
results are independent of execution order and worker count.
"""

import csv
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from ._version import VERSION
from .matcore import LowRankSpec, gen_low_rank, geometric_spectrum
from .measure import (NoiseModel, add_noise, apply_ensemble, entry_sampling_ensemble,
                      gaussian_ensemble, rademacher_ensemble, sample_omega,
                      vectorization_ensemble)
from .oracle import (completion_stability_bound, ideal_risk,
                     instance_optimal_bound)
from .optspace import OptspaceConfig, optspace
from .rand import spawn_seeds
from .solve import (SolverConfig, choose_lambda, solve_dantzig, solve_lasso,
                    solve_noiseless)

__all__ = [
    "EXPERIMENTS",
    "GridCell",
    "ExperimentConfig",
    "CellResult",
    "ExperimentResult",
    "FitResult",
    "parse_config_text",
    "build_experiment_config",
    "run_experiment",
    "fit_empirical_constant",
    "check_floors",
    "emit",
]

EXPERIMENTS = ("phase-transition", "dantzig-scaling", "bias-variance",
               "instance-optimal", "completion-stability", "optspace-compare")

CSV_COLUMNS = ["n", "r", "m", "p", "sigma", "kappa", "trials", "success_rate",
               "median_rel_err", "median_sq_err", "fitted_constant",
               "failures", "seconds"]

@dataclass(frozen=True)
class GridCell:
    n: int
    r: int
    m: int = None        # measurement count (or None when p is given)
    p: float = None      # observed fraction for entry-sampling experiments
    sigma: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or self.r > self.n:
            raise ValueError(f"bad cell dimensions n={self.n} r={self.r}")
        if self.m is None and self.p is None:
            raise ValueError("cell needs m or p")
        if self.p is not None and not (0 < self.p <= 1):
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.sigma < 0 or self.kappa < 1:
            raise ValueError("need sigma >= 0 and kappa >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    cells: tuple
    trials: int
    seed: int
    success_threshold: float = 1e-3
    ensemble: str = "gaussian"      # phase-transition measurement kind
    spectrum_top: float = 1.0       # full-rank truth experiments
    spectrum_ratio: float = 0.8
    solver: SolverConfig = field(default_factory=SolverConfig)
    optspace: OptspaceConfig = field(default_factory=OptspaceConfig)
    floors: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {', '.join(EXPERIMENTS)}")
        if not self.cells:
            raise ValueError("experiment grid is empty")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.success_threshold <= 0:
            raise ValueError("success threshold must be positive")
        if self.ensemble not in ("gaussian", "rademacher", "entry"):
            raise ValueError(f"unknown ensemble kind {self.ensemble!r}")


@dataclass(frozen=True)
class CellResult:
    n: int
    r: int
    m: int
    p: float
    sigma: float
    kappa: float
    trials: int
    successes: int
    failures: int
    non_convergences: int
    success_rate: float
    median_rel_err: float
    max_rel_err: float
    median_sq_err: float
    median_abs_err: float
    fitted_constant: float   # median measured / formula value (None: no formula)
    formula_value: float     # reference level for this cell (None: no formula)
    seconds: float
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    seed: int
    version: str
    config: dict
    cells: tuple
    detail: tuple   # per cell: tuple of per-trial record dicts


@dataclass(frozen=True)
class FitResult:
    slope: float        # through-origin least-squares constant
    ratio_min: float    # smallest per-cell measured/formula ratio
    ratio_max: float
    cells: int


def _kappa_spectrum(r, kappa):
    """Spectrum interpolating geometrically from kappa down to 1."""
    if r == 1:
        return (1.0,)
    return tuple(float(kappa) ** ((r - 1 - i) / (r - 1)) for i in range(r))


def _spectrum_of(cell, cfg):
    if cfg.experiment in ("bias-variance", "instance-optimal"):
        return geometric_spectrum(cell.r, cfg.spectrum_top, cfg.spectrum_ratio)
    return _kappa_spectrum(cell.r, cell.kappa)


def _truth(cell, cfg, seed):
    spec = LowRankSpec(n1=cell.n, n2=cell.n, r=cell.r,
                       spectrum=_spectrum_of(cell, cfg),
                       model="random-orthogonal", seed=seed)
    return gen_low_rank(spec)


def _cell_m(cell):
    return cell.m if cell.m is not None else int(round(cell.p * cell.n * cell.n))


def _run_trial(cfg, cell_idx, trial_idx):
    """One (cell, trial) evaluation; returns a plain record dict."""
    cell = cfg.cells[cell_idx]
    s_truth, s_meas, s_noise, _ = spawn_seeds(cfg.seed, cell_idx, trial_idx, count=4)
    t0 = time.perf_counter()
    truth, _ = _truth(cell, cfg, s_truth)
    tnorm = float(np.linalg.norm(truth))
    record = {"cell": cell_idx, "trial": trial_idx}
    exp = cfg.experiment

    if exp in ("phase-transition", "dantzig-scaling", "instance-optimal"):
        m = _cell_m(cell)
        if cfg.ensemble == "entry" or (exp == "phase-transition" and cell.p is not None):
            omega = sample_omega(cell.n, cell.n, m, s_meas)
            ens = entry_sampling_ensemble(omega)
        elif cfg.ensemble == "rademacher":
            ens = rademacher_ensemble(cell.n, cell.n, m, s_meas)
        else:
            ens = gaussian_ensemble(cell.n, cell.n, m, s_meas)
        y = add_noise(apply_ensemble(ens, truth), NoiseModel(cell.sigma, s_noise))
        if exp == "phase-transition":
            rep = solve_noiseless(ens, y, cfg.solver)
        else:
            lam = choose_lambda(cell.n, cell.sigma)
            rep = solve_dantzig(ens, y, lam, cfg.solver)
        err = float(np.linalg.norm(rep.estimate - truth))
        if exp == "dantzig-scaling":
            record["formula_value"] = cell.n * cell.r * cell.sigma ** 2
        elif exp == "instance-optimal":
            r_bar = max(0, min(cell.r, int(0.1 * m / cell.n)))
            bound = instance_optimal_bound(
                np.asarray(_spectrum_of(cell, cfg)), cell.n, cell.sigma, r_bar)
            record["formula_value"] = bound.value
            record["r_bar"] = r_bar

    elif exp == "bias-variance":
        ens = vectorization_ensemble(cell.n, cell.n)
        y = add_noise(apply_ensemble(ens, truth), NoiseModel(cell.sigma, s_noise))
        lam = choose_lambda(cell.n, cell.sigma)
        rep = solve_dantzig(ens, y, lam, cfg.solver)
        err = float(np.linalg.norm(rep.estimate - truth))
        record["formula_value"] = ideal_risk(
            np.asarray(_spectrum_of(cell, cfg)), cell.n, cell.sigma).value

    elif exp == "completion-stability":
        m = _cell_m(cell)
        omega = sample_omega(cell.n, cell.n, m, s_meas)
        ens = entry_sampling_ensemble(omega)
        y = add_noise(apply_ensemble(ens, truth), NoiseModel(cell.sigma, s_noise))
        delta = math.sqrt((m + math.sqrt(8.0 * m)) * cell.sigma ** 2)
        rep = solve_lasso(ens, y, delta, cfg.solver)
        err = float(np.linalg.norm(rep.estimate - truth))
        bound = completion_stability_bound(cell.n, m / cell.n ** 2, delta)
        record["formula_value"] = bound.value
        record["bound_satisfied"] = bool(err <= bound.value)
        record["delta"] = delta

    elif exp == "optspace-compare":
        m = _cell_m(cell)
        omega = sample_omega(cell.n, cell.n, m, s_meas)
        ens = entry_sampling_ensemble(omega)
        y = add_noise(apply_ensemble(ens, truth), NoiseModel(cell.sigma, s_noise))
        y_mat = np.zeros_like(truth)
        y_mat[omega.pairs[:, 0], omega.pairs[:, 1]] = y
        rep = optspace(y_mat, omega, r=cell.r, config=cfg.optspace)
        err = float(np.linalg.norm(rep.estimate - truth))
        rep_nuc = solve_noiseless(ens, y, cfg.solver)
        err_nuc = float(np.linalg.norm(rep_nuc.estimate - truth))
        record["rel_err_nuclear"] = err_nuc / tnorm
        record["nuclear_converged"] = bool(rep_nuc.converged)

    else:  # pragma: no cover - guarded by config validation
        raise ValueError(f"unknown experiment {exp!r}")

    rel = err / tnorm if tnorm > 0 else math.inf
    record.update({
        "rel_err": rel,
        "abs_err": err,
        "sq_err": err * err,
        "converged": bool(rep.converged),
        "success": bool(rep.converged and rel <= cfg.success_threshold),
        "seconds": time.perf_counter() - t0,
    })
    return record


def _pool_task(args):
    cfg, ci, ti = args
    return (ci, ti), _run_trial(cfg, ci, ti)


def run_experiment(cfg, jobs=1):
    """Run every (cell, trial) pair and aggregate per-cell statistics.

    jobs > 1 distributes trials over a process pool; records are merged by
    (cell, trial) key, so the result is identical to the serial run.
    """
    tasks = [(ci, ti) for ci in range(len(cfg.cells)) for ti in range(cfg.trials)]
    records = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for key, rec in pool.map(_pool_task,
                                     [(cfg, ci, ti) for ci, ti in tasks]):
                records[key] = rec
    else:
        for ci, ti in tasks:
            records[(ci, ti)] = _run_trial(cfg, ci, ti)

    cells = []
    detail = []
    for ci, cell in enumerate(cfg.cells):
        recs = [records[(ci, ti)] for ti in range(cfg.trials)]
        rels = np.array([r["rel_err"] for r in recs])
        sqs = np.array([r["sq_err"] for r in recs])
        abss = np.array([r["abs_err"] for r in recs])
        successes = sum(r["success"] for r in recs)
        nonconv = sum(not r["converged"] for r in recs)
        failures = cfg.trials - successes - nonconv
        formula = recs[0].get("formula_value")
        med_sq = float(np.median(sqs))
        med_abs = float(np.median(abss))
        if formula:
            measured = med_abs if cfg.experiment == "completion-stability" else med_sq
            fitted = measured / formula
        else:
            fitted = None
        extra = {}
        if cfg.experiment == "completion-stability":
            extra["bound_rate"] = sum(r["bound_satisfied"] for r in recs) / cfg.trials
        if cfg.experiment == "optspace-compare":
            nuc = np.array([r["rel_err_nuclear"] for r in recs])
            extra["median_rel_err_nuclear"] = float(np.median(nuc))
            extra["median_err_ratio"] = float(np.median(rels / np.maximum(nuc, 1e-300)))
        if cell.p is not None:
            p_val = cell.p
        elif (cfg.ensemble == "entry"
              or cfg.experiment in ("completion-stability", "optspace-compare")):
            p_val = _cell_m(cell) / cell.n ** 2
        else:
            p_val = None
        cells.append(CellResult(
            n=cell.n, r=cell.r, m=_cell_m(cell), p=p_val,
            sigma=cell.sigma, kappa=cell.kappa,
            trials=cfg.trials, successes=int(successes), failures=int(failures),
            non_convergences=int(nonconv),
            success_rate=successes / cfg.trials,
            median_rel_err=float(np.median(rels)),
            max_rel_err=float(rels.max()),
            median_sq_err=med_sq, median_abs_err=med_abs,
            fitted_constant=fitted, formula_value=formula,
            seconds=float(sum(r["seconds"] for r in recs)),
            extra=extra))
        detail.append(tuple(recs))

    return ExperimentResult(
        experiment=cfg.experiment, seed=cfg.seed, version=VERSION,
        config=_config_echo(cfg), cells=tuple(cells), detail=tuple(detail))


def _config_echo(cfg):
    echo = asdict(cfg)
    echo["cells"] = [asdict(c) for c in cfg.cells]
    echo["solver"] = asdict(cfg.solver)
    echo["optspace"] = asdict(cfg.optspace)
    return echo


def fit_empirical_constant(result, formula_id):
    """Through-origin least-squares slope of measured error against the
    formula value, across cells; needs at least 3 cells."""
    known = ("nrsigma2", "ideal-risk", "instance-optimal", "stability",
             "optspace-noisy")
    if formula_id not in known:
        raise ValueError(f"unknown formula {formula_id!r}; choose from {known}")
    xs, ys = [], []
    for c in result.cells:
        if formula_id == "nrsigma2":
            x = c.n * c.r * c.sigma ** 2
        else:
            x = c.formula_value
        if x is None:
            continue
        y = c.median_abs_err if formula_id == "stability" else c.median_sq_err
        xs.append(float(x))
        ys.append(float(y))
    if len(xs) < 3:
        raise ValueError(f"need at least 3 cells with formula values, have {len(xs)}")
    xs, ys = np.array(xs), np.array(ys)
    if np.any(xs <= 0):
        raise ValueError("formula values must be positive to fit a constant")
    slope = float((xs * ys).sum() / (xs * xs).sum())
    ratios = ys / xs
    return FitResult(slope=slope, ratio_min=float(ratios.min()),
                     ratio_max=float(ratios.max()), cells=len(xs))


def check_floors(result, floors=None):
    """Evaluate acceptance floors against a result; returns violation strings
    (empty list = all floors met).  Supported keys: success_rate (min over
    cells), last_success_rate (the last grid cell's success rate),
    bound_rate (min over cells), max_rel_err (max over cells), ratio_spread
    (max/min of per-cell fitted constants)."""
    floors = result.config.get("floors", {}) if floors is None else floors
    bad = []
    for key, val in floors.items():
        if key == "success_rate":
            worst = min(c.success_rate for c in result.cells)
            if worst < val:
                bad.append(f"success_rate {worst:.4g} < floor {val:.4g}")
        elif key == "last_success_rate":
            last = result.cells[-1].success_rate
            if last < val:
                bad.append(f"last_success_rate {last:.4g} < floor {val:.4g}")
        elif key == "bound_rate":
            rates = [c.extra.get("bound_rate") for c in result.cells]
            if any(r is None for r in rates):
                bad.append("bound_rate floor set but experiment records no bounds")
            elif min(rates) < val:
                bad.append(f"bound_rate {min(rates):.4g} < floor {val:.4g}")
        elif key == "max_rel_err":
            worst = max(c.max_rel_err for c in result.cells)
            if worst > val:
                bad.append(f"max_rel_err {worst:.4g} > floor {val:.4g}")
        elif key == "ratio_spread":
            fitted = [c.fitted_constant for c in result.cells
                      if c.fitted_constant is not None]
            if len(fitted) < 2:
                bad.append("ratio_spread floor needs >= 2 cells with constants")
            else:
                spread = max(fitted) / min(fitted)
                if spread > val:
                    bad.append(f"fitted-constant spread {spread:.4g} > floor {val:.4g}")
        else:
            bad.append(f"unknown floor {key!r}")
    return bad


# --- config file grammar ----------------------------------------------------
#
#   # comment
#   experiment = phase-transition
#   trials = 20
#   seed = 7
#   [grid]
#   mode = product            (product | zip)
#   n = 30, 40                lists are comma separated; scalars broadcast
#   r = 2
#   m = 300                   exactly one of m / m_per_nr / p
#   sigma = 0
#   [solver] / [optspace]     optional overrides of solver knob defaults
#   [floors]                  optional acceptance floors for exit status


def _parse_scalar(tok):
    tok = tok.strip()
    if len(tok) >= 2 and tok[0] == tok[-1] and tok[0] in "'\"":
        return tok[1:-1]
    low = tok.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def parse_config_text(text):
    """Parse the key = value / [section] grammar into {section: {key: value}}.
    Top-level keys live under the '' section; comma-separated values become
    lists."""
    sections = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if "," in val:
            sections[current][key] = [_parse_scalar(t) for t in val.split(",")]
        else:
            sections[current][key] = _parse_scalar(val)
    return sections


def _as_list(v):
    return list(v) if isinstance(v, list) else [v]


def build_experiment_config(sections, seed_override=None):
    """Turn parsed config sections into an ExperimentConfig."""
    main = dict(sections.get("", {}))
    grid = dict(sections.get("grid", {}))
    if "experiment" not in main:
        raise ValueError("config must set 'experiment'")
    mode = grid.pop("mode", "product")
    if mode not in ("product", "zip"):
        raise ValueError(f"grid mode must be product or zip, got {mode!r}")
    m_per_nr = grid.pop("m_per_nr", None)

    names = [k for k in ("n", "r", "m", "p", "sigma", "kappa") if k in grid]
    unknown = set(grid) - set(names)
    if unknown:
        raise ValueError(f"unknown grid keys: {sorted(unknown)}")
    if "n" not in grid or "r" not in grid:
        raise ValueError("grid must set n and r")
    lists = {k: _as_list(grid[k]) for k in names}

    if mode == "zip":
        length = max(len(v) for v in lists.values())
        for k, v in lists.items():
            if len(v) == 1:
                lists[k] = v * length
            elif len(v) != length:
                raise ValueError(f"zip grid: {k} has {len(v)} values, expected {length}")
        combos = [dict(zip(lists, vals)) for vals in zip(*lists.values())]
    else:
        combos = [{}]
        for k in names:
            combos = [dict(c, **{k: v}) for c in combos for v in lists[k]]

    cells = []
    for c in combos:
        if m_per_nr is not None:
            if "m" in c or "p" in c:
                raise ValueError("give exactly one of m, p, m_per_nr")
            c["m"] = int(round(m_per_nr * c["n"] * c["r"]))
        cells.append(GridCell(n=int(c["n"]), r=int(c["r"]),
                              m=int(c["m"]) if "m" in c else None,
                              p=float(c["p"]) if "p" in c else None,
                              sigma=float(c.get("sigma", 0.0)),
                              kappa=float(c.get("kappa", 1.0))))

    solver = SolverConfig(**sections.get("solver", {}))
    opts = OptspaceConfig(**sections.get("optspace", {}))
    floors = dict(sections.get("floors", {}))
    seed = int(main.get("seed", 0)) if seed_override is None else int(seed_override)

    kwargs = {}
    for key in ("success_threshold", "ensemble", "spectrum_top", "spectrum_ratio"):
        if key in main:
            kwargs[key] = main[key]
    return ExperimentConfig(
        experiment=str(main["experiment"]), cells=tuple(cells),
        trials=int(main.get("trials", 20)), seed=seed,
        solver=solver, optspace=opts, floors=floors, **kwargs)


# --- emission ---------------------------------------------------------------


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def result_csv(result):
    """CSV text, one row per cell, fixed column order."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for c in result.cells:
        w.writerow([_csv_cell(getattr(c, "n")), _csv_cell(c.r), _csv_cell(c.m),
                    _csv_cell(c.p), _csv_cell(c.sigma), _csv_cell(c.kappa),
                    _csv_cell(c.trials), _csv_cell(c.success_rate),
                    _csv_cell(c.median_rel_err), _csv_cell(c.median_sq_err),
                    _csv_cell(c.fitted_constant), _csv_cell(c.failures),
                    _csv_cell(c.seconds)])
    return buf.getvalue()


def result_json(result):
    payload = {
        "experiment": result.experiment,
        "seed": result.seed,
        "version": result.version,
        "config": result.config,
        "cells": [asdict(c) for c in result.cells],
        "trials": [list(cell_recs) for cell_recs in result.detail],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _plot_svg(result):
    from .svgplot import heat_map, line_plot

    cells = result.cells
    varying = [k for k in ("m", "p", "n", "r", "sigma", "kappa")
               if len({getattr(c, k) for c in cells}) > 1]
    rates = [c.success_rate for c in cells]
    title = f"{result.experiment} success rate"
    if len(cells) == 1 or not varying:
        return line_plot([0, 1], [rates[0], rates[0]], title=title,
                         xlabel="(single cell)", ylabel="success rate")
    if len(varying) == 1:
        k = varying[0]
        pts = sorted(zip([getattr(c, k) for c in cells], rates))
        return line_plot([x for x, _ in pts], [y for _, y in pts],
                         title=title, xlabel=k, ylabel="success rate")
    kx, ky = varying[0], varying[1]
    xs = sorted({getattr(c, kx) for c in cells})
    ys = sorted({getattr(c, ky) for c in cells})
    grid = [[0.0] * len(xs) for _ in ys]
    for c in cells:
        grid[ys.index(getattr(c, ky))][xs.index(getattr(c, kx))] = c.success_rate
    return heat_map(xs, ys, grid, title=title, xlabel=kx, ylabel=ky)


def emit(result, out_dir, fmt="both", plot=False):
    """Write result files into out_dir; returns the list of paths written.

    fmt is csv | json | both.  CSV carries the per-cell summary; JSON carries
    the config echo, version, and full per-trial detail.  plot=True adds an
    SVG of the success rate over the grid.
    """
    import pathlib

    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"format must be csv, json, or both, got {fmt!r}")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = result.experiment
    written = []
    if fmt in ("csv", "both"):
        path = out / f"{stem}.csv"
        path.write_text(result_csv(result))
        written.append(str(path))
    if fmt in ("json", "both"):
        path = out / f"{stem}.json"
        path.write_text(result_json(result))
        written.append(str(path))
    if plot:
        path = out / f"{stem}.svg"
        path.write_text(_plot_svg(result))
        written.append(str(path))
    return written
