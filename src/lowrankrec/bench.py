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

A cell alone picks its trial operator: a cell given by p samples
round(p n^2) entries, in every family, and one given by m draws m rows of
the config's dense ensemble (gaussian or rademacher).  The two completion
families need p; bias-variance observes every entry, so it needs p = 1.

Per-trial randomness is keyed by (master seed, cell index, trial index), so
results are independent of execution order and worker count.
"""

import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from ._version import VERSION
from .matcore import LowRankSpec, gen_low_rank, geometric_spectrum
from .measure import (MAX_DIM_PRODUCT, MAX_MEASUREMENTS, NoiseModel, add_noise,
                      adjoint_ensemble, apply_ensemble, entry_sampling_ensemble,
                      gaussian_ensemble, rademacher_ensemble, sample_omega)
from .oracle import (completion_stability_bound, ideal_risk,
                     instance_optimal_bound, minimax_bound)
from .optspace import optspace
from .rand import spawn_seeds
from .solve import (SolverConfig, choose_delta, choose_lambda, solve_dantzig,
                    solve_lasso, solve_noiseless)

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

FLOORS = ("success_rate", "last_success_rate", "bound_rate", "max_rel_err",
          "ratio_spread")

CSV_COLUMNS = ["n", "r", "m", "p", "sigma", "kappa", "trials", "success_rate",
               "median_rel_err", "median_sq_err", "fitted_constant",
               "failures", "seconds"]

SUCCESS_REL_ERR = 1e-3   # a converged trial at or below this rel_err succeeds
SPECTRUM_TOP = 1.0       # the truth's spectrum in bias-variance and instance-
SPECTRUM_RATIO = 0.8     # optimal, SPECTRUM_TOP SPECTRUM_RATIO^i; elsewhere by kappa


@dataclass(frozen=True)
class GridCell:
    n: int
    r: int
    m: int = None        # dense measurement count; exactly one of m and p
    p: float = None      # observed fraction: entry sampling of round(p n^2) entries
    sigma: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or self.r > self.n:
            raise ValueError(f"bad cell dimensions n={self.n} r={self.r}")
        if (self.m is None) == (self.p is None):
            raise ValueError(f"a cell needs exactly one of m or p, got m={self.m} p={self.p}")
        if self.p is not None and not (0 < self.p <= 1):
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.p is not None and _cell_m(self) < 1:
            raise ValueError(f"p = {self.p} samples round(p n^2) = 0 entries at n = {self.n}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.m is not None and (self.n * self.n > MAX_DIM_PRODUCT
                                   or self.m > MAX_MEASUREMENTS):
            raise ValueError(f"an m cell's dense rows need n^2 <= {MAX_DIM_PRODUCT} and "
                             f"m <= {MAX_MEASUREMENTS}, got n={self.n} m={self.m}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 1 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 1, got {self.kappa}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    cells: tuple
    trials: int = 20
    seed: int = 0
    ensemble: str = "gaussian"      # dense kind of an m cell, see _ensemble
    solver: SolverConfig = field(default_factory=SolverConfig)
    floors: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {', '.join(EXPERIMENTS)}")
        if not self.cells:
            raise ValueError("experiment grid is empty")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.ensemble not in ("gaussian", "rademacher"):
            raise ValueError(f"ensemble must be gaussian or rademacher, got "
                             f"{self.ensemble!r} (a cell given by p samples entries)")
        _reject_unknown(self.floors, FLOORS, "floors")
        for key, value in self.floors.items():
            if not math.isfinite(value):
                raise ValueError(f"floor {key} must be finite, got {value}")
        exp = self.experiment
        if "bound_rate" in self.floors and exp != "completion-stability":
            raise ValueError(f"floor bound_rate: {exp} records no bounds "
                             "(only completion-stability does)")
        if "ratio_spread" in self.floors and exp in ("phase-transition",
                                                     "optspace-compare"):
            raise ValueError(f"floor ratio_spread: {exp} records no formula value")
        # the formula value is 0 at sigma = 0, so that cell fits no constant
        if "ratio_spread" in self.floors and sum(c.sigma > 0 for c in self.cells) < 2:
            raise ValueError(f"floor ratio_spread: this {exp} grid has fewer than "
                             "2 cells with sigma > 0 to fit a constant in")
        for cell in self.cells:
            if exp in ("completion-stability", "optspace-compare") and cell.p is None:
                raise ValueError(f"{exp} samples entries: give p, not m, in [grid]")
            if exp == "bias-variance" and cell.p != 1:
                raise ValueError("bias-variance observes every entry: [grid] p must be 1")
            if (exp in ("dantzig-scaling", "bias-variance", "instance-optimal")
                    and cell.sigma == 0):
                raise ValueError(f"{exp} sets lambda = 1.5 sqrt(2n) sigma: "
                                 "[grid] sigma must be positive")
            if exp in ("bias-variance", "instance-optimal") and cell.kappa != 1:
                raise ValueError(f"{exp} draws the truth's spectrum without kappa: "
                                 f"[grid] kappa must be 1, got {cell.kappa:g}")
            try:   # a formula value past the largest float says nothing
                _formula_value(self, cell)
            except ValueError as exc:
                raise ValueError(f"[grid] cell n={cell.n} r={cell.r} m={_cell_m(cell)} "
                                 f"sigma={cell.sigma:g}: {exc}") from None


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
        return geometric_spectrum(cell.r, SPECTRUM_TOP, SPECTRUM_RATIO)
    return _kappa_spectrum(cell.r, cell.kappa)


def _truth(cell, cfg, seed):
    spec = LowRankSpec(n1=cell.n, n2=cell.n, r=cell.r,
                       spectrum=_spectrum_of(cell, cfg),
                       model="random-orthogonal", seed=seed)
    return gen_low_rank(spec)


def _cell_m(cell):
    return cell.m if cell.m is not None else int(round(cell.p * cell.n * cell.n))


def _r_bar(cell):
    """instance-optimal's truncation level, a tenth of m / n, at most r."""
    return max(0, min(cell.r, int(0.1 * _cell_m(cell) / cell.n)))


def _formula_value(cfg, cell):
    """The closed-form reference level of ``cell`` in ``cfg``'s family, None
    for a family without one.  It depends on the cell alone, so
    ExperimentConfig evaluates it at load, where a value that is not finite
    is the oracle's ValueError."""
    exp = cfg.experiment
    if exp == "dantzig-scaling":
        return minimax_bound(cell.n, cell.r, cell.sigma).value
    if exp == "completion-stability":
        m = _cell_m(cell)
        return completion_stability_bound(cell.n, m / cell.n ** 2,
                                          choose_delta(m, cell.sigma)).value
    if exp == "bias-variance":
        return ideal_risk(np.asarray(_spectrum_of(cell, cfg)), cell.n, cell.sigma).value
    if exp == "instance-optimal":
        return instance_optimal_bound(np.asarray(_spectrum_of(cell, cfg)), cell.n,
                                      cell.sigma, _r_bar(cell)).value
    return None


def _ensemble(cell, cfg, seed):
    """The measurement operator of one trial of ``cell``: entry sampling of
    round(p n^2) entries for a cell given by p, else m rows of the config's
    dense ensemble."""
    n = cell.n
    if cell.p is None:
        make = rademacher_ensemble if cfg.ensemble == "rademacher" else gaussian_ensemble
        return make(n, n, cell.m, seed)
    return entry_sampling_ensemble(sample_omega(n, n, _cell_m(cell), seed))


def _run_trial(cfg, cell_idx, trial_idx):
    """One (cell, trial) evaluation; returns a plain record dict."""
    cell = cfg.cells[cell_idx]
    s_truth, s_meas, s_noise, _ = spawn_seeds(cfg.seed, cell_idx, trial_idx, count=4)
    t0 = time.perf_counter()
    truth, _ = _truth(cell, cfg, s_truth)
    tnorm = float(np.linalg.norm(truth))
    ens = _ensemble(cell, cfg, s_meas)
    y = add_noise(apply_ensemble(ens, truth), NoiseModel(cell.sigma, s_noise))
    record = {"cell": cell_idx, "trial": trial_idx}
    exp = cfg.experiment

    if exp == "phase-transition":
        rep = solve_noiseless(ens, y, cfg.solver)
    elif exp == "completion-stability":
        delta = record["delta"] = choose_delta(ens.m, cell.sigma)
        rep = solve_lasso(ens, y, delta, cfg.solver)
        record["formula_value"] = _formula_value(cfg, cell)
    elif exp == "optspace-compare":
        # A*(y) of entry sampling: the observed entries, zero elsewhere
        rep = optspace(adjoint_ensemble(ens, y), ens.omega, r=cell.r)
        rep_nuc = solve_noiseless(ens, y, cfg.solver)
        record["rel_err_nuclear"] = float(np.linalg.norm(rep_nuc.estimate - truth)) / tnorm
        record["nuclear_converged"] = bool(rep_nuc.converged)
    else:   # dantzig-scaling, bias-variance, instance-optimal
        rep = solve_dantzig(ens, y, choose_lambda(cell.n, cell.sigma), cfg.solver)
        if exp == "instance-optimal":
            record["r_bar"] = _r_bar(cell)
        record["formula_value"] = _formula_value(cfg, cell)

    err = float(np.linalg.norm(rep.estimate - truth))
    if exp == "completion-stability":
        record["bound_satisfied"] = bool(err <= record["formula_value"])
    rel = err / tnorm if tnorm > 0 else math.inf
    record.update({
        "rel_err": rel,
        "abs_err": err,
        "sq_err": err * err,
        "converged": bool(rep.converged),
        "success": bool(rep.converged and rel <= SUCCESS_REL_ERR),
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
        # imported here: concurrent.futures and multiprocessing would add
        # about 40 ms to every import of the package
        from concurrent.futures import ProcessPoolExecutor
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
        successes = sum(r["success"] for r in recs)
        nonconv = sum(not r["converged"] for r in recs)
        failures = cfg.trials - successes - nonconv
        formula = recs[0].get("formula_value")
        med_sq = float(np.median([r["sq_err"] for r in recs]))
        med_abs = float(np.median([r["abs_err"] for r in recs]))
        fitted = _fitted_error(cfg.experiment, med_abs, med_sq) / formula if formula else None
        extra = {}
        if cfg.experiment == "completion-stability":
            extra["bound_rate"] = sum(r["bound_satisfied"] for r in recs) / cfg.trials
        if cfg.experiment == "optspace-compare":
            nuc = np.array([r["rel_err_nuclear"] for r in recs])
            extra["median_rel_err_nuclear"] = float(np.median(nuc))
            extra["median_err_ratio"] = float(np.median(rels / np.maximum(nuc, 1e-300)))
        cells.append(CellResult(
            n=cell.n, r=cell.r, m=_cell_m(cell), p=cell.p,
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
        config=asdict(cfg), cells=tuple(cells), detail=tuple(detail))


def _fitted_error(experiment, median_abs_err, median_sq_err):
    """The median error a fitted constant sets against the cell's formula
    value: the absolute error for completion-stability, whose guarantee
    bounds ||X^ - X||_F, and the squared error for every other family."""
    return median_abs_err if experiment == "completion-stability" else median_sq_err


def fit_empirical_constant(result):
    """Through-origin least-squares slope of each cell's fitted error (see
    _fitted_error) against its formula value, across the cells that record
    one; needs at least 3 such cells."""
    cells = [c for c in result.cells if c.formula_value is not None]
    if len(cells) < 3:
        raise ValueError(f"need at least 3 cells with formula values, have {len(cells)}")
    xs = np.array([float(c.formula_value) for c in cells])
    ys = np.array([float(_fitted_error(result.experiment, c.median_abs_err,
                                       c.median_sq_err)) for c in cells])
    if np.any(xs <= 0):
        raise ValueError("formula values must be positive to fit a constant")
    slope = float((xs * ys).sum() / (xs * xs).sum())
    ratios = ys / xs
    return FitResult(slope=slope, ratio_min=float(ratios.min()),
                     ratio_max=float(ratios.max()), cells=len(xs))


def check_floors(result, floors=None):
    """Evaluate acceptance floors against a result; returns violation strings
    (empty list = all floors met).  The FLOORS names: success_rate (min over
    cells), last_success_rate (the last grid cell's success rate),
    bound_rate (min over cells), max_rel_err (max over cells), ratio_spread
    (max/min of per-cell fitted constants).  An ExperimentConfig names no
    other floor (it rejects one); ``floors`` passed here that does gets an
    "unknown floor" violation."""
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
#   m = 300                   exactly one of m / m_per_nr (dense rows) / p (entries);
#                             the completion families need p, bias-variance p = 1
#   sigma = 0                 positive in dantzig-scaling, bias-variance, instance-optimal
#   kappa = 1                 1 in bias-variance and instance-optimal
#   [solver]                  optional overrides of SolverConfig fields
#   [floors]                  optional acceptance floors for exit status (FLOORS)
# plus the top-level key ensemble (gaussian | rademacher: the dense kind of an m
# cell).  SUCCESS_REL_ERR, SPECTRUM_TOP, SPECTRUM_RATIO and OptSpace's settings
# (optspace-compare runs OptspaceConfig()) are fixed.
# A value is an int, else a float, else a string (quotes optional).
# All is checked at load: an unknown section, key or floor name is an error, and
# so is a value not of its field's type ([grid] keys by GridCell's fields,
# m_per_nr a float, mode a string), and so is a key set twice in one section
# (a repeated section header merges into the first).


def _parse_scalar(tok):
    tok = tok.strip()
    if len(tok) >= 2 and tok[0] == tok[-1] and tok[0] in "'\"":
        return tok[1:-1]
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
    lists.  A key set twice in one section is a ValueError naming its line."""
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
        if key in sections[current]:
            where = f"[{current}] " if current else ""
            raise ValueError(f"line {lineno}: {where}{key} is set twice")
        if "," in val:
            sections[current][key] = [_parse_scalar(t) for t in val.split(",")]
        else:
            sections[current][key] = _parse_scalar(val)
    return sections


def _as_list(v):
    return list(v) if isinstance(v, list) else [v]


SECTIONS = ("", "grid", "solver", "floors")


def _reject_unknown(keys, allowed, what):
    unknown = set(keys) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")


def _typed(key, value, kind):
    """``value`` as a value of a field of type ``kind`` (int, float or str):
    an integral float becomes an int, an int stays as written in a float
    field, and anything else (a list, inf or nan too) is a ValueError
    naming ``key``."""
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max   # not inf, nan or past a float
              and (kind is float or isinstance(value, int) or value.is_integer()))
    if not ok:
        raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
    return int(value) if kind is int else value


def _kinds(cls, skip=()):
    """{field name: type} of the dataclass ``cls``, less the names in ``skip``."""
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


def _section(sections, name, kinds):
    """Section ``name`` checked against ``kinds`` (key -> type) by _typed."""
    values = sections.get(name, {})
    where = f"[{name}] " if name else ""
    _reject_unknown(values, kinds, f"{where}keys" if name else "top-level keys")
    return {k: _typed(where + k, v, kinds[k]) for k, v in values.items()}


def build_experiment_config(sections, seed_override=None):
    """Turn parsed config sections into an ExperimentConfig.  An unknown
    section, key or floor name, or a value of the wrong type, is a
    ValueError naming it."""
    _reject_unknown(sections, SECTIONS, "sections")
    main = _section(sections, "", _kinds(ExperimentConfig,
                                         skip=("cells", "solver", "floors")))
    solver = SolverConfig(**_section(sections, "solver", _kinds(SolverConfig)))
    floors = _section(sections, "floors", dict.fromkeys(FLOORS, float))
    grid = dict(sections.get("grid", {}))
    if "experiment" not in main:
        raise ValueError("config must set 'experiment'")
    mode = _typed("[grid] mode", grid.pop("mode", "product"), str)
    if mode not in ("product", "zip"):
        raise ValueError(f"grid mode must be product or zip, got {mode!r}")
    m_per_nr = grid.pop("m_per_nr", None)
    if m_per_nr is not None:
        m_per_nr = _typed("[grid] m_per_nr", m_per_nr, float)

    kinds = _kinds(GridCell)
    _reject_unknown(grid, kinds, "grid keys")
    if "n" not in grid or "r" not in grid:
        raise ValueError("grid must set n and r")
    lists = {k: [_typed(f"[grid] {k}", v, kinds[k]) for v in _as_list(grid[k])]
             for k in kinds if k in grid}

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
        for k in lists:
            combos = [dict(c, **{k: v}) for c in combos for v in lists[k]]

    cells = []
    for c in combos:
        if m_per_nr is not None:
            if "m" in c or "p" in c:
                raise ValueError("give exactly one of m, p, m_per_nr")
            m = m_per_nr * c["n"] * c["r"]
            if not abs(m) <= sys.float_info.max:
                raise ValueError(f"[grid] m_per_nr * n * r is out of range: {m}")
            c["m"] = int(round(m))
        # a float field keeps an int as written; the cell holds it as a float
        cells.append(GridCell(**{k: float(v) if kinds[k] is float else v
                                 for k, v in c.items()}))

    if seed_override is not None:
        main["seed"] = int(seed_override)
    return ExperimentConfig(cells=tuple(cells), solver=solver, floors=floors, **main)


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
        w.writerow([_csv_cell(getattr(c, k)) for k in CSV_COLUMNS])
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
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    grid = [[None] * len(xs) for _ in ys]   # None: no cell ran there
    for c in cells:
        grid[ys.index(getattr(c, ky))][xs.index(getattr(c, kx))] = c.success_rate
    return heat_map(xs, ys, grid, title=title, xlabel=kx, ylabel=ky)


def emit(result, out_dir, plot=False):
    """Write result files into out_dir; returns the list of paths written.

    The CSV carries the per-cell summary; the JSON carries the config echo,
    version, and full per-trial detail.  plot=True adds an SVG of the
    success rate over the grid.
    """
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = [("csv", result_csv(result)), ("json", result_json(result))]
    if plot:
        texts.append(("svg", _plot_svg(result)))
    written = []
    for suffix, text in texts:
        path = out / f"{result.experiment}.{suffix}"
        path.write_text(text)
        written.append(str(path))
    return written
