"""Tests for the Monte Carlo experiment harness: config grammar, trial
bookkeeping, determinism, constant fitting, and file emission."""

import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lowrankrec.bench import (
    CSV_COLUMNS,
    EXPERIMENTS,
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    GridCell,
    SUCCESS_REL_ERR,
    build_experiment_config,
    check_floors,
    emit,
    fit_empirical_constant,
    parse_config_text,
    result_csv,
    result_json,
    run_experiment,
    _cell_m,
    _ensemble,
)
from lowrankrec.optspace import OptspaceConfig
from lowrankrec.solve import SolverConfig


def tiny_config(**overrides):
    base = dict(
        experiment="phase-transition",
        cells=(GridCell(n=12, r=1, m=24), GridCell(n=12, r=1, m=72)),
        trials=3,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fake_result(cells, experiment="phase-transition"):
    return ExperimentResult(experiment=experiment, seed=0,
                            version="x", config={}, cells=tuple(cells),
                            detail=tuple(() for _ in cells))


def fake_cell(**overrides):
    base = dict(n=10, r=1, m=50, p=None, sigma=0.1, kappa=1.0, trials=4,
                successes=4, failures=0, non_convergences=0, success_rate=1.0,
                median_rel_err=1e-4, max_rel_err=2e-4, median_sq_err=1.0,
                median_abs_err=1.0, fitted_constant=1.0, formula_value=1.0,
                seconds=0.0)
    base.update(overrides)
    return CellResult(**base)


# --------------------------------------------------------- config grammar

def test_parse_config_sections_comments_lists():
    text = """
    # a comment line
    experiment = phase-transition
    trials = 5          # trailing comment
    seed = 42
    [grid]
    n = 30, 40
    r = 2
    m_per_nr = 5
    [floors]
    success_rate = 0.9
    """
    sections = parse_config_text(text)
    assert sections[""]["experiment"] == "phase-transition"
    assert sections[""]["trials"] == 5
    assert sections["grid"]["n"] == [30, 40]
    assert sections["grid"]["r"] == 2
    assert sections["floors"]["success_rate"] == 0.9


def test_parse_config_scalar_coercion():
    sections = parse_config_text(
        "a = 3\nb = 2.5\nc = true\nd = hello\ne = 'quoted'\nf = 1, x, 2.0\n")
    top = sections[""]
    assert top["a"] == 3 and isinstance(top["a"], int)
    assert top["b"] == 2.5
    assert top["c"] == "true"   # no config key takes a bool
    assert top["d"] == "hello"
    assert top["e"] == "quoted"
    assert top["f"] == [1, "x", 2.0]


def test_parse_config_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("a = 1\nnot a key value\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_config_text("= 3\n")
    # a key set twice is an error, also across a repeated section header
    with pytest.raises(ValueError, match="line 2: trials is set twice"):
        parse_config_text("trials = 1\ntrials = 2\n")
    with pytest.raises(ValueError, match=r"line 5: \[grid\] m is set twice"):
        parse_config_text("[grid]\nm = 30\n[solver]\n[grid]\nm = 36\n")
    assert parse_config_text("[grid]\nn = 3\n[grid]\nm = 4\n")["grid"] == {"n": 3, "m": 4}


def test_build_config_product_grid():
    cfg = build_experiment_config(parse_config_text(
        "experiment = phase-transition\n[grid]\nn = 10, 20\nr = 1, 2\nm = 50\n"))
    assert len(cfg.cells) == 4
    assert {(c.n, c.r) for c in cfg.cells} == {(10, 1), (10, 2), (20, 1), (20, 2)}


def test_build_config_zip_grid_broadcasts_scalars():
    cfg = build_experiment_config(parse_config_text(
        "experiment = dantzig-scaling\n[grid]\nmode = zip\n"
        "n = 30, 40, 60\nr = 1, 2, 3\nm_per_nr = 8\nsigma = 0.01\n"))
    assert [(c.n, c.r, c.m) for c in cfg.cells] == \
        [(30, 1, 240), (40, 2, 640), (60, 3, 1440)]
    assert all(c.sigma == 0.01 for c in cfg.cells)


def test_build_config_zip_length_mismatch():
    with pytest.raises(ValueError, match="zip grid"):
        build_experiment_config(parse_config_text(
            "experiment = phase-transition\n[grid]\nmode = zip\n"
            "n = 10, 20\nr = 1, 2, 3\nm = 50\n"))


def test_build_config_requires_one_sampling_knob():
    with pytest.raises(ValueError, match="exactly one"):
        build_experiment_config(parse_config_text(
            "experiment = phase-transition\n[grid]\nn = 10\nr = 1\n"
            "m = 50\nm_per_nr = 5\n"))
    with pytest.raises(ValueError, match="m or p"):
        build_experiment_config(parse_config_text(
            "experiment = phase-transition\n[grid]\nn = 10\nr = 1\n"))


def test_build_config_rejects_unknown_keys_and_modes():
    with pytest.raises(ValueError, match="unknown grid keys"):
        build_experiment_config(parse_config_text(
            "experiment = phase-transition\n[grid]\nn = 10\nr = 1\nm = 50\nq = 3\n"))
    with pytest.raises(ValueError, match="product or zip"):
        build_experiment_config(parse_config_text(
            "experiment = phase-transition\n[grid]\nmode = diag\nn = 10\nr = 1\nm = 50\n"))
    with pytest.raises(ValueError, match="unknown experiment"):
        build_experiment_config(parse_config_text(
            "experiment = nosuch\n[grid]\nn = 10\nr = 1\nm = 50\n"))


BASE_CFG = "experiment = phase-transition\n[grid]\nn = 10\nr = 1\nm = 50\n"


@pytest.mark.parametrize("head, tail, named", [
    pytest.param("trails = 1\n", "", "trails", id="top-level"),
    pytest.param("", "[floor]\nsuccess_rate = 1\n", "floor", id="section"),
    pytest.param("", "[solver]\nbogus = 3\n", "bogus", id="solver"),
    pytest.param("", "[solver]\nfista_tol = 1e-9\n", "fista_tol", id="removed-solver-knob"),
    pytest.param("", "[optspace]\nmax_iters = 50\n", "optspace", id="optspace"),
])
def test_build_config_rejects_unknown_sections_and_keys(head, tail, named):
    with pytest.raises(ValueError, match=f"unknown .*'{named}'"):
        build_experiment_config(parse_config_text(head + BASE_CFG + tail))


def test_build_config_types_values_at_load():
    cfg = build_experiment_config(parse_config_text(
        "trials = 3.0\n" + BASE_CFG + "[solver]\nmax_iters = 30.0\n"
        "[floors]\nratio_spread = 10\n"))
    assert cfg.trials == 3 and isinstance(cfg.trials, int)
    assert cfg.solver.max_iters == 30 and isinstance(cfg.solver.max_iters, int)
    assert cfg.floors == {"ratio_spread": 10}   # an int is kept in a float field
    cfg = build_experiment_config(parse_config_text(
        BASE_CFG + "kappa = 1, 20\nsigma = 0\n"))
    # a grid float field holds floats, an int one ints
    assert [(c.m, c.kappa, c.sigma) for c in cfg.cells] == [(50, 1.0, 0.0), (50, 20.0, 0.0)]
    assert all(isinstance(c.kappa, float) and isinstance(c.m, int) for c in cfg.cells)
    for head, tail, named in [
            ("trials = 2.5\n", "", "trials"),
            ("ensemble = 3\n", "", "ensemble"),
            ("seed = true\n", "", "seed"),
            ("seed = 1, 2\n", "", "seed"),
            ("", "[solver]\nmax_iters = 2.5\n", "max_iters"),
            ("", "[floors]\nbound_rate = high\n", "bound_rate"),
            ("", "[grid]\nsigma = 0, x\n", "sigma"),
            ("", "[grid]\nmode = 3\n", "mode")]:
        with pytest.raises(ValueError, match=f"{named} must be"):
            build_experiment_config(parse_config_text(head + BASE_CFG + tail))
    with pytest.raises(ValueError, match="n must be"):
        build_experiment_config(parse_config_text(BASE_CFG.replace("n = 10", "n = 10.5")))
    with pytest.raises(ValueError, match="unknown .*'sucess_rate'"):
        build_experiment_config(parse_config_text(
            BASE_CFG + "[floors]\nsucess_rate = 0.5\n"))


def test_build_config_reads_solver_section():
    cfg = build_experiment_config(parse_config_text(
        BASE_CFG + "[solver]\nmax_iters = 30\n"))
    assert cfg.solver.max_iters == 30


def test_build_config_seed_override_and_floors():
    sections = parse_config_text(
        "experiment = phase-transition\nseed = 5\n[grid]\nn = 10\nr = 1\np = 0.5\n"
        "[floors]\nsuccess_rate = 0.8\n")
    cfg = build_experiment_config(sections, seed_override=99)
    assert cfg.seed == 99
    assert cfg.floors == {"success_rate": 0.8}
    assert cfg.cells[0].p == 0.5 and cfg.cells[0].m is None


def test_grid_cell_validation():
    with pytest.raises(ValueError):
        GridCell(n=10, r=1)                  # no m and no p
    with pytest.raises(ValueError, match="exactly one of m or p"):
        GridCell(n=10, r=1, m=40, p=0.5)     # both
    with pytest.raises(ValueError):
        GridCell(n=10, r=1, p=1.5)
    with pytest.raises(ValueError):
        GridCell(n=10, r=1, m=-5)
    with pytest.raises(ValueError):
        GridCell(n=10, r=0, m=5)
    with pytest.raises(ValueError):
        GridCell(n=10, r=1, m=5, kappa=0.5)
    # what the trial's operator would refuse is refused with the cell
    with pytest.raises(ValueError, match="round"):
        GridCell(n=3, r=1, p=0.01)          # round(p n^2) = 0 entries
    GridCell(n=3, r=1, p=0.06)              # round(0.54) = 1 entry
    with pytest.raises(ValueError, match="dense rows need"):
        GridCell(n=128, r=1, m=40)          # n^2 past measure.MAX_DIM_PRODUCT
    with pytest.raises(ValueError, match="dense rows need"):
        GridCell(n=10, r=1, m=20_001)       # m past measure.MAX_MEASUREMENTS
    GridCell(n=100, r=1, m=20_000)
    GridCell(n=128, r=1, p=0.5)             # entry sampling has no cap


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        tiny_config(experiment="nope")
    with pytest.raises(ValueError, match="grid is empty"):
        tiny_config(cells=())
    with pytest.raises(ValueError, match="trials"):
        tiny_config(trials=0)
    for kind in ("fourier", "entry"):   # entry sampling is said by a cell's p
        with pytest.raises(ValueError, match="ensemble must be gaussian or rademacher"):
            tiny_config(ensemble=kind)


NAN, INF = float("nan"), float("inf")


def _cell(**kwargs):
    return GridCell(n=10, r=1, m=5, **kwargs)


@pytest.mark.parametrize("make, kwargs, named", [
    *[pytest.param(_cell, {k: v}, k, id=f"cell-{k}-{v}")
      for k in ("sigma", "kappa") for v in (NAN, INF)],
    pytest.param(tiny_config, {"floors": {"sucess_rate": 0.5}}, "sucess_rate",
                 id="floor-name"),
    *[pytest.param(tiny_config, {"floors": {"success_rate": v}}, "success_rate",
                   id=f"floor-value-{v}") for v in (NAN, INF)],
    *[pytest.param(cls, {"max_iters": v}, "max_iters", id=f"{cls.__name__}-max_iters-{v}")
      for cls in (SolverConfig, OptspaceConfig) for v in (NAN, 2.5)],
])
def test_settings_reject_non_finite_values(make, kwargs, named):
    # each settings dataclass checks its own fields, so a library caller's
    # nan or inf stops at construction, with the field named, as a config
    # file's does at load
    with pytest.raises(ValueError, match=named):
        make(**kwargs)


# --------------------------------------------------------- trial operator

M_CELL = GridCell(n=10, r=1, m=40, sigma=1e-2)      # 40 dense rows
P_CELL = GridCell(n=10, r=1, p=0.25, sigma=1e-2)    # 25 sampled entries
P40_CELL = GridCell(n=10, r=1, p=0.4, sigma=1e-2)   # 40 sampled entries
FULL_CELL = GridCell(n=10, r=1, p=1.0, sigma=1e-2)  # every entry
# (experiment, ensemble value, cell, operator kind, p column): the cell
# alone picks the operator, an m cell the config's dense ensemble and a p
# cell entry sampling, in every family that accepts the cell
OPERATOR_CASES = [
    ("phase-transition", "gaussian", M_CELL, "gaussian", None),
    ("phase-transition", "rademacher", M_CELL, "rademacher", None),
    ("phase-transition", "rademacher", P_CELL, "entry", 0.25),
    ("dantzig-scaling", "gaussian", M_CELL, "gaussian", None),
    ("dantzig-scaling", "rademacher", M_CELL, "rademacher", None),
    ("dantzig-scaling", "rademacher", P_CELL, "entry", 0.25),
    ("instance-optimal", "gaussian", M_CELL, "gaussian", None),
    ("instance-optimal", "rademacher", M_CELL, "rademacher", None),
    ("instance-optimal", "rademacher", P_CELL, "entry", 0.25),
    ("completion-stability", "gaussian", P40_CELL, "entry", 0.4),
    ("completion-stability", "rademacher", P40_CELL, "entry", 0.4),
    ("completion-stability", "gaussian", FULL_CELL, "entry", 1.0),
    ("optspace-compare", "gaussian", P40_CELL, "entry", 0.4),
    ("optspace-compare", "rademacher", P40_CELL, "entry", 0.4),
    ("optspace-compare", "gaussian", FULL_CELL, "entry", 1.0),
    ("bias-variance", "gaussian", FULL_CELL, "entry", 1.0),
    ("bias-variance", "rademacher", FULL_CELL, "entry", 1.0),
    ("phase-transition", "gaussian", FULL_CELL, "entry", 1.0),
    ("phase-transition", "gaussian", P_CELL, "entry", 0.25),
    ("dantzig-scaling", "gaussian", P_CELL, "entry", 0.25),
]


@pytest.mark.parametrize("experiment, ensemble, cell, kind, p", OPERATOR_CASES)
def test_trial_operator_and_p_column(experiment, ensemble, cell, kind, p):
    cfg = tiny_config(experiment=experiment, ensemble=ensemble, cells=(cell,))
    ens = _ensemble(cell, cfg, 3)
    assert ens.kind == kind
    assert ens.m == _cell_m(cell) == (cell.m or round(p * 100))
    # the p column is the cell's own p: the fraction of entries observed
    assert cell.p == p
    if kind == "entry":
        assert ens.omega.m == ens.m and ens.m / 100 == p


@pytest.mark.parametrize("experiment, ensemble, cell, named", [
    pytest.param("completion-stability", "gaussian", M_CELL, "give p, not m",
                 id="m-completion"),
    pytest.param("optspace-compare", "gaussian", M_CELL, "give p, not m", id="m-optspace"),
    *[pytest.param("bias-variance", ens, M_CELL, "p must be 1", id=f"m-bias-variance-{ens}")
      for ens in ("gaussian", "rademacher")],
    pytest.param("bias-variance", "gaussian", P_CELL, "p must be 1", id="p-bias-variance"),
    *[pytest.param(exp, "gaussian", GridCell(n=10, r=1, m=40), "sigma must be positive",
                   id=f"sigma0-{exp}")
      for exp in ("dantzig-scaling", "instance-optimal")],
    pytest.param("bias-variance", "gaussian", GridCell(n=10, r=1, p=1.0),
                 "sigma must be positive", id="sigma0-bias-variance"),
    pytest.param("bias-variance", "gaussian", GridCell(n=10, r=1, p=1.0, sigma=0.1,
                                                       kappa=20.0),
                 "kappa must be 1", id="kappa-bias-variance"),
    pytest.param("instance-optimal", "gaussian", GridCell(n=10, r=2, m=40, sigma=0.1,
                                                          kappa=20.0),
                 "kappa must be 1", id="kappa-instance-optimal"),
])
def test_experiment_config_rejects_cells_its_family_cannot_run(experiment, ensemble, cell,
                                                               named):
    with pytest.raises(ValueError, match=named):
        tiny_config(experiment=experiment, ensemble=ensemble, cells=(cell,))


def test_sigma_zero_stays_valid_where_no_lambda_is_set():
    for exp in ("phase-transition", "completion-stability", "optspace-compare"):
        tiny_config(experiment=exp, cells=(GridCell(n=10, r=1, p=0.5),))


def test_run_experiment_reports_the_p_column():
    # m and p are what the trial observed: every entry for bias-variance
    cfg = tiny_config(experiment="bias-variance", trials=1, cells=(FULL_CELL,))
    res = run_experiment(cfg)
    assert (res.cells[0].m, res.cells[0].p) == (100, 1.0)
    assert res.cells[0].formula_value is not None
    res = run_experiment(tiny_config(trials=1, cells=(P_CELL, M_CELL)))
    assert [(c.m, c.p) for c in res.cells] == [(25, 0.25), (40, None)]


# --------------------------------------------------------- run_experiment

def test_phase_transition_run_accounting_and_ordering():
    res = run_experiment(tiny_config())
    assert len(res.cells) == 2
    for cell, recs in zip(res.cells, res.detail):
        assert cell.successes + cell.failures == cell.trials == 3
        assert cell.non_convergences <= cell.failures + cell.successes
        assert 0.0 <= cell.success_rate <= 1.0
        assert len(recs) == 3
    # more measurements cannot hurt at this scale: the well-sampled cell wins
    assert res.cells[1].success_rate >= res.cells[0].success_rate
    assert res.cells[1].median_rel_err <= 1e-3


def test_trial_success_is_convergence_within_success_rel_err():
    # below and above the transition: both verdicts occur, each by the rule
    recs = [r for cell in run_experiment(tiny_config()).detail for r in cell]
    assert {r["success"] for r in recs} == {False, True}
    for r in recs:
        assert r["success"] == (r["converged"] and r["rel_err"] <= SUCCESS_REL_ERR)


def test_run_experiment_deterministic_and_parallel_equivalent():
    cfg = tiny_config(trials=2)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    c = run_experiment(cfg, jobs=2)
    for other in (b, c):
        for x, y in zip(a.cells, other.cells):
            assert x.median_rel_err == y.median_rel_err
            assert x.successes == y.successes
            assert x.median_sq_err == y.median_sq_err
    for recs_a, recs_o in zip(a.detail, c.detail):
        for ra, ro in zip(recs_a, recs_o):
            assert ra["rel_err"] == ro["rel_err"]


def test_completion_stability_records_bound_rate():
    cfg = ExperimentConfig(
        experiment="completion-stability",
        cells=(GridCell(n=16, r=1, p=0.6, sigma=1e-3),),
        trials=2, seed=3)
    res = run_experiment(cfg)
    assert "bound_rate" in res.cells[0].extra
    assert 0.0 <= res.cells[0].extra["bound_rate"] <= 1.0


# ---------------------------------------------------------------- fitting

def test_fit_constant_recovers_exact_slope():
    cells = [fake_cell(formula_value=x, median_sq_err=2.0 * x,
                       fitted_constant=2.0) for x in (0.5, 1.0, 4.0)]
    fit = fit_empirical_constant(fake_result(cells))
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.ratio_min == pytest.approx(2.0, rel=1e-12)
    assert fit.ratio_max == pytest.approx(2.0, rel=1e-12)
    assert fit.cells == 3


def test_fit_constant_zero_errors_give_zero_slope():
    cells = [fake_cell(formula_value=x, median_sq_err=0.0) for x in (1.0, 2.0, 3.0)]
    fit = fit_empirical_constant(fake_result(cells))
    assert fit.slope == 0.0


def test_fit_constant_nrsigma2_uses_cell_parameters():
    cells = [fake_cell(n=n, r=r, sigma=s, formula_value=n * r * s * s,
                       median_sq_err=3.0 * n * r * s * s)
             for n, r, s in [(30, 1, 0.01), (40, 2, 0.01), (60, 3, 0.01)]]
    fit = fit_empirical_constant(fake_result(cells, "dantzig-scaling"))
    assert fit.slope == pytest.approx(3.0, rel=1e-9)


def test_fit_constant_stability_uses_absolute_error():
    cells = [fake_cell(formula_value=x, median_abs_err=0.5 * x,
                       median_sq_err=123.0) for x in (1.0, 2.0, 4.0)]
    fit = fit_empirical_constant(fake_result(cells, "completion-stability"))
    assert fit.slope == pytest.approx(0.5, rel=1e-9)


def test_fit_constant_needs_three_cells_and_valid_formula():
    cells = [fake_cell(formula_value=1.0), fake_cell(formula_value=2.0)]
    with pytest.raises(ValueError, match="at least 3"):
        fit_empirical_constant(fake_result(cells))
    bad = [fake_cell(formula_value=0.0)] * 3
    with pytest.raises(ValueError, match="positive"):
        fit_empirical_constant(fake_result(bad))


# ----------------------------------------------------------------- floors

def test_check_floors_pass_and_fail():
    good = fake_result([fake_cell(success_rate=0.95)])
    assert check_floors(good, {"success_rate": 0.9}) == []
    bad = check_floors(good, {"success_rate": 0.99})
    assert len(bad) == 1 and "success_rate" in bad[0]


def test_check_floors_last_success_rate_pass_and_fail():
    # only the last grid cell counts: an incomplete early cell is expected
    res = fake_result([fake_cell(m=30, success_rate=0.0),
                       fake_cell(m=90, success_rate=1.0)])
    assert check_floors(res, {"last_success_rate": 1.0}) == []
    assert check_floors(res, {"success_rate": 1.0}) != []
    late = fake_result([fake_cell(m=30, success_rate=1.0),
                        fake_cell(m=90, success_rate=0.95)])
    bad = check_floors(late, {"last_success_rate": 1.0})
    assert len(bad) == 1 and "last_success_rate 0.95" in bad[0]


def test_check_floors_ratio_spread_and_unknown_key():
    res = fake_result([fake_cell(fitted_constant=1.0),
                       fake_cell(fitted_constant=20.0)])
    assert check_floors(res, {"ratio_spread": 10.0}) != []
    assert check_floors(res, {"ratio_spread": 25.0}) == []
    assert "unknown floor" in check_floors(res, {"magic": 1.0})[0]


def test_check_floors_bound_rate_requires_records():
    res = fake_result([fake_cell()])
    assert "records no bounds" in check_floors(res, {"bound_rate": 0.9})[0]
    with_rate = fake_result([fake_cell(extra={"bound_rate": 0.8})])
    assert check_floors(with_rate, {"bound_rate": 0.9}) != []
    assert check_floors(with_rate, {"bound_rate": 0.7}) == []


# --------------------------------------------------------------- emission

def test_result_csv_shape_and_stability():
    res = fake_result([fake_cell()])
    text = result_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert result_csv(res) == text            # emission is a pure function


def test_emit_writes_requested_files(tmp_path):
    res = run_experiment(tiny_config(trials=1,
                                     cells=(GridCell(n=10, r=1, m=60),)))
    paths = emit(res, tmp_path / "out", plot=True)
    names = sorted(p.rsplit("/", 1)[-1] for p in paths)
    assert names == ["phase-transition.csv", "phase-transition.json",
                     "phase-transition.svg"]
    payload = json.loads((tmp_path / "out" / "phase-transition.json").read_text())
    assert payload["experiment"] == "phase-transition"
    assert payload["config"]["trials"] == 1
    assert len(payload["cells"]) == 1
    assert len(payload["trials"][0]) == 1
    svg = (tmp_path / "out" / "phase-transition.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")


def test_emit_rerun_byte_identical(tmp_path):
    cfg = tiny_config(trials=2, cells=(GridCell(n=10, r=1, m=50),))
    first = emit(run_experiment(cfg), tmp_path / "a")
    second = emit(run_experiment(cfg), tmp_path / "b")
    text_a = open(first[0]).read()
    text_b = open(second[0]).read()
    # the wall-clock column is the only thing allowed to differ
    col = CSV_COLUMNS.index("seconds")
    for row_a, row_b in zip(text_a.strip().split("\n"), text_b.strip().split("\n")):
        assert row_a.split(",")[:col] == row_b.split(",")[:col]


def test_result_json_sorted_and_parseable():
    res = fake_result([fake_cell()])
    payload = result_json(res)
    parsed = json.loads(payload)
    assert list(parsed) == sorted(parsed)
    assert parsed["cells"][0]["median_sq_err"] == 1.0


SVG = "{http://www.w3.org/2000/svg}"


def plotted(tmp_path, cells, experiment="phase-transition"):
    """The SVG that emit writes for a result over ``cells``, parsed, after
    checking that a second emission is byte-identical."""
    res = fake_result(cells, experiment)
    texts = []
    for name in ("a", "b"):
        path = next(p for p in emit(res, tmp_path / name, plot=True)
                    if p.endswith(".svg"))
        with open(path, "rb") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]
    return ET.fromstring(texts[0])


def labels(root):
    return [t.text for t in root.iter(f"{SVG}text")]


def test_plot_line_over_one_varying_key(tmp_path):
    cells = [fake_cell(m=m, success_rate=rate)
             for m, rate in ((80, 1.0), (40, 0.25), (60, 0.5))]
    root = plotted(tmp_path, cells)
    assert "m" in labels(root) and "success rate" in labels(root)
    assert len(list(root.iter(f"{SVG}circle"))) == 3
    # the polyline runs in increasing m: 40, 60, 80 at rates 0.25, 0.5, 1
    points = [tuple(map(float, pt.split(",")))
              for pt in next(root.iter(f"{SVG}polyline")).get("points").split()]
    assert [x for x, _ in points] == sorted(x for x, _ in points)
    assert [y for _, y in points] == sorted((y for _, y in points), reverse=True)


def test_plot_heat_map_over_two_varying_keys(tmp_path):
    ms, sigmas = (40, 60, 80), (0.01, 0.1)
    cells = [fake_cell(m=m, sigma=s, success_rate=i / 6)
             for i, (m, s) in enumerate((m, s) for m in ms for s in sigmas)]
    root = plotted(tmp_path, cells)
    texts = labels(root)
    assert "m" in texts and "sigma" in texts
    grid = [r for r in root.iter(f"{SVG}rect") if r.get("stroke") == "#999"]
    assert len(grid) == len(ms) * len(sigmas)
    # one cell per grid point: the cells tile distinct positions
    assert len({(r.get("x"), r.get("y")) for r in grid}) == len(grid)


# ------------------------------------------------- config grammar, fuzzed

KEYS = ("experiment", "trials", "seed", "ensemble", "mode", "n", "r", "m", "p",
        "m_per_nr", "sigma", "kappa", "max_iters", "eq_tol", "success_rate", "x")
SCALARS = st.one_of(
    st.integers(-3, 60).map(str),
    st.sampled_from(["0.5", "1.0", "1e-3", "-1", "2.5", "1e308", "1e999", "inf",
                     "nan", "true", "'zip'", "product", "zip", "entry", "gaussian",
                     "rademacher", "abc", ""]),
    st.sampled_from(EXPERIMENTS))
LINES = st.one_of(
    st.builds(lambda k, vs: f"{k} = {', '.join(vs)}", st.sampled_from(KEYS),
              st.lists(SCALARS, min_size=1, max_size=3)),
    st.sampled_from(["[grid]", "[solver]", "[floors]", "[nope]", "[]",
                     "# comment", "", "=", "n", "[grid", "key = a # b"]),
    st.text(alphabet="[]=,#. -_abcmnpr0123456789\t", max_size=12))


def first_of_each_key(lines):
    """``lines`` less every key line whose key its section already set, so
    that most drawn texts pass parse_config_text's set-twice check and reach
    build_experiment_config."""
    section, seen, kept = "", set(), []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
        elif "=" in body:
            key = (section, body.partition("=")[0].strip())
            if key in seen:
                continue
            seen.add(key)
        kept.append(line)
    return kept


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(LINES, max_size=12).map(first_of_each_key))
def test_config_grammar_raises_only_value_error(lines):
    text = "\n".join(lines)
    try:
        build_experiment_config(parse_config_text(text))
    except ValueError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80))
def test_config_parser_raises_only_value_error_on_any_text(text):
    try:
        build_experiment_config(parse_config_text(text))
    except ValueError:
        pass


def grid_texts():
    """A config with a valid [grid] shape in every family, sampled by m, p or
    m_per_nr, with sigma zero or positive: (text, family, knob, p values,
    sigma)."""
    def build(family, mode, ns, r, knob, values, sigma, ensemble):
        lines = [f"experiment = {family}", f"ensemble = {ensemble}", "[grid]",
                 f"mode = {mode}", f"n = {', '.join(map(str, ns))}", f"r = {r}",
                 f"{knob} = {', '.join(map(str, values))}", f"sigma = {sigma}"]
        return "\n".join(lines) + "\n", family, knob, values, sigma

    def values(knob):
        if knob == "p":
            return st.lists(st.sampled_from([0.25, 0.5, 1, 1.0]), min_size=1, max_size=2)
        if knob == "m":
            return st.lists(st.integers(1, 40), min_size=1, max_size=2)
        return st.lists(st.sampled_from([0.5, 2, 3.5]), min_size=1, max_size=1)

    knobs = st.sampled_from(["m", "p", "m_per_nr"])
    return knobs.flatmap(lambda knob: st.builds(
        build, st.sampled_from(EXPERIMENTS), st.sampled_from(["product", "zip"]),
        st.lists(st.integers(2, 6), min_size=1, max_size=2), st.integers(1, 2),
        st.just(knob), values(knob), st.sampled_from([0, 0.01]),
        st.sampled_from(["gaussian", "rademacher"])))


@settings(max_examples=100, deadline=None)
@given(grid_texts())
def test_generated_grids_build_cells_that_obey_the_operator_rule(case):
    text, family, knob, values, sigma = case
    by_p = knob == "p"
    allowed = ((by_p or family not in ("completion-stability", "optspace-compare"))
               and (family != "bias-variance" or (by_p and all(v == 1 for v in values)))
               and (sigma > 0 or family not in ("dantzig-scaling", "bias-variance",
                                                "instance-optimal")))
    sections = parse_config_text(text)
    zipped = sections["grid"]["mode"] == "zip"
    lengths = {len(v) for v in sections["grid"].values() if isinstance(v, list)}
    if zipped and len(lengths) > 1:
        with pytest.raises(ValueError, match="zip grid"):
            build_experiment_config(sections)
        return
    if not allowed:
        with pytest.raises(ValueError, match="give p, not m|p must be 1|sigma"):
            build_experiment_config(sections)
        return
    cfg = build_experiment_config(sections)
    for cell in cfg.cells:
        assert (cell.m is None) != (cell.p is None)
        assert (cell.p is not None) == by_p
        ens = _ensemble(cell, cfg, 0)
        assert ens.m == _cell_m(cell)
        assert ens.kind == ("entry" if by_p else cfg.ensemble)
        if family == "bias-variance":
            assert ens.m == cell.n ** 2
