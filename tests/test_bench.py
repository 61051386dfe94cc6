"""Tests for the Monte Carlo experiment harness: config grammar, trial
bookkeeping, determinism, constant fitting, and file emission."""

import json
import re

import numpy as np
import pytest

from lowrankrec.bench import (
    CSV_COLUMNS,
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    GridCell,
    build_experiment_config,
    check_floors,
    emit,
    fit_empirical_constant,
    parse_config_text,
    result_csv,
    result_json,
    run_experiment,
    _cell_p,
    _ensemble,
    _entry_sampled,
)


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
    assert top["c"] is True
    assert top["d"] == "hello"
    assert top["e"] == "quoted"
    assert top["f"] == [1, "x", 2.0]


def test_parse_config_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("a = 1\nnot a key value\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_config_text("= 3\n")


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
    pytest.param("", "[optspace]\ngrad_toll = 1e-6\n", "grad_toll", id="optspace"),
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
            ("spectrum_top = 1, 2\n", "", "spectrum_top"),
            ("", "[solver]\nmax_iters = 2.5\n", "max_iters"),
            ("", "[optspace]\ntrim_multiplier = big\n", "trim_multiplier"),
            ("", "[floors]\nbound_rate = high\n", "bound_rate"),
            ("", "[grid]\nn = 10.5\n", "n"),
            ("", "[grid]\nsigma = 0, x\n", "sigma"),
            ("", "[grid]\nmode = 3\n", "mode")]:
        with pytest.raises(ValueError, match=f"{named} must be"):
            build_experiment_config(parse_config_text(head + BASE_CFG + tail))
    with pytest.raises(ValueError, match="unknown .*'sucess_rate'"):
        build_experiment_config(parse_config_text(
            BASE_CFG + "[floors]\nsucess_rate = 0.5\n"))


def test_build_config_reads_solver_and_optspace_sections():
    cfg = build_experiment_config(parse_config_text(
        BASE_CFG + "[solver]\nmax_iters = 30\neq_tol = 1e-5\n"
        "[optspace]\ngrad_tol = 1e-6\n"))
    assert cfg.solver.max_iters == 30 and cfg.solver.eq_tol == 1e-5
    assert cfg.optspace.grad_tol == 1e-6


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
    with pytest.raises(ValueError):
        GridCell(n=10, r=1, p=1.5)
    with pytest.raises(ValueError):
        GridCell(n=10, r=1, m=-5)
    with pytest.raises(ValueError):
        GridCell(n=10, r=0, m=5)
    with pytest.raises(ValueError):
        GridCell(n=10, r=1, m=5, kappa=0.5)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        tiny_config(experiment="nope")
    with pytest.raises(ValueError, match="grid is empty"):
        tiny_config(cells=())
    with pytest.raises(ValueError, match="trials"):
        tiny_config(trials=0)
    with pytest.raises(ValueError, match="ensemble"):
        tiny_config(ensemble="fourier")
    with pytest.raises(ValueError, match="spectrum_top"):
        tiny_config(spectrum_top=0.0)
    for ratio in (0.0, 1.5):
        with pytest.raises(ValueError, match="spectrum_ratio"):
            tiny_config(spectrum_ratio=ratio)


# --------------------------------------------------------- trial operator

M_CELL = GridCell(n=10, r=1, m=40)     # an entry-sampled M_CELL reports p = 0.4
P_CELL = GridCell(n=10, r=1, p=0.25)   # 25 measurements
ENSEMBLES = ("gaussian", "rademacher", "entry")
# (experiment, ensemble value, cell, operator kind, p column)
OPERATOR_CASES = [
    *[(exp, ens, M_CELL, ens, 0.4 if ens == "entry" else None)
      for exp in ("phase-transition", "dantzig-scaling", "instance-optimal")
      for ens in ENSEMBLES],
    *[(exp, ens, M_CELL, "entry", 0.4)
      for exp in ("completion-stability", "optspace-compare") for ens in ENSEMBLES],
    # full observation whatever the ensemble, but ensemble = entry reports p
    *[("bias-variance", ens, M_CELL, "vectorization", 0.4 if ens == "entry" else None)
      for ens in ENSEMBLES],
    ("phase-transition", "gaussian", P_CELL, "entry", 0.25),
    ("dantzig-scaling", "gaussian", P_CELL, "gaussian", 0.25),
]


@pytest.mark.parametrize("experiment, ensemble, cell, kind, p", OPERATOR_CASES)
def test_trial_operator_and_p_column(experiment, ensemble, cell, kind, p):
    cfg = tiny_config(experiment=experiment, ensemble=ensemble, cells=(cell,))
    ens = _ensemble(cell, cfg, 3)
    assert ens.kind == kind
    assert ens.m == (100 if kind == "vectorization" else cell.m or 25)
    assert _cell_p(cell, cfg) == p
    assert _entry_sampled(cell, cfg) == (kind == "entry" or ensemble == "entry")


def test_run_experiment_reports_the_p_column():
    cfg = tiny_config(experiment="bias-variance", ensemble="entry", trials=1,
                      cells=(GridCell(n=10, r=1, m=40, sigma=1e-2),))
    res = run_experiment(cfg)
    assert res.cells[0].p == 0.4
    assert res.cells[0].formula_value is not None


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
    paths = emit(res, tmp_path / "out", fmt="both", plot=True)
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
    first = emit(run_experiment(cfg), tmp_path / "a", fmt="csv")
    second = emit(run_experiment(cfg), tmp_path / "b", fmt="csv")
    text_a = open(first[0]).read()
    text_b = open(second[0]).read()
    # the wall-clock column is the only thing allowed to differ
    col = CSV_COLUMNS.index("seconds")
    for row_a, row_b in zip(text_a.strip().split("\n"), text_b.strip().split("\n")):
        assert row_a.split(",")[:col] == row_b.split(",")[:col]


def test_emit_rejects_bad_format(tmp_path):
    res = fake_result([fake_cell()])
    with pytest.raises(ValueError, match="format"):
        emit(res, tmp_path, fmt="yaml")


def test_result_json_sorted_and_parseable():
    res = fake_result([fake_cell()])
    payload = result_json(res)
    parsed = json.loads(payload)
    assert list(parsed) == sorted(parsed)
    assert parsed["cells"][0]["median_sq_err"] == 1.0
