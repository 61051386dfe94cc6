"""End-to-end tests of the command-line interface via main(argv)."""

import json
import math

import numpy as np
import pytest

from lowrankrec.cli import main
from lowrankrec.matcore import (
    LowRankSpec,
    equal_spectrum,
    gen_low_rank,
    write_lrm,
)
from lowrankrec.measure import ObservationSet, sample_omega, write_omega

from oracles import singular_value_threshold


@pytest.fixture
def truth_files(tmp_path):
    """A rank-2 20x20 truth matrix on disk plus a 60%-sampling omega file."""
    spec = LowRankSpec(20, 20, 2, equal_spectrum(2, 1.0), "random-orthogonal", 5)
    truth, _ = gen_low_rank(spec)
    omega = sample_omega(20, 20, 240, seed=15)
    mpath, opath = tmp_path / "m.lrm", tmp_path / "omega.txt"
    write_lrm(mpath, truth)
    write_omega(opath, omega)
    return truth, omega, str(mpath), str(opath)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- diagnose

def test_diagnose_text_output(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "a.lrm"
    write_lrm(path, rng.normal(size=(6, 5)))
    assert main(["diagnose", "--matrix", str(path)]) == 0
    out = capsys.readouterr().out
    assert "matrix 6 x 5" in out
    for key in ("mu_b", "mu0", "mu1", "mu_strong", "mu2", "kappa"):
        assert key in out


def test_diagnose_json_with_advisor(tmp_path, capsys):
    spec = LowRankSpec(16, 16, 2, equal_spectrum(2, 1.0), "random-orthogonal", 1)
    truth, _ = gen_low_rank(spec)
    path = tmp_path / "m.lrm"
    write_lrm(path, truth)
    assert main(["diagnose", "--matrix", str(path), "--rank", "2",
                 "--m", "200", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert payload["coherence"]["mu_b"] >= 1.0
    assert len(payload["advisor"]) == 11
    for row in payload["advisor"]:
        assert set(row) == {"row_id", "description", "raw_requirement",
                            "requirement", "ratio", "satisfied", "condition",
                            "condition_met"}


def reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_diagnose_writes_a_non_finite_measure_as_null(tmp_path, capsys):
    m = np.zeros((5, 5))
    m[0, 0] = 1.0
    path = tmp_path / "one.lrm"
    write_lrm(path, m)
    args = ["diagnose", "--matrix", str(path), "--rank", "2"]
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert payload["coherence"]["kappa"] is None and payload["coherence"]["mu2"] is None
    assert payload["coherence"]["mu_b"] == 5.0
    assert main(args + ["--m", "50", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    row = {w["row_id"]: w for w in payload["advisor"]}["optspace-noisy"]
    assert row["raw_requirement"] is None and row["requirement"] == 25.0
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "kappa     = inf" in out and "mu2       = inf" in out


# ------------------------------------------------------------------- solve

def test_solve_noiseless_full_observation(tmp_path, capsys, truth_files):
    truth, _, mpath, _ = truth_files
    out = tmp_path / "rep.json"
    assert main(["solve", "--program", "noiseless", "--matrix", mpath,
                 "--out", str(out)]) == 0
    assert "noiseless" in capsys.readouterr().out
    rep = read_report(out)
    assert rep["converged"]
    est = np.array(rep["estimate"])
    assert np.linalg.norm(est - truth) <= 1e-6 * np.linalg.norm(truth)


def test_solve_noiseless_unobserved_spike_returns_zero(tmp_path):
    truth = np.zeros((5, 5))
    truth[0, 0] = 1.0
    pairs = np.array([(i, j) for i in range(5) for j in range(5)
                      if (i, j) != (0, 0)])
    mpath, opath = tmp_path / "m.lrm", tmp_path / "o.txt"
    write_lrm(mpath, truth)
    write_omega(opath, ObservationSet(5, 5, pairs))
    out = tmp_path / "rep.json"
    assert main(["solve", "--matrix", str(mpath), "--omega", str(opath),
                 "--out", str(out)]) == 0
    est = np.array(read_report(out)["estimate"])
    assert np.abs(est).max() <= 1e-9


def test_solve_dantzig_full_observation_closed_form(tmp_path, truth_files):
    truth, _, mpath, _ = truth_files
    out = tmp_path / "rep.json"
    assert main(["solve", "--program", "dantzig", "--matrix", mpath,
                 "--lambda", "0.5", "--out", str(out)]) == 0
    est = np.array(read_report(out)["estimate"])
    expected = singular_value_threshold(truth, 0.5)
    assert np.linalg.norm(est - expected) <= 1e-6 * max(1.0, np.linalg.norm(expected))


def test_solve_lasso_large_radius_gives_zero(tmp_path, truth_files):
    truth, _, mpath, _ = truth_files
    out = tmp_path / "rep.json"
    radius = 10.0 * np.linalg.norm(truth)
    assert main(["solve", "--program", "lasso", "--matrix", mpath,
                 "--delta", str(radius), "--out", str(out)]) == 0
    rep = read_report(out)
    assert np.abs(np.array(rep["estimate"])).max() == 0.0


def test_solve_noise_injection_is_seeded(tmp_path, truth_files):
    truth, _, mpath, opath = truth_files
    outs = []
    for name, seed in [("a", "3"), ("b", "3"), ("c", "4")]:
        out = tmp_path / f"{name}.json"
        assert main(["solve", "--program", "lasso", "--matrix", mpath,
                     "--omega", opath, "--sigma", "1e-3", "--seed", seed,
                     "--out", str(out)]) == 0
        outs.append(np.array(read_report(out)["estimate"]))
    np.testing.assert_array_equal(outs[0], outs[1])
    assert np.abs(outs[0] - outs[2]).max() > 0


@pytest.mark.parametrize("args", [
    ["--program", "dantzig", "--lambda", "nan"],
    ["--program", "lasso", "--sigma", "nan"],
], ids=["dantzig-lambda", "lasso-sigma"])
def test_solve_non_finite_penalty_returns_2(capsys, truth_files, args):
    _, _, mpath, _ = truth_files
    assert main(["solve", "--matrix", mpath, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite, got nan" in err


@pytest.mark.parametrize("sigma, seed", [
    ("nan", None), ("inf", None), ("-1", None), ("inf", "3"), ("-0.001", "3"),
])
def test_solve_checks_sigma_with_or_without_seed(capsys, truth_files, sigma, seed):
    # --sigma sets the default lambda and delta, and with --seed the noise,
    # so it is checked once, before the problem is read, for every program
    _, _, mpath, _ = truth_files
    args = ["solve", "--program", "noiseless", "--matrix", mpath, "--sigma", sigma]
    assert main(args + (["--seed", seed] if seed else [])) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: --sigma must be")


def test_solve_shape_mismatch_exits(tmp_path, capsys, truth_files):
    _, _, mpath, _ = truth_files
    small = tmp_path / "small.txt"
    write_omega(small, ObservationSet(3, 3, np.array([[0, 0]])))
    assert main(["solve", "--matrix", mpath, "--omega", str(small)]) == 2
    assert "error: omega is 3 x 3 but matrix is" in capsys.readouterr().err


def test_solve_missing_file_returns_2(tmp_path, capsys):
    assert main(["solve", "--matrix", str(tmp_path / "absent.lrm")]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_omega_index_beyond_int64_returns_2(tmp_path, capsys, truth_files):
    _, _, mpath, _ = truth_files
    bad = tmp_path / "huge.omega"
    bad.write_text(f"omega 20 20 1\n{2 ** 63} 0\n")
    assert main(["solve", "--matrix", mpath, "--omega", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "huge.omega" in err


def test_solve_corrupt_matrix_returns_2(tmp_path, capsys):
    bad = tmp_path / "bad.lrm"
    bad.write_text("not a matrix header\n1 2\n")
    assert main(["solve", "--matrix", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- optspace

def test_optspace_subcommand_recovers(tmp_path, capsys, truth_files):
    truth, _, mpath, opath = truth_files
    out = tmp_path / "rep.json"
    assert main(["optspace", "--matrix", mpath, "--omega", opath,
                 "--rank", "2", "--out", str(out)]) == 0
    assert "optspace" in capsys.readouterr().out
    rep = read_report(out)
    est = np.array(rep["estimate"])
    assert np.linalg.norm(est - truth) <= 1e-3 * np.linalg.norm(truth)
    assert rep["tau_path"] == []


def test_optspace_accepts_knobs(tmp_path, truth_files):
    truth, _, mpath, opath = truth_files
    out = tmp_path / "rep.json"
    assert main(["optspace", "--matrix", mpath, "--omega", opath,
                 "--rank", "2", "--max-iters", "3", "--out", str(out)]) == 0
    assert read_report(out)["iterations"] <= 3


def test_optspace_refuses_a_rank_the_data_cannot_carry(tmp_path, capsys):
    mpath, opath = tmp_path / "m.lrm", tmp_path / "omega.txt"
    write_lrm(mpath, np.outer(np.arange(1.0, 5.0), np.ones(4)))   # rank 1
    write_omega(opath, ObservationSet(4, 4, np.array([(i, j) for i in range(4)
                                                      for j in range(4)])))
    assert main(["optspace", "--matrix", str(mpath), "--omega", str(opath),
                 "--rank", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: requested rank 3 exceeds achievable rank 1 of the data\n")


def test_optspace_has_no_tolerance_or_trimming_flags(truth_files, capsys):
    # the certificate's tolerance and the trimming cap are module constants
    _, _, mpath, opath = truth_files
    for flag, value in (("--grad-tol", "1e-6"), ("--trim-mult", "2.5")):
        with pytest.raises(SystemExit) as exc:
            main(["optspace", "--matrix", mpath, "--omega", opath, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# ------------------------------------------------------------------ bounds

def test_bounds_minimax(capsys):
    assert main(["bounds", "--bound", "minimax", "--n", "10", "--r", "1",
                 "--sigma", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "minimax"
    assert payload["value"] == pytest.approx(10.0)
    assert payload["up_to_constants"] is True


def test_bounds_ideal(capsys):
    assert main(["bounds", "--bound", "ideal", "--n", "100",
                 "--sigmas", "3,1,0.1", "--sigma", "0.05"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.255)


def test_bounds_instance(capsys):
    assert main(["bounds", "--bound", "instance", "--n", "30",
                 "--sigmas", "4,2,1,0.5", "--sigma", "0", "--r-bar", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.25)


def test_bounds_stable(capsys):
    assert main(["bounds", "--bound", "stable", "--n", "50", "--p", "0.5",
                 "--delta", "0.1"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == pytest.approx(0.4 * math.sqrt(250.0) + 0.2, rel=1e-12)


def test_bounds_optspace_with_helper_default(capsys):
    assert main(["bounds", "--bound", "optspace", "--n", "50", "--m", "1250",
                 "--r", "2", "--sigma", "1e-3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    helper = math.sqrt(1250 * math.log(50) / 50) * 1e-3
    assert payload["value"] == pytest.approx((2500 * math.sqrt(2) / 1250) * helper)
    assert payload["inputs"]["noise_opnorm"] == pytest.approx(helper)


def test_bounds_missing_parameters_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--bound", "stable", "--n", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["--bound", "minimax", "--n", "10", "--r", "2", "--sigma", "nan"],
    ["--bound", "stable", "--n", "10", "--p", "0.5", "--delta", "inf"],
    ["--bound", "ideal", "--n", "10", "--sigmas", "1,nan"],
], ids=["minimax-sigma", "stable-delta", "ideal-sigmas"])
def test_bounds_non_finite_input_returns_2(capsys, args):
    # a NaN or infinite value is not JSON, so no report is printed
    assert main(["bounds", *args]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "finite" in out.err


def test_bounds_negative_sigma_returns_2(capsys):
    # sigma enters squared, so -1 would print the value of sigma = 1
    for args in (["--bound", "minimax", "--n", "10", "--r", "2"],
                 ["--bound", "ideal", "--n", "10", "--sigmas", "1,2"]):
        assert main(["bounds", *args, "--sigma", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: sigma must be nonnegative, got -1.0\n"


@pytest.mark.parametrize("args", [
    ["solve", "--program", "lasso", "--sigma", "1e200"],
    ["bounds", "--bound", "minimax", "--n", "10", "--r", "2", "--sigma", "1e200"],
    ["bounds", "--bound", "ideal", "--n", "10", "--sigmas", "1e200,1", "--sigma", "1e200"],
    ["bounds", "--bound", "optspace", "--n", "10", "--m", "5", "--r", "1",
     "--kappa", "1e200", "--noise-opnorm", "1"],
    ["bounds", "--bound", "stable", "--n", "10", "--p", "0.5", "--delta", "1e307"],
], ids=["lasso-delta", "minimax", "ideal", "optspace", "stable"])
def test_a_value_past_the_largest_float_returns_2(capsys, truth_files, args):
    # an overflow neither ends in a traceback nor prints Infinity, which is not JSON
    if args[0] == "solve":
        args = args + ["--matrix", truth_files[2]]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert "Traceback" not in out.err


def test_bounds_empty_sigmas_returns_2(capsys):
    for sigmas in (",", "1,,2"):   # an empty item is not skipped
        assert main(["bounds", "--bound", "ideal", "--n", "10", "--sigmas", sigmas]) == 2
        assert "error: --sigmas needs at least one value" in capsys.readouterr().err


# ------------------------------------------------------------------- bench

BENCH_CFG = """
experiment = phase-transition
trials = 2
seed = 11
[grid]
n = 10
r = 1
m = {m}
[floors]
success_rate = {floor}
"""


def test_bench_subcommand_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BENCH_CFG.format(m=60, floor=0.0))
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(cfg), "--out", str(out_dir),
                 "--plot"]) == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 3
    assert (out_dir / "phase-transition.csv").exists()
    assert (out_dir / "phase-transition.json").exists()
    assert (out_dir / "phase-transition.svg").exists()
    assert "cell n=10 r=1 m=60" in out


def test_bench_cell_line_carries_kappa_fitted_constant_and_extras(tmp_path, capsys):
    cfg = tmp_path / "stab.cfg"
    cfg.write_text("experiment = completion-stability\ntrials = 2\nseed = 1\n"
                   "[grid]\nn = 8\nr = 1\np = 0.7\nsigma = 1e-3\nkappa = 2\n")
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("cell "))
    payload = json.loads((tmp_path / "s" / "completion-stability.json").read_text())
    cell = payload["cells"][0]
    assert line.startswith("cell n=8 r=1 m=45 kappa=2: success ")
    assert f"fitted constant {cell['fitted_constant']:.3g}" in line
    assert f"bound_rate {cell['extra']['bound_rate']:.3g}" in line


def test_bench_floor_violation_sets_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    # 12 measurements for a 10x10 rank-1 matrix cannot reach exact recovery
    cfg.write_text(BENCH_CFG.format(m=12, floor=0.9))
    assert main(["bench", "--config", str(cfg), "--out",
                 str(tmp_path / "r")]) == 1
    assert "FLOOR VIOLATION" in capsys.readouterr().out


def test_bench_seed_override_changes_results(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BENCH_CFG.format(m=30, floor=0.0))
    for seed, name in [("1", "a"), ("2", "b")]:
        assert main(["bench", "--config", str(cfg), "--seed", seed,
                     "--out", str(tmp_path / name)]) in (0, 1)
    rec_a = json.loads((tmp_path / "a" / "phase-transition.json").read_text())
    rec_b = json.loads((tmp_path / "b" / "phase-transition.json").read_text())
    assert rec_a["seed"] == 1 and rec_b["seed"] == 2
    va = [t["rel_err"] for t in rec_a["trials"][0]]
    vb = [t["rel_err"] for t in rec_b["trials"][0]]
    assert va != vb


def test_bench_missing_config_returns_2(tmp_path, capsys):
    assert main(["bench", "--config", str(tmp_path / "none.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_jobs_below_one_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BENCH_CFG.format(m=60, floor=0.0))
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(cfg), "--jobs", jobs,
                  "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "error: --jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("head, tail, named", [
    pytest.param("trails = 1\nsede = 5\n", "", ("trails", "sede"), id="top-level"),
    pytest.param("", "[solver]\nbogus = 3\n", ("bogus",), id="solver"),
    pytest.param("success_threshold = 1e-2\nspectrum_top = 2\nspectrum_ratio = 0.5\n", "",
                 ("success_threshold", "spectrum_top", "spectrum_ratio"), id="removed-keys"),
    pytest.param("", "[optspace]\ngrad_tol = 1e-6\n", ("optspace",), id="removed-section"),
    pytest.param("", "[solver]\neq_tol = 1e-5\n", ("eq_tol",), id="removed-solver-key"),
])
def test_bench_unknown_config_key_returns_2(tmp_path, capsys, head, tail, named):
    # a misspelt key must neither run with defaults nor end in a traceback
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(head + BENCH_CFG.format(m=60, floor=0.0) + tail)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown")
    assert all(key in err for key in named)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("head, swap, tail, floor, named", [
    pytest.param("", None, "[solver]\nmax_iters = abc\n", 0.0, "max_iters", id="solver"),
    pytest.param("", None, "[solver]\nmax_iters = 2.5\n", 0.0, "max_iters", id="int-field"),
    pytest.param("ensemble = 3\n", None, "", 0.0, "ensemble", id="top-level"),
    pytest.param("", None, "[grid]\nsigma = 0.01\nkappa = 1, 20\n", 0.0,
                 "[grid] kappa must be 1, got 20", id="instance-optimal"),
    pytest.param("", None, "", "abc", "success_rate", id="floor-value"),
    pytest.param("", None, "sucess_rate = 0.5\n", 0.0, "sucess_rate", id="floor-name"),
    # the truth spectrum is fixed now: an old config that still sets it is refused
    pytest.param("spectrum_ratio = 2.0\n", None, "", 0.0, "spectrum_ratio",
                 id="spectrum-range"),
    pytest.param("spectrum_top = 0\n", None, "", 0.0, "spectrum_top", id="spectrum-top"),
    # a [grid] key is rewritten in place: set twice, it would stop at parse instead
    pytest.param("", ("n = 10\n", "n = 10.5\n"), "", 0.0,
                 "[grid] n must be int, got 10.5", id="grid-int"),
    pytest.param("", ("m = 60\n", "m = 40, 40.7\n"), "", 0.0,
                 "[grid] m must be int, got 40.7", id="grid-list"),
    pytest.param("", ("n = 10\n", "n = abc\n"), "", 0.0,
                 "[grid] n must be int, got 'abc'", id="grid-text"),
    pytest.param("", ("m = 60\n", "m_per_nr = abc\n"), "", 0.0,   # m_per_nr replaces m
                 "[grid] m_per_nr must be float, got 'abc'", id="grid-m-per-nr"),
])
def test_bench_bad_config_value_returns_2(tmp_path, capsys, head, swap, tail, floor, named):
    # a bad value or floor name stops the run at load, before any trial
    text = head + BENCH_CFG.format(m=60, floor=floor) + tail
    if swap is not None:
        assert swap[0] in text
        text = text.replace(*swap)
    if named.startswith("[grid] kappa"):   # its spectrum is drawn without kappa
        text = text.replace("phase-transition", "instance-optimal")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("text, named", [
    pytest.param(BENCH_CFG.format(m=40, floor=0.0) + "[grid]\np = 0.5\n",
                 "exactly one of m or p, got m=40 p=0.5", id="m-and-p"),
    pytest.param(BENCH_CFG.format(m=40, floor=0.0).replace(
        "phase-transition", "completion-stability"), "give p, not m", id="m-completion"),
    pytest.param("experiment = bias-variance\n[grid]\nn = 10\nr = 1\np = 0.5\n"
                 "sigma = 0.01\n", "[grid] p must be 1", id="p-bias-variance"),
    pytest.param("ensemble = entry\n" + BENCH_CFG.format(m=40, floor=0.0),
                 "ensemble must be gaussian or rademacher, got 'entry'", id="ensemble-entry"),
    pytest.param(BENCH_CFG.format(m=40, floor=0.0).replace(
        "phase-transition", "dantzig-scaling"), "[grid] sigma must be positive",
        id="sigma0-lambda"),
    pytest.param("experiment = completion-stability\n[grid]\nn = 3\nr = 1\np = 0.01\n"
                 "sigma = 0.01\n", "p = 0.01 samples round(p n^2) = 0 entries",
                 id="p-no-entries"),
    pytest.param(BENCH_CFG.format(m=40, floor=0.0).replace("n = 10", "n = 64, 128"),
                 "got n=128 m=40", id="m-dense-cap"),
])
def test_bench_operator_rule_is_checked_at_load(tmp_path, capsys, text, named):
    # a cell the trial operator rule refuses stops the run before any trial
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "r").exists()


# ----------------------------------------------------------------- version

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "lowrankrec" in capsys.readouterr().out
