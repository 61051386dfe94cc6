"""Acceptance suite: eleven end-to-end checks of the package's headline
behavior, each printing a PASS/FAIL line (run with `pytest -s` to see them
all).  Every check computes a canonical payload from a fixed master seed; the
final check recomputes all of them and requires byte-identical results.
"""

import json

import numpy as np
import pytest

from lowrankrec.bench import (
    ExperimentConfig,
    GridCell,
    fit_empirical_constant,
    run_experiment,
)
from lowrankrec.diagnostics import (
    concentration_bound,
    concentration_probe,
    rip_probe,
)
from lowrankrec.matcore import (
    LowRankSpec,
    equal_spectrum,
    gen_low_rank,
)
from lowrankrec.measure import (
    NoiseModel,
    ObservationSet,
    add_noise,
    adjoint_ensemble,
    entry_sampling_ensemble,
    gaussian_ensemble,
    project_omega,
    sample_omega,
    vectorization_ensemble,
)
from lowrankrec.optspace import optspace, optspace_descent, spectral_init, trim
from lowrankrec.oracle import completion_stability_bound, oracle_risk_scan
from lowrankrec.solve import solve_dantzig, solve_lasso, solve_noiseless

from oracles import singular_value_threshold

MASTER_SEED = 20240917

_CACHE = {}


def payload(k):
    if k not in _CACHE:
        _CACHE[k] = globals()[f"_criterion_{k}"]()
    return _CACHE[k]


def canonical(obj):
    return json.dumps(obj, sort_keys=True)


def report(k, ok, text):
    print(f"\nCRITERION {k}: {'PASS' if ok else 'FAIL'} - {text}")


# ---------------------------------------------------------------------------


def _criterion_1():
    """Penalized solver equals singular-value soft thresholding when the
    measurements are the identity on entries."""
    n = 20
    rel_errs = []
    for k in range(20):
        rng = np.random.default_rng(MASTER_SEED + k)
        m_true = rng.normal(size=(n, n))
        lam = 0.2 + 0.05 * k
        ens = vectorization_ensemble(n, n)
        y = m_true.ravel()
        rep = solve_dantzig(ens, y, lam)
        closed = singular_value_threshold(adjoint_ensemble(ens, y), lam)
        rel_errs.append(float(np.linalg.norm(rep.estimate - closed)
                              / np.linalg.norm(closed)))
    return {"rel_errs": rel_errs, "max": max(rel_errs)}


def test_criterion_1_closed_form_equivalence():
    data = payload(1)
    ok = data["max"] <= 1e-6
    report(1, ok, f"dantzig vs closed form, max rel err {data['max']:.2e}")
    assert ok


def _criterion_2():
    n, r = 30, 2
    m = 5 * n * r
    successes = 0
    errs = []
    for k in range(20):
        spec = LowRankSpec(n, n, r, equal_spectrum(r, 1.0),
                           "random-orthogonal", MASTER_SEED + 100 + k)
        truth, _ = gen_low_rank(spec)
        ens = gaussian_ensemble(n, n, m, seed=MASTER_SEED + 200 + k)
        from lowrankrec.measure import apply_ensemble
        rep = solve_noiseless(ens, apply_ensemble(ens, truth))
        rel = float(np.linalg.norm(rep.estimate - truth) / np.linalg.norm(truth))
        errs.append(rel)
        successes += rel <= 1e-3
    return {"successes": successes, "errs": errs}


def test_criterion_2_noiseless_gaussian_recovery():
    data = payload(2)
    ok = data["successes"] >= 18
    report(2, ok, f"noiseless recovery {data['successes']}/20 at 1e-3")
    assert ok


def _criterion_3():
    cells = tuple(GridCell(n=n, r=r, m=8 * n * r, sigma=1e-2)
                  for n, r in ((30, 1), (40, 2), (60, 3)))
    cfg = ExperimentConfig(experiment="dantzig-scaling", cells=cells,
                           trials=5, seed=MASTER_SEED)
    result = run_experiment(cfg)
    fit = fit_empirical_constant(result)
    constants = [c.fitted_constant for c in result.cells]
    return {"constants": constants, "ratio": fit.ratio_max / fit.ratio_min,
            "slope": fit.slope}


def test_criterion_3_dantzig_error_scaling():
    data = payload(3)
    ok = np.isfinite(data["slope"]) and data["ratio"] <= 10.0
    report(3, ok, f"fitted error^2/(nr sigma^2) spread {data['ratio']:.2f}, "
                  f"slope {data['slope']:.2f}")
    assert ok


def _criterion_4():
    rng = np.random.default_rng(MASTER_SEED)
    violations = 0
    checksum = 0.0
    for _ in range(1000):
        s = np.sort(rng.uniform(0.0, 4.0, size=int(rng.integers(1, 12))))[::-1]
        n = int(rng.integers(1, 120))
        sigma = float(rng.uniform(0.0, 1.0))
        lo = float(np.minimum(s * s, n * sigma ** 2).sum())
        _, scanned = oracle_risk_scan(s, n, sigma)
        if not (lo - 1e-12 <= scanned <= 2.0 * lo + 1e-12):
            violations += 1
        checksum += scanned
    return {"violations": violations, "checksum": checksum}


def test_criterion_4_ideal_risk_sandwich():
    data = payload(4)
    ok = data["violations"] == 0
    report(4, ok, f"sandwich violations {data['violations']}/1000")
    assert ok


def _criterion_5():
    n = 10
    truth = np.zeros((n, n))
    truth[0, 0] = 1.0
    pairs = np.array([(i, j) for i in range(n) for j in range(n)
                      if (i, j) != (0, 0)])
    ens = entry_sampling_ensemble(ObservationSet(n, n, pairs))
    y = truth[pairs[:, 0], pairs[:, 1]]
    rep = solve_noiseless(ens, y)
    return {"max_abs": float(np.abs(rep.estimate).max()),
            "converged": bool(rep.converged)}


def test_criterion_5_unobserved_spike_returns_zero():
    data = payload(5)
    ok = data["max_abs"] <= 1e-9
    report(5, ok, f"unobserved-spike estimate max |entry| {data['max_abs']:.1e}")
    assert ok


def _criterion_6():
    n, r, p, sigma = 50, 2, 0.5, 1e-3
    m = int(p * n * n)
    delta = float(np.sqrt((m + np.sqrt(8.0 * m)) * sigma ** 2))
    bound = completion_stability_bound(n, p, delta).value
    hits = 0
    errs = []
    for k in range(20):
        spec = LowRankSpec(n, n, r, equal_spectrum(r, 1.0),
                           "random-orthogonal", MASTER_SEED + 300 + k)
        truth, _ = gen_low_rank(spec)
        omega = sample_omega(n, n, m, seed=MASTER_SEED + 400 + k)
        ens = entry_sampling_ensemble(omega)
        clean = truth[omega.pairs[:, 0], omega.pairs[:, 1]]
        y = add_noise(clean, NoiseModel(sigma, seed=MASTER_SEED + 500 + k))
        rep = solve_lasso(ens, y, delta)
        err = float(np.linalg.norm(rep.estimate - truth))
        errs.append(err)
        hits += err <= bound
    return {"hits": hits, "bound": bound, "errs": errs}


def test_criterion_6_completion_stability():
    data = payload(6)
    ok = data["hits"] >= 19
    report(6, ok, f"stability bound met in {data['hits']}/20 seeds "
                  f"(bound {data['bound']:.3f})")
    assert ok


def _criterion_7():
    n, r = 40, 2
    m = int(0.3 * n * n)
    hits = 0
    monotone = True
    for k in range(20):
        spec = LowRankSpec(n, n, r, equal_spectrum(r, 1.0),
                           "random-orthogonal", MASTER_SEED + 600 + k)
        truth, _ = gen_low_rank(spec)
        omega = sample_omega(n, n, m, seed=MASTER_SEED + 700 + k)
        yobs = project_omega(omega, truth)
        trimmed, trimmed_omega = trim(yobs, omega)
        state = optspace_descent(spectral_init(trimmed, trimmed_omega, r),
                                 yobs, omega)
        hist = np.array(state.history)
        monotone = monotone and bool((np.diff(hist) <= 1e-12).all())
        rel = float(np.linalg.norm(state.estimate() - truth)
                    / np.linalg.norm(truth))
        hits += rel <= 1e-3
    return {"hits": hits, "monotone": monotone}


def test_criterion_7_optspace_recovery():
    data = payload(7)
    ok = data["hits"] >= 18 and data["monotone"]
    report(7, ok, f"spectral-descent recovery {data['hits']}/20, "
                  f"monotone objectives: {data['monotone']}")
    assert ok


def _criterion_8():
    # m = 450 sits above the nuclear-norm completion transition at this size
    # (median recovery ~5e-7 for both spectra); the spectral pipeline must
    # certify the same recovery at condition number 20, where a descent that
    # stalls on the weak component stays near its error
    n, r, m = 30, 2, 450
    spread_errs, spread_certified = [], 0
    nuclear = {1.0: [], 20.0: []}
    for k in range(11):
        for kappa in (1.0, 20.0):
            spec = LowRankSpec(n, n, r, (kappa, 1.0), "random-orthogonal",
                               MASTER_SEED + 800 + k)
            truth, _ = gen_low_rank(spec)
            omega = sample_omega(n, n, m, seed=MASTER_SEED + 900 + k)
            yobs = project_omega(omega, truth)
            if kappa == 20.0:
                rep = optspace(yobs, omega, r=r)
                err = float(np.linalg.norm(rep.estimate - truth)
                            / np.linalg.norm(truth))
                spread_errs.append(err)
                spread_certified += rep.converged and err <= 1e-6
            ens = entry_sampling_ensemble(omega)
            nuc = solve_noiseless(ens, truth[omega.pairs[:, 0],
                                             omega.pairs[:, 1]])
            nuclear[kappa].append(float(np.linalg.norm(nuc.estimate - truth)
                                        / np.linalg.norm(truth)))
    return {
        "spread_certified": int(spread_certified),
        "spread_max_err": max(spread_errs),
        "nuclear_median_flat": float(np.median(nuclear[1.0])),
        "nuclear_median_spread": float(np.median(nuclear[20.0])),
    }


def test_criterion_8_condition_number_sensitivity():
    data = payload(8)
    ok = (data["spread_certified"] == 11
          and data["nuclear_median_flat"] <= 1e-3
          and data["nuclear_median_spread"] <= 1e-3)
    report(8, ok, f"spectral pipeline at kappa 20 certified within 1e-6 in "
                  f"{data['spread_certified']}/11, worst {data['spread_max_err']:.1e} "
                  f"(nuclear medians {data['nuclear_median_flat']:.1e} / "
                  f"{data['nuclear_median_spread']:.1e})")
    assert ok


def _criterion_9():
    n, r = 30, 2
    vec_delta = rip_probe(vectorization_ensemble(6, 6), r=2,
                          seed=MASTER_SEED).delta_hat
    pairs = np.array([(i, j) for i in range(5) for j in range(5)
                      if (i, j) != (2, 3)])
    entry_delta = rip_probe(entry_sampling_ensemble(ObservationSet(5, 5, pairs)),
                            r=1, seed=MASTER_SEED).delta_hat
    m = 10 * n * r
    good = 0
    deltas = []
    for k in range(20):
        ens = gaussian_ensemble(n, n, m, seed=MASTER_SEED + 1000 + k)
        d = rip_probe(ens, r=r, probes=300, seed=MASTER_SEED + k).delta_hat
        deltas.append(float(d))
        good += d <= 0.45
    return {"vec_delta": vec_delta, "entry_delta": entry_delta,
            "good": good, "deltas": deltas}


def test_criterion_9_rip_probe_sanity():
    data = payload(9)
    ok = (data["vec_delta"] == 0.0 and data["entry_delta"] == 1.0
          and data["good"] >= 19)
    report(9, ok, f"isometry probes: vectorization {data['vec_delta']}, "
                  f"off-support entry {data['entry_delta']}, gaussian "
                  f"{data['good']}/20 below 0.45")
    assert ok


def _criterion_10():
    m, t = 200, 0.5
    freq = concentration_probe("gaussian", 10, m, t, trials=1000,
                               seed=MASTER_SEED)
    return {"freq": freq, "bound": concentration_bound(m, t)}


def test_criterion_10_concentration():
    data = payload(10)
    ok = data["freq"] == 0.0 and abs(data["bound"] - 4.8e-4) <= 2e-5
    report(10, ok, f"energy-concentration violations {data['freq']:.4f} "
                   f"(tail bound {data['bound']:.2e})")
    assert ok


def test_criterion_11_byte_identical_reruns():
    firsts = {k: canonical(payload(k)) for k in range(1, 11)}
    mismatches = []
    for k in range(1, 11):
        fresh = canonical(globals()[f"_criterion_{k}"]())
        if fresh != firsts[k]:
            mismatches.append(k)
    ok = not mismatches
    report(11, ok, "all criteria rerun byte-identically" if ok
           else f"criteria {mismatches} drifted between runs")
    assert ok
