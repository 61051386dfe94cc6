import numpy as np
import pytest

from lowrankrec.matcore import (LowRankSpec, equal_spectrum, gen_low_rank,
                                nuclear_norm, operator_norm,
                                soft_threshold_svals)
from lowrankrec.measure import (NoiseModel, ObservationSet, add_noise,
                                adjoint_ensemble, apply_ensemble,
                                entry_sampling_ensemble, gaussian_ensemble,
                                sample_omega, vectorization_ensemble)
from lowrankrec.solve import (SolverConfig, choose_lambda, estimate_lipschitz,
                              solve_dantzig, solve_lasso, solve_noiseless,
                              solve_penalized)

from oracles import (douglas_rachford_nuclear_equality,
                     prox_descent_nuclear_penalized)


def low_rank(n, r, seed, top=1.0):
    m, _ = gen_low_rank(LowRankSpec(n, n, r, equal_spectrum(r, top),
                                    "random-orthogonal", seed))
    return m


def rel_err(est, truth):
    return np.linalg.norm(est - truth) / np.linalg.norm(truth)


# ------------------------------------------------------------ solve_penalized

def test_penalized_vectorization_closed_form():
    rng = np.random.default_rng(2)
    truth = low_rank(10, 2, 0)
    ens = vectorization_ensemble(10, 10)
    y = add_noise(apply_ensemble(ens, truth), NoiseModel(0.05, 1))
    tau = 0.3
    rep = solve_penalized(ens, y, tau)
    closed = soft_threshold_svals(adjoint_ensemble(ens, y), tau)
    assert np.linalg.norm(rep.estimate - closed) <= 1e-8 * max(1.0, np.linalg.norm(closed))
    assert rep.converged


def test_penalized_full_shrinkage_returns_zero():
    ens = vectorization_ensemble(6, 6)
    y = apply_ensemble(ens, low_rank(6, 1, 3))
    tau = operator_norm(adjoint_ensemble(ens, y)) * 1.001
    rep = solve_penalized(ens, y, tau)
    assert np.all(rep.estimate == 0.0) or np.linalg.norm(rep.estimate) < 1e-12


def test_penalized_matches_independent_descent_oracle():
    # reference: plain proximal descent run with a 10x iteration budget; the
    # local step rule reaches it from the default start and from a starting
    # bound far below or far above the power-iteration bound
    truth = low_rank(8, 2, 5)
    ens = gaussian_ensemble(8, 8, 64, seed=6)
    y = apply_ensemble(ens, truth)
    tau = 0.1
    lip = estimate_lipschitz(ens)
    for start in (None, 1e-3 * lip, 1e3 * lip):
        rep = solve_penalized(ens, y, tau, lipschitz=start)
        assert rep.converged
        oracle_obj = prox_descent_nuclear_penalized(
            lambda x: apply_ensemble(ens, x),
            lambda v: adjoint_ensemble(ens, v),
            (8, 8), y, tau, lip, iters=10 * max(rep.iterations, 200))
        solver_obj = tau * rep.objective + 0.5 * rep.equality_residual ** 2
        assert abs(solver_obj - oracle_obj) <= 1e-4 * abs(oracle_obj)


def test_solvers_do_not_need_the_power_iteration_bound(monkeypatch):
    import lowrankrec.solve as solve_mod

    def refuse(*args, **kwargs):
        raise AssertionError("estimate_lipschitz called")

    monkeypatch.setattr(solve_mod, "estimate_lipschitz", refuse)
    truth = low_rank(8, 1, 17)
    ens = gaussian_ensemble(8, 8, 48, seed=5)
    y = add_noise(apply_ensemble(ens, truth), NoiseModel(0.01, 3))
    assert solve_mod.solve_noiseless(ens, y).converged
    assert solve_mod.solve_dantzig(ens, y, choose_lambda(8, 0.01)).converged
    assert solve_mod.solve_lasso(ens, y, 0.1 * np.linalg.norm(y)).converged


GAUSSIAN_CASES = [
    # (n1, n2, r, m, seed); r (n1 + n2 - r) = 36, 40, 44 degrees of freedom
    pytest.param(10, 10, 2, 80, 0, id="square"),
    pytest.param(8, 14, 2, 70, 1, id="rectangular"),
    pytest.param(12, 12, 2, 40, 2, id="below-transition"),
]


def gaussian_instance(n1, n2, r, m, seed):
    truth, _ = gen_low_rank(LowRankSpec(n1, n2, r, equal_spectrum(r, 1.0),
                                        "random-orthogonal", seed))
    ens = gaussian_ensemble(n1, n2, m, seed=40 + seed)
    return truth, ens, apply_ensemble(ens, truth)


@pytest.mark.parametrize("n1, n2, r, m, seed", GAUSSIAN_CASES)
def test_penalized_gaussian_matches_oracle(n1, n2, r, m, seed):
    _, ens, y = gaussian_instance(n1, n2, r, m, seed)
    tau = 0.1
    rep = solve_penalized(ens, y, tau)
    assert rep.converged
    assert rep.stage_iterations == (rep.iterations,)
    oracle_obj = prox_descent_nuclear_penalized(
        lambda x: apply_ensemble(ens, x),
        lambda v: adjoint_ensemble(ens, v),
        (n1, n2), y, tau, estimate_lipschitz(ens),
        iters=10 * max(rep.iterations, 200))
    solver_obj = tau * rep.objective + 0.5 * rep.equality_residual ** 2
    assert abs(solver_obj - oracle_obj) <= 1e-4 * abs(oracle_obj)


@pytest.mark.parametrize("n1, n2, r, m, seed", GAUSSIAN_CASES)
def test_noiseless_answer_independent_of_stage_budget(n1, n2, r, m, seed):
    # the minimizer must not depend on how far the intermediate continuation
    # stages got; below the transition one stage runs into the default cap
    _, ens, y = gaussian_instance(n1, n2, r, m, seed)
    cfg = SolverConfig()
    rep = solve_noiseless(ens, y, cfg)
    long = solve_noiseless(ens, y, SolverConfig(max_iters=10 * cfg.max_iters))
    assert rep.converged and long.converged
    assert rep.objective == pytest.approx(long.objective, rel=1e-6)
    assert rep.equality_residual <= cfg.eq_tol * np.linalg.norm(y)
    assert len(rep.stage_iterations) == len(rep.tau_path)


@pytest.mark.parametrize("n1, n2, r, m, seed", GAUSSIAN_CASES)
def test_noiseless_scales_with_y(n1, n2, r, m, seed):
    # no test in the engine may depend on the units of y
    _, ens, y = gaussian_instance(n1, n2, r, m, seed)
    base = solve_noiseless(ens, y)
    for c in (1e-3, 1e3):
        rep = solve_noiseless(ens, c * y)
        assert len(rep.tau_path) == len(base.tau_path)
        assert rep.objective == pytest.approx(c * base.objective, rel=1e-8)
    # a power of two scales every floating-point operation exactly, so the
    # run must repeat step for step (below the transition, rounding y by one
    # ulp already moves the estimate by ~1e-6, inside eq_tol)
    for c in (2.0 ** -10, 2.0 ** 10):
        rep = solve_noiseless(ens, c * y)
        assert rep.stage_iterations == base.stage_iterations
        assert np.array_equal(rep.estimate, c * base.estimate)


def entry_instance(n1, n2, r, m, seed):
    truth, _ = gen_low_rank(LowRankSpec(n1, n2, r, equal_spectrum(r, 1.0),
                                        "random-orthogonal", seed))
    ens = entry_sampling_ensemble(sample_omega(n1, n2, m, seed=seed))
    return truth, ens, apply_ensemble(ens, truth)


@pytest.mark.parametrize("make, args", [
    *(pytest.param(gaussian_instance, case.values, id=case.id)
      for case in GAUSSIAN_CASES),
    pytest.param(entry_instance, (10, 14, 2, 90, 3), id="entry-rectangular"),
])
def test_noiseless_matches_douglas_rachford_oracle(make, args):
    # the oracle's answer is exactly feasible and exact to about 1e-15; the
    # solver stops at a residual of eq_tol ||y||, which moves its norm by less
    _, ens, y = make(*args)
    rep = solve_noiseless(ens, y)
    oracle_nuc, fixed_point_res = douglas_rachford_nuclear_equality(
        lambda x: apply_ensemble(ens, x), (ens.n1, ens.n2), y)
    assert fixed_point_res <= 1e-12
    assert rep.converged
    assert rep.objective == pytest.approx(oracle_nuc, rel=2e-6)


def test_continuation_stages_stop_short_of_the_cap():
    # an intermediate stage ends on its tau-relative stationarity test; it
    # ran into the 2000-iteration cap when only the iterate-change test ended
    # stages
    _, ens, y = gaussian_instance(20, 20, 2, 100, 5)
    cfg = SolverConfig()
    rep = solve_noiseless(ens, y, cfg)
    assert rep.converged
    assert "stage-iteration-cap" not in rep.flags
    assert max(rep.stage_iterations) < cfg.max_iters


def test_capped_stages_are_flagged():
    # below the transition a 50-iteration budget cannot finish the stages
    _, ens, y = gaussian_instance(12, 12, 2, 40, 2)
    cfg = SolverConfig(max_iters=50)
    for rep in (solve_noiseless(ens, y, cfg),
                solve_lasso(ens, y, 1e-3 * np.linalg.norm(y), cfg)):
        assert "stage-iteration-cap" in rep.flags
        assert max(rep.stage_iterations) == cfg.max_iters
    ens = vectorization_ensemble(12, 12)
    y = apply_ensemble(ens, low_rank(12, 2, 2))
    for rep in (solve_noiseless(ens, y, cfg),
                solve_lasso(ens, y, 1e-3 * np.linalg.norm(y), cfg)):
        assert rep.converged and "stage-iteration-cap" not in rep.flags


def test_penalized_rejects_bad_tau():
    ens = vectorization_ensemble(3, 3)
    with pytest.raises(ValueError):
        solve_penalized(ens, np.ones(9), 0.0)


def test_penalized_zero_data_short_circuits():
    ens = gaussian_ensemble(5, 5, 10, seed=0)
    rep = solve_penalized(ens, np.zeros(10), 1.0)
    assert np.all(rep.estimate == 0.0) and rep.converged
    assert rep.iterations == 0


def test_penalized_dual_residual_bridge():
    # stationarity certifies the residual-correlation constraint at tau
    rng = np.random.default_rng(8)
    for seed in range(4):
        truth = low_rank(7, 2, seed)
        ens = gaussian_ensemble(7, 7, 30, seed=seed)
        y = add_noise(apply_ensemble(ens, truth), NoiseModel(0.02, seed))
        tau = 0.05 * (1 + seed)
        rep = solve_penalized(ens, y, tau)
        assert rep.converged
        assert rep.dual_residual <= tau * (1 + 1e-6) + 1e-12


# ---------------------------------------------------------- estimate_lipschitz

def test_lipschitz_exact_for_projection_kinds():
    assert estimate_lipschitz(vectorization_ensemble(4, 5)) == 1.0
    ens = entry_sampling_ensemble(sample_omega(5, 5, 10, seed=1))
    assert estimate_lipschitz(ens) == 1.0


def test_lipschitz_dominates_gram_spectrum():
    ens = gaussian_ensemble(6, 6, 40, seed=2)
    gram = ens.rows @ ens.rows.T
    true_top = float(np.linalg.eigvalsh(gram).max())
    est = estimate_lipschitz(ens)
    assert est >= true_top * 0.999  # 5% safety margin keeps it above


# -------------------------------------------------------------- choose_lambda

def test_choose_lambda_values():
    assert choose_lambda(50, 0.0) == 0.0
    assert abs(choose_lambda(50, 1.0, c_mult=1.0) - 10.0) < 1e-12
    with pytest.raises(ValueError):
        choose_lambda(0, 1.0)
    with pytest.raises(ValueError):
        choose_lambda(10, -1.0)


def test_choose_lambda_dominates_backprojected_noise():
    # default multiplier keeps lambda above ||A*(z)||_op in >= 95% of seeds
    n, sigma = 50, 0.1
    lam = choose_lambda(n, sigma)
    hits = 0
    for seed in range(200):
        z = np.random.default_rng(seed).standard_normal((n, n)) * sigma
        hits += operator_norm(z) <= lam
    assert hits >= 190


# ------------------------------------------------------------ solve_noiseless

def test_noiseless_vectorization_recovers_exactly():
    truth = low_rank(9, 3, 11)
    ens = vectorization_ensemble(9, 9)
    y = apply_ensemble(ens, truth)
    rep = solve_noiseless(ens, y, SolverConfig(eq_tol=1e-9))
    assert rel_err(rep.estimate, truth) <= 1e-8
    assert rep.converged


def test_noiseless_gaussian_recovery_small():
    hits = 0
    for seed in range(6):
        truth = low_rank(16, 1, seed)
        ens = gaussian_ensemble(16, 16, 80, seed=100 + seed)
        rep = solve_noiseless(ens, apply_ensemble(ens, truth))
        hits += rep.converged and rel_err(rep.estimate, truth) <= 1e-3
    assert hits >= 5


def test_noiseless_unobserved_spike_returns_zero():
    pairs = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
    ens = entry_sampling_ensemble(ObservationSet(4, 4, pairs))
    truth = np.zeros((4, 4))
    truth[0, 0] = 1.0
    rep = solve_noiseless(ens, apply_ensemble(ens, truth))
    assert np.all(rep.estimate == 0.0)
    assert rep.converged


def test_noiseless_tau_path_recorded():
    truth = low_rank(8, 1, 2)
    ens = gaussian_ensemble(8, 8, 40, seed=3)
    rep = solve_noiseless(ens, apply_ensemble(ens, truth))
    assert len(rep.tau_path) >= 1
    assert all(a > b for a, b in zip(rep.tau_path, rep.tau_path[1:]))
    assert len(rep.residual_path) == len(rep.tau_path)


# --------------------------------------------------------------- solve_dantzig

def test_dantzig_vectorization_closed_form():
    truth = low_rank(12, 2, 21)
    ens = vectorization_ensemble(12, 12)
    y = add_noise(apply_ensemble(ens, truth), NoiseModel(0.05, 3))
    lam = choose_lambda(12, 0.05)
    rep = solve_dantzig(ens, y, lam)
    closed = soft_threshold_svals(adjoint_ensemble(ens, y), lam)
    assert np.linalg.norm(rep.estimate - closed) <= 1e-6 * np.linalg.norm(closed)
    assert rep.dual_residual <= lam * (1 + 1e-6) + 1e-12


def test_dantzig_noiseless_limit_matches_noiseless_solver():
    truth = low_rank(8, 1, 31)
    ens = gaussian_ensemble(8, 8, 48, seed=4)
    y = apply_ensemble(ens, truth)
    cfg = SolverConfig()
    base = solve_noiseless(ens, y, cfg)
    tau0 = operator_norm(adjoint_ensemble(ens, y))
    # shrinking lambda drives the estimate toward the equality-constrained
    # solution at a proportional rate
    diffs = [np.linalg.norm(
        solve_dantzig(ens, y, frac * tau0, SolverConfig(max_iters=60_000)).estimate
        - base.estimate) for frac in (1e-3, 1e-4)]
    assert diffs[1] < diffs[0] <= 0.01 * np.linalg.norm(truth)
    # and the equality-constrained solution is itself stationary at tiny tau
    warm = solve_penalized(ens, y, 1e-7 * tau0, x0=base.estimate)
    scale = np.linalg.norm(truth)
    assert np.linalg.norm(warm.estimate - base.estimate) <= 10 * cfg.eq_tol * scale


def test_dantzig_squared_error_scaling_small():
    # squared error stays within a dimension-free multiple of n r sigma^2
    n, r = 20, 2
    sigma = np.sqrt(1e-2 / (n * r))
    worst = 0.0
    for seed in range(5):
        truth = low_rank(n, r, seed)
        ens = gaussian_ensemble(n, n, 8 * n * r, seed=50 + seed)
        y = add_noise(apply_ensemble(ens, truth), NoiseModel(sigma, seed))
        rep = solve_dantzig(ens, y, choose_lambda(n, sigma))
        worst = max(worst, np.linalg.norm(rep.estimate - truth) ** 2)
    assert worst <= 50 * n * r * sigma ** 2


def test_dantzig_objective_no_worse_than_feasible_truth():
    truth = low_rank(10, 2, 7)
    ens = gaussian_ensemble(10, 10, 60, seed=8)
    z = np.random.default_rng(9).standard_normal(60) * 0.01
    y = apply_ensemble(ens, truth) + z
    lam = operator_norm(adjoint_ensemble(ens, z)) * 1.05  # truth is feasible
    rep = solve_dantzig(ens, y, lam)
    assert rep.converged
    assert rep.objective <= nuclear_norm(truth) * (1 + 1e-6)


def test_dantzig_rejects_bad_lambda():
    ens = vectorization_ensemble(3, 3)
    with pytest.raises(ValueError):
        solve_dantzig(ens, np.ones(9), 0.0)


# ----------------------------------------------------------------- solve_lasso

def test_lasso_huge_delta_returns_zero():
    ens = vectorization_ensemble(5, 5)
    y = apply_ensemble(ens, low_rank(5, 1, 13))
    rep = solve_lasso(ens, y, float(np.linalg.norm(y)) * 1.01)
    assert np.all(rep.estimate == 0.0)
    assert rep.objective == 0.0 and rep.converged


def test_lasso_zero_delta_matches_noiseless():
    truth = low_rank(8, 1, 17)
    ens = gaussian_ensemble(8, 8, 48, seed=5)
    y = apply_ensemble(ens, truth)
    cfg = SolverConfig()
    a = solve_lasso(ens, y, 0.0, cfg)
    b = solve_noiseless(ens, y, cfg)
    assert np.linalg.norm(a.estimate - b.estimate) <= 10 * cfg.eq_tol * np.linalg.norm(truth)


def test_lasso_accepts_observation_set():
    truth = low_rank(6, 1, 19)
    omega = sample_omega(6, 6, 30, seed=7)
    y = truth[omega.pairs[:, 0], omega.pairs[:, 1]]
    rep = solve_lasso(omega, y, 1e-8)
    assert rep.equality_residual <= 1e-8 * (1 + 1e-6) + 1e-12


def test_lasso_constraint_met_and_residuals_monotone():
    truth = low_rank(10, 2, 23)
    ens = gaussian_ensemble(10, 10, 70, seed=11)
    y = add_noise(apply_ensemble(ens, truth), NoiseModel(0.01, 12))
    delta = 0.5 * float(np.linalg.norm(y - apply_ensemble(ens, truth))) + 0.05
    rep = solve_lasso(ens, y, delta)
    assert rep.converged
    assert rep.equality_residual <= delta * (1 + 1e-6)
    # residual nonincreasing as tau decreases along the recorded path
    path = sorted(zip(rep.tau_path, rep.residual_path), reverse=True)
    resids = [res for _, res in path]
    slack = 1e-7 * max(1.0, float(np.linalg.norm(y)))
    assert all(a >= b - slack for a, b in zip(resids, resids[1:]))


def test_lasso_completion_stays_within_stability_bound_small():
    from lowrankrec.oracle import completion_stability_bound
    n, r, p, sigma = 20, 1, 0.6, 1e-3
    m = int(p * n * n)
    hits = 0
    for seed in range(4):
        truth = low_rank(n, r, seed)
        omega = sample_omega(n, n, m, seed=200 + seed)
        ens = entry_sampling_ensemble(omega)
        y = add_noise(apply_ensemble(ens, truth), NoiseModel(sigma, seed))
        delta = float(np.sqrt((m + np.sqrt(8.0 * m)) * sigma ** 2))
        rep = solve_lasso(ens, y, delta)
        bound = completion_stability_bound(n, m / n ** 2, delta).value
        hits += np.linalg.norm(rep.estimate - truth) <= bound
    assert hits == 4


def test_lasso_rejects_negative_delta():
    ens = vectorization_ensemble(3, 3)
    with pytest.raises(ValueError):
        solve_lasso(ens, np.ones(9), -0.1)


# -------------------------------------------------------------------- reports

def test_report_json_dict_fields():
    ens = vectorization_ensemble(4, 4)
    y = apply_ensemble(ens, low_rank(4, 1, 29))
    rep = solve_noiseless(ens, y)
    d = rep.to_json_dict()
    assert set(d) == {"estimate", "objective", "equality_residual",
                      "dual_residual", "iterations", "converged", "tau_path",
                      "residual_path", "flags", "stage_iterations", "restarts",
                      "prox_steps"}
    assert np.array_equal(np.array(d["estimate"]), rep.estimate)
    assert len(d["stage_iterations"]) == len(d["tau_path"])
    assert sum(d["stage_iterations"]) == d["iterations"]
    assert d["prox_steps"] >= d["iterations"]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(continuation_factor=1.5)
    with pytest.raises(ValueError):
        SolverConfig(fista_tol=-1.0)
