import math

import numpy as np
import pytest

from lowrankrec.matcore import (LowRankSpec, equal_spectrum, gen_low_rank,
                                nuclear_norm, operator_norm)
from lowrankrec.measure import (NoiseModel, ObservationSet, add_noise,
                                adjoint_ensemble, apply_ensemble,
                                entry_sampling_ensemble, gaussian_ensemble,
                                rademacher_ensemble, sample_omega,
                                vectorization_ensemble)
from lowrankrec.rand import spawn_seeds
from lowrankrec.solve import (SolverConfig, choose_delta, choose_lambda,
                              estimate_lipschitz,
                              solve_dantzig, solve_lasso, solve_noiseless,
                              solve_penalized)

from oracles import (douglas_rachford_nuclear_equality,
                     nuclear_equality_dual_bound,
                     prox_descent_nuclear_penalized,
                     residual_ball_by_bisection, singular_value_threshold)


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
    closed = singular_value_threshold(adjoint_ensemble(ens, y), tau)
    assert np.linalg.norm(rep.estimate - closed) <= 1e-8 * max(1.0, np.linalg.norm(closed))
    assert rep.converged


def test_penalized_full_shrinkage_returns_zero():
    ens = vectorization_ensemble(6, 6)
    y = apply_ensemble(ens, low_rank(6, 1, 3))
    tau = operator_norm(adjoint_ensemble(ens, y)) * 1.001
    rep = solve_penalized(ens, y, tau)
    assert np.all(rep.estimate == 0.0) or np.linalg.norm(rep.estimate) < 1e-12


def test_penalized_matches_independent_descent_oracle():
    # reference: plain proximal descent at the power-iteration bound, run
    # with a 10x iteration budget; the local step rule reaches it from its
    # default start
    truth = low_rank(8, 2, 5)
    ens = gaussian_ensemble(8, 8, 64, seed=6)
    y = apply_ensemble(ens, truth)
    tau = 0.1
    rep = solve_penalized(ens, y, tau)
    assert rep.converged
    oracle_obj = prox_descent_nuclear_penalized(
        lambda x: apply_ensemble(ens, x),
        lambda v: adjoint_ensemble(ens, v),
        (8, 8), y, tau, estimate_lipschitz(ens), iters=10 * max(rep.iterations, 200))
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
    # the minimizer must not depend on the iteration budget: Douglas-Rachford
    # stops on its fixed-point residual, well inside the default cap
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


@pytest.mark.parametrize("make, args", [
    *(pytest.param(gaussian_instance, case.values, id=case.id)
      for case in GAUSSIAN_CASES[:2]),
    pytest.param(entry_instance, (10, 14, 2, 90, 3), id="entry-rectangular"),
])
def test_noiseless_closes_the_dual_gap(make, args):
    # weak duality bounds the minimum from below for any multiplier; the
    # oracle's comes from least squares and alternating projections, not
    # from the solver's splitting
    _, ens, y = make(*args)
    rep = solve_noiseless(ens, y)
    assert rep.converged
    assert rep.equality_residual <= 1e-12 * np.linalg.norm(y)
    bound = nuclear_equality_dual_bound(
        lambda v: adjoint_ensemble(ens, v), ens.m, y, rep.estimate, 1e-6)
    assert rep.objective - bound <= 1e-6 * rep.objective


@pytest.mark.parametrize("make, args", [
    *(pytest.param(gaussian_instance, case.values, id=case.id)
      for case in GAUSSIAN_CASES),
    pytest.param(entry_instance, (10, 14, 2, 90, 3), id="entry-rectangular"),
])
def test_converged_reports_meet_the_certificate(make, args):
    # penalized and Dantzig solves stop on eps = 1e-7: a converged report
    # certifies stationarity to tau (1 + 1e-7)
    _, ens, y = make(*args)
    y = add_noise(y, NoiseModel(0.01, 4))
    for solve, tau in ((solve_penalized, 0.1), (solve_dantzig, 0.05)):
        rep = solve(ens, y, tau)
        assert rep.converged
        assert rep.dual_residual <= tau * (1 + 1e-7)


def test_continuation_stages_stop_short_of_the_cap():
    # an intermediate lasso stage ends on its tau-relative stationarity test;
    # it ran into the 2000-iteration cap when only the iterate-change test
    # ended stages
    _, ens, y = gaussian_instance(20, 20, 2, 100, 5)
    cfg = SolverConfig()
    rep = solve_lasso(ens, y, 1e-4 * np.linalg.norm(y), cfg)
    assert rep.converged
    assert len(rep.stage_iterations) > 1
    assert "stage-iteration-cap" not in rep.flags
    assert max(rep.stage_iterations) < cfg.max_iters


def test_capped_stages_are_flagged():
    # below the transition a 50-iteration budget cannot finish the stages
    _, ens, y = gaussian_instance(12, 12, 2, 40, 2)
    cfg = SolverConfig(max_iters=50)
    rep = solve_lasso(ens, y, 1e-3 * np.linalg.norm(y), cfg)
    assert "stage-iteration-cap" in rep.flags
    assert max(rep.stage_iterations) == cfg.max_iters
    ens = vectorization_ensemble(12, 12)
    y = apply_ensemble(ens, low_rank(12, 2, 2))
    rep = solve_lasso(ens, y, 1e-3 * np.linalg.norm(y), cfg)
    assert rep.converged and "stage-iteration-cap" not in rep.flags


def test_noiseless_iteration_cap_is_flagged():
    _, ens, y = gaussian_instance(12, 12, 2, 40, 2)
    cfg = SolverConfig(max_iters=50)
    rep = solve_noiseless(ens, y, cfg)
    assert rep.flags == ("iteration-cap",)
    assert not rep.converged
    assert rep.iterations == cfg.max_iters == rep.prox_steps
    assert rep.stage_iterations == (cfg.max_iters,)
    # the capped estimate is still the projected point, feasible to rounding
    assert rep.equality_residual <= 1e-12 * np.linalg.norm(y)
    ens = vectorization_ensemble(12, 12)
    y = apply_ensemble(ens, low_rank(12, 2, 2))
    rep = solve_noiseless(ens, y, cfg)
    assert rep.converged and rep.flags == ()


def test_penalized_rejects_bad_tau():
    ens = vectorization_ensemble(3, 3)
    with pytest.raises(ValueError):
        solve_penalized(ens, np.ones(9), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solvers_reject_non_finite_inputs(bad):
    # A and A* do not scan for non-finite values; each solver does, once,
    # on entry, before any shortcut
    ens = gaussian_ensemble(5, 5, 12, seed=0)
    y = np.ones(12)
    y[3] = bad
    for solve in (lambda: solve_noiseless(ens, y),
                  lambda: solve_penalized(ens, y, 0.1),
                  lambda: solve_dantzig(ens, y, 0.1),
                  lambda: solve_lasso(ens, y, 0.1)):
        with pytest.raises(ValueError, match="finite"):
            solve()
    x0 = np.zeros((5, 5))
    x0[1, 2] = bad
    for data in (np.ones(12), np.zeros(12)):
        with pytest.raises(ValueError, match="finite"):
            solve_penalized(ens, data, 0.1, x0=x0)
    with pytest.raises(ValueError, match="shape"):
        solve_penalized(ens, np.ones(12), 0.1, x0=np.zeros((4, 5)))
    # nor may the penalty or the radius be: NaN fails the curvature test at
    # every L, and regula falsi would carry it into tau
    for solve, name in ((lambda: solve_penalized(ens, np.ones(12), bad), "tau"),
                        (lambda: solve_dantzig(ens, np.ones(12), bad), "lambda"),
                        (lambda: solve_lasso(ens, np.ones(12), bad), "delta")):
        with pytest.raises(ValueError, match=f"{name} must be .*finite, got {bad}"):
            solve()


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
    assert est >= true_top * 0.999
    assert est == pytest.approx(true_top, rel=1e-12)   # exact: no margin


# -------------------------------------------------------------- choose_lambda

def test_choose_lambda_values():
    assert choose_lambda(50, 0.0) == 0.0
    # 1.5 sqrt(2 n) sigma: 15 at n = 50, sigma = 1
    assert choose_lambda(50, 1.0) == 1.5 * (2 * 50) ** 0.5 * 1.0 == 15.0
    assert choose_lambda(8, 0.1) == 1.5 * (2 * 8) ** 0.5 * 0.1
    with pytest.raises(ValueError):
        choose_lambda(0, 1.0)
    with pytest.raises(ValueError):
        choose_lambda(10, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
            choose_lambda(10, bad)


def test_choose_lambda_and_delta_reject_a_result_past_the_largest_float():
    # sigma ** 2 overflows in choose_delta, the product in choose_lambda
    with pytest.raises(ValueError, match="delta is not finite at m=400, sigma=1e"):
        choose_delta(400, 1e200)
    with pytest.raises(ValueError, match="lambda is not finite at n=20, sigma=1e"):
        choose_lambda(20, 1e308)
    assert choose_delta(400, 1e150) == pytest.approx(
        1e150 * (400 + 3200 ** 0.5) ** 0.5, rel=1e-15)


def test_choose_delta_values():
    # delta^2 = (m + sqrt(8 m)) sigma^2, two deviations of ||z||^2 above its mean
    assert choose_delta(50, 0.0) == 0.0
    assert choose_delta(8, 2.0) == 8.0                 # (8 + 8) * 4 = 64
    assert choose_delta(2, 1.0) == pytest.approx(6.0 ** 0.5, rel=1e-15)
    assert choose_delta(480, 1e-3) == pytest.approx(
        1e-3 * (480 + (8 * 480) ** 0.5) ** 0.5, rel=1e-15)
    with pytest.raises(ValueError):
        choose_delta(0, 1.0)
    with pytest.raises(ValueError):
        choose_delta(10, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
            choose_delta(10, bad)


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
    rep = solve_noiseless(ens, y)
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
    # one Douglas-Rachford stage at gamma = 0.1 ||y||, one SVD per iteration;
    # restarts counts the Anderson safeguard's rejections, each one iteration
    truth = low_rank(8, 1, 2)
    ens = gaussian_ensemble(8, 8, 40, seed=3)
    y = apply_ensemble(ens, truth)
    rep = solve_noiseless(ens, y)
    assert rep.tau_path == pytest.approx((0.1 * np.linalg.norm(y),), rel=1e-15)
    assert rep.residual_path == (rep.equality_residual,)
    assert rep.stage_iterations == (rep.iterations,)
    assert rep.prox_steps == rep.iterations > rep.restarts


def test_noiseless_measures_its_estimate_once(monkeypatch):
    # A runs once per projection (one per iteration and the final one) and
    # once in the report, whose residual also decides feasibility
    import lowrankrec.solve as solve_mod
    calls = []
    apply = solve_mod.apply_ensemble
    monkeypatch.setattr(solve_mod, "apply_ensemble",
                        lambda *args: calls.append(1) or apply(*args))
    _, ens, y = gaussian_instance(12, 12, 2, 100, 3)
    rep = solve_noiseless(ens, y)
    assert rep.converged
    assert len(calls) == rep.iterations + 2
    assert rep.residual_path == (rep.equality_residual,)


def overdetermined_instance(kind, n, m, seed, sigma=0.0):
    truth = low_rank(n, 1, seed)
    ens = kind(n, n, m, seed=seed)
    return truth, ens, add_noise(apply_ensemble(ens, truth), NoiseModel(sigma, seed))


def test_noiseless_inconsistent_overdetermined_is_flagged():
    # m > n1 n2: the Gram A A* is singular and noisy y lies outside range(A),
    # so no X meets A(X) = y; the solve must stay finite and say so
    truth, ens, y = overdetermined_instance(gaussian_ensemble, 4, 20, 3, sigma=1e-3)
    cfg = SolverConfig()
    rep = solve_noiseless(ens, y, cfg)
    assert not rep.converged
    assert rep.flags == ("infeasible",)
    assert rep.iterations < cfg.max_iters
    assert np.all(np.isfinite(rep.estimate))
    assert rel_err(rep.estimate, truth) <= 0.1


@pytest.mark.parametrize("kind, n, m, seed", [
    pytest.param(gaussian_ensemble, 4, 20, 3, id="gaussian-overdetermined"),
    pytest.param(rademacher_ensemble, 8, 48, 2, id="rademacher"),
])
def test_noiseless_consistent_ensembles_recover(kind, n, m, seed):
    truth, ens, y = overdetermined_instance(kind, n, m, seed)
    rep = solve_noiseless(ens, y)
    assert rep.converged and rep.flags == ()
    assert rel_err(rep.estimate, truth) <= 1e-6


def test_noiseless_never_factorises_the_gram(monkeypatch):
    # at the harness's n = 30, m = 480 a LAPACK factorisation of the 480 x 480
    # Gram adds megabytes of peak memory; the projection runs on CG alone.
    # Small systems (the Anderson least squares, DR_MEMORY wide) may be solved
    truth, ens, y = gaussian_instance(30, 30, 2, 480, 7)

    def refuse_m_sized(name):
        factorise = getattr(np.linalg, name)

        def guarded(*args, **kwargs):
            if any(max(np.shape(a), default=0) >= ens.m
                   for a in (*args, *kwargs.values())):
                raise AssertionError(f"numpy.linalg.{name} called on an m-sized array")
            return factorise(*args, **kwargs)
        return guarded

    for name in ("eigh", "inv", "cholesky", "solve", "qr", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse_m_sized(name))
    rep = solve_noiseless(ens, y)
    assert rep.converged
    assert rel_err(rep.estimate, truth) <= 1e-6


def test_noiseless_projections_cut_cg_tenfold(monkeypatch):
    # at the harness's n = 30, m = 480 each warm-started projection needs a
    # few Gram products: at most 10 per DR iteration, the final one included
    import lowrankrec.solve as solve_mod
    products = []
    cg = solve_mod._cg

    def counting_cg(gram_times, *args):
        return cg(lambda p: products.append(1) or gram_times(p), *args)

    monkeypatch.setattr(solve_mod, "_cg", counting_cg)
    truth, ens, y = gaussian_instance(30, 30, 2, 480, 7)
    rep = solve_noiseless(ens, y)
    assert rep.converged
    assert rel_err(rep.estimate, truth) <= 1e-6
    assert len(products) <= 10 * rep.iterations


def record_dr_residuals(monkeypatch):
    """Patch solve_noiseless's projection and prox to record ||w - x||, the
    DR residual at each point the loop evaluates, in evaluation order."""
    import lowrankrec.solve as solve_mod
    xs, residuals = [], []
    affine, prox = solve_mod._affine_projection, solve_mod.prox_nuclear

    def recording_affine(ens, y):
        project = affine(ens, y)

        def recording_project(z, rel):
            out = project(z, rel)
            if rel:
                xs.append(out[0])
            return out
        return recording_project

    def recording_prox(v, gamma):
        w, nuc = prox(v, gamma)
        residuals.append(float(np.linalg.norm(w - xs[-1])))
        return w, nuc

    monkeypatch.setattr(solve_mod, "_affine_projection", recording_affine)
    monkeypatch.setattr(solve_mod, "prox_nuclear", recording_prox)
    return residuals


@pytest.mark.parametrize("n1, n2, r, m, seed", GAUSSIAN_CASES[1:])
def test_noiseless_safeguard_rewinds_and_counts(monkeypatch, n1, n2, r, m, seed):
    # an accelerated point whose DR residual exceeds the last accepted one is
    # rejected and the next evaluation is the plain step, which is accepted:
    # walking the evaluations, those above the last accepted residual are
    # exactly the report's restarts, and none follows another
    residuals = record_dr_residuals(monkeypatch)
    _, ens, y = gaussian_instance(n1, n2, r, m, seed)
    rep = solve_noiseless(ens, y)
    assert rep.converged
    assert len(residuals) == rep.iterations
    accepted, rejected = math.inf, []
    for i, res in enumerate(residuals):
        if res <= accepted:
            accepted = res
        else:
            rejected.append(i)
    assert len(rejected) == rep.restarts >= 1
    assert all(b - a > 1 for a, b in zip(rejected, rejected[1:]))
    assert rejected[-1] < len(residuals) - 1


def test_noiseless_harness_instance_converges_in_50_iterations():
    # the harness's n = 30, m = 480 instance: plain DR took 77 iterations
    truth, ens, y = gaussian_instance(30, 30, 2, 480, 7)
    rep = solve_noiseless(ens, y)
    assert rep.converged and rep.flags == ()
    assert rep.iterations <= 50
    assert rel_err(rep.estimate, truth) <= 1e-6


def test_noiseless_ill_conditioned_completion_converges():
    # optspace_compare.cfg's kappa = 20 cell (n = 30, r = 2, p = 0.5), trial
    # 11 of seed 0: plain DR hit the 2000-iteration cap at rel_err 1.8e-5
    s_truth, s_meas, _, _ = spawn_seeds(0, 1, 11, count=4)
    truth, _ = gen_low_rank(LowRankSpec(30, 30, 2, (20.0, 1.0),
                                        "random-orthogonal", s_truth))
    ens = entry_sampling_ensemble(sample_omega(30, 30, 450, s_meas))
    rep = solve_noiseless(ens, apply_ensemble(ens, truth))
    assert rep.converged and rep.flags == ()
    assert rep.iterations <= 400
    assert rel_err(rep.estimate, truth) <= 1e-6


def test_noiseless_projections_carry_their_residual(monkeypatch):
    # a warm-started projection starts CG from the previous call's residual
    # plus the change in A(z) - y: no Gram product for it (7.7 products per
    # DR iteration when each call formed it afresh), and the carried residual
    # stays the true ||A(P(z)) - y||
    import lowrankrec.solve as solve_mod
    products, drift = [], []
    cg, affine = solve_mod._cg, solve_mod._affine_projection

    def counting_cg(gram_times, *args):
        return cg(lambda p: products.append(1) or gram_times(p), *args)

    def checking_affine(ens, y):
        project = affine(ens, y)

        def checking_project(z, rel):
            x, res, null = project(z, rel)
            drift.append(abs(res - np.linalg.norm(apply_ensemble(ens, x) - y)))
            return x, res, null
        return checking_project

    monkeypatch.setattr(solve_mod, "_cg", counting_cg)
    monkeypatch.setattr(solve_mod, "_affine_projection", checking_affine)
    truth, ens, y = gaussian_instance(30, 30, 2, 480, 7)
    rep = solve_noiseless(ens, y)
    assert rep.converged
    assert len(products) <= 7 * rep.iterations
    assert max(drift) <= 1e-12 * np.linalg.norm(y)


# --------------------------------------------------------------- solve_dantzig

def test_dantzig_vectorization_closed_form():
    truth = low_rank(12, 2, 21)
    ens = vectorization_ensemble(12, 12)
    y = add_noise(apply_ensemble(ens, truth), NoiseModel(0.05, 3))
    lam = choose_lambda(12, 0.05)
    rep = solve_dantzig(ens, y, lam)
    closed = singular_value_threshold(adjoint_ensemble(ens, y), lam)
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


def test_lasso_on_entry_sampling():
    truth = low_rank(6, 1, 19)
    omega = sample_omega(6, 6, 30, seed=7)
    y = truth[omega.pairs[:, 0], omega.pairs[:, 1]]
    rep = solve_lasso(entry_sampling_ensemble(omega), y, 1e-8)
    assert rep.equality_residual <= 1e-8 * (1 + 1e-6) + 1e-12


@pytest.mark.parametrize("s", range(40))
def test_lasso_constraint_met_and_residuals_monotone(s):
    # records close together in tau must still order their residuals: the
    # root-finding stages run at a tighter eps than the continuation stages
    truth = low_rank(10, 2, 23 + s)
    ens = gaussian_ensemble(10, 10, 70, seed=11 + s)
    y = add_noise(apply_ensemble(ens, truth), NoiseModel(0.01, 12 + s))
    delta = 0.5 * float(np.linalg.norm(y - apply_ensemble(ens, truth))) + 0.05
    rep = solve_lasso(ens, y, delta)
    assert rep.converged
    assert rep.equality_residual <= delta * (1 + 1e-6)
    # residual nonincreasing as tau decreases along the recorded path
    path = sorted(zip(rep.tau_path, rep.residual_path), reverse=True)
    resids = [res for _, res in path]
    slack = 1e-7 * max(1.0, float(np.linalg.norm(y)))
    assert all(a >= b - slack for a, b in zip(resids, resids[1:]))


def lasso_instance(kind, n, m, seed, sigma=1e-2):
    truth = low_rank(n, 2, seed)
    if kind == "gaussian":
        ens = gaussian_ensemble(n, n, m, seed=seed)
    else:
        ens = entry_sampling_ensemble(sample_omega(n, n, m, seed=seed))
    y = add_noise(apply_ensemble(ens, truth), NoiseModel(sigma, seed))
    return ens, y, choose_delta(m, sigma)


@pytest.mark.parametrize("kind, n, m, seed", [
    ("gaussian", 12, 100, 3), ("gaussian", 20, 200, 5), ("entries", 20, 240, 2)])
def test_lasso_matches_residual_ball_reference(kind, n, m, seed):
    # the residual-ball minimum by certified penalized solves bisected to a
    # tau ratio of 1 + 1e-8; bisection to 1 + 1e-4 took 16-17 stages here
    ens, y, delta = lasso_instance(kind, n, m, seed)
    rep = solve_lasso(ens, y, delta)

    def penalized(tau, x0):
        sol = solve_penalized(ens, y, tau, x0=x0)
        assert sol.converged
        return sol.estimate, sol.equality_residual

    tau_hi = operator_norm(adjoint_ensemble(ens, y))
    ref = residual_ball_by_bisection(penalized, tau_hi, delta)
    assert rep.converged and rep.equality_residual <= delta * (1 + 1e-6)
    assert abs(rep.objective - ref) <= 1e-4 * ref
    assert len(rep.tau_path) < 16


def count_calls(monkeypatch, *names):
    """Count the calls made through lowrankrec.solve's ``names``; returns one
    list per name, one entry per call."""
    import lowrankrec.solve as solve_mod
    counts = []
    for name in names:
        calls, func = [], getattr(solve_mod, name)
        monkeypatch.setattr(solve_mod, name,
                            lambda *args, calls=calls, func=func:
                            calls.append(1) or func(*args))
        counts.append(calls)
    return counts


def test_lasso_measures_each_stage_start_once(monkeypatch):
    # a stage starts from the point and A(point) the previous stage returned,
    # and the records keep the nuclear norms their stages' last prox gave: A
    # runs once per prox step and once in the report, the nuclear-norm SVD
    # only in the report.  One A* per iteration: the gradient; the operator
    # norms of tau0, the certificate checks and the report take one A* each
    applies, norms, adjoints, opnorms = count_calls(
        monkeypatch, "apply_ensemble", "nuclear_norm", "adjoint_ensemble",
        "operator_norm")
    ens, y, delta = lasso_instance("gaussian", 12, 100, 3)
    rep = solve_lasso(ens, y, delta)
    assert rep.converged and len(rep.tau_path) > 2
    assert len(applies) == rep.prox_steps + 1
    assert len(norms) == 1
    assert len(adjoints) - len(opnorms) == rep.iterations


@pytest.mark.parametrize("program", ["penalized", "dantzig"])
def test_one_gradient_per_iteration(monkeypatch, program):
    # each iteration takes one A*, the gradient at the momentum point, and no
    # step is retaken with a second one (on this instance a rule retaking the
    # steps that raise the objective retakes two in each solve).  Each
    # certificate check and the report take one A* and one operator norm
    ens, y, _ = lasso_instance("gaussian", 8, 60, 1)
    adjoints, opnorms = count_calls(monkeypatch, "adjoint_ensemble", "operator_norm")
    if program == "penalized":
        rep = solve_penalized(ens, y, 0.05)
    else:
        rep = solve_dantzig(ens, y, choose_lambda(8, 1e-2))
    assert rep.converged and rep.restarts >= 1
    assert len(adjoints) - len(opnorms) == rep.iterations


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


def test_lasso_unreachable_delta_is_flagged():
    # 30 generic measurements of a 3 x 3 matrix: no X fits y better than the
    # least-squares residual, so half of it is out of reach; the report
    # carries the closest stage's estimate, uncertified
    ens = gaussian_ensemble(3, 3, 30, seed=1)
    y = np.random.default_rng(0).standard_normal(30)
    x_ls = np.linalg.lstsq(ens.rows, y, rcond=None)[0]
    delta = 0.5 * np.linalg.norm(ens.rows @ x_ls - y)
    rep = solve_lasso(ens, y, delta, SolverConfig(max_iters=200))
    assert rep.flags == ("delta-unreachable", "stage-iteration-cap")
    assert not rep.converged
    assert rep.equality_residual > delta
    assert rep.equality_residual == pytest.approx(
        np.linalg.norm(apply_ensemble(ens, rep.estimate) - y), rel=1e-12)


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
    # the engine's stop rule, the continuation factor, the bisection's end
    # and the noiseless program's feasibility target are constants, not settings
    assert SolverConfig().eq_tol == 1e-6
    for removed in ("fista_tol", "continuation_factor", "bisection_iters", "eq_tol"):
        with pytest.raises(TypeError):
            SolverConfig(**{removed: 1})
