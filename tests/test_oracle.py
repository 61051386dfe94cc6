"""Tests for the fixed-column-space oracle fit and the closed-form bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrankrec.matcore import (
    LowRankSpec,
    equal_spectrum,
    gen_low_rank,
    geometric_spectrum,
)
from lowrankrec.measure import (
    ObservationSet,
    apply_ensemble,
    entry_sampling_ensemble,
    gaussian_ensemble,
    vectorization_ensemble,
)
from lowrankrec.oracle import (
    BoundReport,
    completion_stability_bound,
    gaussian_noise_opnorm,
    ideal_risk,
    instance_optimal_bound,
    minimax_bound,
    optspace_noisy_bound,
    oracle_fit,
    oracle_risk_scan,
)


def dense_restricted_lstsq(u, ens, y):
    """Brute-force reference: materialize the design column-by-column over a
    basis of R and solve the normal equations densely."""
    r, n2 = u.shape[1], ens.n2
    cols = []
    for k in range(r * n2):
        e = np.zeros((r, n2))
        e[k // n2, k % n2] = 1.0
        cols.append(apply_ensemble(ens, u @ e))
    design = np.stack(cols, axis=1)
    sol = np.linalg.solve(design.T @ design, design.T @ y)
    return u @ sol.reshape(r, n2), design @ sol


# ----------------------------------------------------------- oracle_fit

def test_oracle_fit_identity_frame_interpolates():
    rng = np.random.default_rng(0)
    ens = vectorization_ensemble(4, 3)
    y = rng.normal(size=12)
    est = oracle_fit(np.eye(4), ens, y)
    np.testing.assert_allclose(est, y.reshape(4, 3), atol=1e-12)


def test_oracle_fit_true_subspace_gives_projection():
    rng = np.random.default_rng(1)
    m_true = rng.normal(size=(6, 6))
    u = np.linalg.svd(m_true)[0][:, :2]
    ens = vectorization_ensemble(6, 6)
    est = oracle_fit(u, ens, m_true.ravel())
    np.testing.assert_allclose(est, u @ (u.T @ m_true), atol=1e-10)


def test_oracle_fit_matches_dense_normal_equations():
    rng = np.random.default_rng(7)
    spec = LowRankSpec(6, 6, 2, equal_spectrum(2, 1.0), "random-orthogonal", 7)
    truth, (u, _, _) = gen_low_rank(spec)
    ens = gaussian_ensemble(6, 6, 30, seed=7)
    y = apply_ensemble(ens, truth) + 0.01 * rng.standard_normal(30)
    est = oracle_fit(u, ens, y)
    ref, fitted = dense_restricted_lstsq(u, ens, y)
    np.testing.assert_allclose(est, ref, atol=1e-9)
    obj = np.linalg.norm(y - apply_ensemble(ens, est))
    assert obj == pytest.approx(np.linalg.norm(y - fitted), abs=1e-9)


def test_oracle_fit_residual_orthogonal_to_feasible_range():
    spec = LowRankSpec(6, 6, 2, equal_spectrum(2, 1.0), "random-orthogonal", 3)
    truth, (u, _, _) = gen_low_rank(spec)
    ens = gaussian_ensemble(6, 6, 30, seed=3)
    rng = np.random.default_rng(3)
    y = apply_ensemble(ens, truth) + 0.05 * rng.standard_normal(30)
    resid = y - apply_ensemble(ens, oracle_fit(u, ens, y))
    for _ in range(20):
        direction = apply_ensemble(ens, u @ rng.normal(size=(2, 6)))
        assert abs(resid @ direction) <= 1e-9 * max(
            1.0, np.linalg.norm(resid) * np.linalg.norm(direction))


def test_oracle_fit_entry_sampling_column_by_column():
    rng = np.random.default_rng(5)
    truth = rng.normal(size=(5, 4))
    u = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    pairs = np.array([(i, j) for i in range(5) for j in range(4)])
    ens = entry_sampling_ensemble(ObservationSet(5, 4, pairs))
    est = oracle_fit(u, ens, apply_ensemble(ens, truth))
    np.testing.assert_allclose(est, u @ (u.T @ truth), atol=1e-10)


def test_oracle_fit_warns_on_deficient_design():
    rng = np.random.default_rng(2)
    u = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    # column 3 never observed: its restricted design is empty
    pairs = np.array([(i, j) for i in range(5) for j in range(4) if j != 3])
    ens = entry_sampling_ensemble(ObservationSet(5, 4, pairs))
    y = rng.normal(size=ens.m)
    with pytest.warns(UserWarning, match="rank-deficient"):
        est = oracle_fit(u, ens, y)
    assert not est[:, 3].any()

    skinny = gaussian_ensemble(5, 4, 3, seed=2)   # 3 equations, 8 unknowns
    with pytest.warns(UserWarning, match="minimum-norm"):
        oracle_fit(u, skinny, rng.normal(size=3))


def test_oracle_fit_validates_shapes():
    ens = vectorization_ensemble(3, 3)
    with pytest.raises(ValueError):
        oracle_fit(np.eye(4), ens, np.zeros(9))
    with pytest.raises(ValueError):
        oracle_fit(np.eye(3), ens, np.zeros(8))


# ------------------------------------------------------------ ideal risk

def test_ideal_risk_zero_noise():
    assert ideal_risk([3.0, 1.0], 10, 0.0).value == 0.0


def test_ideal_risk_saturated():
    # every signal component clears the noise level: risk is r n sigma^2 / 2
    rep = ideal_risk([5.0, 4.0, 3.0], 4, 0.1)
    assert rep.value == pytest.approx(0.5 * 3 * 4 * 0.01, rel=1e-12)


def test_ideal_risk_mixed_value():
    rep = ideal_risk([3.0, 1.0, 0.1], 100, 0.05)
    assert rep.value == pytest.approx(0.255, abs=1e-12)
    assert rep.inputs["n"] == 100


def test_ideal_risk_rejects_bad_spectrum():
    with pytest.raises(ValueError):
        ideal_risk([], 10, 0.1)
    with pytest.raises(ValueError):
        ideal_risk([1.0, -0.5], 10, 0.1)


# ------------------------------------------------------- rank-cutoff scan

def test_risk_scan_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = np.sort(rng.uniform(0, 3, size=rng.integers(1, 9)))[::-1]
        n = int(rng.integers(2, 60))
        sigma = float(rng.uniform(0, 0.6))
        best_r, value = oracle_risk_scan(s, n, sigma)
        brute = min(
            ((s[r:] ** 2).sum() + n * r * sigma ** 2, r)
            for r in range(s.size + 1)
        )
        assert value == pytest.approx(brute[0], rel=1e-12)
        assert value == pytest.approx(
            (s[best_r:] ** 2).sum() + n * best_r * sigma ** 2, rel=1e-12)


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=25)
def test_risk_scan_sandwich(seed):
    # the scanned minimum is equivalent to the keep-or-kill sum within a
    # factor two, which is what lets a single formula stand in for the scan
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0, 4, size=rng.integers(1, 10)))[::-1]
    n = int(rng.integers(1, 80))
    sigma = float(rng.uniform(0, 1.0))
    lo = float(np.minimum(s * s, n * sigma ** 2).sum())
    _, scanned = oracle_risk_scan(s, n, sigma)
    assert lo <= scanned + 1e-12 * max(lo, 1.0)
    assert scanned <= 2.0 * lo + 1e-12


# ---------------------------------------------------------------- minimax

def test_minimax_values():
    assert minimax_bound(10, 1, 1.0, 0.0).value == pytest.approx(10.0, rel=1e-14)
    assert minimax_bound(25, 3, 0.0, 0.3).value == 0.0
    assert minimax_bound(40, 2, 0.1, 0.2).value == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert minimax_bound(40, 2, 0.1, 0.2).value == pytest.approx(0.6667, abs=5e-5)


def test_minimax_validation():
    with pytest.raises(ValueError):
        minimax_bound(10, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        minimax_bound(10, 1, 1.0, -0.1)
    with pytest.raises(ValueError):
        minimax_bound(0, 1, 1.0)


# ------------------------------------------------------- instance-optimal

def test_instance_optimal_saturated_head():
    # r_bar = full rank, all components above the noise level
    rep = instance_optimal_bound([4.0, 3.0], 5, 0.2, r_bar=2)
    assert rep.value == pytest.approx(2 * 5 * 0.04, rel=1e-12)


def test_instance_optimal_zero_noise_keeps_tail():
    rep = instance_optimal_bound([4.0, 2.0, 1.0, 0.5], 30, 0.0, r_bar=2)
    assert rep.value == pytest.approx(1.0 + 0.25, rel=1e-12)


def test_instance_optimal_geometric_case():
    sigmas = geometric_spectrum(8, 1.0, 0.8)
    n, sigma, r_bar = 50, 0.01, 5
    expected = sum(min(s * s, n * sigma ** 2) for s in sigmas[:r_bar]) \
        + sum(s * s for s in sigmas[r_bar:])
    rep = instance_optimal_bound(sigmas, n, sigma, r_bar)
    assert rep.value == pytest.approx(expected, rel=1e-12)


def test_instance_optimal_r_bar_range():
    instance_optimal_bound([1.0], 5, 0.1, r_bar=0)   # pure tail is allowed
    with pytest.raises(ValueError):
        instance_optimal_bound([1.0, 0.5], 5, 0.1, r_bar=3)
    with pytest.raises(ValueError):
        instance_optimal_bound([1.0], 5, 0.1, r_bar=-1)


# ------------------------------------------------------------- stability

def test_stability_values():
    assert completion_stability_bound(10, 0.5, 0.0).value == 0.0
    assert completion_stability_bound(1, 1.0, 1.0).value == pytest.approx(
        4.0 * math.sqrt(3.0) + 2.0, rel=1e-14)
    rep = completion_stability_bound(50, 0.5, 0.1)
    assert rep.value == pytest.approx(0.4 * math.sqrt(250.0) + 0.2, rel=1e-14)
    assert rep.value == pytest.approx(6.525, abs=5e-4)


def test_stability_validation():
    with pytest.raises(ValueError):
        completion_stability_bound(10, 0.0, 0.1)
    with pytest.raises(ValueError):
        completion_stability_bound(10, 1.2, 0.1)
    with pytest.raises(ValueError):
        completion_stability_bound(10, 0.5, -0.1)


# ---------------------------------------------------- noisy spectral bound

def test_optspace_noisy_factors_cancel():
    rep = optspace_noisy_bound(13, 169, 1, 1.0, 0.37)
    assert rep.value == pytest.approx(0.37, rel=1e-15)


def test_optspace_noisy_kappa_scaling():
    base = optspace_noisy_bound(20, 100, 2, 1.0, 0.1).value
    assert optspace_noisy_bound(20, 100, 2, 2.0, 0.1).value \
        == pytest.approx(4.0 * base, rel=1e-14)


def test_optspace_noisy_with_gaussian_helper():
    n, m, r, sigma = 50, 1250, 2, 1e-3
    helper = gaussian_noise_opnorm(n, m, sigma)
    assert helper == pytest.approx(math.sqrt(m * math.log(n) / n) * sigma, rel=1e-14)
    rep = optspace_noisy_bound(n, m, r, 1.0, helper)
    assert rep.value == pytest.approx((n * n * math.sqrt(r) / m) * helper, rel=1e-14)


def test_gaussian_helper_tracks_empirical_opnorm():
    # the closed form should sit in the bulk of the measured distribution
    from lowrankrec.measure import sample_omega

    n, m, sigma = 50, 1250, 1e-3
    helper = gaussian_noise_opnorm(n, m, sigma)
    ops = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        omega = sample_omega(n, n, m, seed=seed)
        z = np.zeros((n, n))
        z[omega.pairs[:, 0], omega.pairs[:, 1]] = sigma * rng.standard_normal(m)
        ops.append(np.linalg.svd(z, compute_uv=False)[0])
    assert 0.8 <= np.median(ops) / helper <= 1.25


def test_optspace_noisy_validation():
    with pytest.raises(ValueError):
        optspace_noisy_bound(10, 50, 1, 0.5, 0.1)
    with pytest.raises(ValueError):
        optspace_noisy_bound(10, 50, 1, 1.0, -0.1)
    with pytest.raises(ValueError):
        gaussian_noise_opnorm(1, 50, 0.1)
    with pytest.raises(ValueError):
        gaussian_noise_opnorm(10, 50, -0.1)


# Two numeric inputs of each bound, each set non-finite in turn: the spectrum,
# the noise level, a dimension, the radius, kappa or the noise norm
BOUND_CALLS = {
    "ideal": (lambda bad: ideal_risk((1.0, bad), 10, 0.1),
              lambda bad: ideal_risk((1.0, 0.5), 10, bad)),
    "minimax": (lambda bad: minimax_bound(10, 2, bad),
                lambda bad: minimax_bound(bad, 2, 0.1)),
    "instance": (lambda bad: instance_optimal_bound((1.0, bad), 10, 0.1, 1),
                 lambda bad: instance_optimal_bound((1.0, 0.5), 10, bad, 1)),
    "stable": (lambda bad: completion_stability_bound(10, 0.5, bad),
               lambda bad: completion_stability_bound(bad, 0.5, 0.1)),
    "optspace": (lambda bad: optspace_noisy_bound(10, 50, 1, bad, 0.1),
                 lambda bad: optspace_noisy_bound(10, 50, 1, 1.0, bad)),
    "noise-opnorm": (lambda bad: gaussian_noise_opnorm(10, 50, bad),
                     lambda bad: gaussian_noise_opnorm(10, bad, 0.1)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("bound", sorted(BOUND_CALLS))
def test_bounds_reject_non_finite_inputs(bound, bad):
    # a non-finite input would give a NaN or infinite value, which JSON
    # cannot carry
    for call in BOUND_CALLS[bound]:
        with pytest.raises(ValueError, match="finite"):
            call(bad)


# every function of the noise level, each at sigma = -1
NOISE_LEVEL_CALLS = {
    "ideal": lambda sigma: ideal_risk((1.0, 0.5), 10, sigma),
    "scan": lambda sigma: oracle_risk_scan((1.0, 0.5), 10, sigma),
    "minimax": lambda sigma: minimax_bound(10, 2, sigma),
    "instance": lambda sigma: instance_optimal_bound((1.0, 0.5), 10, sigma, 1),
    "noise-opnorm": lambda sigma: gaussian_noise_opnorm(10, 50, sigma),
}


@pytest.mark.parametrize("call", NOISE_LEVEL_CALLS.values(), ids=NOISE_LEVEL_CALLS.keys())
def test_bounds_reject_a_negative_noise_level(call):
    # each squares sigma, so a negative one would read as its absolute value
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        call(-1.0)
    call(0.0)


@pytest.mark.parametrize("call, named", [
    (lambda: minimax_bound(10, 2, 1e200), "minimax is not finite at n=10, r=2"),
    (lambda: ideal_risk([1e200, 1.0], 10, 1e200), "ideal-risk is not finite at n=10"),
    (lambda: instance_optimal_bound([1e200], 10, 1.0, 0),
     "instance-optimal is not finite at n=10"),
    (lambda: completion_stability_bound(10, 0.5, 1e307),
     "completion-stability is not finite at n=10, p=0.5"),
    (lambda: optspace_noisy_bound(10, 5, 1, 1e200, 1.0),
     "optspace-noisy is not finite at n=10, m=5, r=1"),
    (lambda: gaussian_noise_opnorm(10, 10 ** 6, 1e308), "gaussian noise opnorm"),
    (lambda: oracle_risk_scan([1e200], 10, 1e200), "oracle risk is not finite"),
], ids=["minimax", "ideal", "instance", "stable", "optspace", "noise-opnorm",
        "risk-scan"])
def test_bounds_reject_a_value_past_the_largest_float(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_overflowing_noise_term_leaves_a_finite_bound():
    # n sigma^2 overflows, yet min(s_i^2, n sigma^2) keeps every s_i^2
    assert ideal_risk([1.0, 1.0], 10, 1e200).value == 1.0
    assert instance_optimal_bound([2.0, 1.0], 10, 1e200, 1).value == 5.0
    assert oracle_risk_scan([2.0, 1.0], 10, 1e200) == (0, 5.0)


# ------------------------------------------------------ report invariants

@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=20)
def test_bounds_nonnegative_and_finite(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 100))
    r = int(rng.integers(1, 6))
    sigma = float(rng.uniform(0, 2))
    s = np.sort(rng.uniform(0, 5, size=6))[::-1]
    reports = [
        ideal_risk(s, n, sigma),
        minimax_bound(n, r, sigma, float(rng.uniform(0, 0.9))),
        instance_optimal_bound(s, n, sigma, int(rng.integers(0, 7))),
        completion_stability_bound(n, float(rng.uniform(0.05, 1.0)),
                                   float(rng.uniform(0, 3))),
        optspace_noisy_bound(n, int(rng.integers(1, n * n + 1)), r,
                             float(rng.uniform(1, 30)), sigma),
    ]
    for rep in reports:
        assert isinstance(rep, BoundReport)
        assert rep.value >= 0.0
        assert math.isfinite(rep.value)
        assert rep.up_to_constants


def test_bounds_monotone_in_noise_and_dimension():
    s = (3.0, 1.0, 0.3)
    sigmas = np.linspace(0.0, 1.5, 12)
    for lo, hi in zip(sigmas, sigmas[1:]):
        assert ideal_risk(s, 30, lo).value <= ideal_risk(s, 30, hi).value
        assert minimax_bound(30, 2, lo).value <= minimax_bound(30, 2, hi).value
        assert instance_optimal_bound(s, 30, lo, 2).value \
            <= instance_optimal_bound(s, 30, hi, 2).value
    for n_lo, n_hi in [(5, 10), (10, 40), (40, 200)]:
        assert minimax_bound(n_lo, 2, 0.3).value <= minimax_bound(n_hi, 2, 0.3).value
        assert completion_stability_bound(n_lo, 0.4, 0.2).value \
            <= completion_stability_bound(n_hi, 0.4, 0.2).value
        assert ideal_risk(s, n_lo, 0.3).value <= ideal_risk(s, n_hi, 0.3).value
