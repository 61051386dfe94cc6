"""Tests for the trim / spectral-init / alternating-least-squares completion
pipeline."""

import functools
import importlib
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lowrankrec.matcore import LowRankSpec, equal_spectrum, gen_low_rank, nuclear_norm
from lowrankrec.measure import (
    NoiseModel,
    ObservationSet,
    add_noise,
    project_omega,
    sample_omega,
)
from lowrankrec.optspace import (
    GRAD_TOL,
    REFINE_RTOL,
    OptspaceConfig,
    OptspaceState,
    _Omega,
    _fit,
    _gradient,
    _half_sweep,
    estimate_rank,
    optspace,
    optspace_descent,
    spectral_init,
    trim,
)
from lowrankrec.oracle import optspace_noisy_bound

from oracles import half_sweep_all_eigenvalues

optspace_mod = importlib.import_module("lowrankrec.optspace")


def rand_low_rank(n, r, seed, spectrum=None):
    spec = LowRankSpec(n, n, r, spectrum or equal_spectrum(r, 1.0),
                       "random-orthogonal", seed)
    truth, factors = gen_low_rank(spec)
    return truth, factors


def completion_instance(n, r, m, seed, spectrum=None):
    truth, factors = rand_low_rank(n, r, seed, spectrum)
    omega = sample_omega(n, n, m, seed=1000 + seed)
    return truth, factors, omega, project_omega(omega, truth)


def rel_err(est, truth):
    return np.linalg.norm(est - truth) / np.linalg.norm(truth)


# ---------------------------------------------------------------- trim

def test_trim_uniform_degrees_unchanged():
    # every row and column observed exactly twice: nobody is over the cap
    n = 6
    pairs = [(i, j) for i in range(n) for j in ((i) % n, (i + 1) % n)]
    omega = ObservationSet(n, n, np.array(pairs))
    y = np.arange(36, dtype=float).reshape(6, 6)
    yo = project_omega(omega, y)
    tm, tom = trim(yo, omega)
    assert tom.m == omega.m
    np.testing.assert_array_equal(tm, yo)


def test_trim_without_removal_returns_the_given_omega():
    # nobody over the cap: the given Omega comes back itself, not a rebuilt
    # copy, with the data projected onto it
    n = 6
    pairs = [(i, j) for i in range(n) for j in ((i) % n, (i + 1) % n)]
    omega = ObservationSet(n, n, np.array(pairs))
    y = np.arange(1.0, 37.0).reshape(6, 6)
    tm, tom = trim(y, omega)
    assert tom is omega
    np.testing.assert_array_equal(tm, project_omega(omega, y))


def test_trim_zeroes_fully_observed_row():
    # one row holding a third of all observations while the average row
    # degree is 3: degree 30 > 2 * 90/30, so the whole row goes
    n = 30
    pairs = [(0, j) for j in range(n)]
    for i in range(1, 29):
        pairs.append((i, (2 * i) % n))
        pairs.append((i, (2 * i + 1) % n))
    pairs += [(29, 5), (29, 17), (29, 24), (29, 11)]
    assert len(pairs) == 90
    omega = ObservationSet(n, n, np.array(pairs))
    y = np.ones((n, n))
    tm, tom = trim(project_omega(omega, y), omega)
    assert tom is not omega and tom.m == 60
    assert not tm[0].any()           # the greedy row is gone
    assert tm[1:].any()              # everyone else survived
    assert not (tom.pairs[:, 0] == 0).any()


def test_trim_cap_is_twice_the_mean_degree():
    # TRIM_MULTIPLIER m / n: a row at the cap stays, one entry past it goes
    n = 10
    pairs = [(0, j) for j in range(4)]
    for i in range(1, 9):
        pairs += [(i, (2 * i) % n), (i, (2 * i + 1) % n)]
    assert optspace_mod.TRIM_MULTIPLIER * len(pairs) / n == 4   # row 0's degree
    omega = ObservationSet(n, n, np.array(pairs))
    assert trim(np.ones((n, n)), omega)[1] is omega
    omega = ObservationSet(n, n, np.array(pairs + [(0, 4)]))    # 5 > 4.2
    tm, tom = trim(np.ones((n, n)), omega)
    assert tom.m == 16 and not tm[0].any()


def test_trim_empty_unchanged():
    omega = ObservationSet(4, 4, np.empty((0, 2), dtype=int))
    y = np.zeros((4, 4))
    tm, tom = trim(y, omega)
    assert tom.m == 0
    np.testing.assert_array_equal(tm, y)


def test_trim_idempotent():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n1, n2 = 12, 9
        m = int(rng.integers(5, 60))
        flat = rng.choice(n1 * n2, size=m, replace=False)
        omega = ObservationSet(n1, n2, np.stack([flat // n2, flat % n2], axis=1))
        y = project_omega(omega, rng.normal(size=(n1, n2)))
        t1, o1 = trim(y, omega)
        t2, o2 = trim(t1, o1)
        np.testing.assert_array_equal(t1, t2)
        assert o1.m == o2.m
        assert np.array_equal(np.sort(o1.pairs, axis=0), np.sort(o2.pairs, axis=0))


def test_trim_rejects_bad_inputs():
    omega = ObservationSet(3, 3, np.array([[0, 0]]))
    with pytest.raises(ValueError):
        trim(np.zeros((2, 3)), omega)


# ------------------------------------------------------- spectral_init

def test_spectral_init_exact_at_full_observation():
    truth, _ = rand_low_rank(12, 3, seed=0)
    pairs = np.array([(i, j) for i in range(12) for j in range(12)])
    omega = ObservationSet(12, 12, pairs)
    state = spectral_init(truth, omega, 3)
    assert np.linalg.norm(state.estimate() - truth) <= 1e-9
    assert state.iteration == 0


def test_spectral_init_rank_one_truncation():
    omega = ObservationSet(2, 2, np.array([(0, 0), (0, 1), (1, 0), (1, 1)]))
    state = spectral_init(np.diag([3.0, 1.0]), omega, 1)
    np.testing.assert_allclose(state.estimate(), np.diag([3.0, 0.0]), atol=1e-12)


def test_spectral_init_rank_error_names_achievable_rank():
    omega = ObservationSet(4, 4, np.array([(i, j) for i in range(4) for j in range(4)]))
    y = np.outer(np.arange(1.0, 5.0), np.ones(4))   # rank 1
    with pytest.raises(ValueError, match="achievable rank 1"):
        spectral_init(y, omega, 3)


def test_spectral_init_validation():
    omega = ObservationSet(3, 3, np.empty((0, 2), dtype=int))
    with pytest.raises(ValueError):
        spectral_init(np.zeros((3, 3)), omega, 1)
    full = ObservationSet(3, 3, np.array([(i, j) for i in range(3) for j in range(3)]))
    with pytest.raises(ValueError):
        spectral_init(np.eye(3), full, 0)
    with pytest.raises(ValueError):
        spectral_init(np.eye(3), full, 4)


def test_spectral_init_is_a_usable_warm_start():
    # At 30% sampling the truncated rescaled SVD is a coarse estimate: the
    # error sits well below a cold start (relative error 1) but far from
    # recovery -- even the best middle factor for these subspaces cannot do
    # better than ~0.55 here.  What matters is that descent started from it
    # converges, which the pipeline tests check end to end.
    errs = []
    for seed in range(20):
        truth, _, omega, yobs = completion_instance(40, 2, 480, seed)
        tm, tom = trim(yobs, omega)
        state = spectral_init(tm, tom, 2)
        errs.append(rel_err(state.estimate(), truth))
    assert np.median(errs) <= 0.9
    assert max(errs) < 1.05


def test_spectral_init_objective_is_the_fit_on_the_trimmed_entries():
    _, _, omega, yobs = completion_instance(40, 2, 480, 3)
    tm, tom = trim(yobs, omega)
    state = spectral_init(tm, tom, 2)
    om = _Omega(tom, tm[tom.pairs[:, 0], tom.pairs[:, 1]], dense=False)
    sv = np.diag(state.s)
    assert state.objective == _fit(state.u * sv, state.v, om)[0]


def test_spectral_start_from_top_svd_matches_the_full_svd(monkeypatch):
    # the benchmark's completion size, n = 300, p = 0.3, kappa = 10: the
    # descent from the kernel's start takes the same sweeps to the same
    # estimate as from the full SVD's leading part
    n, r, m = 300, 3, 27_000
    spec = LowRankSpec(n, n, r, (10.0, 10.0 ** 0.5, 1.0), "random-orthogonal", 41)
    truth, _ = gen_low_rank(spec)
    omega = sample_omega(n, n, m, seed=42)
    y = add_noise(truth[omega.pairs[:, 0], omega.pairs[:, 1]], NoiseModel(1e-3, 43))
    yobs = np.zeros((n, n))
    yobs[omega.pairs[:, 0], omega.pairs[:, 1]] = y
    kernel = optspace(yobs, omega, r=r)

    def full_svd(a, k):
        u, sv, vt = np.linalg.svd(a, full_matrices=False)
        return u[:, :k], sv[:k], vt[:k]
    monkeypatch.setattr(optspace_mod, "top_svd", full_svd)
    full = optspace(yobs, omega, r=r)
    assert kernel.iterations == full.iterations
    assert (np.linalg.norm(kernel.estimate - full.estimate)
            <= 1e-12 * np.linalg.norm(full.estimate))


# ------------------------------------------------------------- descent

def test_descent_from_true_factors_returns_immediately():
    truth, factors, omega, yobs = completion_instance(20, 2, 240, seed=9,
                                                      spectrum=equal_spectrum(2, 2.0))
    state = OptspaceState(u=factors.u, s=np.diag(factors.sigma), v=factors.v,
                          objective=0.0, iteration=0)
    out = optspace_descent(state, yobs, omega)
    assert out.objective <= 1e-18
    assert out.iteration == 0          # gradient test fires before any step
    assert rel_err(out.estimate(), truth) <= 1e-9


def test_descent_recovers_after_spectral_start():
    hits = 0
    for seed in range(8):
        truth, _, omega, yobs = completion_instance(40, 2, 480, seed)
        tm, tom = trim(yobs, omega)
        state = optspace_descent(spectral_init(tm, tom, 2), yobs, omega)
        hits += rel_err(state.estimate(), truth) <= 1e-4
    assert hits >= 7


def test_descent_objective_history_nonincreasing():
    _, _, omega, yobs = completion_instance(25, 2, 250, seed=3)
    tm, tom = trim(yobs, omega)
    out = optspace_descent(spectral_init(tm, tom, 2), yobs, omega)
    hist = np.array(out.history)
    assert hist.shape[0] >= 2
    assert (np.diff(hist) <= 1e-12).all()


def test_descent_factors_orthonormal_after_every_iteration():
    # replay the same deterministic descent truncated at every prefix length
    # and check the factor Grams at each stopping point
    _, _, omega, yobs = completion_instance(20, 2, 200, seed=11)
    tm, tom = trim(yobs, omega)
    init = spectral_init(tm, tom, 2)
    full = optspace_descent(init, yobs, omega)
    for k in range(1, min(full.iteration, 8) + 1):
        out = optspace_descent(init, yobs, omega, OptspaceConfig(max_iters=k))
        for w in (out.u, out.v):
            assert np.abs(w.T @ w - np.eye(2)).max() <= 1e-8


def test_descent_rejects_empty_omega():
    empty = ObservationSet(3, 3, np.empty((0, 2), dtype=int))
    state = OptspaceState(u=np.eye(3)[:, :1], s=np.eye(1), v=np.eye(3)[:, :1],
                          objective=0.0, iteration=0)
    with pytest.raises(ValueError):
        optspace_descent(state, np.zeros((3, 3)), empty)


def test_optspace_rejects_empty_omega():
    # an empty Omega defines no measurement operator to report against
    empty = ObservationSet(3, 3, np.empty((0, 2), dtype=int))
    with pytest.raises(ValueError, match="m must be positive"):
        optspace(np.zeros((3, 3)), empty, r=1)


# ------------------------------------------------------------ gradient

def dense_inner_s(u, v, y_obs, omega):
    """Reference inner fit F(U, V) = min_S 1/2 ||P_Omega(U S V^T - Y)||_F^2 on
    the explicit m x r^2 design: (F(U, V), S), S the minimum-norm lstsq
    solution."""
    pairs = omega.pairs
    r = u.shape[1]
    design = (u[pairs[:, 0], :, None] * v[pairs[:, 1], None, :]).reshape(-1, r * r)
    target = y_obs[pairs[:, 0], pairs[:, 1]]
    svec = np.linalg.lstsq(design, target, rcond=None)[0]
    fit = design @ svec - target
    return 0.5 * float(fit @ fit), svec.reshape(r, r)


def dense_gradient(u, s, v, y_obs, omega):
    """Reference: gradients in U and V of 1/2 ||P_Omega(U S V^T - Y)||_F^2
    from the dense residual R = P_Omega(U S V^T - Y), as R V S^T and R^T U S."""
    resid = project_omega(omega, u @ s @ v.T - y_obs)
    return resid @ (v @ s.T), resid.T @ (u @ s)


def on_omega(u, s, v, y_obs, omega):
    rows, cols = omega.pairs[:, 0], omega.pairs[:, 1]
    return ((u[rows] @ s) * v[cols]).sum(axis=1) - y_obs[rows, cols]


@given(n1=st.integers(3, 14), n2=st.integers(3, 14), r=st.integers(1, 3),
       density=st.floats(0.15, 1.0), empty_rows=st.integers(0, 2),
       empty_cols=st.integers(0, 2), seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_inner_s_and_gradient_match_dense_reference(n1, n2, r, density, empty_rows,
                                                    empty_cols, seed):
    # the fit and the gradients in U and V at an arbitrary S on rectangular
    # Omegas with whole rows and columns unobserved, as trim leaves them
    # before spectral_init, in both layouts; empty groups must get zero
    # gradient, and the dense residual is zero off Omega
    rng = np.random.default_rng(seed)
    mask = rng.random((n1, n2)) < density
    mask[rng.choice(n1, size=empty_rows, replace=False)] = False
    mask[:, rng.choice(n2, size=empty_cols, replace=False)] = False
    mask[n1 - 1, n2 - 1] = True
    omega = ObservationSet(n1, n2, np.argwhere(mask))
    y = project_omega(omega, rng.normal(size=(n1, n2)))
    u = np.linalg.qr(rng.normal(size=(n1, r)))[0]
    v = np.linalg.qr(rng.normal(size=(n2, r)))[0]
    s = rng.normal(size=(r, r))
    ref_resid = on_omega(u, s, v, y, omega)
    ref_gu, ref_gv = dense_gradient(u, s, v, y, omega)
    rows, cols = omega.pairs[:, 0], omega.pairs[:, 1]
    for dense in (False, True):
        om = _Omega(omega, y[rows, cols], dense=dense)
        fit, resid = _fit(u @ s, v, om)
        if dense:
            assert not resid[~mask].any()
            resid_on = resid[rows, cols]
        else:
            resid_on = resid
        np.testing.assert_allclose(resid_on, ref_resid, atol=1e-12)
        assert fit == pytest.approx(0.5 * float(ref_resid @ ref_resid), rel=1e-10)
        gu, gv, gnorm2 = _gradient(u, s, v, resid, om)
        np.testing.assert_allclose(gu, ref_gu, atol=1e-12)
        np.testing.assert_allclose(gv, ref_gv, atol=1e-12)
        assert gnorm2 == pytest.approx(
            float((ref_gu ** 2).sum() + (ref_gv ** 2).sum()), rel=1e-10)


# ------------------------------------------------------------ half-sweep

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fit_equals_gather_and_sum_bit_for_bit(k):
    # the grouped layout's fit, entry by entry in Omega's order
    rng = np.random.default_rng(k)
    omega = sample_omega(50, 40, 700, seed=k)
    rows, cols = omega.pairs[:, 0], omega.pairs[:, 1]
    l, r, y = rng.normal(size=(50, k)), rng.normal(size=(40, k)), rng.normal(size=700)
    resid = (l[rows] * r[cols]).sum(axis=1) - y
    fit, got = _fit(l, r, _Omega(omega, y, dense=False))
    assert np.array_equal(got, resid)
    assert fit == 0.5 * float(resid @ resid)


def dense_half_sweep(fixed, y, mask):
    """Reference: row i of the factor is the minimum-norm lstsq fit of y's
    observed entries in row i on the matching rows of ``fixed``; rows
    without entries are zero."""
    out = np.zeros((mask.shape[0], fixed.shape[1]))
    for i in np.flatnonzero(mask.any(axis=1)):
        out[i] = np.linalg.lstsq(fixed[mask[i]], y[i, mask[i]], rcond=None)[0]
    return out


@given(n1=st.integers(3, 14), n2=st.integers(3, 14), k=st.integers(1, 3),
       density=st.floats(0.15, 1.0), empty_rows=st.integers(0, 2),
       empty_cols=st.integers(0, 2), sparse_rows=st.integers(0, 2),
       seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
# a square 3 x 3 design of condition 4.9e3, whose normal equations alone
# miss the exact fit by 1e-9
@example(n1=4, n2=7, k=3, density=0.3125, empty_rows=2, empty_cols=0, sparse_rows=0,
         seed=8841)
def test_half_sweeps_match_dense_reference(n1, n2, k, density, empty_rows, empty_cols,
                                           sparse_rows, seed):
    # both half-sweeps, in both layouts, of a rectangular Omega with empty
    # rows and columns, which stay zero, and rows holding fewer than k
    # entries, whose systems are singular: those get the minimum-norm fit
    # and raise the flag
    rng = np.random.default_rng(seed)
    mask = rng.random((n1, n2)) < density
    mask[rng.choice(n1, size=empty_rows, replace=False)] = False
    mask[:, rng.choice(n2, size=empty_cols, replace=False)] = False
    for i in rng.choice(n1, size=sparse_rows, replace=False):
        mask[i] = False
        mask[i, rng.choice(n2, size=k - 1, replace=False)] = True
    mask[n1 - 1, n2 - 1] = True
    omega = ObservationSet(n1, n2, np.argwhere(mask))
    y = project_omega(omega, rng.normal(size=(n1, n2)))
    lf = rng.normal(size=(n1, k))
    rf = rng.normal(size=(n2, k))
    sides = []
    for dense in (False, True):
        om = _Omega(omega, y[omega.pairs[:, 0], omega.pairs[:, 1]], dense=dense)
        sides += [(_half_sweep(rf, om, 0), rf, y, mask),
                  (_half_sweep(lf, om, 1), lf, y.T, mask.T)]
    for (got, deficient), fixed, target, side_mask in sides:
        ref = dense_half_sweep(fixed, target, side_mask)
        counts = side_mask.sum(axis=1)
        assert not got[counts == 0].any()
        if ((counts > 0) & (counts < k)).any():
            assert deficient
        for i in np.flatnonzero(counts):
            design = fixed[side_mask[i]]
            fit = np.linalg.norm(design @ got[i] - target[i, side_mask[i]])
            ref_fit = np.linalg.norm(design @ ref[i] - target[i, side_mask[i]])
            assert fit <= ref_fit * (1 + 1e-6) + 1e-9
            if counts[i] < k or np.linalg.cond(design) < 1e4:
                # singular: the minimum-norm fit; well conditioned: the fit
                np.testing.assert_allclose(got[i], ref[i], rtol=1e-6, atol=1e-8)


# (id, the last system's eigenvalue ratio, or None for one entry, fewer than
# k = 2; deficient; refined; the screen clears every system)
SCREEN_CASES = [
    ("well-conditioned", 0.5, False, False, True),
    ("above-refine", 1.5 * REFINE_RTOL, False, False, False),
    ("below-refine", 0.5 * REFINE_RTOL, False, True, False),
    ("above-deficient", 1e-11, False, True, False),
    ("below-deficient", 1e-13, True, True, False),
    ("fewer-than-k", None, True, True, False),
]


def screen_instance(ratio):
    """(groups, F) for k = 2: system i of a half-sweep sums f_j f_j^T over
    the fixed rows j in groups[i], F holding the f_j.  Four well-conditioned
    systems, an empty one, and a last one at about ``ratio``: f_0 = (1, 0)
    and f_4 = (1, d) give [[2, d], [d, d^2]], of eigenvalue ratio about
    d^2 / 4; with ratio None the last system holds one entry."""
    d = 2.0 * math.sqrt(ratio or 1.0)
    fixed = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [0.0, 1.0], [1.0, d]])
    last = [1] if ratio is None else [0, 4]
    return [[0, 1, 2], [1, 2, 3], [0, 3], [0, 1, 3], [], last], fixed


def k1_screen_instance(zero_gram):
    """(groups, F) for k = 1; with ``zero_gram`` the last system sums only
    the zero row of F, a 1 x 1 zero Gram, deficient but not refined (its
    eigenvalue ratio is 0 / 0)."""
    fixed = np.array([[1.0], [2.0], [-1.0], [0.0]])
    return [[0, 1], [1, 2], [0, 2, 3], [], [3] if zero_gram else [0, 1]], fixed


@pytest.mark.parametrize("dense", [False, True], ids=["grouped", "dense"])
@pytest.mark.parametrize("instance, deficient, refined, cleared", [
    *[pytest.param(screen_instance(ratio), *flags, id=name)
      for name, ratio, *flags in SCREEN_CASES],
    pytest.param(k1_screen_instance(False), False, False, True,
                 id="k1-well-conditioned"),
    pytest.param(k1_screen_instance(True), True, False, False, id="k1-zero-gram"),
])
def test_screened_half_sweep_decides_as_every_systems_eigenvalues(
        monkeypatch, instance, deficient, refined, cleared, dense):
    # systems on both sides of 1e-12 and REFINE_RTOL, some inside the
    # screen's band (2 REFINE_RTOL), on both layouts and both sides: the
    # screened half-sweep raises the same flag, refines alike and returns
    # the same bits as the sweep that takes every system's eigenvalues; a
    # sweep of well-conditioned systems takes none
    groups, fixed = instance
    design = np.zeros((len(groups), fixed.shape[0]), dtype=bool)
    for i, group in enumerate(groups):
        design[i, group] = True
    rng = np.random.default_rng(17)
    eigvalsh = np.linalg.eigvalsh
    for side, mask in ((0, design), (1, design.T)):
        omega = ObservationSet(*mask.shape, np.argwhere(mask))
        om = _Omega(omega, rng.normal(size=omega.m), dense=dense)
        ref, ref_deficient, ref_refined = half_sweep_all_eigenvalues(
            fixed, om, side, REFINE_RTOL)
        assert (ref_deficient, ref_refined) == (deficient, refined)
        residuals, eig_calls = [], []
        residual = om.residual   # called by the refinement step alone
        om.residual = lambda *a: residuals.append(1) or residual(*a)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", lambda a: eig_calls.append(1) or eigvalsh(a))
            got, got_deficient = _half_sweep(fixed, om, side)
        assert np.array_equal(got, ref)
        assert got_deficient == deficient
        assert bool(residuals) == refined
        assert bool(eig_calls) != cleared


def noisy_completion_120(kappa):
    """The 120 x 120 rank-3 instance at p = 0.3 and noise 1e-3, spectrum
    (kappa, sqrt kappa, 1): (observed data, Omega)."""
    n = 120
    spec = LowRankSpec(n, n, 3, (kappa, kappa ** 0.5, 1.0), "random-orthogonal", 61)
    truth, _ = gen_low_rank(spec)
    omega = sample_omega(n, n, int(0.3 * n * n), seed=62)
    yobs = project_omega(omega, truth)
    yobs[omega.pairs[:, 0], omega.pairs[:, 1]] += add_noise(np.zeros(omega.m),
                                                            NoiseModel(1e-3, seed=63))
    return yobs, omega


def test_well_conditioned_half_sweeps_take_no_eigenvalues(monkeypatch):
    # every system of every half-sweep clears the determinant screen here,
    # so the pipeline's one eigenvalue problem is the report's operator norm
    yobs, omega = noisy_completion_120(1.0)
    eigvalsh, callers = np.linalg.eigvalsh, []

    def counted(a):
        callers.append(sys._getframe(1).f_code.co_name)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rep = optspace(yobs, omega, r=3)
    assert rep.converged and rep.iterations >= 1
    assert callers == ["operator_norm"]


def test_rank_seed_is_the_same_on_both_layouts():
    # _top_pair's power iteration through either layout's E x and E^T x:
    # the same pair to rounding, near the top pair of (1/p) E
    rng = np.random.default_rng(5)
    n1, n2 = 40, 30
    omega = sample_omega(n1, n2, 500, seed=6)
    rows, cols = omega.pairs[:, 0], omega.pairs[:, 1]
    resid = rng.normal(size=omega.m)
    e = np.zeros((n1, n2))
    e[rows, cols] = resid
    pairs = [optspace_mod._top_pair(e if dense else resid,
                                    _Omega(omega, resid, dense=dense))
             for dense in (False, True)]
    (a, sigma, b), (a_d, sigma_d, b_d) = pairs
    assert a.shape == (n1,) and b.shape == (n2,)
    assert sigma == pytest.approx(sigma_d, rel=1e-12)
    np.testing.assert_allclose(a, a_d, atol=1e-10)
    np.testing.assert_allclose(b, b_d, atol=1e-10)
    assert sigma == pytest.approx(np.linalg.norm(e / omega.p, 2), rel=1e-3)


def test_layout_follows_the_observed_fraction():
    # Omega is laid out dense from DENSE_FRACTION of its entries on, grouped
    # below; the choice reads Omega alone
    n = 20
    at = math.ceil(optspace_mod.DENSE_FRACTION * n * n)
    for m, dense in ((1, False), (at - 1, False), (at, True), (n * n, True)):
        omega = sample_omega(n, n, m, seed=m)
        assert _Omega(omega, np.ones(m)).dense == dense, m


@pytest.mark.parametrize("kappa", [1.0, 10.0])
def test_layouts_take_the_same_sweeps_to_the_same_estimate(monkeypatch, kappa):
    # 120 x 120 at p = 0.3, rank 3, noise 1e-3: the whole pipeline on the
    # dense and on the grouped layout sweeps alike and agrees to rounding
    yobs, omega = noisy_completion_120(kappa)
    layout = optspace_mod._Omega
    reps = []
    for dense in (False, True):
        monkeypatch.setattr(optspace_mod, "_Omega",
                            functools.partial(layout, dense=dense))
        reps.append(optspace(yobs, omega, r=3))
    grouped, dense = reps
    assert grouped.converged and dense.converged
    assert grouped.iterations == dense.iterations >= 1
    assert (np.linalg.norm(dense.estimate - grouped.estimate)
            <= 1e-12 * np.linalg.norm(grouped.estimate))


def test_optspace_certifies_ill_conditioned_noisy_truth():
    # spectrum (10, sqrt 10, 1) at 30% sampling with noise 1e-3: the weakest
    # component is seeded from the residual once the stronger ones are fitted
    n, r = 80, 3
    spec = LowRankSpec(n, n, r, (10.0, 10.0 ** 0.5, 1.0), "random-orthogonal", 31)
    truth, _ = gen_low_rank(spec)
    omega = sample_omega(n, n, int(0.3 * n * n), seed=32)
    pairs = omega.pairs
    yobs = project_omega(omega, truth)
    yobs[pairs[:, 0], pairs[:, 1]] += add_noise(np.zeros(omega.m),
                                                NoiseModel(1e-3, seed=33))
    rep = optspace(yobs, omega, r=r)
    assert rep.converged
    assert "iteration-cap" not in rep.flags
    assert rep.iterations < OptspaceConfig().max_iters
    assert rel_err(rep.estimate, truth) <= 0.02


# -------------------------------------------------------- estimate_rank

def test_estimate_rank_clean_gap():
    y = np.diag([3.0, 2.0, 0.0, 0.0, 0.0])
    assert estimate_rank(y, 1.0) == 2


def test_estimate_rank_prefers_largest_ratio():
    # consecutive ratios 10/9, 9/0.1, 0.1/0.09 -- the middle gap wins
    y = np.diag([10.0, 9.0, 0.1, 0.09])
    assert estimate_rank(y, 1.0) == 2


def test_estimate_rank_rank_one():
    y = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    assert estimate_rank(y, 1.0) == 1


def test_estimate_rank_rejects_zero_matrix_and_bad_p():
    with pytest.raises(ValueError):
        estimate_rank(np.zeros((3, 3)), 0.5)
    with pytest.raises(ValueError):
        estimate_rank(np.eye(3), 0.0)
    with pytest.raises(ValueError):
        estimate_rank(np.eye(3), 1.5)


# ------------------------------------------------------------- pipeline

def test_optspace_pipeline_recovers_noiseless():
    hits = 0
    for seed in range(8):
        truth, _, omega, yobs = completion_instance(40, 2, 480, seed)
        rep = optspace(yobs, omega, r=2)
        if rep.converged and rel_err(rep.estimate, truth) <= 1e-3:
            hits += 1
    assert hits >= 7


def test_optspace_report_contract():
    truth, _, omega, yobs = completion_instance(30, 2, 360, seed=1)
    rep = optspace(yobs, omega, r=2)
    svals = np.linalg.svd(rep.estimate, compute_uv=False)
    assert rep.objective == pytest.approx(svals.sum(), rel=1e-10)
    resid = rep.estimate[omega.pairs[:, 0], omega.pairs[:, 1]] \
        - yobs[omega.pairs[:, 0], omega.pairs[:, 1]]
    assert rep.equality_residual == pytest.approx(np.linalg.norm(resid), abs=1e-12)
    dual = np.linalg.svd(project_omega(omega, rep.estimate - yobs), compute_uv=False)[0]
    assert rep.dual_residual == pytest.approx(dual, rel=1e-12)
    assert rep.tau_path == ()
    assert rep.iterations >= 1


def test_optspace_verdict_does_not_depend_on_scale():
    # F and its gradient scale as the data squared: an absolute gradient
    # test passed at once on data scaled by 1e-4 (converged at iteration 0,
    # rel_err 0.5); relative to ||P_Omega(Y)||^2 the run is certified or capped
    truth, _, omega, _ = completion_instance(40, 2, 640, seed=1)
    cfg = OptspaceConfig(max_iters=200)
    for scale in (1e-4, 1.0, 1e4):
        rep = optspace(project_omega(omega, scale * truth), omega, r=2, config=cfg)
        if rep.converged:
            assert rel_err(rep.estimate, scale * truth) <= 1e-6
        else:
            assert "iteration-cap" in rep.flags
        if scale >= 1.0:   # these certify well within the budget
            assert rep.converged


def test_optspace_inner_rank_deficient_is_flagged():
    # three observed diagonal entries of a rank-3 truth, fitted at rank 2:
    # each row and column holds one entry, fewer than the rank, so the
    # half-sweeps' systems are singular; a rank-2 matrix still matches all
    # three entries, and the certificate must not stop short of that fit
    truth = np.diag([3.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    omega = ObservationSet(6, 6, np.array([(0, 0), (1, 1), (2, 2)]))
    rep = optspace(project_omega(omega, truth), omega, r=2)
    assert rep.flags == ("inner-rank-deficient",)
    assert rep.equality_residual <= 1e-12 * np.linalg.norm([3.0, 2.0, 1.0])
    assert rep.iterations >= 1


def noisy_rank2_instance(n1, n2, m, kappa):
    spec = LowRankSpec(n1, n2, 2, (kappa, 1.0), "random-orthogonal", 21)
    truth, _ = gen_low_rank(spec)
    omega = sample_omega(n1, n2, m, seed=22)
    pairs = omega.pairs
    yobs = project_omega(omega, truth)
    yobs[pairs[:, 0], pairs[:, 1]] += add_noise(np.zeros(m), NoiseModel(1e-3, seed=23))
    return omega, yobs


FINAL_STATES = [
    (36, 24, 430, 1.0, 500),    # rectangular, stops on the gradient test
    (30, 30, 360, 10.0, 15),    # ill-conditioned, stops at the iteration cap
]


@pytest.mark.parametrize("n1, n2, m, kappa, max_iters", FINAL_STATES)
def test_optspace_report_from_final_state(n1, n2, m, kappa, max_iters):
    # the report's objective is ||S||_* and its converged flag the descent's
    # own gradient norm; both must agree with dense recomputations
    omega, yobs = noisy_rank2_instance(n1, n2, m, kappa)
    cfg = OptspaceConfig(max_iters=max_iters)
    rep = optspace(yobs, omega, r=2, config=cfg)

    tm, tom = trim(yobs, omega)
    state = optspace_descent(spectral_init(tm, tom, 2), yobs, omega, cfg)
    np.testing.assert_array_equal(rep.estimate, state.estimate())
    assert rep.objective == pytest.approx(nuclear_norm(rep.estimate), rel=1e-10)
    gu, gv = dense_gradient(state.u, state.s, state.v, yobs, omega)
    dense_norm = np.sqrt((gu ** 2).sum() + (gv ** 2).sum())
    assert state.grad_norm == pytest.approx(dense_norm, rel=1e-6)
    assert rep.converged == (dense_norm <= GRAD_TOL * (yobs ** 2).sum())
    if max_iters < 500:
        assert rep.iterations == max_iters and not rep.converged
        assert "iteration-cap" in rep.flags
    else:
        assert rep.iterations < max_iters and rep.converged
        assert "iteration-cap" not in rep.flags


@pytest.mark.parametrize("n1, n2, m, kappa, max_iters", FINAL_STATES + [
    (30, 30, 360, 10.0, 500),   # ill-conditioned, stops on the gradient test
])
def test_descent_state_is_the_inner_fit(n1, n2, m, kappa, max_iters):
    # after a sweep the rebalanced S is the inner least-squares fit at (U, V),
    # so the state's objective is F(U, V), and the plain gradient in U and V
    # is already tangent to the frames
    omega, yobs = noisy_rank2_instance(n1, n2, m, kappa)
    tm, tom = trim(yobs, omega)
    state = optspace_descent(spectral_init(tm, tom, 2), yobs, omega,
                             OptspaceConfig(max_iters=max_iters))
    ref_obj, ref_s = dense_inner_s(state.u, state.v, yobs, omega)
    assert np.linalg.norm(state.s - ref_s) <= 1e-8 * np.linalg.norm(ref_s)
    assert state.objective == pytest.approx(ref_obj, rel=1e-10)

    off_tangent = 0.0
    for w, g in zip((state.u, state.v),
                    dense_gradient(state.u, state.s, state.v, yobs, omega)):
        wg = w.T @ g
        off_tangent += (np.linalg.norm(w @ ((wg + wg.T) / 2)) ** 2)
    assert np.sqrt(off_tangent) <= 1e-12 * (yobs ** 2).sum()


@pytest.mark.parametrize("s", [np.zeros((2, 2)), np.diag([2.0, 0.0])])
def test_descent_rejects_singular_s(s):
    # at S = 0 every gradient in U and V vanishes, fitted or not
    _, factors, omega, yobs = completion_instance(20, 2, 240, seed=9)
    state = OptspaceState(u=factors.u, s=s, v=factors.v, objective=0.0, iteration=0)
    with pytest.raises(ValueError, match="singular"):
        optspace_descent(state, yobs, omega)


def test_optspace_estimates_rank_when_absent():
    # the consecutive-gap rule needs the sampling tail well below the signal
    # gap, so the inferred-rank path is exercised densely observed; at half
    # observation the tail ratios win and the rule is not usable
    truth, _ = rand_low_rank(12, 2, seed=4)
    pairs = np.array([(i, j) for i in range(12) for j in range(12)])
    omega = ObservationSet(12, 12, pairs)
    rep = optspace(truth, omega)
    assert rel_err(rep.estimate, truth) <= 1e-9

    truth, _, omega, yobs = completion_instance(30, 2, 720, seed=2)
    rep = optspace(yobs, omega)
    assert rel_err(rep.estimate, truth) <= 1e-3


def test_optspace_spiky_matrix_not_recoverable():
    # rank-one mass on a single entry: at 30% sampling the informative entry
    # is typically unobserved, every observation is zero, and the pipeline
    # can only return the zero matrix -- relative error 1
    truth = np.zeros((10, 10))
    truth[0, 0] = 1.0
    omega = sample_omega(10, 10, 30, seed=0)
    assert not ((omega.pairs[:, 0] == 0) & (omega.pairs[:, 1] == 0)).any()
    rep = optspace(project_omega(omega, truth), omega, r=1)
    assert "zero-data" in rep.flags
    np.testing.assert_array_equal(rep.estimate, np.zeros((10, 10)))
    assert rel_err(rep.estimate, truth) >= 0.5


def test_optspace_noisy_error_within_bound():
    # measured error against kappa^2 (n^2 sqrt(r) / m) ||P_Omega(Z)||_op;
    # the empirical constant hovers near 1 and stays far under 50
    for seed in range(3):
        truth, _, omega, yobs = completion_instance(40, 2, 480, seed)
        pairs = omega.pairs
        noisy = add_noise(yobs[pairs[:, 0], pairs[:, 1]],
                          NoiseModel(1e-3, seed=77 + seed))
        ynoisy = np.zeros_like(yobs)
        ynoisy[pairs[:, 0], pairs[:, 1]] = noisy
        zop = np.linalg.svd(ynoisy - yobs, compute_uv=False)[0]
        rep = optspace(ynoisy, omega, r=2)
        err = np.linalg.norm(rep.estimate - truth)
        assert err <= 50 * optspace_noisy_bound(40, 480, 2, 1.0, zop).value


def test_optspace_certifies_recovery_at_both_condition_numbers():
    # noiseless 30 x 30 rank-2 truths at 35% sampling: the weak component of
    # a kappa = 20 spectrum is fitted as surely as a flat spectrum's, so both
    # runs of every instance certify recovery to 1e-6
    for seed in range(9):
        for kappa in (1.0, 20.0):
            truth, _ = rand_low_rank(30, 2, 100 + seed, spectrum=(kappa, 1.0))
            omega = sample_omega(30, 30, 315, seed=500 + seed)
            rep = optspace(project_omega(omega, truth), omega, r=2)
            assert rep.converged, (seed, kappa)
            assert rel_err(rep.estimate, truth) <= 1e-6, (seed, kappa)


def test_optspace_config_validation():
    with pytest.raises(ValueError):
        OptspaceConfig(max_iters=0)
    for name in ("grad_tol", "trim_multiplier", "ls_shrink"):
        with pytest.raises(TypeError):   # module constants, not fields
            OptspaceConfig(**{name: 0.5})
