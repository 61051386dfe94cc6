import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrankrec.measure import (MeasurementEnsemble, NoiseModel,
                                ObservationSet, add_noise, adjoint_ensemble,
                                apply_ensemble, apply_stack,
                                entry_sampling_ensemble,
                                gaussian_ensemble, make_problem,
                                project_omega, rademacher_ensemble,
                                read_omega, read_vector, sample_omega,
                                vectorization_ensemble, write_omega,
                                write_vector)


def all_entries(n1, n2):
    return ObservationSet(n1, n2, [(i, j) for i in range(n1) for j in range(n2)])


# ------------------------------------------------------------- ObservationSet

def test_observation_set_basics():
    o = ObservationSet(2, 3, [(1, 2), (0, 0)])
    assert o.m == 2 and o.p == 2 / 6
    assert o.pairs[0].tolist() == [0, 0]  # stored row-major sorted
    assert o.mask().tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


def test_observation_set_rejects_bad_pairs():
    with pytest.raises(ValueError):
        ObservationSet(2, 2, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        ObservationSet(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        ObservationSet(2, 2, [(0, -1)])


def test_observation_set_empty_is_allowed():
    o = ObservationSet(2, 2, [])
    assert o.m == 0 and o.p == 0.0
    assert np.all(o.mask() == 0)


# --------------------------------------------------------------- sample_omega

def test_sample_omega_full():
    o = sample_omega(3, 4, 12, seed=0)
    assert o.m == 12
    assert np.all(o.mask() == 1.0)


def test_sample_omega_deterministic_and_distinct():
    a = sample_omega(6, 6, 10, seed=5)
    b = sample_omega(6, 6, 10, seed=5)
    assert np.array_equal(a.pairs, b.pairs)
    singles = {tuple(sample_omega(6, 6, 1, seed=s).pairs[0]) for s in range(30)}
    assert len(singles) > 1  # different seeds hit different entries


def test_sample_omega_out_of_range():
    with pytest.raises(ValueError):
        sample_omega(3, 3, 0, seed=0)
    with pytest.raises(ValueError):
        sample_omega(3, 3, 10, seed=0)


def test_sample_omega_row_counts_binomial_tail():
    # mean per-row count is 15; a 6-sigma binomial tail bounds the max
    n, m, seeds = 30, 450, 200
    mean = m / n
    bound = mean + 6.0 * math.sqrt(mean)
    counts = []
    for s in range(seeds):
        o = sample_omega(n, n, m, seed=s)
        rows = np.bincount(o.pairs[:, 0], minlength=n)
        counts.append(rows)
        assert rows.max() <= bound
    grand_mean = np.mean(counts)
    assert abs(grand_mean - mean) < 1e-9  # every draw has exactly m entries


# -------------------------------------------------------------- project_omega

def test_project_omega_full_and_empty():
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(project_omega(all_entries(2, 3), x), x)
    assert np.all(project_omega(ObservationSet(2, 3, []), x) == 0)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_project_omega_idempotent_self_adjoint(seed):
    rng = np.random.default_rng(seed)
    o = sample_omega(5, 4, 7, seed=seed)
    x = rng.standard_normal((5, 4))
    y = rng.standard_normal((5, 4))
    px = project_omega(o, x)
    assert np.array_equal(project_omega(o, px), px)
    assert abs(np.sum(px * y) - np.sum(x * project_omega(o, y))) < 1e-9


# ------------------------------------------------------------------ ensembles

def test_vectorization_apply_order():
    ens = vectorization_ensemble(2, 2)
    out = apply_ensemble(ens, np.diag([3.0, 1.0]))
    assert out.tolist() == [3.0, 0.0, 0.0, 1.0]


def test_entry_sampling_apply():
    ens = entry_sampling_ensemble(ObservationSet(2, 2, [(0, 0)]))
    assert apply_ensemble(ens, np.diag([3.0, 1.0])).tolist() == [3.0]


def test_vectorization_adjoint_is_inverse():
    ens = vectorization_ensemble(3, 4)
    x = np.random.default_rng(1).standard_normal((3, 4))
    assert np.array_equal(adjoint_ensemble(ens, apply_ensemble(ens, x)), x)


def test_entry_adjoint_apply_is_mask():
    o = sample_omega(4, 5, 9, seed=3)
    ens = entry_sampling_ensemble(o)
    x = np.random.default_rng(2).standard_normal((4, 5))
    assert np.array_equal(adjoint_ensemble(ens, apply_ensemble(ens, x)),
                          project_omega(o, x))


ENSEMBLES = [
    lambda: gaussian_ensemble(5, 4, 17, seed=7),
    lambda: rademacher_ensemble(5, 4, 17, seed=7),
    lambda: entry_sampling_ensemble(sample_omega(5, 4, 9, seed=7)),
    lambda: vectorization_ensemble(5, 4),
]


@pytest.mark.parametrize("make", ENSEMBLES)
def test_adjoint_identity_random_probes(make):
    ens = make()
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal((5, 4))
        v = rng.standard_normal(ens.m)
        lhs = float(apply_ensemble(ens, x) @ v)
        rhs = float(np.sum(x * adjoint_ensemble(ens, v)))
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_gaussian_adjoint_identity_tight():
    ens = gaussian_ensemble(3, 3, 5, seed=0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal((3, 3))
        v = rng.standard_normal(5)
        assert abs(float(apply_ensemble(ens, x) @ v)
                   - float(np.sum(x * adjoint_ensemble(ens, v)))) < 1e-12


def test_gaussian_isotropy_mean():
    # ||A(X)||^2 has mean ||X||_F^2 = 1; average over 500 seeds lands in a
    # tight band around 1
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 20))
    x /= np.linalg.norm(x)
    vals = [float(np.sum(apply_ensemble(gaussian_ensemble(20, 20, 400, seed=s), x) ** 2))
            for s in range(500)]
    assert 0.95 <= np.mean(vals) <= 1.05
    # 3-standard-error band around the mean
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - 1.0) <= 3 * se


def test_rademacher_entries_exact():
    ens = rademacher_ensemble(4, 4, 10, seed=1)
    assert np.all(np.isin(ens.rows * math.sqrt(10), [-1.0, 1.0]))


def test_gaussian_row_variance():
    ens = gaussian_ensemble(10, 10, 2000, seed=2)
    assert abs(ens.rows.var() * 2000 - 1.0) < 0.05


@pytest.mark.parametrize("make", ENSEMBLES)
def test_ensemble_stores_rows_or_index(make):
    ens = make()
    if ens.kind in ("gaussian", "rademacher"):
        assert ens.index is None and ens.rows.shape == (ens.m, 20)
    else:
        assert ens.rows is None and ens.index.shape == (ens.m,)
        x = np.arange(20.0).reshape(5, 4)
        assert np.array_equal(apply_ensemble(ens, x), ens.index.astype(float))
    with pytest.raises(TypeError):
        MeasurementEnsemble(kind=ens.kind, n1=5, n2=4, m=ens.m, rows=ens.rows)


@pytest.mark.parametrize("make", ENSEMBLES)
def test_apply_stack_matches_apply_row_by_row(make):
    ens = make()
    xs = np.random.default_rng(3).standard_normal((6, 5, 4))
    out = apply_stack(ens, xs)
    assert out.shape == (6, ens.m)
    for k in range(6):
        np.testing.assert_allclose(out[k], apply_ensemble(ens, xs[k]),
                                   rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        apply_stack(ens, np.zeros((2, 4, 5)))


@pytest.mark.parametrize("make", ENSEMBLES)
def test_operator_propagates_non_finite_values(make):
    # A and A* check shapes only; finiteness is checked where data enters
    ens = make()
    assert np.isnan(apply_ensemble(ens, np.full((5, 4), np.nan))).all()
    assert np.isnan(adjoint_ensemble(ens, np.full(ens.m, np.nan))).any()


def test_ensemble_caps_and_validation():
    with pytest.raises(ValueError):
        gaussian_ensemble(101, 101, 10, seed=0)      # n1*n2 over the cap
    with pytest.raises(ValueError):
        gaussian_ensemble(10, 10, 20001, seed=0)     # m over the cap
    with pytest.raises(ValueError):
        entry_sampling_ensemble(ObservationSet(3, 3, []))
    with pytest.raises(ValueError):
        MeasurementEnsemble(kind="vectorization", n1=2, n2=2, m=3, seed=0)
    with pytest.raises(ValueError):
        apply_ensemble(vectorization_ensemble(2, 2), np.eye(3))
    with pytest.raises(ValueError):
        adjoint_ensemble(vectorization_ensemble(2, 2), np.zeros(5))


# ---------------------------------------------------------------------- noise

def test_add_noise_sigma_zero_is_identity():
    y = np.arange(4.0)
    out = add_noise(y, NoiseModel(0.0, 3))
    assert np.array_equal(out, y)
    assert out is not y


def test_add_noise_deterministic():
    y = np.zeros(8)
    a = add_noise(y, NoiseModel(0.5, 42))
    b = add_noise(y, NoiseModel(0.5, 42))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, add_noise(y, NoiseModel(0.5, 43)))


def test_add_noise_sample_variance():
    z = add_noise(np.zeros(10_000), NoiseModel(1.0, 0))
    assert 0.95 <= z.var(ddof=1) <= 1.05


def test_noise_model_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0)


# -------------------------------------------------------------- make_problem

def test_make_problem_shapes_and_truth_check():
    ens = gaussian_ensemble(4, 4, 12, seed=0)
    truth = np.eye(4)
    prob = make_problem(ens, truth, NoiseModel(0.0, 0))
    assert prob.y.shape == (12,)
    assert np.array_equal(prob.truth, truth)
    with pytest.raises(ValueError):
        make_problem(ens, np.eye(3), NoiseModel(0.0, 0))


# ------------------------------------------------------------------ file I/O

def test_omega_roundtrip(tmp_path):
    o = sample_omega(5, 7, 11, seed=9)
    path = tmp_path / "o.omega"
    write_omega(path, o)
    back = read_omega(path)
    assert (back.n1, back.n2) == (5, 7)
    assert np.array_equal(back.pairs, o.pairs)
    assert path.read_text().splitlines()[0] == "omega 5 7 11"


def test_omega_reader_rejects(tmp_path):
    path = tmp_path / "bad.omega"
    path.write_text("omega 2 2 2\n0 0\n")          # wrong count
    with pytest.raises(ValueError):
        read_omega(path)
    path.write_text("omega 2 2 1\n5 0\n")          # out of range
    with pytest.raises(ValueError):
        read_omega(path)
    path.write_text("lrm 2 2 1\n0 0\n")            # wrong magic
    with pytest.raises(ValueError):
        read_omega(path)


def test_vector_roundtrip(tmp_path):
    y = np.random.default_rng(3).standard_normal(9) * 1e4
    path = tmp_path / "y.vec"
    write_vector(path, y)
    assert np.array_equal(read_vector(path), y)
