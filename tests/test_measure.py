import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lowrankrec.matcore import read_lrm, write_lrm
from lowrankrec.measure import (MeasurementEnsemble, NoiseModel,
                                ObservationSet, add_noise, adjoint_ensemble,
                                apply_ensemble, apply_stack,
                                entry_sampling_ensemble,
                                gaussian_ensemble,
                                project_omega, rademacher_ensemble,
                                read_omega, sample_omega,
                                vectorization_ensemble, write_omega)


def all_entries(n1, n2):
    return ObservationSet(n1, n2, [(i, j) for i in range(n1) for j in range(n2)])


# ------------------------------------------------------------- ObservationSet

def test_observation_set_basics():
    o = ObservationSet(2, 3, [(1, 2), (0, 0)])
    assert o.m == 2 and o.p == 2 / 6
    assert o.pairs[0].tolist() == [0, 0]  # stored row-major sorted
    assert o.pairs.tolist() == [[0, 0], [1, 2]]


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
    assert o.pairs.shape == (0, 2)


# --------------------------------------------------------------- sample_omega

def test_sample_omega_full():
    o = sample_omega(3, 4, 12, seed=0)
    assert o.m == 12
    assert o.pairs.tolist() == [[i, j] for i in range(3) for j in range(4)]


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
        MeasurementEnsemble(kind="entry", n1=2, n2=2, m=3,
                            omega=ObservationSet(2, 2, [(0, 0), (1, 1)]))
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


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_noise_model_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        NoiseModel(sigma, 0)


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
TOKENS = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(
    ["", "lrm", "omega", "0.5", "-0", "1e999", "nan", "inf", "abc", str(2 ** 63),
     str(-2 ** 63 - 1), str(10 ** 30)]))


@given(n1=st.integers(1, 6), extra=st.integers(1, 4), tall=st.booleans(),
       data=st.data())
@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_file_formats_roundtrip_rectangular(tmp_path, n1, extra, tall, data):
    n1, n2 = (n1 + extra, n1) if tall else (n1, n1 + extra)
    m = np.array(data.draw(st.lists(FINITE, min_size=n1 * n2, max_size=n1 * n2)))
    m = m.reshape(n1, n2)
    pairs = sorted(data.draw(st.sets(st.tuples(st.integers(0, n1 - 1),
                                               st.integers(0, n2 - 1)))))
    omega = ObservationSet(n1, n2, pairs)
    path = tmp_path / "f.txt"

    write_lrm(path, m)
    assert np.array_equal(read_lrm(path), m)
    write_omega(path, omega)
    back = read_omega(path)
    assert (back.n1, back.n2) == (n1, n2)
    assert np.array_equal(back.pairs, omega.pairs)


@given(text=st.sampled_from(["lrm 2 3\n1 2 3\n4 5 6\n", "omega 2 3 2\n0 1\n1 2\n"]),
       drop_last=st.booleans(), data=st.data())
@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_files_raise_only_value_error(tmp_path, text, drop_last, data):
    # a valid file of each format with one token replaced, and perhaps its
    # last line dropped: every reader either parses it or rejects it with a
    # ValueError, which the CLI reports as `error:` with exit status 2
    lines = [ln.split() for ln in text.splitlines()]
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i][data.draw(st.integers(0, len(lines[i]) - 1))] = data.draw(TOKENS)
    if drop_last:
        lines.pop()
    path = tmp_path / "f.txt"
    path.write_text("".join(" ".join(ln) + "\n" for ln in lines))
    for reader in (read_lrm, read_omega):
        try:
            reader(path)
        except ValueError:
            pass


def test_omega_index_beyond_int64_names_the_file(tmp_path):
    path = tmp_path / "huge.omega"
    path.write_text(f"omega 3 3 1\n{2 ** 63} 0\n")
    with pytest.raises(ValueError, match="huge.omega"):
        read_omega(path)

