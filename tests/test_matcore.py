import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrankrec.matcore import (TOP_SVD_CROSSOVER, TOP_SVD_OVERSAMPLE,
                                LowRankSpec, SvdFactors, check_matrix,
                                equal_spectrum, gen_low_rank,
                                geometric_spectrum, nuclear_norm,
                                operator_norm, prox_nuclear, read_lrm, svd,
                                top_svd, write_lrm)
from lowrankrec.measure import project_omega, sample_omega

from oracles import jacobi_singular_values


def rand_matrix(seed, n1=6, n2=5, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n1, n2))


# ---------------------------------------------------------------- check_matrix

def test_check_matrix_rejects_nan_inf_and_wrong_ndim():
    with pytest.raises(ValueError):
        check_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        check_matrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        check_matrix(np.array([1.0, 2.0]))


def test_check_matrix_casts_to_float():
    m = check_matrix(np.array([[1, 2], [3, 4]]))
    assert m.dtype == np.float64


# ------------------------------------------------------------------------- svd

def test_svd_identity():
    f = svd(np.eye(2))
    assert np.allclose(f.sigma, [1.0, 1.0])
    assert np.allclose(f.reconstruct(), np.eye(2))


def test_svd_diagonal():
    f = svd(np.diag([3.0, 1.0]))
    assert np.allclose(f.sigma, [3.0, 1.0])
    # U and V equal the identity up to column signs, and the signs must agree
    assert np.allclose(np.abs(f.u), np.eye(2), atol=1e-12)
    assert np.allclose(f.u, f.v)


def test_svd_reconstruction_random():
    m = rand_matrix(41, 5, 5)
    f = svd(m)
    assert np.linalg.norm(f.reconstruct() - m) <= 1e-10 * np.linalg.norm(m)


def test_svd_sign_convention_is_deterministic():
    m = rand_matrix(7, 6, 4)
    f1, f2 = svd(m), svd(m.copy())
    assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)
    # first nonzero entry of every left vector is nonnegative
    for col in f1.u.T:
        nz = col[np.abs(col) > 0]
        assert nz.size == 0 or nz[0] >= 0


def test_svd_factors_validation():
    f = svd(rand_matrix(3, 4, 4))
    with pytest.raises(ValueError):
        SvdFactors(u=f.u * 2.0, sigma=f.sigma, v=f.v)  # not orthonormal
    with pytest.raises(ValueError):
        SvdFactors(u=f.u, sigma=f.sigma[::-1].copy(), v=f.v)  # increasing


def test_svd_factors_rank_tolerance():
    m = np.diag([1.0, 1e-6, 1e-12])
    f = svd(m)
    assert f.rank() == 2
    assert f.rank(rtol=1e-15) == 3


# --------------------------------------------------------------- nuclear norm

def test_nuclear_norm_rank_one():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(7)
    v = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    assert abs(nuclear_norm(np.outer(u, v)) - 1.0) < 1e-12


def test_nuclear_norm_identity():
    assert abs(nuclear_norm(np.eye(6)) - 6.0) < 1e-12


def test_nuclear_norm_matches_jacobi_oracle():
    m = rand_matrix(11, 6, 4)
    expected = jacobi_singular_values(m).sum()
    assert abs(nuclear_norm(m) - expected) < 1e-9


def test_operator_norm_matches_jacobi_oracle():
    m = rand_matrix(12, 5, 6)
    expected = jacobi_singular_values(m)[0]
    assert abs(operator_norm(m) - expected) < 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("shape, rank", [
    ((40, 40), None), ((300, 300), None), ((60, 7), None), ((7, 60), None),
    ((30, 20), 1), ((1, 9), None), ((9, 1), None),
], ids=["square", "square-300", "tall", "wide", "rank-1", "row", "column"])
def test_operator_norm_is_the_top_singular_value(shape, rank, scale):
    # the Gram route against numpy's SVD, on either side's Gram and at
    # scales whose squares would overflow or underflow
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    m = rng.standard_normal(shape)
    if rank is not None:
        m = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    m *= scale
    top = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(operator_norm(m) - top) <= 1e-13 * top


def test_operator_norm_of_zero_and_power_of_two_scalings():
    for shape in ((1, 1), (4, 7), (7, 4)):
        assert operator_norm(np.zeros(shape)) == 0.0
    m = rand_matrix(13, 30, 40)
    base = operator_norm(m)
    for e in (-10, 10):
        assert operator_norm(m * 2.0 ** e) == base * 2.0 ** e
        assert operator_norm(m.T * 2.0 ** e) == operator_norm(m.T) * 2.0 ** e


# ------------------------------------------------------------ soft threshold

def test_soft_threshold_zero_lambda_is_identity():
    m = rand_matrix(1)
    assert np.linalg.norm(prox_nuclear(m, 0.0)[0] - m) < 1e-10


def test_soft_threshold_full_shrinkage():
    m = rand_matrix(2)
    out, nuc = prox_nuclear(m, operator_norm(m) + 1e-12)
    assert np.allclose(out, 0.0) and nuc == 0.0


def test_soft_threshold_diagonal_case():
    out, nuc = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    assert abs(nuc - 1.0) < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.sampled_from([0.1, 1.0, 10.0]))
def test_soft_threshold_nonexpansive(seed, lam):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    lhs = np.linalg.norm(prox_nuclear(a, lam)[0] - prox_nuclear(b, lam)[0])
    assert lhs <= np.linalg.norm(a - b) + 1e-10


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_nuclear_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 5))
    y = rng.standard_normal((6, 5))
    assert nuclear_norm(x + y) <= nuclear_norm(x) + nuclear_norm(y) + 1e-9


def test_nuclear_norm_duality():
    # <X, Y> <= ||X||_* for every Y with operator norm <= 1, with equality
    # at Y = U V^T
    m = rand_matrix(23, 7, 6)
    rng = np.random.default_rng(5)
    for _ in range(100):
        y = rng.standard_normal(m.shape)
        y /= operator_norm(y)
        assert float(np.sum(m * y)) <= nuclear_norm(m) + 1e-9
    f = svd(m)
    witness = f.u @ f.v.T
    assert abs(float(np.sum(m * witness)) - nuclear_norm(m)) < 1e-8


# -------------------------------------------------------------------- top_svd

def leading_svd(a, k):
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u[:, :k], s[:k], vt[:k]


def sin_angle(basis, ref):
    """Sine of the largest principal angle between the column spans."""
    return np.linalg.norm(basis - ref @ (ref.T @ basis), 2)


def full_svd_calls(monkeypatch, shape):
    """Counts np.linalg.svd calls on a matrix of ``shape``: top_svd makes
    one only to fall back to the full SVD."""
    calls, real_svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        if a.shape == shape:
            calls.append(shape)
        return real_svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def sampled_low_rank(n1, n2, r, kappa, p, seed):
    """(1/p) P_Omega(M), M of rank r with spectrum kappa .. 1: low rank plus
    the sampling bulk of OptSpace's spectral start."""
    truth, _ = gen_low_rank(LowRankSpec(n1, n2, r, geometric_spectrum(
        r, kappa, kappa ** (-1 / max(r - 1, 1))), "random-orthogonal", seed))
    omega = sample_omega(n1, n2, int(p * n1 * n2), seed=seed)
    return project_omega(omega, truth) / p


def low_rank_plus_noise(n1, n2, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n1, 3)) * [5.0, 3.0, 2.0]) @ \
        rng.standard_normal((3, n2)) + 0.1 * rng.standard_normal((n1, n2))


@pytest.mark.parametrize("a, k, rank", [
    pytest.param(gen_low_rank(LowRankSpec(200, 200, 200, geometric_spectrum(
        200, 1.0, 0.9), "random-orthogonal", 3))[0], 2, 2, id="square"),
    pytest.param(sampled_low_rank(300, 300, 3, 10.0, 0.3, 4), 3, 3, id="sampling-bulk"),
    pytest.param(low_rank_plus_noise(400, 200, 5), 3, 3, id="tall"),
    pytest.param(low_rank_plus_noise(200, 400, 6), 3, 3, id="wide"),
    pytest.param(rand_matrix(7, 240, 2) @ rand_matrix(8, 2, 200), 3, 2,
                 id="rank-deficient"),
])
def test_top_svd_matches_full_svd(monkeypatch, a, k, rank):
    u_ref, s_ref, vt_ref = leading_svd(a, k)
    calls = full_svd_calls(monkeypatch, a.shape)
    u, s, vt = top_svd(a, k)
    assert not calls, "fell back to the full SVD"
    assert u.shape == (a.shape[0], k) and s.shape == (k,) and vt.shape == (k, a.shape[1])
    assert np.abs(s - s_ref).max() <= 1e-12 * s_ref[0]
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
    assert np.abs(vt @ vt.T - np.eye(k)).max() <= 1e-12
    assert sin_angle(u[:, :rank], u_ref[:, :rank]) <= 1e-9
    assert sin_angle(vt[:rank].T, vt_ref[:rank].T) <= 1e-9


def test_top_svd_zero_matrix():
    u, s, vt = top_svd(np.zeros((200, 180)), 3)
    assert np.array_equal(s, np.zeros(3))
    assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-15
    assert np.abs(vt @ vt.T - np.eye(3)).max() <= 1e-15


def test_top_svd_is_deterministic():
    a = sampled_low_rank(300, 300, 3, 10.0, 0.3, 9)
    first, second = top_svd(a, 3), top_svd(a.copy(), 3)
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_top_svd_falls_back_to_full_svd_at_the_cap(monkeypatch):
    # 200 singular values within 1e-3 of each other: the block separates
    # nothing, so the certificate cannot hold within the cap
    rng = np.random.default_rng(10)
    q1 = np.linalg.qr(rng.standard_normal((200, 200)))[0]
    q2 = np.linalg.qr(rng.standard_normal((200, 200)))[0]
    a = (q1 * np.linspace(1.001, 1.0, 200)) @ q2.T
    calls = full_svd_calls(monkeypatch, a.shape)
    got = top_svd(a, 3)
    assert len(calls) == 1
    for x, y in zip(got, leading_svd(a, 3)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("k", [2, 3])
def test_top_svd_below_crossover_is_the_full_svd(k):
    n = TOP_SVD_CROSSOVER * (k + TOP_SVD_OVERSAMPLE) - 1
    for a in (rand_matrix(11, 30, 30), rand_matrix(12, n, n + 7)):
        for x, y in zip(top_svd(a, k), leading_svd(a, k)):
            assert np.array_equal(x, y)


# -------------------------------------------------------------- gen_low_rank

def test_gen_low_rank_full_rank_orthonormal():
    spec = LowRankSpec(6, 6, 6, equal_spectrum(6, 2.0), "random-orthogonal", 1)
    _, f = gen_low_rank(spec)
    assert np.linalg.norm(f.u.T @ f.u - np.eye(6)) < 1e-10
    assert np.linalg.norm(f.v.T @ f.v - np.eye(6)) < 1e-10


def test_gen_low_rank_spectrum_roundtrip():
    spec = LowRankSpec(40, 40, 3, geometric_spectrum(3, 1.0, 0.5),
                       "random-orthogonal", 8)
    m, _ = gen_low_rank(spec)
    assert np.allclose(svd(m).sigma[:3], [1.0, 0.5, 0.25], atol=1e-9)
    assert np.all(svd(m).sigma[3:] < 1e-12)


def test_gen_low_rank_deterministic():
    spec = LowRankSpec(9, 7, 2, equal_spectrum(2, 1.0), "random-orthogonal", 123)
    m1, _ = gen_low_rank(spec)
    m2, _ = gen_low_rank(spec)
    assert np.array_equal(m1, m2)


def test_gen_low_rank_spiky_is_diagonal():
    spec = LowRankSpec(5, 4, 2, (3.0, 1.0), "spiky", 0)
    m, f = gen_low_rank(spec)
    expected = np.zeros((5, 4))
    expected[0, 0], expected[1, 1] = 3.0, 1.0
    assert np.allclose(m, expected)
    assert np.allclose(f.u[:, 0], np.eye(5)[:, 0])


def test_gen_low_rank_median_row_coherence_small():
    # random orthonormal factors are spread out: mu0 stays O(1)
    n, r = 200, 8
    vals = []
    for seed in range(100):
        spec = LowRankSpec(n, n, r, equal_spectrum(r, 1.0),
                           "random-orthogonal", seed)
        _, f = gen_low_rank(spec)
        mu0 = (n / r) * max(np.sum(f.u ** 2, axis=1).max(),
                            np.sum(f.v ** 2, axis=1).max())
        vals.append(mu0)
    assert np.median(vals) <= 5.0


def test_low_rank_spec_validation():
    with pytest.raises(ValueError):
        LowRankSpec(4, 4, 5, equal_spectrum(5, 1.0), "random-orthogonal", 0)
    with pytest.raises(ValueError):
        LowRankSpec(4, 4, 2, (1.0, 2.0), "random-orthogonal", 0)  # increasing
    with pytest.raises(ValueError):
        LowRankSpec(4, 4, 2, (1.0, 0.0), "random-orthogonal", 0)  # not positive
    with pytest.raises(ValueError):
        LowRankSpec(4, 4, 2, (1.0, 0.5), "mystery", 0)


def test_spectrum_helpers():
    assert equal_spectrum(3, 2.0) == (2.0, 2.0, 2.0)
    assert geometric_spectrum(3, 4.0, 0.5) == (4.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        equal_spectrum(0, 1.0)
    with pytest.raises(ValueError):
        geometric_spectrum(2, 1.0, 1.5)  # would increase


# ------------------------------------------------------------------ lrm files

def test_lrm_roundtrip_exact(tmp_path):
    m = rand_matrix(3, 4, 3, scale=1e3)
    path = tmp_path / "m.lrm"
    write_lrm(path, m)
    assert np.array_equal(read_lrm(path), m)
    assert (path.read_text().splitlines()[0]) == "lrm 4 3"


def test_lrm_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.lrm"
    path.write_text("lrm 2 2\n1 2\n3\n")
    with pytest.raises(ValueError):
        read_lrm(path)
    path.write_text("wat 2 2\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        read_lrm(path)
    path.write_text("lrm 2 2\n1 2\n3 4\n5 6\n")
    with pytest.raises(ValueError):
        read_lrm(path)
