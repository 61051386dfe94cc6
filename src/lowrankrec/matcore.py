"""Dense matrix core: the numerical rank of a spectrum, the top singular
triplets by certified block subspace iteration, nuclear norm, the
operator norm from the smaller Gram, the singular-value soft thresholding
step, low-rank test matrix generation, and the ``lrm`` text format for
matrices.

Matrices are plain float64 2-d numpy arrays throughout, validated by
check_matrix everywhere but in prox_nuclear, the solvers' per-iteration prox,
and top_svd, whose callers have validated their matrix.
"""

from dataclasses import dataclass

import numpy as np

from .rand import spawn_rng

__all__ = [
    "RANK_RTOL",
    "LowRankSpec",
    "check_matrix",
    "numerical_rank",
    "top_svd",
    "nuclear_norm",
    "operator_norm",
    "prox_nuclear",
    "equal_spectrum",
    "geometric_spectrum",
    "gen_low_rank",
    "write_lrm",
    "read_lrm",
]

# A singular value counts toward the numerical rank iff it exceeds
# RANK_RTOL * sigma_1 (numerical_rank).
RANK_RTOL = 1e-9

# top_svd's constants, measured on the rescaled trimmed data of OptSpace's
# spectral start (p = 0.3 above n = 100, else 0.5; kappa 1 and 10; one BLAS
# thread, a shared 2-core machine; iteration counts and times at tol 1e-10):
# - block k + TOP_SVD_OVERSAMPLE.  At n = 300, k = 3, oversampling 2, 3, 5, 8
#   and 12 took 13-14, 13-14, 13-14, 12-13, 11-12 iterations at kappa = 1
#   (2.4, 2.7, 2.8, 4.3, 6.5 ms) and 50-70, 43-65, 38-44, 28-31, 22-25 at
#   kappa = 10 (9-16, 9-14, 8-9, 9, 13-17 ms): 5 is never far from the best.
TOP_SVD_OVERSAMPLE = 5
# - the certificate max_i ||A^T u_i - sigma_i v_i|| <= TOP_SVD_TOL sigma_1.
#   The subspace error is at most TOP_SVD_TOL sigma_1 / gap, and at kappa = 10
#   sigma_3 sits only 0.03-0.04 sigma_1 above the bulk: tol 1e-10 left sines
#   up to 5.6e-10 against the full SVD, 1e-11 up to 5.8e-11 for 4 more
#   iterations (40-51), 1e-12 5.3e-12 for 4 more again.
TOP_SVD_TOL = 1e-11
# - at most TOP_SVD_MAX_ITERS iterations, then the full SVD.  One iteration
#   costs 0.2 ms at n = 300 against 20 ms for the full SVD, so a capped call
#   costs at most about twice the SVD it falls back to; the workload's
#   kappa = 10 starts take 40-51 iterations.
TOP_SVD_MAX_ITERS = 100
# - the full SVD outright when min(n1, n2) < TOP_SVD_CROSSOVER * block, which
#   is n < 140 at k = 2 and n < 160 at k = 3.  Kernel / full SVD, ms, at
#   k = 2 and 3: n = 30 0.9-1.3 / 0.14, n = 50 1.0-2.0 / 0.4, n = 100
#   1.4-3.7 / 1.5, n = 150 1.7-4.3 / 3.5-4.3, n = 200 1.8-6.6 / 6.8-8.0,
#   n = 300 2.5-9.0 / 19-23.
TOP_SVD_CROSSOVER = 20
TOP_SVD_SEED = 0x70D5    # spawn_rng seed of the start block, fixed for all calls


def check_matrix(a):
    """Validate and return ``a`` as a finite float64 2-d array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def numerical_rank(sigma):
    """Number of singular values in ``sigma`` (nonincreasing, as numpy's
    SVD returns them) above RANK_RTOL * sigma_1; 0 for an empty or zero
    spectrum."""
    if sigma.size == 0 or sigma[0] <= 0:
        return 0
    return int(np.count_nonzero(sigma > RANK_RTOL * sigma[0]))


def top_svd(a, k):
    """The top k singular triplets of ``a`` as (u, sigma, vt), laid out like
    np.linalg.svd's leading k columns, values and rows; ``a`` a finite
    float64 2-d array and 1 <= k <= min(a.shape), unchecked.

    Below the crossover (min(n1, n2) < TOP_SVD_CROSSOVER (k +
    TOP_SVD_OVERSAMPLE)) it returns exactly np.linalg.svd's leading part.
    Above it, block subspace iteration (Halko, Martinsson and Tropp, arXiv
    0909.4061) on a block of k + TOP_SVD_OVERSAMPLE columns, started from a
    fixed spawn_rng draw, so every call on the same matrix gives the same
    bits: each iteration orthonormalizes A V = Q T (QR), takes the
    Rayleigh-Ritz triplets from the SVD of the small T = P S W^T, so that
    u = Q P, v = V W satisfy A v_i = sigma_i u_i by construction, and
    orthonormalizes A^T Q (QR) into the next V.  It stops at the certificate

        max_i ||A^T u_i - sigma_i v_i|| <= TOP_SVD_TOL sigma_1,   i <= k.

    With A v_i = sigma_i u_i exact, that residual e is the one of the unit
    vector (u_i, v_i) / sqrt(2) as an eigenvector of [[0, A], [A^T, 0]], so
    sigma_i lies within e of a singular value of A, and within e^2 / gap
    when gap, the distance from sigma_i to the rest of A's spectrum, is
    larger than e; the sine of the angle between (u_i, v_i) and that
    value's singular pair is at most e / gap (Davis-Kahan).  A call that
    spends TOP_SVD_MAX_ITERS iterations without the certificate returns the
    full SVD's leading part instead, so the result is never less accurate
    than the certificate.  A zero matrix gives zero values, with orthonormal
    u and v, at the first iteration, without a division.
    """
    n1, n2 = a.shape
    block = k + TOP_SVD_OVERSAMPLE
    if min(n1, n2) >= TOP_SVD_CROSSOVER * block:
        v = np.linalg.qr(spawn_rng(TOP_SVD_SEED).standard_normal((n2, block)))[0]
        for _ in range(TOP_SVD_MAX_ITERS):
            q, t = np.linalg.qr(a @ v)
            p, s, wt = np.linalg.svd(t)
            z = a.T @ q
            vk = v @ wt[:k].T
            e = z @ p[:, :k] - vk * s[:k]
            if np.sqrt(np.max((e * e).sum(axis=0))) <= TOP_SVD_TOL * s[0]:
                return q @ p[:, :k], s[:k], vk.T
            v = np.linalg.qr(z)[0]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u[:, :k], s[:k], vt[:k]


def nuclear_norm(m):
    """Sum of singular values."""
    return float(np.linalg.svd(check_matrix(m), compute_uv=False).sum())


def operator_norm(m):
    """Largest singular value, from the Gram on the shorter side:
    sigma_1 = s sqrt(lambda_max(G G^T)), G = M / s and s = max |M_ij|
    (G^T G when M is tall).  Both Grams have the eigenvalues sigma_i(G)^2,
    so this is sigma_1 up to rounding, in one symmetric eigenvalue problem
    of the smaller size instead of an SVD.  Dividing by s keeps G's
    entries in [-1, 1] with one of them +-1, so lambda_max >= 1 and the
    Gram neither overflows nor underflows for any finite M; scaling M by a
    power of two scales s and the result exactly and leaves G unchanged."""
    m = check_matrix(m)
    s = float(np.abs(m).max())
    if s == 0:
        return 0.0
    g = m / s
    gram = g @ g.T if g.shape[0] <= g.shape[1] else g.T @ g
    return s * float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def prox_nuclear(g, thresh):
    """Shrink every singular value of ``g`` by ``thresh``, clipping at zero:
    the proximal map of thresh * nuclear_norm, nonexpansive in the Frobenius
    norm.  Unchecked (g a finite float64 2-d array, thresh >= 0); returns
    the shrunk matrix and its nuclear norm."""
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    s = np.maximum(s - thresh, 0.0)
    return (u * s) @ vt, float(s.sum())


def equal_spectrum(r, value=1.0):
    """r copies of the same singular value."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    return (float(value),) * int(r)


def geometric_spectrum(r, top, ratio):
    """Singular values top, top*ratio, ..., top*ratio**(r-1)."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if not (0 < ratio <= 1):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    return tuple(float(top) * float(ratio) ** i for i in range(int(r)))


@dataclass(frozen=True)
class LowRankSpec:
    """Recipe for a synthetic rank-r test matrix.

    model "random-orthogonal" draws the singular-vector blocks Haar-uniformly
    (QR of a standard Gaussian block); model "spiky" puts u_i = v_i = e_i,
    the maximally coherent choice.
    """

    n1: int
    n2: int
    r: int
    spectrum: tuple
    model: str = "random-orthogonal"
    seed: int = 0

    def __post_init__(self):
        if self.r < 1 or self.r > min(self.n1, self.n2):
            raise ValueError(f"rank {self.r} out of range for {self.n1}x{self.n2}")
        spec = tuple(float(s) for s in self.spectrum)
        if len(spec) != self.r:
            raise ValueError(f"spectrum has {len(spec)} values, expected r={self.r}")
        if any(s <= 0 for s in spec):
            raise ValueError("spectrum values must be strictly positive")
        if any(a < b for a, b in zip(spec, spec[1:])):
            raise ValueError("spectrum must be nonincreasing")
        if self.model not in ("random-orthogonal", "spiky"):
            raise ValueError(f"unknown model {self.model!r}")
        object.__setattr__(self, "spectrum", spec)


def _haar_block(rng, n, r):
    # Orthonormalize a standard Gaussian block; fixing the sign of R's
    # diagonal makes Q Haar-distributed and the draw reproducible.
    g = rng.standard_normal((n, r))
    q, rr = np.linalg.qr(g)
    return q * np.sign(np.where(np.diag(rr) == 0, 1.0, np.diag(rr)))


def gen_low_rank(spec):
    """Generate (matrix, (u, sigma, v)) for a LowRankSpec, matrix =
    u @ diag(sigma) @ v.T with orthonormal columns in u (n1 x r) and v
    (n2 x r); deterministic per seed."""
    s = np.asarray(spec.spectrum, dtype=float)
    if spec.model == "spiky":
        u = np.zeros((spec.n1, spec.r))
        v = np.zeros((spec.n2, spec.r))
        for i in range(spec.r):
            u[i, i] = 1.0
            v[i, i] = 1.0
    else:
        rng = spawn_rng(spec.seed)
        u = _haar_block(rng, spec.n1, spec.r)
        v = _haar_block(rng, spec.n2, spec.r)
    m = (u * s) @ v.T
    return m, (u, s, v)


# --- lrm text format -------------------------------------------------------
#
# Line 1:            lrm <n1> <n2>
# Lines 2 .. n1+1:   n2 whitespace-separated entries, 17 significant digits.


def write_lrm(path, m):
    m = check_matrix(m)
    with open(path, "w") as fh:
        fh.write(f"lrm {m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(format(x, ".17g") for x in row) + "\n")


def read_lrm(path):
    with open(path) as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "lrm":
        raise ValueError(f"{path}: expected header 'lrm <n1> <n2>', got {lines[0]!r}")
    try:
        n1, n2 = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(f"{path}: bad dimensions in header {lines[0]!r}") from None
    if n1 < 1 or n2 < 1:
        raise ValueError(f"{path}: dimensions must be positive, got {n1}x{n2}")
    if len(lines) - 1 != n1:
        raise ValueError(f"{path}: expected {n1} rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        vals = ln.split()
        if len(vals) != n2:
            raise ValueError(f"{path}: row {i} has {len(vals)} entries, expected {n2}")
        try:
            rows.append([float(x) for x in vals])
        except ValueError:
            raise ValueError(f"{path}: non-numeric entry in row {i}") from None
    m = np.array(rows, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: entries must be finite")
    return m
