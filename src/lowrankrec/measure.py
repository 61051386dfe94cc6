"""Linear measurement ensembles and observation models.

A measurement ensemble maps an n1 x n2 matrix X to a length-m data vector
A(X) = (<A_1, X>, ..., <A_m, X>).  Supported kinds:

* gaussian     - iid N(0, 1/m) entries in each A_i (near-isometric in
                 expectation: E ||A(X)||^2 = ||X||_F^2),
* rademacher   - iid +-1/sqrt(m) entries,
* entry        - A_i = e_{a_i} e_{b_i}^T over a fixed observed set Omega.
                 ``vectorization_ensemble`` is entry sampling over every
                 entry: m = n1*n2 and A(X) is row-major vec(X), so A* A = I.

The kind only decides how A is stored, once, at construction: gaussian /
rademacher keep the m x n1n2 matrix ``rows``; entry keeps ``index``, the
row-major linear indices of vec(X) that A reads.
``apply_ensemble``, ``adjoint_ensemble`` and ``apply_stack`` branch on that
storage and nothing else, and the package builds ensembles only through the
four constructors below.  Three readers outside this module use the storage
itself, each for what A and A* alone cannot give: solve's affine projection
(closed form when ``rows`` is None, since A A* = I; else the Gram
``rows @ rows.T``) and ``estimate_lipschitz`` (the rows' norm); oracle's
``oracle_fit`` (per-column least squares on ``index``, or the design built
from ``rows``); and diagnostics' ``rip_probe`` (the closed-form supremum of
a selection, and the basis-matrix energies read off ``rows``).  Rows are
materialized explicitly, which is the point of this package's scale
(n <= 100, m <= 20000); larger problems are
refused rather than silently paged.

Finiteness is checked where data enters: the file readers and each
solver's inputs.  A and A* check only shapes, so a NaN or
inf handed to them propagates into their output.
"""

from dataclasses import dataclass, field

import numpy as np

from .matcore import check_matrix
from .rand import spawn_rng

__all__ = [
    "ObservationSet",
    "MeasurementEnsemble",
    "NoiseModel",
    "gaussian_ensemble",
    "rademacher_ensemble",
    "entry_sampling_ensemble",
    "vectorization_ensemble",
    "apply_ensemble",
    "adjoint_ensemble",
    "apply_stack",
    "sample_omega",
    "project_omega",
    "add_noise",
    "write_omega",
    "read_omega",
]

MAX_DIM_PRODUCT = 10_000   # n1*n2 cap for materialized ensembles
MAX_MEASUREMENTS = 20_000


@dataclass(frozen=True)
class ObservationSet:
    """A set of observed positions Omega in an n1 x n2 matrix.

    ``pairs`` is an (m, 2) int array of 0-based (row, col) indices, distinct,
    kept in sorted row-major order.
    """

    n1: int
    n2: int
    pairs: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"dimensions must be positive, got {self.n1}x{self.n2}")
        if int(self.n1) * int(self.n2) > np.iinfo(np.int64).max:
            raise ValueError(f"dimensions {self.n1}x{self.n2} exceed the int64 index range")
        try:
            p = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise ValueError("observation indices out of range") from None
        if p.size:
            if p.min() < 0 or p[:, 0].max() >= self.n1 or p[:, 1].max() >= self.n2:
                raise ValueError("observation indices out of range")
            lin = p[:, 0] * self.n2 + p[:, 1]
            lin = np.sort(lin)
            if np.any(np.diff(lin) == 0):
                raise ValueError("observation pairs must be distinct")
            p = np.column_stack(np.unravel_index(lin, (self.n1, self.n2)))
        object.__setattr__(self, "pairs", p)

    @property
    def m(self):
        return int(self.pairs.shape[0])

    @property
    def p(self):
        """Observed fraction m / (n1*n2)."""
        return self.m / (self.n1 * self.n2)


def sample_omega(n1, n2, m, seed):
    """Draw m positions uniformly without replacement, deterministic per seed.

    Uses Floyd's sampling algorithm over the linear indices, so each of the
    C(n1*n2, m) subsets is equally likely.
    """
    total = n1 * n2
    if not (1 <= m <= total):
        raise ValueError(f"m must be in [1, {total}], got {m}")
    rng = spawn_rng(seed)
    chosen = set()
    for j in range(total - m, total):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    lin = np.sort(np.fromiter(chosen, dtype=np.int64, count=m))
    pairs = np.column_stack(np.unravel_index(lin, (n1, n2)))
    return ObservationSet(n1=n1, n2=n2, pairs=pairs)


def project_omega(omega, x):
    """Zero out every entry of x outside Omega."""
    x = check_matrix(x)
    if x.shape != (omega.n1, omega.n2):
        raise ValueError(f"shape {x.shape} does not match Omega {omega.n1}x{omega.n2}")
    out = np.zeros_like(x)
    if omega.m:
        i, j = omega.pairs[:, 0], omega.pairs[:, 1]
        out[i, j] = x[i, j]
    return out


@dataclass(frozen=True)
class MeasurementEnsemble:
    kind: str                    # gaussian | rademacher | entry
    n1: int
    n2: int
    m: int
    seed: int = 0
    omega: ObservationSet = None
    # exactly one of these is set: the m x n1n2 matrix of a dense kind, or
    # the linear indices of vec(X) that entry sampling reads
    rows: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    index: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"dimensions must be positive, got {self.n1}x{self.n2}")
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.kind in ("gaussian", "rademacher"):
            if self.n1 * self.n2 > MAX_DIM_PRODUCT or self.m > MAX_MEASUREMENTS:
                raise ValueError(
                    f"materialized ensembles are capped at n1*n2 <= {MAX_DIM_PRODUCT}, "
                    f"m <= {MAX_MEASUREMENTS}; got n1*n2={self.n1 * self.n2}, m={self.m}")
            rng = spawn_rng(self.seed)
            if self.kind == "gaussian":
                rows = rng.standard_normal((self.m, self.n1 * self.n2))
            else:
                rows = rng.integers(0, 2, size=(self.m, self.n1 * self.n2)) * 2.0 - 1.0
            rows /= np.sqrt(self.m)
            object.__setattr__(self, "rows", rows)
        elif self.kind == "entry":
            if self.omega is None:
                raise ValueError("entry-sampling ensemble requires an ObservationSet")
            if (self.omega.n1, self.omega.n2) != (self.n1, self.n2):
                raise ValueError("Omega dimensions do not match ensemble")
            if self.m != self.omega.m:
                raise ValueError(f"m={self.m} does not match |Omega|={self.omega.m}")
            pairs = self.omega.pairs
            object.__setattr__(self, "index", pairs[:, 0] * self.n2 + pairs[:, 1])
        else:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")


def gaussian_ensemble(n1, n2, m, seed):
    return MeasurementEnsemble(kind="gaussian", n1=n1, n2=n2, m=m, seed=seed)


def rademacher_ensemble(n1, n2, m, seed):
    return MeasurementEnsemble(kind="rademacher", n1=n1, n2=n2, m=m, seed=seed)


def entry_sampling_ensemble(omega):
    return MeasurementEnsemble(kind="entry", n1=omega.n1, n2=omega.n2,
                               m=omega.m, omega=omega)


def vectorization_ensemble(n1, n2):
    """Entry sampling over every entry: A(X) is row-major vec(X)."""
    pairs = np.column_stack(np.unravel_index(np.arange(n1 * n2), (n1, n2)))
    return entry_sampling_ensemble(ObservationSet(n1=n1, n2=n2, pairs=pairs))


def apply_ensemble(ens, x):
    """A(X): measure the matrix x, returning a length-m vector.

    Checks the shape only; a non-finite entry of x propagates into A(x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ens.n1, ens.n2):
        raise ValueError(f"shape {x.shape} does not match ensemble {ens.n1}x{ens.n2}")
    flat = x.ravel()
    return flat[ens.index] if ens.rows is None else ens.rows @ flat


def adjoint_ensemble(ens, v):
    """A*(v) = sum_i v_i A_i, a matrix of the ensemble's shape.

    Checks the length only; a non-finite entry of v propagates into A*(v)."""
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != ens.m:
        raise ValueError(f"vector length {v.shape[0]} does not match m={ens.m}")
    if ens.rows is not None:
        return (ens.rows.T @ v).reshape(ens.n1, ens.n2)
    out = np.zeros(ens.n1 * ens.n2)
    out[ens.index] = v
    return out.reshape(ens.n1, ens.n2)


def apply_stack(ens, xs):
    """A() over a (count, n1, n2) stack, returning a (count, m) array: the
    same numbers as apply_ensemble row by row, in one BLAS call for a dense
    kind."""
    xs = np.asarray(xs, dtype=float)
    if xs.shape[1:] != (ens.n1, ens.n2):
        raise ValueError(f"stack shape {xs.shape} does not match ensemble "
                         f"{ens.n1}x{ens.n2}")
    flat = xs.reshape(xs.shape[0], -1)
    return flat[:, ens.index] if ens.rows is None else flat @ ens.rows.T


@dataclass(frozen=True)
class NoiseModel:
    """Additive iid N(0, sigma^2) noise on the measurement vector."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


def add_noise(y, noise):
    """y + z with z ~ N(0, sigma^2 I); deterministic per noise seed."""
    y = np.asarray(y, dtype=float).ravel()
    if noise.sigma == 0:
        return y.copy()
    z = spawn_rng(noise.seed).standard_normal(y.shape[0])
    return y + noise.sigma * z


# --- text formats ----------------------------------------------------------
#
# Observation sets: omega <n1> <n2> <m> header, then m lines "i j"


def write_omega(path, omega):
    with open(path, "w") as fh:
        fh.write(f"omega {omega.n1} {omega.n2} {omega.m}\n")
        for i, j in omega.pairs:
            fh.write(f"{i} {j}\n")


def read_omega(path):
    with open(path) as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise ValueError(f"{path}: empty observation file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "omega":
        raise ValueError(f"{path}: expected header 'omega <n1> <n2> <m>', got {lines[0]!r}")
    try:
        n1, n2, m = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise ValueError(f"{path}: bad header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"{path}: expected {m} pairs, found {len(lines) - 1}")
    pairs = []
    for k, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"{path}: pair line {k} malformed: {ln!r}")
        try:
            pairs.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise ValueError(f"{path}: non-integer pair on line {k}") from None
    try:
        return ObservationSet(n1=n1, n2=n2, pairs=pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

