"""Spectral completion pipeline: trim over-observed rows/columns, seed from
the top singular pair of the rescaled trimmed data, then fit the observed
entries by rank-incremental alternating least squares.

The pair comes from matcore.top_svd (Keshavan, Montanari and Oh's spectral
start, arXiv 0901.3150, without the dense SVD): block subspace iteration
that stops at a certificate, ||A^T u_1 - sigma_1 v_1|| <= 1e-11 sigma_1 with
A v_1 = sigma_1 u_1 exact, which puts sigma_1 within that residual of A's
top singular value and the vectors within residual / gap of its pair.
Small matrices, and a call that reaches the iteration cap without the
certificate, get the full SVD's leading part instead.  The pipeline seeds
the fit below with that pair alone, L = u_1 sqrt(sigma_1) and R = v_1
sqrt(sigma_1), since the fit grows every later component itself.
spectral_init builds the full rank-r spectral state, a start that
optspace_descent accepts and of which it keeps that same rank-1 point.

The descent fits X = L R^T, L and R with k <= r columns, to Y on Omega by
alternating exact least squares (AltMin: Jain, Netrapalli and Sanghavi,
arXiv 1212.0467).  With R held, row i of L solves the k x k normal equations

    W_i l_i = z_i,   W_i = sum_{j in Omega_i} r_j r_j^T,
                     z_i = sum_{j in Omega_i} y_ij r_j,

and the columns of R likewise with L held.  The rank grows one component
at a time from the rank-1 point, each new one seeded from a
power-iteration estimate of the top singular pair of the rescaled residual
(uncertified; see _top_pair), as Incremental OptSpace proposes
for ill-conditioned matrices (Keshavan, Montanari and Oh, arXiv 0906.2027):
a descent from the full-rank spectral start can stall on a weak component
that its start does not see.  See optspace_descent for the stage rule.

Its stop test certifies the OptSpace objective
F(U, V) = min_S 1/2 ||P_Omega(U S V^T - Y)||_F^2 over column-orthonormal U, V
from the factors a sweep holds.  A sweep ends by solving R exactly with L
held, so E = P_Omega(L R^T - Y) has E^T L = 0, and its rebalancing writes the
same L R^T as U S V^T, U and V frames, S diagonal.  When L has full column
rank, E^T U = 0: the gradient U^T E V in S vanishes, so S is the inner
minimizer and F(U, V) the sweep's own fit; and the gradients E V S^T and
E^T U S = 0 in U and V equal their tangent projections, which are F's
gradient on the frames.  The certificate is ||E V S^T||_F^2 +
||E^T U S||_F^2 at the state's own S, with no second least-squares solve.

Omega and the data on it are laid out once per descent (_Omega), in one
of two layouts picked by Omega's observed fraction p.  From p =
DENSE_FRACTION (1/8) on, the layout is dense: the n1 x n2 0/1 mask M and
the masked data Y_Omega, so every sum over Omega is a BLAS product.  A
half-sweep's Grams are M P, P holding the products r_j r_j^T row by row,
its right-hand sides Y_Omega R; the residual is E = M o (L R^T) - Y_Omega,
the gradients E V S^T and E^T U S, and a rank seed's power iteration
multiplies by E and E^T.  A sweep then costs O(n1 n2 r^2) flops whatever
m is.  Below that fraction the layout is grouped: Omega's entries sorted
into row and column groups, summed with np.take and np.add.reduceat, so a
sweep costs O(m r^2) for the group sums and the certificate O(m r), but
at gather speed, and no n1 x n2 matrix is formed.  The two cost the same
between p = 0.1 and 0.15 (measured at rank 3, n = 300 and 400, one BLAS
thread).  Either layout adds one batched r x r solve per row and per
column to a sweep, and one batched r x r determinant that screens those
systems: only a system it cannot show well conditioned has its
eigenvalues computed (_half_sweep), so a well-conditioned sweep computes
none, and every system is decided as its eigenvalues would decide it.

F and its gradient both scale as the data squared, so the descent stops at
a gradient norm <= GRAD_TOL ||P_Omega(Y)||_F^2, a scale-free test.
Trimming caps each row's and column's observed entries at TRIM_MULTIPLIER
times the mean, Keshavan, Montanari and Oh's cap of 2|E|/n.
optspace's report comes from solve's one report builder.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .matcore import (RANK_RTOL, check_matrix, nuclear_norm, numerical_rank,
                      top_svd)
from .measure import ObservationSet, entry_sampling_ensemble, project_omega
from .solve import _report

__all__ = [
    "OptspaceConfig",
    "OptspaceState",
    "trim",
    "spectral_init",
    "optspace_descent",
    "estimate_rank",
    "optspace",
]

STAGE_SWEEPS = 10   # sweeps an intermediate rank gets at most
STAGE_RTOL = 1e-2   # an intermediate rank ends at a smaller relative decrease
POWER_ITERS = 100   # power iterations for a rank seed at most
POWER_RTOL = 1e-6   # ... ending when the singular value grows less, relatively
DENSE_FRACTION = 0.125  # observed fraction from which Omega is laid out dense
GRAD_TOL = 1e-8     # stop at a gradient norm <= GRAD_TOL ||P_Omega(Y)||_F^2
TRIM_MULTIPLIER = 2.0   # trimming's degree cap, TRIM_MULTIPLIER m / n
REFINE_RTOL = 1e-4  # a half-sweep system below this eigenvalue ratio is refined


@dataclass(frozen=True)
class OptspaceConfig:
    max_iters: int = 500

    def __post_init__(self):
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class OptspaceState:
    u: np.ndarray          # (n1, r), orthonormal columns
    s: np.ndarray          # (r, r)
    v: np.ndarray          # (n2, r), orthonormal columns
    objective: float       # 1/2 ||P_Omega(U S V^T - Y)||_F^2 at this S, which
                           # is F(U, V) after a sweep (module docstring)
    iteration: int         # descent sweeps
    history: tuple = ()    # recorded objective values; see optspace_descent
    rank_deficient: bool = False   # some least-squares system was singular
    grad_norm: float | None = None  # gradient norm at this S; set by the descent

    def estimate(self):
        return self.u @ self.s @ self.v.T


def trim(y_obs, omega):
    """Zero out over-observed rows and columns.

    A row is over-observed when it holds more than TRIM_MULTIPLIER * m / n1
    observed entries (columns likewise, with n2).  Removal shrinks m, so the
    rule is iterated to a fixed point; the result therefore satisfies its own
    degree caps, and trimming an already-trimmed pair changes nothing.  When
    no row or column is over its cap, the given ``omega`` comes back itself.
    """
    y_obs = check_matrix(y_obs)
    if y_obs.shape != (omega.n1, omega.n2):
        raise ValueError(f"shape {y_obs.shape} does not match Omega")
    pairs = omega.pairs
    while pairs.shape[0]:
        m = pairs.shape[0]
        row_deg = np.bincount(pairs[:, 0], minlength=omega.n1)
        col_deg = np.bincount(pairs[:, 1], minlength=omega.n2)
        bad_rows = row_deg > TRIM_MULTIPLIER * m / omega.n1
        bad_cols = col_deg > TRIM_MULTIPLIER * m / omega.n2
        if not bad_rows.any() and not bad_cols.any():
            break
        keep = ~(bad_rows[pairs[:, 0]] | bad_cols[pairs[:, 1]])
        pairs = pairs[keep]
    if pairs is not omega.pairs:   # some entry was removed
        omega = ObservationSet(n1=omega.n1, n2=omega.n2, pairs=pairs)
    return project_omega(omega, y_obs), omega


def spectral_init(trimmed, omega, r):
    """Rank-r state from the top r singular triplets of (1/p) * trimmed, p
    the observed fraction: a start for optspace_descent, which keeps only
    its rank-1 point unless the state already meets the certificate.  The
    optspace pipeline seeds from the top pair alone and does not call it.

    The triplets come from matcore.top_svd: block subspace iteration that
    stops at the certificate max_i ||A^T u_i - sigma_i v_i|| <= 1e-11 sigma_1,
    and the full SVD's leading part when that is cheaper (a matrix whose
    smaller side is under 20 times the block) or when the iteration cap
    passes without the certificate.  The requested rank must be achievable:
    matcore.numerical_rank of the computed values is r.  The state's
    objective is the fit at S = diag(sigma), on the trimmed entries.
    """
    trimmed = check_matrix(trimmed)
    if omega.m == 0:
        raise ValueError("cannot initialize from an empty observation set")
    _check_rank(r, omega)
    u, sv, vt = top_svd(trimmed / omega.p, r)
    _require_achievable(sv, r)
    v = vt.T
    rows, cols = omega.pairs[:, 0], omega.pairs[:, 1]
    resid = _entry_residual(u * sv, v, rows, cols, trimmed[rows, cols])
    obj = 0.5 * float(resid @ resid)
    return OptspaceState(u=u, s=np.diag(sv), v=v, objective=obj, iteration=0,
                         history=(obj,))


def _check_rank(r, omega):
    if not (1 <= r <= min(omega.n1, omega.n2)):
        raise ValueError(f"rank must be in [1, {min(omega.n1, omega.n2)}], got {r}")


def _require_achievable(sv, r):
    """ValueError unless matcore.numerical_rank of the values ``sv`` is r."""
    achievable = numerical_rank(sv)
    if achievable < r:
        raise ValueError(
            f"requested rank {r} exceeds achievable rank {achievable} of the data")


class _Omega:
    """Omega and the data on it, laid out once for the sums of one descent.

    The layout follows Omega's observed fraction p (``dense`` overrides it):

    * dense, p >= DENSE_FRACTION: the 0/1 mask ``mask`` and the masked data
      ``y_mat``, both n1 x n2, so each sum over Omega is one BLAS product
      with one of them, O(n1 n2 k) flops whatever m is;
    * grouped, below it: the entries in the row-major order ObservationSet
      keeps (``rows``, ``cols``, observed values ``y``), summed group by
      group with np.take and np.add.reduceat, O(m k) at gather speed.
      ``groups[side]`` is (the other index of each entry, the start of each
      group, y) in that side's grouped order; ``col_perm`` sorts the
      entries by column.

    Side 0 groups Omega by row (the rows of L), side 1 by column (the rows
    of R).  ``ids[side]`` lists the rows or columns with entries: an empty
    one gets no group, so np.add.reduceat never sees an empty segment, and
    no system.  The constructor's ``y`` holds the observed values in
    Omega's row-major order.
    """

    def __init__(self, omega, y, dense=None):
        rows = np.ascontiguousarray(omega.pairs[:, 0])
        cols = np.ascontiguousarray(omega.pairs[:, 1])
        self.shape = (omega.n1, omega.n2)
        self.p = omega.p
        self.dense = omega.p >= DENSE_FRACTION if dense is None else dense
        if self.dense:
            self.mask = np.zeros(self.shape)
            self.mask[rows, cols] = 1.0
            self.y_mat = np.zeros(self.shape)
            self.y_mat[rows, cols] = y
            self.ids = (np.flatnonzero(self.mask.any(axis=1)),
                        np.flatnonzero(self.mask.any(axis=0)))
        else:
            self.rows, self.cols, self.y = rows, cols, y
            row_ids, row_starts = np.unique(rows, return_index=True)
            self.col_perm = np.argsort(cols, kind="stable")
            col_ids, col_starts = np.unique(cols[self.col_perm], return_index=True)
            self.ids = (row_ids, col_ids)
            self.groups = ((cols, row_starts, y),
                           (rows[self.col_perm], col_starts, y[self.col_perm]))

    def residual(self, l, r):
        """E = L R^T - Y on Omega: the n1 x n2 matrix, zero off Omega
        (dense), or its entries in Omega's order (grouped)."""
        if self.dense:
            e = l @ r.T
            e *= self.mask
            e -= self.y_mat
            return e
        return _entry_residual(l, r, self.rows, self.cols, self.y)

    def normal_equations(self, fixed, side):
        """The k x k systems W_i x_i = z_i of a half-sweep, one per row
        (side 0) or column (side 1) in ``ids[side]``, as stacked (W, z):
        W_i = sum_{j in Omega_i} f_j f_j^T and z_i = sum_{j in Omega_i} y_ij
        f_j, f_j the rows of ``fixed``.  Dense: W = M P, P holding f_j f_j^T
        row by row, and z = Y_Omega F (both transposed on side 1)."""
        k = fixed.shape[1]
        if self.dense:
            mask, y_mat = self.mask, self.y_mat
            if side:
                mask, y_mat = mask.T, y_mat.T
            ids = self.ids[side]
            outer = (fixed[:, :, None] * fixed[:, None]).reshape(-1, k * k)
            return (mask @ outer)[ids].reshape(-1, k, k), (y_mat @ fixed)[ids, :, None]
        gather, starts, y = self.groups[side]
        fc = np.take(fixed.T, gather, axis=1)                  # (k, m)
        gram = np.add.reduceat((fc[:, None] * fc[None]).reshape(k * k, -1), starts,
                               axis=1).T.reshape(-1, k, k)
        return gram, np.add.reduceat(fc * y, starts, axis=1).T[..., None]

    def times(self, e, x, side):
        """E x (side 0) or E^T x (side 1), E from residual(): ``x`` is a
        block of k columns passed transposed, (k, n), with an (n', k)
        result."""
        if self.dense:
            return (e.T if side else e) @ x.T
        gather, starts, _ = self.groups[side]
        if side:
            e = e[self.col_perm]
        g = np.zeros((self.shape[side], x.shape[0]))
        g[self.ids[side]] = np.add.reduceat(np.take(x, gather, axis=1) * e, starts,
                                            axis=1).T
        return g


def _entry_residual(l, r, rows, cols, y):
    """L R^T - Y at the entries (``rows``, ``cols``) that observe ``y``.
    The factors are gathered transposed, so the sum runs over the k rows of
    two contiguous (k, m) arrays, as the group sums do."""
    return (np.take(l.T, rows, axis=1) * np.take(r.T, cols, axis=1)).sum(axis=0) - y


def _gradient(u, s, v, resid, om):
    """Gradients of 1/2 ||P_Omega(U S V^T - Y)||_F^2 in U and V, and their
    squared norm, from ``resid`` = U S V^T - Y on Omega as om.residual
    gives it: E V S^T and E^T U S, E the residual scattered onto Omega."""
    gu = om.times(resid, s @ v.T, 0)
    gv = om.times(resid, s.T @ u.T, 1)
    return gu, gv, float((gu * gu).sum() + (gv * gv).sum())


def _half_sweep(fixed, om, side):
    """Exact least-squares rows of one factor of X = L R^T, the other,
    ``fixed``, held: L's rows on side 0 (R held), R's on side 1 (L held).

    Row i solves W_i x_i = z_i over its group of Omega (om.normal_equations)
    in one batched k x k solve.  A row without entries stays zero.  A system
    whose smallest eigenvalue is at most 1e-12 of its largest (fewer than k
    entries, or a degenerate fixed factor) gets the minimum-norm solution
    instead.  Forming W_i squares the condition number of row i's design, so
    where some system's eigenvalue ratio is below REFINE_RTOL the rows take
    one step of refinement with the residual on Omega (the corrected
    seminormal equations), which brings the fit to that of a QR solve.

    Only the systems a determinant screen leaves undecided take those
    eigenvalues (np.linalg.eigvalsh).  The screen det(W_i / tr W_i) =
    det(W_i) / tr(W_i)^k is at most lambda_min / lambda_max for a positive
    semidefinite W_i, since det <= lambda_min lambda_max^(k-1) and
    tr >= lambda_max.  A system screened above 2 REFINE_RTOL (the 2 covers
    rounding) is thus neither deficient nor due for refinement; NaN, zero,
    negative, overflowed or underflowed screens compare false and stay
    undecided.  So the flag, the pinv rows and the refinement come out as with
    every system's eigenvalues, and the batched solve is the same, bit for
    bit.  Returns (factor, any system deficient).
    """
    gram, rhs = om.normal_equations(fixed, side)
    with np.errstate(all="ignore"):
        screen = np.linalg.det(gram / np.trace(gram, axis1=1, axis2=2)[:, None, None])
    undecided = ~(screen > 2 * REFINE_RTOL)
    bad = np.zeros(gram.shape[0], dtype=bool)
    refine = False
    if undecided.any():
        eigs = np.linalg.eigvalsh(gram[undecided])
        bad[undecided] = eigs[:, 0] <= 1e-12 * eigs[:, -1]
        refine = bool((eigs[:, 0] < REFINE_RTOL * eigs[:, -1]).any())
    deficient = bool(bad.any())

    def solve(b):
        if not deficient:
            return np.linalg.solve(gram, b)[..., 0]
        x = np.empty(b.shape)
        x[~bad] = np.linalg.solve(gram[~bad], b[~bad])
        x[bad] = np.linalg.pinv(gram[bad]) @ b[bad]
        return x[..., 0]

    ids = om.ids[side]
    out = np.zeros((om.shape[side], fixed.shape[1]))
    out[ids] = solve(rhs)
    if refine:
        resid = om.residual(fixed, out) if side else om.residual(out, fixed)
        out[ids] -= solve(om.times(resid, fixed.T, side)[ids, :, None])
    return out, deficient


def _rebalance(l, r):
    """Frames of L R^T = U diag(sigma) V^T: (U, sigma, V), U and V with
    orthonormal columns, from the QR factors of L and R and the SVD of the
    small product of their triangles."""
    q_l, t_l = np.linalg.qr(l)
    q_r, t_r = np.linalg.qr(r)
    p, sv, qt = np.linalg.svd(t_l @ t_r.T)
    return q_l @ p, sv, q_r @ qt.T


def _fit(l, r, om):
    """(1/2 ||P_Omega(L R^T - Y)||_F^2, that residual as om.residual gives
    it)."""
    resid = om.residual(l, r)
    flat = resid.ravel()
    return 0.5 * float(flat @ flat), resid


def _top_pair(resid, om):
    """An uncertified estimate (a, sigma, b) of the top singular pair of
    (1/p) E, E the n1 x n2 matrix that holds ``resid`` on Omega and zero
    elsewhere, by power iteration with E and E^T from the constant unit
    vector, so it is deterministic; sigma is 0 when E vanishes.  It
    stops when sigma grows by less than POWER_RTOL, so where sigma_2 is
    near sigma_1 the vectors can be far off; the sweeps fit the new
    component anyway.  An exact pair seeds worse: it can be zero on rows
    and columns the component must fit, where the iterate keeps a weight."""
    n2 = om.shape[1]
    b = np.full((1, n2), 1.0 / math.sqrt(n2))   # one-row blocks for om.times
    sigma = 0.0
    for _ in range(POWER_ITERS):
        a = om.times(resid, b, 0).T
        norm_a = np.linalg.norm(a)
        if norm_a == 0:
            return a[0], 0.0, b[0]
        a /= norm_a
        b = om.times(resid, a, 1).T
        prev, sigma = sigma, float(np.linalg.norm(b))
        b /= sigma
        if sigma - prev <= POWER_RTOL * sigma:
            break
    return a[0], sigma / om.p, b[0]


def optspace_descent(state, y_obs, omega, config=None):
    """Rank-incremental alternating least squares on X = L R^T from ``state``.

    ``state.s`` must be nonsingular, of full matcore.numerical_rank, else
    ValueError: at a singular S the certificate can hold where nothing
    fits (at S = 0 it always does).  A state meeting it (module docstring)
    comes back at once, with its fit and gradient norm on this data.
    Otherwise the fit starts from the state's rank-1 point, the top singular
    pair of U S V^T, and grows one component at a time:

    * a sweep solves every row of L with R held, then every column of R with
      L held, each an exact least-squares block minimization (_half_sweep),
      and rebalances L and R into frames U, V and singular values S;
    * an intermediate rank k < r ends after STAGE_SWEEPS sweeps or at the
      first sweep that lowers the fit by less than STAGE_RTOL of its value;
      rank k + 1 is then seeded from a power-iteration estimate of the top
      singular pair of the rescaled residual (1/p) P_Omega(Y - L R^T);
    * the final rank ends at the certificate, checked after every sweep at
      its U, S, V: with L of full column rank, S is there the exact inner
      fit and the gradient the tangent gradient of F (module docstring).

    ``max_iters`` caps the sweeps over all ranks; a run that spends it early
    still seeds the remaining ranks, so the result has rank r, and its S is
    then the rebalanced seed, not an inner fit.  Omega is laid out once,
    dense from an observed fraction of DENSE_FRACTION on, grouped below it
    (module docstring): one sweep costs O(n1 n2 r^2) flops in BLAS products
    on the dense layout, and O(m r^2) for m entries on the grouped one,
    where no n1 x n2 matrix is formed.  ``history`` is the fit
    1/2 ||P_Omega(L R^T - Y)||_F^2 at the rank-1 start and after each
    sweep; each sweep is an exact block minimization, and a new component
    cannot raise the fit of the sweep that follows it, so the history is
    nonincreasing.  ``iteration`` adds the sweeps to the state's
    count, and the returned state is U, S, V with the fit and the gradient
    norm there.
    """
    cfg = config or OptspaceConfig()
    y_obs = check_matrix(y_obs)
    if y_obs.shape != (omega.n1, omega.n2):
        raise ValueError(f"shape {y_obs.shape} does not match Omega")
    if omega.m == 0:
        raise ValueError("cannot descend on an empty observation set")
    p, sv, qt = np.linalg.svd(state.s)
    if numerical_rank(sv) < sv.size:
        raise ValueError(f"the state's S is singular (singular values {sv})")
    om, grad_tol = _layout(y_obs, omega)
    u, s, v = state.u, state.s, state.v
    fit, resid = _fit(u @ s, v, om)
    gnorm = math.sqrt(_gradient(u, s, v, resid, om)[2])
    if gnorm <= grad_tol:
        return OptspaceState(u=u, s=s, v=v, objective=fit, iteration=state.iteration,
                             history=(fit,), rank_deficient=state.rank_deficient,
                             grad_norm=gnorm)
    root = math.sqrt(sv[0])
    out = _incremental_als(u @ p[:, :1] * root, v @ qt[:1].T * root, u.shape[1], om,
                           cfg.max_iters, grad_tol)
    return replace(out, iteration=state.iteration + out.iteration,
                   rank_deficient=state.rank_deficient or out.rank_deficient)


def _layout(y_obs, omega):
    """(_Omega of ``omega`` and the data on it, the certificate's gradient
    tolerance GRAD_TOL ||P_Omega(Y)||_F^2)."""
    y = y_obs[omega.pairs[:, 0], omega.pairs[:, 1]]
    return _Omega(omega, y), GRAD_TOL * float(y @ y)


def _incremental_als(l, r, rank, om, max_sweeps, grad_tol):
    """The sweeps of optspace_descent from the rank-1 point L R^T up to rank
    ``rank``: the state they end at, ``iteration`` counting the sweeps.
    optspace seeds them from the top spectral pair directly."""
    fit, resid = _fit(l, r, om)
    history = [fit]
    deficient = False
    sweeps = 0
    while True:
        final = l.shape[1] == rank
        stage = 0
        while sweeps < max_sweeps and (final or stage < STAGE_SWEEPS):
            l, d_rows = _half_sweep(r, om, 0)
            r, d_cols = _half_sweep(l, om, 1)
            u, sv, v = _rebalance(l, r)
            root = np.sqrt(sv)
            l, r = u * root, v * root
            deficient = deficient or d_rows or d_cols
            sweeps += 1
            stage += 1
            fit, resid = _fit(l, r, om)
            history.append(fit)
            if final:
                gnorm2 = _gradient(u, np.diag(sv), v, resid, om)[2]
                if math.sqrt(gnorm2) <= grad_tol:
                    break
            elif history[-2] - fit < STAGE_RTOL * history[-2]:
                break
        if final:
            if not stage:   # the budget ran out before this rank's first sweep
                u, sv, v = _rebalance(l, r)
                gnorm2 = _gradient(u, np.diag(sv), v, resid, om)[2]
            return OptspaceState(u=u, s=np.diag(sv), v=v, objective=fit,
                                 iteration=sweeps, history=tuple(history),
                                 rank_deficient=deficient, grad_norm=math.sqrt(gnorm2))
        a, sigma, b = _top_pair(-resid, om)
        root = math.sqrt(sigma)
        l, r = np.column_stack([l, root * a]), np.column_stack([r, root * b])
        fit, resid = _fit(l, r, om)


def estimate_rank(trimmed, p):
    """Rank guess: position of the largest consecutive singular-value gap
    ratio of (1/p) * trimmed, among the values matcore.numerical_rank
    counts."""
    trimmed = check_matrix(trimmed)
    if not (0 < p <= 1):
        raise ValueError(f"p must be in (0, 1], got {p}")
    s = np.linalg.svd(trimmed / p, compute_uv=False)
    if s[0] <= 0:
        raise ValueError("cannot estimate rank of a zero matrix")
    hi = min(numerical_rank(s), s.shape[0] - 1)
    if hi < 1:
        return 1
    floor = RANK_RTOL * s[0]
    ratios = s[:hi] / np.maximum(s[1:hi + 1], floor)
    return int(np.argmax(ratios)) + 1


def optspace(y_obs, omega, r=None, config=None):
    """Full pipeline: trim -> (estimate_rank) -> top spectral pair -> descent.

    The descent is optspace_descent's rank-incremental sweeps, seeded
    directly from the rank-1 point u_1 sqrt(sigma_1), v_1 sqrt(sigma_1) of
    the top singular pair of (1/p) * trimmed (matcore.top_svd(., 1)): the
    only part of the rank-r spectral state that optspace_descent keeps
    when that state does not meet the certificate at once, so no other
    triplet is computed.  The descent runs on the untrimmed data; trimming
    only stabilizes the spectral seed.  A rank the data cannot carry, a
    final S whose matcore.numerical_rank is below r, is the ValueError
    spectral_init raises.  Returns solve's report for the entry-sampling
    operator of Omega: its estimate is U S V^T at the final state and its
    objective ||S||_*, the estimate's nuclear norm since U and V have
    orthonormal columns.  It is converged at a gradient norm at most
    GRAD_TOL yy or F at most 1e-18 yy, yy = ||P_Omega(Y)||_F^2; a descent
    that spends max_iters sweeps unconverged is flagged ``iteration-cap``,
    and one whose least-squares systems were singular somewhere
    ``inner-rank-deficient``.  An empty Omega is a ValueError.
    """
    cfg = config or OptspaceConfig()
    y_obs = check_matrix(y_obs)
    trimmed, trimmed_omega = trim(y_obs, omega)
    if not np.count_nonzero(trimmed):
        # Nothing survives trimming to seed the spectral stage, so the zero
        # matrix is the only guess the pipeline can produce.  It fits the
        # observations exactly iff they were all zero to begin with.
        y = y_obs[omega.pairs[:, 0], omega.pairs[:, 1]]
        return _report(entry_sampling_ensemble(omega), y,
                       np.zeros((omega.n1, omega.n2)), not y.any(), ("zero-data",))
    if r is None:
        r = estimate_rank(trimmed, omega.p)
    _check_rank(r, omega)
    u, sv, vt = top_svd(trimmed / trimmed_omega.p, 1)
    root = math.sqrt(sv[0])
    om, grad_tol = _layout(y_obs, omega)
    state = _incremental_als(u * root, vt.T * root, r, om, cfg.max_iters, grad_tol)
    _require_achievable(np.diag(state.s), r)
    # y and the operator are made after the descent, off its peak memory
    y = y_obs[omega.pairs[:, 0], omega.pairs[:, 1]]
    yy = float(y @ y)
    flags = ("inner-rank-deficient",) if state.rank_deficient else ()
    converged = (state.objective <= 1e-18 * yy
                 or state.grad_norm <= GRAD_TOL * yy)
    # from iteration 0, only a run to the cap counts max_iters iterations
    if not converged and state.iteration == cfg.max_iters:
        flags += ("iteration-cap",)
    return _report(entry_sampling_ensemble(omega), y, state.estimate(), converged,
                   flags, objective=nuclear_norm(state.s), iterations=state.iteration)
