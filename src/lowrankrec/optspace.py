"""Spectral completion pipeline: trim over-observed rows/columns, initialize
from the top r singular triplets of the rescaled trimmed data, then fit the
observed entries by rank-incremental alternating least squares.

The triplets come from matcore.top_svd (Keshavan, Montanari and Oh's
spectral start, arXiv 0901.3150, without the dense SVD): block subspace
iteration that stops at a certificate, max_i ||A^T u_i - sigma_i v_i|| <=
1e-11 sigma_1 with A v_i = sigma_i u_i exact, which puts the values within
that residual of singular values of A and the vectors within residual / gap
of theirs.  Small matrices, and a call that reaches the iteration cap
without the certificate, get the full SVD's leading part instead.

The descent fits X = L R^T, L and R with k <= r columns, to Y on Omega by
alternating exact least squares (AltMin: Jain, Netrapalli and Sanghavi,
arXiv 1212.0467).  With R held, row i of L solves the k x k normal equations

    W_i l_i = z_i,   W_i = sum_{j in Omega_i} r_j r_j^T,
                     z_i = sum_{j in Omega_i} y_ij r_j,

and the columns of R likewise with L held.  The rank grows one component
at a time from the state's rank-1 point, each new one seeded from a
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

Omega's row and column groups are laid out once per descent (_OmegaIndex).
A sweep then costs O(m r^2) for the group sums of both half-sweeps, plus
one batched r x r solve per row and per column; the certificate adds O(m r)
for E V S^T and E^T U S as row and column group sums of the residual.  No
n1 x n2 matrix is formed inside the descent: a rank seed comes from power
iteration on the residual's entries.

F and its gradient both scale as the data squared, so the descent stops at
a gradient norm <= grad_tol ||P_Omega(Y)||_F^2, a scale-free test.
optspace's report comes from solve's one report builder.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matcore import check_matrix, nuclear_norm, top_svd, RANK_RTOL
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


@dataclass(frozen=True)
class OptspaceConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8       # stop when the gradient norm falls to
                                 # grad_tol * ||P_Omega(Y)||_F^2 (scale-free)
    trim_multiplier: float = 2.0  # degree cap = multiplier * m / n

    def __post_init__(self):
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        for name in ("grad_tol", "trim_multiplier"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


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


def trim(y_obs, omega, multiplier=2.0):
    """Zero out over-observed rows and columns.

    A row is over-observed when it holds more than multiplier * m / n1
    observed entries (columns likewise, with n2).  Removal shrinks m, so the
    rule is iterated to a fixed point; the result therefore satisfies its own
    degree caps, and trimming an already-trimmed pair changes nothing.
    """
    y_obs = check_matrix(y_obs)
    if y_obs.shape != (omega.n1, omega.n2):
        raise ValueError(f"shape {y_obs.shape} does not match Omega")
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    pairs = omega.pairs
    while pairs.shape[0]:
        m = pairs.shape[0]
        row_deg = np.bincount(pairs[:, 0], minlength=omega.n1)
        col_deg = np.bincount(pairs[:, 1], minlength=omega.n2)
        bad_rows = row_deg > multiplier * m / omega.n1
        bad_cols = col_deg > multiplier * m / omega.n2
        if not bad_rows.any() and not bad_cols.any():
            break
        keep = ~(bad_rows[pairs[:, 0]] | bad_cols[pairs[:, 1]])
        pairs = pairs[keep]
    trimmed_omega = ObservationSet(n1=omega.n1, n2=omega.n2, pairs=pairs)
    return project_omega(trimmed_omega, y_obs), trimmed_omega


def spectral_init(trimmed, omega, r):
    """Rank-r state from the top r singular triplets of (1/p) * trimmed, p
    the observed fraction.

    The triplets come from matcore.top_svd: block subspace iteration that
    stops at the certificate max_i ||A^T u_i - sigma_i v_i|| <= 1e-11 sigma_1,
    and the full SVD's leading part when that is cheaper (a matrix whose
    smaller side is under 20 times the block) or when the iteration cap
    passes without the certificate.  The requested rank must be achievable:
    sigma_r > RANK_RTOL sigma_1 among the computed values.  The state's
    objective is the fit at S = diag(sigma), on the trimmed entries.
    """
    trimmed = check_matrix(trimmed)
    if omega.m == 0:
        raise ValueError("cannot initialize from an empty observation set")
    if not (1 <= r <= min(omega.n1, omega.n2)):
        raise ValueError(f"rank must be in [1, {min(omega.n1, omega.n2)}], got {r}")
    u, sv, vt = top_svd(trimmed / omega.p, r)
    achievable = int(np.count_nonzero(sv > RANK_RTOL * sv[0])) if sv[0] > 0 else 0
    if achievable < r:
        raise ValueError(
            f"requested rank {r} exceeds achievable rank {achievable} of the data")
    v = vt.T
    rows, cols = omega.pairs[:, 0], omega.pairs[:, 1]
    obj = _fit(u * sv, v, rows, cols, trimmed[rows, cols])[0]
    return OptspaceState(u=u, s=np.diag(sv), v=v, objective=obj, iteration=0,
                         history=(obj,))


class _OmegaIndex:
    """Omega's layout for the group sums of one descent, built once.

    Entries run in the row-major order ObservationSet keeps (``rows``,
    ``cols``, observed values ``y``); ``row_starts`` opens each non-empty row
    group, whose row is ``row_ids``.  ``col_perm`` sorts the entries by
    column, ``col_starts`` opens each non-empty column group of that order,
    whose column is ``col_ids``, and ``rows_by_col`` is ``rows[col_perm]``.
    Empty rows and columns get no group, so ``np.add.reduceat`` never sees
    an empty segment.
    """

    def __init__(self, omega, y_obs):
        self.rows = np.ascontiguousarray(omega.pairs[:, 0])
        self.cols = np.ascontiguousarray(omega.pairs[:, 1])
        self.y = y_obs[self.rows, self.cols]
        self.row_ids, self.row_starts = np.unique(self.rows, return_index=True)
        self.col_perm = np.argsort(self.cols, kind="stable")
        self.rows_by_col = self.rows[self.col_perm]
        self.y_by_col = self.y[self.col_perm]
        self.col_ids, self.col_starts = np.unique(self.cols[self.col_perm],
                                                  return_index=True)


def _gradient(u, s, v, resid, index):
    """Gradients of 1/2 ||P_Omega(U S V^T - Y)||_F^2 in U and V, and their
    squared norm, from ``resid`` = U S V^T - Y on Omega in ``index`` order.

    R V S^T and R^T U S, R the residual scattered onto Omega, are sums over
    Omega's row and column groups of the residual-weighted rows of V S^T and
    U S: O(m r) for m entries.
    """
    gu = np.zeros_like(u)
    gu[index.row_ids] = np.add.reduceat(
        np.take(s @ v.T, index.cols, axis=1) * resid, index.row_starts, axis=1).T
    gv = np.zeros_like(v)
    gv[index.col_ids] = np.add.reduceat(
        np.take(s.T @ u.T, index.rows_by_col, axis=1) * resid[index.col_perm],
        index.col_starts, axis=1).T
    return gu, gv, float((gu * gu).sum() + (gv * gv).sum())


def _half_sweep(fixed, gather, starts, ids, y, n):
    """Exact least-squares rows of one factor of X = L R^T, the other held.

    ``gather`` names, entry by entry in the grouped order of ``y``, the row
    of ``fixed`` each observation pairs with; ``starts`` opens each group,
    whose row is ``ids``.  Row i solves W_i x_i = z_i, W_i = sum_j f_j f_j^T
    and z_i = sum_j y_ij f_j over its group: one batched k x k solve, O(m k^2)
    for the group sums.  A row without entries stays zero.  A system whose
    smallest eigenvalue is at most 1e-12 of its largest (fewer than k
    entries, or a degenerate fixed factor) gets the minimum-norm solution
    instead.  Returns (factor, any system deficient).
    """
    k = fixed.shape[1]
    fc = np.take(fixed.T, gather, axis=1)                  # (k, m)
    gram = np.add.reduceat((fc[:, None] * fc[None]).reshape(k * k, -1), starts,
                           axis=1).T.reshape(-1, k, k)
    rhs = np.add.reduceat(fc * y, starts, axis=1).T[..., None]
    eigs = np.linalg.eigvalsh(gram)
    bad = eigs[:, 0] <= 1e-12 * eigs[:, -1]
    sol = np.empty(rhs.shape)
    sol[~bad] = np.linalg.solve(gram[~bad], rhs[~bad])
    sol[bad] = np.linalg.pinv(gram[bad]) @ rhs[bad]
    out = np.zeros((n, k))
    out[ids] = sol[..., 0]
    return out, bool(bad.any())


def _rebalance(l, r):
    """Frames of L R^T = U diag(sigma) V^T: (U, sigma, V), U and V with
    orthonormal columns, from the QR factors of L and R and the SVD of the
    small product of their triangles."""
    q_l, t_l = np.linalg.qr(l)
    q_r, t_r = np.linalg.qr(r)
    p, sv, qt = np.linalg.svd(t_l @ t_r.T)
    return q_l @ p, sv, q_r @ qt.T


def _fit(l, r, rows, cols, y):
    """(1/2 ||P_Omega(L R^T - Y)||_F^2, that residual), Omega's entries
    (``rows``, ``cols``) observing ``y``.  The factors are gathered
    transposed, so the sum runs over the k rows of two contiguous (k, m)
    arrays, as the other group sums do."""
    resid = (np.take(l.T, rows, axis=1) * np.take(r.T, cols, axis=1)).sum(axis=0) - y
    return 0.5 * float(resid @ resid), resid


def _top_pair(resid, index, n1, n2, p):
    """An uncertified estimate (a, sigma, b) of the top singular pair of
    (1/p) E, E the n1 x n2 matrix that holds ``resid`` on Omega and zero
    elsewhere, by power iteration on E's entries alone from the constant
    unit vector, so it is deterministic; sigma is 0 when E vanishes.  It
    stops when sigma grows by less than POWER_RTOL, so where sigma_2 is
    near sigma_1 the vectors can be far off; the sweeps fit the new
    component anyway.  An exact pair seeds worse: it can be zero on rows
    and columns the component must fit, where the iterate keeps a weight."""
    b = np.full(n2, 1.0 / math.sqrt(n2))
    sigma = 0.0
    for _ in range(POWER_ITERS):
        a = np.bincount(index.rows, weights=resid * b[index.cols], minlength=n1)
        norm_a = np.linalg.norm(a)
        if norm_a == 0:
            return a, 0.0, b
        a /= norm_a
        b = np.bincount(index.cols, weights=resid * a[index.rows], minlength=n2)
        prev, sigma = sigma, float(np.linalg.norm(b))
        b /= sigma
        if sigma - prev <= POWER_RTOL * sigma:
            break
    return a, sigma / p, b


def optspace_descent(state, y_obs, omega, config=None):
    """Rank-incremental alternating least squares on X = L R^T from ``state``.

    ``state.s`` must be nonsingular, sigma_min(S) > RANK_RTOL sigma_max(S),
    else ValueError: at a singular S the certificate can hold where nothing
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
    then the rebalanced seed, not an inner fit.  One sweep costs O(m r^2)
    for m entries at rank r, and no n1 x n2 matrix is formed.  ``history``
    is the fit 1/2 ||P_Omega(L R^T - Y)||_F^2 at the rank-1 start and after
    each sweep; each sweep is an exact block minimization, and a new
    component cannot raise the fit of the sweep that follows it, so the
    history is nonincreasing.  ``iteration`` adds the sweeps to the state's
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
    if not sv[-1] > RANK_RTOL * sv[0]:
        raise ValueError(f"the state's S is singular (singular values {sv})")
    index = _OmegaIndex(omega, y_obs)
    grad_tol = cfg.grad_tol * float(index.y @ index.y)
    u, s, v = state.u, state.s, state.v
    fit, resid = _fit(u @ s, v, index.rows, index.cols, index.y)
    gnorm2 = _gradient(u, s, v, resid, index)[2]
    sweeps, history, deficient = 0, [fit], False
    if math.sqrt(gnorm2) > grad_tol:
        root = math.sqrt(sv[0])
        sweeps, history, deficient, (u, s, v, fit, gnorm2) = _incremental_als(
            u @ p[:, :1] * root, v @ qt[:1].T * root, u.shape[1], index, omega,
            cfg.max_iters, grad_tol)
    return OptspaceState(u=u, s=s, v=v, objective=fit,
                         iteration=state.iteration + sweeps,
                         history=tuple(history),
                         rank_deficient=state.rank_deficient or deficient,
                         grad_norm=math.sqrt(gnorm2))


def _incremental_als(l, r, rank, index, omega, max_sweeps, grad_tol):
    """The sweeps of optspace_descent from the rank-1 point L R^T: returns
    (sweeps, history, some half-sweep system deficient, (U, S, V, fit,
    gradient norm^2) at the end)."""
    fit, resid = _fit(l, r, index.rows, index.cols, index.y)
    history = [fit]
    deficient = False
    sweeps = 0
    while True:
        final = l.shape[1] == rank
        stage = 0
        while sweeps < max_sweeps and (final or stage < STAGE_SWEEPS):
            l, d_rows = _half_sweep(r, index.cols, index.row_starts, index.row_ids,
                                    index.y, omega.n1)
            r, d_cols = _half_sweep(l, index.rows_by_col, index.col_starts,
                                    index.col_ids, index.y_by_col, omega.n2)
            u, sv, v = _rebalance(l, r)
            root = np.sqrt(sv)
            l, r = u * root, v * root
            deficient = deficient or d_rows or d_cols
            sweeps += 1
            stage += 1
            fit, resid = _fit(l, r, index.rows, index.cols, index.y)
            history.append(fit)
            if final:
                gnorm2 = _gradient(u, np.diag(sv), v, resid, index)[2]
                if math.sqrt(gnorm2) <= grad_tol:
                    break
            elif history[-2] - fit < STAGE_RTOL * history[-2]:
                break
        if final:
            if not stage:   # the budget ran out before this rank's first sweep
                u, sv, v = _rebalance(l, r)
                gnorm2 = _gradient(u, np.diag(sv), v, resid, index)[2]
            return sweeps, history, deficient, (u, np.diag(sv), v, fit, gnorm2)
        a, sigma, b = _top_pair(-resid, index, omega.n1, omega.n2, omega.p)
        root = math.sqrt(sigma)
        l, r = np.column_stack([l, root * a]), np.column_stack([r, root * b])
        fit, resid = _fit(l, r, index.rows, index.cols, index.y)


def estimate_rank(trimmed, p):
    """Rank guess: position of the largest consecutive singular-value gap
    ratio of (1/p) * trimmed, among values above the rank tolerance."""
    trimmed = check_matrix(trimmed)
    if not (0 < p <= 1):
        raise ValueError(f"p must be in (0, 1], got {p}")
    s = np.linalg.svd(trimmed / p, compute_uv=False)
    if s[0] <= 0:
        raise ValueError("cannot estimate rank of a zero matrix")
    k = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    hi = min(k, s.shape[0] - 1)
    if hi < 1:
        return 1
    floor = RANK_RTOL * s[0]
    ratios = s[:hi] / np.maximum(s[1:hi + 1], floor)
    return int(np.argmax(ratios)) + 1


def optspace(y_obs, omega, r=None, config=None):
    """Full pipeline: trim -> (estimate_rank) -> spectral_init -> descent.

    The descent runs on the untrimmed data; trimming only stabilizes the
    spectral initialization.  Returns solve's report for the entry-sampling
    operator of Omega: its estimate is U S V^T at the final state and its
    objective ||S||_*, the estimate's nuclear norm since U and V have
    orthonormal columns.  It is converged at a gradient norm at most
    grad_tol yy or F at most 1e-18 yy, yy = ||P_Omega(Y)||_F^2; a descent
    that spends max_iters sweeps unconverged is flagged ``iteration-cap``,
    and one whose least-squares systems were singular somewhere
    ``inner-rank-deficient``.  An empty Omega is a ValueError.
    """
    cfg = config or OptspaceConfig()
    y_obs = check_matrix(y_obs)
    trimmed, trimmed_omega = trim(y_obs, omega, cfg.trim_multiplier)
    if not np.count_nonzero(trimmed):
        # Nothing survives trimming to seed the spectral stage, so the zero
        # matrix is the only guess the pipeline can produce.  It fits the
        # observations exactly iff they were all zero to begin with.
        y = y_obs[omega.pairs[:, 0], omega.pairs[:, 1]]
        return _report(entry_sampling_ensemble(omega), y,
                       np.zeros((omega.n1, omega.n2)), not y.any(), ("zero-data",))
    if r is None:
        r = estimate_rank(trimmed, omega.p)
    state = spectral_init(trimmed, trimmed_omega, r)
    state = optspace_descent(state, y_obs, omega, cfg)
    # y and the operator are made after the descent, off its peak memory
    y = y_obs[omega.pairs[:, 0], omega.pairs[:, 1]]
    yy = float(y @ y)
    flags = ("inner-rank-deficient",) if state.rank_deficient else ()
    converged = (state.objective <= 1e-18 * yy
                 or state.grad_norm <= cfg.grad_tol * yy)
    # from iteration 0, only a run to the cap counts max_iters iterations
    if not converged and state.iteration == cfg.max_iters:
        flags += ("iteration-cap",)
    return _report(entry_sampling_ensemble(omega), y, state.estimate(), converged,
                   flags, objective=nuclear_norm(state.s), iterations=state.iteration)
