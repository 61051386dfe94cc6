"""Independently coded reference implementations used as test oracles.

Nothing here may call numpy's SVD machinery: the point is to check the
package's linear-algebra-backed results against a second route.
"""

import math

import numpy as np


def jacobi_singular_values(a, sweeps=100, tol=1e-15):
    """Singular values by one-sided Jacobi rotations (column orthogonalization).

    Rotates column pairs until all pairwise inner products vanish relative to
    the column norms; the singular values are then the column norms.
    """
    a = np.array(a, dtype=float)
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                app = float(a[:, i] @ a[:, i])
                aqq = float(a[:, j] @ a[:, j])
                apq = float(a[:, i] @ a[:, j])
                if app * aqq > 0:
                    off = max(off, abs(apq) / math.sqrt(app * aqq))
                if apq == 0.0:
                    continue
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                col_i = a[:, i] * c - a[:, j] * s
                col_j = a[:, i] * s + a[:, j] * c
                a[:, i], a[:, j] = col_i, col_j
        if off < tol:
            break
    svals = np.sqrt(np.sum(a * a, axis=0))
    return np.sort(svals)[::-1]


def power_iteration_opnorm(a, iters=500, seed=0):
    """Largest singular value by power iteration on A^T A."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        est = nw
        v = w / nw
    return math.sqrt(est)


def prox_descent_nuclear_penalized(apply_fn, adjoint_fn, shape, y, tau,
                                   lip, iters):
    """Plain (unaccelerated) proximal descent on
    tau * ||X||_* + 1/2 ||A(X) - y||^2 with fixed step 1/lip.

    Independent of the package's accelerated/restarted scheme; run it with a
    generous iteration budget and use the resulting objective as reference.
    """
    x = np.zeros(shape)
    step = 1.0 / lip
    for _ in range(iters):
        g = x - step * adjoint_fn(apply_fn(x) - y)
        u, s, vt = _dense_svd(g)
        x = (u * np.maximum(s - tau * step, 0.0)) @ vt
    u, s, vt = _dense_svd(x)
    return tau * float(s.sum()) + 0.5 * float(np.sum((apply_fn(x) - y) ** 2))


def douglas_rachford_nuclear_equality(apply_fn, shape, y, iters=3000):
    """min ||X||_* subject to A(X) = y by Douglas-Rachford splitting.

    Independent of the package's penalized continuation: A is laid out as an
    explicit m x (n1 n2) matrix from apply_fn on the basis matrices, the
    affine set is projected onto exactly (np.linalg.solve on the m x m Gram
    A A^T, which must be invertible), and the nuclear norm enters through
    singular-value shrinkage at gamma = 0.1 ||y||.  Iterates
    x = P(z), w = shrink(2x - z), z += w - x; returns the nuclear norm of the
    feasible point P(z) and the fixed-point residual ||w - x||_F.
    """
    n = shape[0] * shape[1]
    a = np.column_stack([apply_fn(e.reshape(shape)) for e in np.eye(n)])
    gram = a @ a.T
    gamma = 0.1 * float(np.linalg.norm(y))

    def project(z):
        corr = a.T @ np.linalg.solve(gram, a @ z.ravel() - y)
        return z - corr.reshape(shape)

    z = np.zeros(shape)
    for _ in range(iters):
        x = project(z)
        u, s, vt = _dense_svd(2.0 * x - z)
        w = (u * np.maximum(s - gamma, 0.0)) @ vt
        z = z + w - x
    x = project(z)
    return float(_dense_svd(x)[1].sum()), float(np.linalg.norm(w - x))


def nuclear_equality_dual_bound(adjoint_fn, m, y, est, rel_gap, iters=1000):
    """Lower bound on min ||X||_* subject to A(X) = y, by weak duality: for
    every lam in R^m and every feasible X, <y, lam> = <X, A*(lam)> <=
    ||X||_* ||A*(lam)||_op, so <y, lam> / ||A*(lam)||_op bounds the minimum.

    lam starts from least squares on P_T(A*(lam)) = U V^T, with U, V the
    singular vectors of ``est`` at its numerical rank and T their tangent
    space.  That least-squares certificate needs more measurements than
    recovery does, so lam is then refined by alternating projections between
    range(A*) (least squares on A* laid out from adjoint_fn on the basis
    vectors) and the subdifferential of ||.||_* at est,
    {U V^T + W : P_T(W) = 0, ||W||_op <= 1}, until the bound is within
    rel_gap of ||est||_* or ``iters`` are spent.  Returns the largest bound
    seen; any lam gives a valid one, so only a suboptimal est can fail it.
    """
    u, s, vt = _dense_svd(est)
    r = int(np.sum(s > 1e-6 * s[0]))
    u, v = u[:, :r], vt[:r].T
    nuc = float(s.sum())

    def p_perp(x):   # the part of x in the orthogonal complement of T
        return x - u @ (u.T @ x) - (x @ v) @ v.T + u @ (u.T @ x @ v) @ v.T

    basis = [adjoint_fn(e) for e in np.eye(m)]
    a_star = np.column_stack([b.ravel() for b in basis])
    tangent = np.column_stack([(b - p_perp(b)).ravel() for b in basis])
    uv = u @ v.T
    lam = np.linalg.lstsq(tangent, uv.ravel(), rcond=None)[0]
    to_range = np.linalg.pinv(a_star)
    best = -math.inf
    for _ in range(iters):
        dual = (a_star @ lam).reshape(est.shape)
        best = max(best, float(y @ lam) / float(_dense_svd(dual)[1][0]))
        if nuc - best <= rel_gap * nuc:
            break
        a, sw, b = _dense_svd(p_perp(dual))
        lam = to_range @ (uv + (a * np.minimum(sw, 1.0)) @ b).ravel()
    return best


def residual_ball_by_bisection(penalized, tau_hi, delta, ratio=1.0 + 1e-8):
    """Smallest nuclear norm subject to ||A(X) - y||_2 <= delta, by geometric
    bisection on tau of a penalized solver, penalized(tau, x0) -> (X, its
    residual), warm-started from the last solution.  The residual of the
    penalized solution is nondecreasing in tau and exceeds delta at tau_hi.
    tau is halved from tau_hi until feasible, the bracket [feasible,
    infeasible] is then bisected down to ``ratio``, and the nuclear norm of
    the solution at its feasible end is returned.
    """
    hi, x = tau_hi, None
    while True:
        lo = 0.5 * hi
        x, res = penalized(lo, x)
        if res <= delta:
            break
        hi = lo
    x_lo = x
    while hi / lo > ratio:
        mid = math.sqrt(lo * hi)
        x, res = penalized(mid, x)
        if res <= delta:
            lo, x_lo = mid, x
        else:
            hi = mid
    return float(_dense_svd(x_lo)[1].sum())


def singular_value_threshold(m, lam):
    """Every singular value of m shrunk by lam, clipped at zero: the
    closed-form minimizer of lam ||X||_* + 1/2 ||X - m||_F^2."""
    u, s, vt = _dense_svd(m)
    return (u * np.maximum(s - lam, 0.0)) @ vt


def _dense_svd(x):
    # these oracles check the solvers, not the SVD; numpy's SVD is allowed
    # here (the SVD itself is checked by jacobi_singular_values)
    return np.linalg.svd(x, full_matrices=False)


def binomial_tail_bound_max_count(n_draws, p, k_sigma):
    """mean + k_sigma * sqrt(variance) for a Binomial(n_draws, p) count."""
    mean = n_draws * p
    return mean + k_sigma * math.sqrt(mean * (1.0 - p))


def half_sweep_all_eigenvalues(fixed, om, side, refine_rtol):
    """optspace._half_sweep deciding every system by its eigenvalues, with
    no screen: the sweep the screened one must match bit for bit.  It
    checks the screen's decisions, not the solves, so it solves with the
    same numpy calls (pinv included).  Returns (factor, any system
    deficient, refined)."""
    gram, rhs = om.normal_equations(fixed, side)
    eigs = np.linalg.eigvalsh(gram)
    bad = eigs[:, 0] <= 1e-12 * eigs[:, -1]
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
    refined = bool((eigs[:, 0] < refine_rtol * eigs[:, -1]).any())
    if refined:
        resid = om.residual(fixed, out) if side else om.residual(out, fixed)
        out[ids] -= solve(om.times(resid, fixed.T, side)[ids, :, None])
    return out, deficient, refined
