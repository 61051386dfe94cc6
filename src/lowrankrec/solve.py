"""Nuclear-norm recovery programs.

The equality program min ||X||_* s.t. A(X) = y runs Douglas-Rachford
splitting on its own (see solve_noiseless).  The penalized, Dantzig-type and
residual-ball programs are driven by one engine: accelerated proximal
descent (FISTA momentum) applied to

    minimize_X  tau * ||X||_*  +  1/2 ||A(X) - y||_2^2 .

The step is 1/L with L set by a local curvature test, not by a global bound
on ||A||^2.  Each iteration computes the gradient at the momentum point z
once, first tries L <- 0.95 L, and accepts x = prox_{tau/L}(z - grad/L) when
||A(x - z)||^2 <= L ||x - z||^2; otherwise it doubles L and redoes only the
prox and A(x).  The smooth part is quadratic, so the test is exact, and it
costs nothing: the engine already holds A(x) and A(z).  L starts at 1.0, the
scale at which every ensemble is normalised (E ||A(X)||^2 = ||X||^2), and the
lasso's continuation and root-finding stages hand the last accepted L (and
the point, with its A(X)) to the next stage (Beck and Teboulle, SIAM J.
Imaging Sci. 2009; Scheinberg, Goldfarb and Bai, Found. Comput. Math. 2014).

Momentum is reset by the gradient scheme of O'Donoghue and Candes (arXiv
1204.3982) when the step just taken moves against its own generalized
gradient.  The rule cuts the slow, oscillating momentum phases of small-tau
continuation stages.  The engine evaluates no objective value.

Stop rule, one eps per solve.  A solve stops at the first accepted step
x = prox_{tau/L}(z - grad/L) with both L ||x - z||_F <= eps tau (L (z - x) is
the prox-gradient mapping, zero exactly at a minimizer: the relative KKT test
of Toh and Yun, Pac. J. Optim. 2010) and ||A*(y - A(x))||_op <= tau (1 + eps);
if only the first holds, its threshold is cut fourfold.  Both tests scale
with y.  solve_penalized and solve_dantzig run at eps = 1e-7, so converged
certifies ||A*(y - A(X))||_op <= tau (1 + 1e-7); a lasso stage only
warm-starts the next and runs at eps = 1e-3 while continuation looks for a
feasible tau (inexact continuation stages as in Ma, Goldfarb and Chen, arXiv
0905.1643) and at eps = 1e-4 while the root-finding stages narrow the tau
bracket, where records close together in tau must still order their
residuals.

* solve_penalized  - the penalized problem itself at a fixed tau.
* solve_dantzig    - the penalized problem at tau = lambda, whose stationary
                     point satisfies the residual-correlation constraint
                     ||A*(y - A(X))||_op <= lambda; it is not certified to be
                     the constrained program's nuclear-norm minimizer.
* solve_noiseless  - equality constraint A(X) = y by Douglas-Rachford:
                     the exact projection onto {A(X) = y} alternates with the
                     nuclear-norm prox at gamma = 0.1 ||y||; the projection
                     is free for a selection ensemble (A A* = I) and runs
                     conjugate gradients on the Gram A A* for a dense one,
                     warm-started from the previous multiplier and its
                     residual and cutting the residual 10-fold inside the
                     loop (inexact DR, the errors shrinking with the steps),
                     to the CG floor for the returned point.  Type-II
                     Anderson acceleration over the last 10 differences
                     moves each plain DR step; an accelerated point that raises
                     the DR residual is rejected (counted in restarts) and
                     the plain step taken instead.
* solve_lasso      - residual-ball constraint ||A(X) - y||_2 <= delta via
                     regula falsi on tau (the residual is monotone in tau).

Both prox steps are matcore.prox_nuclear; choose_lambda and choose_delta give
the noise-scaled Dantzig threshold and residual radius.

One builder, _report, makes every program's SolverReport (OptSpace's and the
zero-data exits' too) from the estimate alone, recomputing A(X), so a
report's ||A(X) - y||_2 and ||A*(y - A(X))||_op are those of its estimate.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .matcore import check_matrix, nuclear_norm, operator_norm, prox_nuclear
from .measure import adjoint_ensemble, apply_ensemble

__all__ = [
    "SolverConfig",
    "SolverReport",
    "estimate_lipschitz",
    "choose_lambda",
    "choose_delta",
    "solve_penalized",
    "solve_noiseless",
    "solve_dantzig",
    "solve_lasso",
]

CERTIFIED_EPS = 1e-7        # stop-rule eps of solve_penalized and solve_dantzig
STAGE_EPS = 1e-3            # stop-rule eps of a lasso continuation stage
SEARCH_EPS = 1e-4           # stop-rule eps of a lasso root-finding stage
LIP_SHRINK = 0.95           # each iteration first tries the step bound L <- 0.95 L
CURVATURE_SLACK = 1e-20     # curvature test passes when ||A(x - z)||^2 <= 1e-20 ||y||^2
BALL_SLACK = 1e-6           # a lasso stage is feasible at residual <= delta (1 + 1e-6)
CONTINUATION = 0.25         # geometric tau shrink per lasso continuation stage
BRACKET_RATIO = 1.0 + 1e-4  # the lasso narrows its tau bracket down to this ratio
DR_GAMMA = 0.1              # Douglas-Rachford prox step gamma = 0.1 ||y||
DR_TOL = 1e-7               # DR stops when ||w - x||_F <= 1e-7 ||x||_F
CG_REL = 1e-1               # a projection inside DR cuts its warm-started CG residual
                            # 10-fold (100-fold saved no DR iteration for ~1.8x the
                            # Gram products, 3-fold cost DR iterations);
CG_FLOOR = 1e-14            # none goes below 1e-14 ||y||, the final projection's target
CG_NULL_CURVATURE = 1e-12   # p'(A A*)p <= 1e-12 (mean eigenvalue) ||p||^2: a null direction
DR_MEMORY = 10              # Anderson memory of the DR loop: its last 10 differences
                            # (5 took 8-23% more DR iterations on phase_transition and
                            # optspace_compare, 15 saved at most 10%)
DR_RIDGE = 1e-10            # relative Tikhonov term of the Anderson least squares
LAMBDA_MULT = 1.5           # choose_lambda's threshold is 1.5 sqrt(2 n) sigma


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000   # proximal iterations per penalized solve or lasso stage;
                            # Douglas-Rachford iterations, noiseless program
    eq_tol: ClassVar[float] = 1e-6   # relative feasibility target, noiseless program

    def __post_init__(self):
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class SolverReport:
    estimate: np.ndarray
    objective: float           # nuclear norm of the estimate
    equality_residual: float   # ||A(estimate) - y||_2
    dual_residual: float       # ||A*(y - A(estimate))||_op
    iterations: int
    converged: bool
    tau_path: tuple = ()       # penalty values visited, in visit order
    residual_path: tuple = ()  # equality residual at each visited tau
    flags: tuple = ()
    stage_iterations: tuple = ()  # iterations at each visited tau
    restarts: int = 0          # momentum resets by the gradient rule; noiseless
                               # program: rejected Anderson points
    prox_steps: int = 0        # prox evaluations (SVDs), curvature retries included

    def to_json_dict(self):
        """Every field by name, the estimate as nested lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["estimate"] = self.estimate.tolist()
        return out


def _check_y(ens, y):
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != ens.m:
        raise ValueError(f"y has length {y.shape[0]}, ensemble m={ens.m}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    return y


def estimate_lipschitz(ens):
    """||A||^2, the largest eigenvalue of A*A (the gradient Lipschitz
    constant), exactly: 1.0 for entry sampling (vectorization_ensemble
    included), whose A*A is an orthogonal projector, and the squared
    operator norm of the rows otherwise.

    A diagnostic: the solvers do not call it, since their step rule finds a
    local bound along the iterates (see the module docstring).  It stays
    because the benchmark's traced run hooks this name for its
    solve.lipschitz.s metric, and reports that and the metrics sharing its
    solve spans as null when the name is gone; it can be removed together
    with that metric."""
    if ens.rows is None:
        return 1.0
    return operator_norm(ens.rows) ** 2


class _Stages:
    """The penalized stages of one solve, in visit order, and what one stage
    hands the next: the last accepted step bound L and the running counts."""

    def __init__(self, lip=1.0):
        self.lip = lip
        self.taus, self.residuals, self.iterations = [], [], []
        self.restarts = 0
        self.prox_steps = 0     # prox evaluations, curvature retries included


def _penalized_core(ens, y, tau, start, stages, max_iters, eps):
    """Accelerated proximal descent on the penalized objective.

    Step rule: each iteration computes the gradient at the momentum point z
    once, first tries the step bound L <- LIP_SHRINK * L, and doubles L
    (recomputing only the prox and A(x)) until the local curvature test
    ||A(x - z)||^2 <= L ||x - z||^2 passes.  The smooth part is quadratic, so
    the test is exactly the condition that the step's quadratic model bounds
    it.  The accepted L carries over to the next iteration and, through
    ``stages``, to the next stage.

    Momentum is reset (t = 1, no momentum on the next step) by the gradient
    rule of O'Donoghue and Candes ("Adaptive restart for accelerated gradient
    schemes", arXiv 1204.3982): after an accepted step x -> x_new taken from
    the momentum point z, momentum is reset when <z - x_new, x_new - x> > 0,
    i.e. when the step's generalized gradient points against the direction
    of travel.

    Stop rule (see the module docstring) at ``eps``: an accepted step x_new
    from z with L ||x_new - z||_F <= eps tau, the prox-gradient mapping at z
    against the penalty level, ends the solve if the certificate
    ||A*(y - A(x_new))||_op <= tau (1 + eps) holds, and otherwise cuts that
    threshold fourfold.  The same certificate decides converged at
    max_iters, where an uncertified solve is flagged ``iteration-cap``.  Both
    tests are relative, so scaling y scales the iterates and nothing else.

    ``start`` is the point (x0, A(x0)) the solve starts from; the returned
    point has the same form, so a stage hands the next its start without
    measuring it again.  Records the stage (tau, residual, iterations) and
    its restarts in ``stages``.  Returns (point, ||x||_* of the point as the
    last prox gave it, converged, flags).
    """
    x, ax = start
    z, az = x, ax
    t = 1.0
    mapping_tol = eps * tau
    floor = CURVATURE_SLACK * float(y @ y)   # rounding in A(x) - A(z)
    flags = ()
    it = 0
    while it < max_iters:
        it += 1
        grad = adjoint_ensemble(ens, az - y)
        lip = stages.lip * LIP_SHRINK
        while True:
            x_new, nuc = prox_nuclear(z - grad / lip, tau / lip)
            ax_new = apply_ensemble(ens, x_new)
            stages.prox_steps += 1
            ad = ax_new - az
            if float(ad @ ad) <= lip * float(np.vdot(x_new - z, x_new - z)) + floor:
                break
            lip *= 2.0
        stages.lip = lip
        step = x_new - x
        # the prox-gradient mapping at z, taken before the momentum update moves z
        small = lip * np.linalg.norm(x_new - z) <= mapping_tol
        if np.vdot(z - x_new, step) > 0:
            t = 1.0   # gradient restart
            stages.restarts += 1
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        z = x_new + beta * step
        az = ax_new + beta * (ax_new - ax)  # A is linear; no extra measurement
        x, ax, t = x_new, ax_new, t_new
        if small:
            if _certified(ens, y, ax, tau, eps):
                converged = True
                break
            mapping_tol *= 0.25
    else:
        converged = _certified(ens, y, ax, tau, eps)
        if not converged:
            flags = ("iteration-cap",)
    stages.taus.append(tau)
    stages.residuals.append(float(np.linalg.norm(ax - y)))
    stages.iterations.append(it)
    return (x, ax), nuc, converged, flags


def _certified(ens, y, ax, tau, eps):
    dres = operator_norm(adjoint_ensemble(ens, y - ax))
    return dres <= tau * (1.0 + eps)


def _report(ens, y, x, converged, flags=(), stages=None, objective=None,
            iterations=None):
    """The SolverReport of estimate x (see the module docstring).  objective
    defaults to ||x||_*, the path fields to none, iterations to the stages'."""
    stages = stages or _Stages()
    res = apply_ensemble(ens, x) - y
    if objective is None:
        objective = nuclear_norm(x) if np.any(x) else 0.0
    return SolverReport(
        estimate=x,
        objective=float(objective),
        equality_residual=float(np.linalg.norm(res)),
        dual_residual=float(operator_norm(adjoint_ensemble(ens, -res))),
        iterations=int(sum(stages.iterations) if iterations is None else iterations),
        converged=bool(converged),
        tau_path=tuple(float(t) for t in stages.taus),
        residual_path=tuple(float(r) for r in stages.residuals),
        flags=tuple(flags),
        stage_iterations=tuple(int(k) for k in stages.iterations),
        restarts=int(stages.restarts),
        prox_steps=int(stages.prox_steps),
    )


def solve_penalized(ens, y, tau, config=None, x0=None):
    """Minimize tau * ||X||_* + 1/2 ||A(X) - y||^2.

    The step bound L starts at 1.0, the scale at which every ensemble is
    normalised; the engine lowers or raises it by its local curvature test,
    so it need not bound ||A||^2.

    Stops by the engine's rule at eps = 1e-7 (see the module docstring), so
    converged means first-order stationarity was certified:
    ||A*(y - A(X))||_op <= tau * (1 + 1e-7).
    """
    cfg = config or SolverConfig()
    y = _check_y(ens, y)
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    x0 = np.zeros((ens.n1, ens.n2)) if x0 is None else check_matrix(x0)
    if not np.any(y):
        return _report(ens, y, np.zeros((ens.n1, ens.n2)), True)
    stages = _Stages(1.0)
    start = (x0, apply_ensemble(ens, x0))
    (x, _), _, conv, flags = _penalized_core(
        ens, y, tau, start, stages, cfg.max_iters, CERTIFIED_EPS)
    return _report(ens, y, x, conv, flags, stages)


def choose_lambda(n, sigma):
    """Residual-correlation threshold LAMBDA_MULT * sqrt(2 n) * sigma.

    The back-projected noise A*(z) behaves like an n x n matrix with iid
    N(0, sigma^2) entries, whose operator norm concentrates near 2 sqrt(n)
    sigma; the multiplier 1.5 keeps the threshold above that level in the
    vast majority of draws.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    return float(LAMBDA_MULT * math.sqrt(2.0 * n) * sigma)


def choose_delta(m, sigma):
    """Residual radius sqrt(m + sqrt(8 m)) * sigma for m measurements: for
    iid N(0, sigma^2) noise z, ||z||^2 has mean m sigma^2 and standard
    deviation sqrt(2 m) sigma^2, so delta^2 sits two deviations above the mean
    (Candes and Plan, "Matrix completion with noise", arXiv 0903.3131)."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    return math.sqrt((m + math.sqrt(8.0 * m)) * sigma ** 2)


def solve_dantzig(ens, y, lam, config=None):
    """Residual-correlation (Dantzig-type) estimate at level lambda.

    Returns the stationary point of the penalized problem at tau = lambda,
    i.e. solve_penalized(ens, y, lambda).  Stationarity, certified before
    reporting converged, makes it feasible for
    ||A*(y - A(X))||_op <= lambda (1 + 1e-7), but it is not certified to have
    the smallest nuclear norm among feasible points, so it is not in general
    the solution of min ||X||_* subject to that constraint.  The two coincide
    when every entry is observed (vectorization_ensemble), where both are the
    singular-value soft threshold of A*(y) at lambda.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    return solve_penalized(ens, y, lam, config=config)


def _cg(gram_times, b, mu, r, rel, floor, null_curv):
    """Conjugate gradients on (A A*) mu = b, with gram_times(p) = A A* p, from
    the warm start mu, whose residual b - A A* mu is r (None: formed here,
    one product).  Stops when the residual norm is at most
    max(rel ||r||, floor); after 4m steps
    (m in exact arithmetic, with room for the loss of orthogonality on an
    ill-conditioned Gram); or at a search direction p with
    p' A A* p <= null_curv ||p||^2, numerically in the Gram's null space,
    which a residual reaches only when b has a part outside the Gram's range
    (inconsistent data).  CG diverges soon after such a direction, so the
    iterate of least residual is the one returned.
    Returns (mu, b - A A* mu by the recurrence, whether it stopped at a null
    direction)."""
    if r is None:
        r = b - gram_times(mu)
    rr = float(r @ r)
    target = max(rel * rel * rr, floor * floor)
    best_rr, best_mu, best_r = rr, mu, r
    p = r
    for _ in range(4 * b.shape[0]):
        if rr <= target:
            break
        gp = gram_times(p)
        curv = float(p @ gp)
        if not curv > null_curv * float(p @ p):
            return best_mu, best_r, True
        alpha = rr / curv
        mu = mu + alpha * p
        r = r - alpha * gp
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
        if rr < best_rr:
            best_rr, best_mu, best_r = rr, mu, r
    return best_mu, best_r, False


def _affine_projection(ens, y):
    """P(z) = z - A*(mu) with (A A*) mu = A(z) - y, the nearest point to z of
    {X : A(X) = y}, as a function project(z, rel) -> (P(z), ||A(P(z)) - y||,
    whether CG stopped at a null direction); CG runs to max(rel ||r0||,
    CG_FLOOR ||y||), see _cg.  solve_noiseless asks for rel = CG_REL, a
    10-fold cut from the warm start, inside its loop (inexact projections
    whose errors shrink with the DR steps, Eckstein and Bertsekas 1992), and
    for rel = 0, the floor, for the point it returns.

    One formula for both storages.  A selection ensemble has A A* = I, so mu
    is A(z) - y and the projection is exact.  For a dense ensemble mu comes
    from conjugate gradients, warm-started from the previous call's mu, whose
    residual is carried over: the previous call's recurrence residual plus
    the change in A(z) - y, so a warm start costs no Gram product.  The
    rel = 0 call forms its residual afresh, so the returned point's
    feasibility does not rest on the carried one.  Products with A A* use
    the m x m Gram rows @ rows.T, formed here once in one BLAS call (its
    symmetric rank-k path, so the Gram is exactly symmetric), when
    m <= n1 n2 (the Gram is then no larger than the rows), and
    rows @ (rows.T @ p) otherwise.  The Gram is never factorised: at the
    harness's m = 480 a LAPACK factorisation's copies and workspace cost
    several megabytes of peak memory, where CG needs a few m x m products."""
    if ens.rows is None:
        def project(z, rel):
            return z - adjoint_ensemble(ens, apply_ensemble(ens, z) - y), 0.0, False
        return project
    rows = ens.rows
    if ens.m <= rows.shape[1]:
        gram = rows @ rows.T

        def gram_times(p):
            return gram @ p
    else:
        def gram_times(p):
            return rows @ (rows.T @ p)
    # the mean eigenvalue of A A*, trace / m, sets the scale of "no curvature"
    null_curv = CG_NULL_CURVATURE * float(np.vdot(rows, rows)) / ens.m
    floor = CG_FLOOR * float(np.linalg.norm(y))
    mu = np.zeros(ens.m)
    b = r = -y   # the right-hand side A(0) - y and its residual at mu = 0

    def project(z, rel):
        nonlocal mu, b, r
        b_new = apply_ensemble(ens, z) - y
        r = r + (b_new - b) if rel else None
        b = b_new
        mu, r, null = _cg(gram_times, b, mu, r, rel, floor, null_curv)
        return z - adjoint_ensemble(ens, mu), math.sqrt(float(r @ r)), null
    return project


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point iteration z <- g(z)
    with residual f(z) = g(z) - z (Walker and Ni, SIAM J. Numer. Anal.
    2011): the next point is g - dG c, where c minimizes
    ||f - dF c||^2 + ridge ||c||^2 over the last DR_MEMORY differences dF,
    dG of f and g between consecutive points, with ridge = DR_RIDGE times
    the mean squared difference.  The differences live in preallocated
    DR_MEMORY x size rings, and their Gram dF dF' is updated one row per
    point."""

    def __init__(self, size):
        self.df = np.empty((DR_MEMORY, size))
        self.dg = np.empty((DR_MEMORY, size))
        self.gram = np.empty((DR_MEMORY, DR_MEMORY))
        self.count = 0      # differences held
        self.head = 0       # the ring slot the next difference goes to
        self.last = None    # (f, g) of the last point, flattened

    def clear(self):
        """Forget the differences; the last point stays, so the next point
        starts a new memory."""
        self.count = self.head = 0

    def step(self, f, g):
        """Record the point with residual f and plain step g; return the next
        point, shaped as g, and whether it is accelerated (an empty memory
        returns g itself)."""
        f_flat, g_flat = f.ravel(), g.ravel()
        if self.last is not None:
            j = self.head
            np.subtract(f_flat, self.last[0], out=self.df[j])
            np.subtract(g_flat, self.last[1], out=self.dg[j])
            self.head = (j + 1) % DR_MEMORY
            self.count = min(self.count + 1, DR_MEMORY)
            col = self.df[:self.count] @ self.df[j]
            self.gram[j, :self.count] = col
            self.gram[:self.count, j] = col
        self.last = (f_flat, g_flat)
        k = self.count
        if k == 0:
            return g, False
        lhs = self.gram[:k, :k] + (DR_RIDGE * np.trace(self.gram[:k, :k]) / k) * np.eye(k)
        try:
            c = np.linalg.solve(lhs, self.df[:k] @ f_flat)
        except np.linalg.LinAlgError:
            self.clear()
            return g, False
        return g - (c @ self.dg[:k]).reshape(g.shape), True


def solve_noiseless(ens, y, config=None):
    """Minimize ||X||_* subject to A(X) = y, by Douglas-Rachford splitting
    with Anderson acceleration.

    With P the projection onto {A(X) = y} and gamma = 0.1 ||y||, the DR map
    takes z to g = z + f, where x = P(z), w = prox_{gamma ||.||_*}(2x - z)
    and f = w - x (Eckstein and Bertsekas, Math. Program. 1992), and the
    solve stops at the first accepted point with ||f||_F <= 1e-7 ||x||_F.
    The next point is g moved by type-II Anderson acceleration over the
    last DR_MEMORY differences between points (_Anderson; Fu, Zhang and Boyd, "Anderson
    accelerated Douglas-Rachford splitting", arXiv 1908.11482); with an
    empty memory it is g, the plain DR step.  Safeguard: an accelerated
    point whose ||f|| exceeds that of the last accepted point is rejected,
    the memory is cleared and the solve rewinds to the plain step g stored
    from that point, so accepted residuals fall as in plain DR.  Every
    evaluation of the map (one projection, one SVD) counts as an iteration.

    It returns the projected point P(z) of the last point, its projection
    solved tightly, so the estimate is feasible to rounding; converged also
    requires the recomputed ||A(X) - y||_2 <= eq_tol ||y||_2.  max_iters
    caps the iterations (flag ``iteration-cap``).  When a projection's CG
    meets the null space of A A* with its residual still above that target,
    y lies outside the range of A, no X is feasible, and the solve stops at
    once (flag ``infeasible``).

    The report describes one stage: tau_path = (gamma,), one SVD per
    iteration in prox_steps, and the safeguard's rejections in restarts.
    """
    cfg = config or SolverConfig()
    y = _check_y(ens, y)
    if not np.any(y):
        return _report(ens, y, np.zeros((ens.n1, ens.n2)), True)
    ynorm = float(np.linalg.norm(y))
    gamma = DR_GAMMA * ynorm
    feas = cfg.eq_tol * ynorm
    project = _affine_projection(ens, y)
    anderson = _Anderson(ens.n1 * ens.n2)
    z = np.zeros((ens.n1, ens.n2))
    accelerated = False
    f_accepted = math.inf   # ||f|| at the last accepted point
    flags = ("iteration-cap",)
    stages = _Stages()
    it = 0
    while it < cfg.max_iters:
        x, res, null = project(z, CG_REL)
        if null and res > feas:
            flags = ("infeasible",)
            break
        w, _ = prox_nuclear(2.0 * x - z, gamma)
        it += 1
        f = w - x
        f_norm = np.linalg.norm(f)
        if accelerated and f_norm > f_accepted:
            # rewind to the plain step from the last accepted point
            stages.restarts += 1
            anderson.clear()
            z, accelerated = g, False
            continue
        if f_norm <= DR_TOL * np.linalg.norm(x):
            flags = ()
            break
        g = z + f
        f_accepted = f_norm
        z, accelerated = anderson.step(f, g)
    if flags == ("iteration-cap",):
        z = g   # the plain step from the last accepted point, not an untried one
    x, _, _ = project(z, 0.0)
    stages.taus, stages.iterations = [gamma], [it]
    stages.prox_steps = it
    # the report measures x once; its residual decides feasibility too
    rep = _report(ens, y, x, not flags, flags, stages)
    res = rep.equality_residual
    return replace(rep, converged=rep.converged and res <= feas, residual_path=(res,))


def solve_lasso(ens, y, delta, config=None):
    """Minimize ||X||_* subject to ||A(X) - y||_2 <= delta.

    Takes a MeasurementEnsemble, as the other programs do (entry sampling is
    entry_sampling_ensemble(omega), with y in Omega's stored order).  The
    equality residual of the penalized solution is monotone in tau, so the
    constrained solution is a root in tau.  Continuation stages
    (tau0 = ||A*(y)||_op shrunk 4-fold per stage, eps = 1e-3) run until one
    is feasible; that brackets the root between a feasible and an
    infeasible tau.  Root-finding stages
    (eps = 1e-4) then narrow the bracket to a ratio of 1 + 1e-4 by Illinois
    regula falsi on log(residual / delta) against log tau, each step kept
    half the tolerance inside the bracket (the secant method on the
    residual as a function of the penalty is SPGL1's, van den Berg and
    Friedlander, SIAM J. Sci. Comput. 2008).  Every stage starts from the
    previous stage's point.  Among all feasible stage results the one with
    the smallest nuclear norm (ties: smallest residual) is returned.  A stage
    that ends uncertified at max_iters adds the flag ``stage-iteration-cap``.

    Accuracy: the returned nuclear norm exceeds the residual-ball minimum
    by at most 7.6e-6 relative on the benchmark's sensing-gaussian lasso
    (seeds 1-5, passes 1-3, against certified penalized solves bisected to
    a tau ratio of 1 + 1e-8), in 5-7 stages.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    cfg = config or SolverConfig()
    y = _check_y(ens, y)
    ynorm = float(np.linalg.norm(y))
    feas_tol = delta * (1.0 + BALL_SLACK)
    if feas_tol >= ynorm:
        # the zero matrix is feasible (y = 0 too) and has minimal nuclear norm
        return _report(ens, y, np.zeros((ens.n1, ens.n2)), True)
    if delta == 0:
        return solve_noiseless(ens, y, config=cfg)

    tau0 = operator_norm(adjoint_ensemble(ens, y))
    stages = _Stages()
    records = []    # (tau, x, ||x||_*, log excess) of every stage
    point = (np.zeros((ens.n1, ens.n2)), np.zeros(ens.m))
    cap_flag = ()   # ("stage-iteration-cap",) once a stage ends uncertified at max_iters

    def log_excess(tau, eps):
        """Run the stage at tau from the last stage's point at stop-rule eps;
        returns log(residual / feas_tol), feasible when <= 0."""
        nonlocal point, cap_flag
        point, nuc, _, flags = _penalized_core(ens, y, tau, point, stages,
                                               cfg.max_iters, eps)
        if "iteration-cap" in flags:
            cap_flag = ("stage-iteration-cap",)
        f = math.log(max(stages.residuals[-1] / feas_tol, 1e-300))
        records.append((tau, point[0], nuc, f))
        return f

    # continuation down from tau0 until feasible
    tau = tau0 * CONTINUATION
    f_hi = math.log(ynorm / feas_tol)   # at tau0 the penalized solution is X = 0
    while (f := log_excess(tau, STAGE_EPS)) > 0:
        tau, f_hi = tau * CONTINUATION, f
        if tau < tau0 * 1e-14:
            best = min(records, key=lambda rec: (rec[3], rec[0]))
            return _report(ens, y, best[1], False, ("delta-unreachable", *cap_flag),
                           stages)

    # Illinois regula falsi in log tau on the bracket [lo, hi], feasible at lo
    # (f_lo <= 0) and infeasible at hi (f_hi > 0)
    lo, hi, f_lo = math.log(tau), math.log(tau / CONTINUATION), f
    tol = math.log(BRACKET_RATIO)
    moved = 0   # +1 after a step that moved lo, -1 after one that moved hi
    while hi - lo > tol:
        u = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        u = min(max(u, lo + 0.5 * tol), hi - 0.5 * tol)
        f = log_excess(math.exp(u), SEARCH_EPS)
        if f <= 0:
            lo, f_lo = u, f
            if moved > 0:
                f_hi *= 0.5   # Illinois: an end kept twice has its value halved
            moved = 1
        else:
            hi, f_hi = u, f
            if moved < 0:
                f_lo *= 0.5
            moved = -1

    best = min((rec for rec in records if rec[3] <= 0),
               key=lambda rec: (rec[2], rec[3]))
    return _report(ens, y, best[1], True, cap_flag, stages)
