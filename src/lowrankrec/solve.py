"""Nuclear-norm recovery programs.

All three programs are driven by one engine: accelerated proximal descent
(FISTA momentum) applied to

    minimize_X  tau * ||X||_*  +  1/2 ||A(X) - y||_2^2 .

The step is 1/L with L set by a local curvature test, not by a global bound
on ||A||^2.  Each iteration computes the gradient at the momentum point z
once, first tries L <- 0.95 L, and accepts x = prox_{tau/L}(z - grad/L) when
||A(x - z)||^2 <= L ||x - z||^2; otherwise it doubles L and redoes only the
prox and A(x).  The smooth part is quadratic, so the test is exact, and it
costs nothing: the engine already holds A(x) and A(z).  L starts at 1.0, the
scale at which every ensemble is normalised (E ||A(X)||^2 = ||X||^2), and the
continuation and bisection drivers hand the last accepted L to the next stage
(Beck and Teboulle, SIAM J. Imaging Sci. 2009; Scheinberg, Goldfarb and Bai,
Found. Comput. Math. 2014).

Momentum is reset by two rules: on an objective increase (the step is retaken
from the incumbent, so accepted iterates never increase the objective), and
by the gradient scheme of O'Donoghue and Candes (arXiv 1204.3982) when the
step just taken moves against its own generalized gradient.  The second rule
cuts the slow, oscillating momentum phases of small-tau continuation stages.

Stop rules.  Every solve stops when the iterate moves less than fista_tol
relative to ||X||.  A continuation or bisection stage, whose result only
warm-starts the next stage, also stops at the first accepted step
x = prox_{tau/L}(z - grad/L) with L ||x - z||_F <= 1e-3 tau: L (z - x) is the
prox-gradient mapping, zero exactly at a minimizer, and both sides scale
with y, so the test is unit-free (the relative KKT test of Toh and Yun, Pac.
J. Optim. 2010; inexact continuation stages as in Ma, Goldfarb and Chen,
arXiv 0905.1643).  solve_penalized and solve_dantzig report converged only
once stationarity is certified, ||A*(y - A(X))||_op <= tau (1 + 1e-6).

* solve_penalized  - the penalized problem itself at a fixed tau.
* solve_dantzig    - the penalized problem at tau = lambda, whose stationary
                     point satisfies the residual-correlation constraint
                     ||A*(y - A(X))||_op <= lambda; it is not certified to be
                     the constrained program's nuclear-norm minimizer.
* solve_noiseless  - equality constraint A(X) = y via continuation: shrink tau
                     geometrically, warm-starting, until the residual passes
                     the feasibility tolerance.
* solve_lasso      - residual-ball constraint ||A(X) - y||_2 <= delta via
                     bisection on tau (the residual is monotone in tau).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import check_matrix, nuclear_norm, operator_norm
from .measure import (MeasurementEnsemble, ObservationSet, adjoint_ensemble,
                      apply_ensemble, entry_sampling_ensemble)
from .rand import spawn_rng

__all__ = [
    "SolverConfig",
    "SolverReport",
    "estimate_lipschitz",
    "choose_lambda",
    "solve_penalized",
    "solve_noiseless",
    "solve_dantzig",
    "solve_lasso",
]

STATIONARITY_SLACK = 1e-6   # converged iff dual_residual <= tau * (1 + slack)
LIP_SHRINK = 0.95           # each iteration first tries the step bound L <- 0.95 L
CURVATURE_SLACK = 1e-20     # curvature test passes when ||A(x - z)||^2 <= 1e-20 ||y||^2
STAGE_STATIONARITY = 1e-3   # a stage stops when L ||x - z||_F <= 1e-3 tau


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000            # proximal iterations per penalized solve
    fista_tol: float = 1e-8          # stop when ||x_new - x|| < fista_tol ||x_new||
    eq_tol: float = 1e-6             # relative feasibility target, noiseless program
    continuation_factor: float = 0.25  # geometric tau shrink per stage
    bisection_iters: int = 40        # max bisection steps, lasso program

    def __post_init__(self):
        if self.max_iters < 1 or self.bisection_iters < 1:
            raise ValueError("iteration counts must be positive")
        if not (0 < self.fista_tol < 1) or not (0 < self.eq_tol < 1):
            raise ValueError("tolerances must be in (0, 1)")
        if not (0 < self.continuation_factor < 1):
            raise ValueError("continuation factor must be in (0, 1)")


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
    restarts: int = 0          # momentum resets, by either restart rule
    prox_steps: int = 0        # prox evaluations (SVDs), curvature retries included

    def to_json_dict(self):
        return {
            "estimate": self.estimate.tolist(),
            "objective": self.objective,
            "equality_residual": self.equality_residual,
            "dual_residual": self.dual_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "tau_path": list(self.tau_path),
            "residual_path": list(self.residual_path),
            "flags": list(self.flags),
            "stage_iterations": list(self.stage_iterations),
            "restarts": self.restarts,
            "prox_steps": self.prox_steps,
        }


def _check_y(ens, y):
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != ens.m:
        raise ValueError(f"y has length {y.shape[0]}, ensemble m={ens.m}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    return y


def estimate_lipschitz(ens, iters=120, seed=0):
    """Largest eigenvalue of A*A (the gradient Lipschitz constant), by power
    iteration, with a 5% safety margin.  Exact 1.0 for a selection ensemble
    (entry sampling, vectorization), whose A*A is an orthogonal projector.

    A diagnostic: the solvers do not call it, since their step rule finds a
    local bound along the iterates (see the module docstring).  It stays
    because the benchmark's traced run hooks this name for its
    solve.lipschitz.s metric, and reports that and the metrics sharing its
    solve spans as null when the name is gone; it can be removed together
    with that metric."""
    if ens.rows is None:
        return 1.0
    rng = spawn_rng(seed, 977)
    x = rng.standard_normal((ens.n1, ens.n2))
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(iters):
        w = adjoint_ensemble(ens, apply_ensemble(ens, x))
        lam = float(np.vdot(x, w))
        norm = np.linalg.norm(w)
        if norm == 0:
            return 1.0
        x = w / norm
    return 1.05 * lam


def _prox_nuc(g, thresh):
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    s = np.maximum(s - thresh, 0.0)
    return (u * s) @ vt, float(s.sum())


def _objective(tau, nuc, ax, y):
    r = ax - y
    return tau * nuc + 0.5 * float(r @ r)


class _Stages:
    """The penalized stages of one solve, in visit order, and what one stage
    hands the next: the last accepted step bound L and the running counts."""

    def __init__(self, lip=1.0):
        self.lip = lip
        self.taus, self.residuals, self.iterations = [], [], []
        self.restarts = 0
        self.prox_steps = 0     # prox evaluations, curvature retries included
        self.capped = False     # a continuation or bisection stage stopped at
                                # max_iters short of its stop rule


def _prox_step(ens, y, tau, z, az, grad, stages):
    """One proximal gradient step from z, where A(z) = az and grad is the
    gradient there, at the first of L, 2L, 4L, ... (L = stages.lip) that
    passes the local curvature test ||A(x - z)||^2 <= L ||x - z||^2.  The
    smooth part is quadratic, so the test is exactly the condition that the
    step's quadratic model bounds it.  Sets stages.lip to the accepted L and
    returns (x, A(x), objective at x)."""
    floor = CURVATURE_SLACK * float(y @ y)   # rounding in A(x) - A(z)
    lip = stages.lip
    while True:
        x, nuc = _prox_nuc(z - grad / lip, tau / lip)
        ax = apply_ensemble(ens, x)
        stages.prox_steps += 1
        ad = ax - az
        if float(ad @ ad) <= lip * float(np.vdot(x - z, x - z)) + floor:
            break
        lip *= 2.0
    stages.lip = lip
    return x, ax, _objective(tau, nuc, ax, y)


def _penalized_core(ens, y, tau, x0, stages, max_iters, tol,
                    require_stationarity=True):
    """Monotone accelerated proximal descent on the penalized objective.

    Step rule: each iteration computes the gradient at the momentum point z
    once, first tries the step bound L <- LIP_SHRINK * L, and doubles L
    (recomputing only the prox and A(x)) until the local curvature test
    passes; the accepted L carries over to the next iteration and, through
    ``stages``, to the next stage.

    Momentum is reset (t = 1, no momentum on that step) by either of two
    rules.  Objective rule: a step from the momentum point that increases
    the objective is retaken from the incumbent; a step from the incumbent
    that passes the curvature test cannot increase it, so if it still does
    the numerical floor is reached and the solve stops.  Gradient rule
    (O'Donoghue and Candes, "Adaptive restart for accelerated gradient
    schemes", arXiv 1204.3982): after an accepted step x -> x_new taken from
    the momentum point z, momentum is reset when <z - x_new, x_new - x> > 0,
    i.e. when the step's generalized gradient points against the direction
    of travel.

    Stop rule: the iterate moves less than ``tol`` relative to ||x||; then,
    with ``require_stationarity``, the certificate
    ||A*(y - A(x))||_op <= tau (1 + STATIONARITY_SLACK) must also hold, or
    the threshold is cut fourfold and descent goes on.  Without it (a
    continuation or bisection stage) the solve also stops at the first
    accepted step x_new from z with L ||x_new - z||_F <= STAGE_STATIONARITY
    * tau, the norm of the prox-gradient mapping at z measured against the
    penalty level.  The objective comparisons and both tests are relative,
    so scaling y scales the iterates and nothing else.

    Records the stage (tau, residual, iterations) and its restarts in
    ``stages``.  Returns (x, A(x), converged, flags).
    """
    x = x0.copy()
    ax = apply_ensemble(ens, x)
    nuc = nuclear_norm(x) if np.any(x) else 0.0
    fx = _objective(tau, nuc, ax, y)
    z, az = x, ax   # z is x exactly when the next step carries no momentum
    t = 1.0
    tol_eff = tol
    flags = []
    it = 0
    converged = False
    while it < max_iters:
        it += 1
        stages.lip *= LIP_SHRINK
        grad = adjoint_ensemble(ens, az - y)
        x_new, ax_new, f_new = _prox_step(ens, y, tau, z, az, grad, stages)
        slack = 1e-12 * fx   # fx > 0: y is not zero here
        if f_new > fx + slack and z is not x:
            # overshoot: restart momentum at the incumbent
            z, az, t = x, ax, 1.0
            stages.restarts += 1
            grad = adjoint_ensemble(ens, ax - y)
            x_new, ax_new, f_new = _prox_step(ens, y, tau, z, az, grad, stages)
        if f_new > fx + slack:
            # numerical floor: no descent direction left
            flags.append("objective-floor")
            converged = _stationary(ens, y, ax, tau) if require_stationarity else True
            break
        step = x_new - x
        snorm, xnorm = np.linalg.norm(step), np.linalg.norm(x_new)
        rel = snorm / xnorm if xnorm else (math.inf if snorm else 0.0)
        # a stage is done once the prox-gradient mapping at z, L (z - x_new),
        # is small against tau; taken before the momentum update moves z
        stage_done = (not require_stationarity and stages.lip * np.linalg.norm(x_new - z)
                      <= STAGE_STATIONARITY * tau)
        if np.vdot(z - x_new, step) > 0:
            t = 1.0   # gradient restart
            stages.restarts += 1
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        if beta > 0.0:
            z = x_new + beta * step
            az = ax_new + beta * (ax_new - ax)  # A is linear; no extra measurement
        else:
            z, az = x_new, ax_new
        x, ax, fx, t = x_new, ax_new, f_new, t_new
        if rel < tol_eff or stage_done:
            if not require_stationarity or _stationary(ens, y, ax, tau):
                converged = True
                break
            tol_eff = max(tol_eff * 0.25, 1e-15)  # demand more progress
    else:
        if require_stationarity:
            converged = _stationary(ens, y, ax, tau)
            if not converged:
                flags.append("iteration-cap")
        else:
            stages.capped = True
    stages.taus.append(tau)
    stages.residuals.append(float(np.linalg.norm(ax - y)))
    stages.iterations.append(it)
    return x, ax, converged, tuple(flags)


def _stationary(ens, y, ax, tau):
    dres = operator_norm(adjoint_ensemble(ens, y - ax))
    return dres <= tau * (1.0 + STATIONARITY_SLACK)


def _report(ens, y, x, ax, converged, stages, flags=()):
    res = ax - y
    if stages.capped:
        flags = (*flags, "stage-iteration-cap")
    return SolverReport(
        estimate=x,
        objective=nuclear_norm(x) if np.any(x) else 0.0,
        equality_residual=float(np.linalg.norm(res)),
        dual_residual=float(operator_norm(adjoint_ensemble(ens, -res))),
        iterations=int(sum(stages.iterations)),
        converged=bool(converged),
        tau_path=tuple(float(t) for t in stages.taus),
        residual_path=tuple(float(r) for r in stages.residuals),
        flags=tuple(flags),
        stage_iterations=tuple(int(k) for k in stages.iterations),
        restarts=int(stages.restarts),
        prox_steps=int(stages.prox_steps),
    )


def _zero_report(ens, y, flags=()):
    x = np.zeros((ens.n1, ens.n2))
    return _report(ens, y, x, np.zeros(ens.m), True, _Stages(), flags)


def solve_penalized(ens, y, tau, config=None, x0=None, lipschitz=None):
    """Minimize tau * ||X||_* + 1/2 ||A(X) - y||^2.

    ``lipschitz`` is the starting step bound L (default 1.0, the scale at
    which every ensemble is normalised); the engine lowers or raises it by
    its local curvature test, so it need not bound ||A||^2.

    converged means first-order stationarity was certified:
    ||A*(y - A(X))||_op <= tau * (1 + 1e-6).
    """
    cfg = config or SolverConfig()
    y = _check_y(ens, y)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x0 = np.zeros((ens.n1, ens.n2)) if x0 is None else check_matrix(x0)
    if not np.any(y):
        return _zero_report(ens, y)
    stages = _Stages(1.0 if lipschitz is None else lipschitz)
    x, ax, conv, flags = _penalized_core(
        ens, y, tau, x0, stages, cfg.max_iters, cfg.fista_tol)
    return _report(ens, y, x, ax, conv, stages, flags)


def choose_lambda(n, sigma, c_mult=1.5):
    """Residual-correlation threshold c_mult * sqrt(2 n) * sigma.

    The back-projected noise A*(z) behaves like an n x n matrix with iid
    N(0, sigma^2) entries, whose operator norm concentrates near 2 sqrt(n)
    sigma; the default multiplier keeps the threshold above that level in
    the vast majority of draws.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return float(c_mult * math.sqrt(2.0 * n) * sigma)


def solve_dantzig(ens, y, lam, config=None):
    """Residual-correlation (Dantzig-type) estimate at level lambda.

    Returns the stationary point of the penalized problem at tau = lambda,
    i.e. solve_penalized(ens, y, lambda).  Stationarity, certified before
    reporting converged, makes it feasible for ||A*(y - A(X))||_op <= lambda,
    but it is not certified to have the smallest nuclear norm among feasible
    points, so it is not in general the solution of min ||X||_* subject to
    that constraint.  The two coincide for the vectorization ensemble, where
    both are the singular-value soft threshold of A*(y) at lambda.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    y = _check_y(ens, y)
    if not np.any(y):
        return _zero_report(ens, y)
    return solve_penalized(ens, y, lam, config=config)


def solve_noiseless(ens, y, config=None):
    """Minimize ||X||_* subject to A(X) = y, by penalty continuation.

    tau shrinks geometrically from just below ||A*(y)||_op (where the zero
    matrix is optimal), warm-starting each stage, until the equality residual
    drops below eq_tol * ||y||_2.  Hitting the tau floor first reports
    converged = False.
    """
    cfg = config or SolverConfig()
    y = _check_y(ens, y)
    if not np.any(y):
        return _zero_report(ens, y)
    ynorm = float(np.linalg.norm(y))
    tau0 = operator_norm(adjoint_ensemble(ens, y))
    tau = tau0 * cfg.continuation_factor
    x = np.zeros((ens.n1, ens.n2))
    stages = _Stages()
    converged = False
    flags = ()
    while True:
        x, ax, _, _ = _penalized_core(
            ens, y, tau, x, stages, cfg.max_iters, cfg.fista_tol,
            require_stationarity=False)
        if stages.residuals[-1] <= cfg.eq_tol * ynorm:
            converged = True
            break
        tau *= cfg.continuation_factor
        if tau < tau0 * 1e-14:
            flags = ("tau-floor",)
            break
    return _report(ens, y, x, ax, converged, stages, flags)


def solve_lasso(ens, y, delta, config=None):
    """Minimize ||X||_* subject to ||A(X) - y||_2 <= delta.

    Accepts either a MeasurementEnsemble or an ObservationSet (interpreted as
    entry sampling with y in the stored Omega order).  The equality residual
    of the penalized solution is monotone in tau, so the constrained solution
    is found by bisection on tau; among all feasible iterates the one with
    the smallest nuclear norm (ties: smallest residual) is returned.
    """
    if isinstance(ens, ObservationSet):
        ens = entry_sampling_ensemble(ens)
    if not isinstance(ens, MeasurementEnsemble):
        raise TypeError("expected a MeasurementEnsemble or ObservationSet")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    cfg = config or SolverConfig()
    y = _check_y(ens, y)
    if not np.any(y):
        return _zero_report(ens, y)
    ynorm = float(np.linalg.norm(y))
    if delta >= ynorm:
        # the zero matrix is already feasible, and has minimal nuclear norm
        return _zero_report(ens, y)
    if delta == 0:
        return solve_noiseless(ens, y, config=cfg)

    tau0 = operator_norm(adjoint_ensemble(ens, y))
    feas_tol = delta * (1.0 + STATIONARITY_SLACK)
    stages = _Stages()
    records = []
    x = np.zeros((ens.n1, ens.n2))

    def eval_tau(tau):
        nonlocal x
        x, ax, _, _ = _penalized_core(
            ens, y, tau, x, stages, cfg.max_iters, cfg.fista_tol,
            require_stationarity=False)
        res = stages.residuals[-1]
        records.append((tau, x.copy(), ax.copy(), res))
        return res

    # continuation down from tau0 until feasible
    tau = tau0 * cfg.continuation_factor
    while eval_tau(tau) > feas_tol:
        tau *= cfg.continuation_factor
        if tau < tau0 * 1e-14:
            best = min(records, key=lambda rec: (rec[3], rec[0]))
            return _report(ens, y, best[1], best[2], False, stages,
                           ("delta-unreachable",))
    tau_feas, tau_infeas = tau, tau / cfg.continuation_factor

    # bisect (geometrically) toward the largest feasible tau
    for _ in range(cfg.bisection_iters):
        if tau_infeas / tau_feas <= 1.0 + 1e-4:
            break
        mid = math.sqrt(tau_feas * tau_infeas)
        if eval_tau(mid) <= feas_tol:
            tau_feas = mid
        else:
            tau_infeas = mid

    feasible = [rec for rec in records if rec[3] <= feas_tol]
    best = min(feasible,
               key=lambda rec: (nuclear_norm(rec[1]) if np.any(rec[1]) else 0.0,
                                rec[3]))
    return _report(ens, y, best[1], best[2], True, stages)
