"""Recovery diagnostics: coherence statistics of a factorization, an
empirical lower-bound probe for the restricted isometry constant, a
measurement concentration check, and a table comparing the available sample
budget against the sufficient conditions known for each recovery regime.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matcore import RANK_RTOL, check_matrix
from .measure import (apply_ensemble, apply_stack, gaussian_ensemble,
                      rademacher_ensemble, vectorization_ensemble)
from .rand import spawn_rng, spawn_seeds

__all__ = [
    "CoherenceReport",
    "RipEstimate",
    "AdvisorRow",
    "coherence",
    "rip_probe",
    "concentration_probe",
    "concentration_bound",
    "theory_advisor",
]

@dataclass(frozen=True)
class CoherenceReport:
    """Coherence statistics of a rank-r factorization, all scaled so that the
    most spread-out ("flat") singular vectors give O(1) values and spiky ones
    give values growing with n."""

    mu_b: float       # n * (max entry magnitude over u_k, v_k)^2
    mu0: float        # (n/r) * max_i max(||P_U e_i||^2, ||P_V e_i||^2)
    mu1: float        # (n/sqrt(r)) * max entry of |U V^T|
    mu_strong: float  # max(mu1, scaled worst projector deviation)
    mu2: float        # (n/sqrt(r)) * max entry of |sum (s_i/s_r) u_i v_i^T|
    kappa: float      # s_1 / s_r (inf when s_r == 0)
    r: int            # rank used


def coherence(factors, r=None):
    """Coherence statistics of ``factors``, truncated to rank ``r``.

    When ``r`` is omitted the numerical rank (singular values above
    1e-9 * sigma_1) is used.  For rectangular inputs n = max(n1, n2).
    """
    if r is None:
        r = factors.rank()
    if r < 1:
        raise ValueError("coherence requires a factorization of rank >= 1")
    if r > factors.sigma.shape[0]:
        raise ValueError(f"rank {r} exceeds stored factors ({factors.sigma.shape[0]})")
    u = factors.u[:, :r]
    v = factors.v[:, :r]
    s = factors.sigma[:r]
    n1, n2 = factors.shape
    n = max(n1, n2)
    sr = math.sqrt(r)

    mu_b = n * max(np.abs(u).max(), np.abs(v).max()) ** 2
    mu0 = (n / r) * max((u * u).sum(axis=1).max(), (v * v).sum(axis=1).max())

    uvt = u @ v.T
    mu1 = (n / sr) * np.abs(uvt).max()

    dev = 0.0
    for w, nn in ((u, n1), (v, n2)):
        proj = w @ w.T
        proj[np.diag_indices(nn)] -= r / n
        dev = max(dev, np.abs(proj).max())
    mu_strong = max(mu1, (n / sr) * dev)

    if s[-1] > 0:
        kappa = float(s[0] / s[-1])
        weighted = (u * (s / s[-1])) @ v.T
        mu2 = (n / sr) * np.abs(weighted).max()
    else:
        kappa = math.inf
        mu2 = math.inf

    return CoherenceReport(mu_b=float(mu_b), mu0=float(mu0), mu1=float(mu1),
                           mu_strong=float(mu_strong), mu2=float(mu2),
                           kappa=kappa, r=int(r))


@dataclass(frozen=True)
class RipEstimate:
    r: int
    delta_hat: float
    probes: int
    seed: int


def _random_probe(rng, n1, n2, k):
    # Unit-Frobenius rank-k matrix: Haar-ish orthonormal factors with a
    # random positive spectrum normalized to unit l2 norm.
    gu, _ = np.linalg.qr(rng.standard_normal((n1, k)))
    gv, _ = np.linalg.qr(rng.standard_normal((n2, k)))
    s = np.sort(np.abs(rng.standard_normal(k)))[::-1]
    norm = np.linalg.norm(s)
    if norm == 0:
        s = np.full(k, 1.0 / math.sqrt(k))
    else:
        s = s / norm
    return (gu * s) @ gv.T


def rip_probe(ens, r, probes=500, seed=0):
    """Certified lower bound on the rank-r restricted isometry constant.

    Evaluates max |1 - ||A(X)||^2| over random unit-Frobenius probes of every
    rank k <= r (so the probe family is nested in r and the estimate is
    monotone), plus all basis matrices e_i e_j^T.  Every probe is feasible
    for the defining supremum, so the value never overstates the true
    constant.  An entry-sampling ensemble has that supremum in closed form:
    0 when every entry is observed (A is then a permutation isometry), else
    1, from an unobserved e_i e_j^T (|1 - 0| = 1, and no probe of a
    contraction exceeds that).
    """
    if r < 1 or r > min(ens.n1, ens.n2):
        raise ValueError(f"rank must be in [1, {min(ens.n1, ens.n2)}], got {r}")
    if probes < 0:
        raise ValueError("probe count must be nonnegative")

    if ens.rows is None:
        delta = 0.0 if ens.m == ens.n1 * ens.n2 else 1.0
    else:
        # exact maximum of |1 - ||A(e_i e_j^T)||^2| over all basis matrices
        energies = (ens.rows * ens.rows).sum(axis=0)
        delta = float(np.abs(energies - 1.0).max())
        stack = [_random_probe(spawn_rng(seed, t, k), ens.n1, ens.n2, k)
                 for t in range(probes) for k in range(1, r + 1)]
        if stack:
            vals = apply_stack(ens, np.stack(stack))
            energies = (vals * vals).sum(axis=1)
            delta = max(delta, float(np.abs(energies - 1.0).max()))
    return RipEstimate(r=int(r), delta_hat=delta, probes=int(probes), seed=int(seed))


def concentration_bound(m, t):
    """Tail bound 2 exp(-(m/2) (t^2/2 - t^3/3)) on P[| ||A(X)||^2 - 1 | > t]
    for a gaussian ensemble with m measurements and any fixed unit X."""
    if not (0 < t < 1):
        raise ValueError(f"t must be in (0, 1), got {t}")
    return 2.0 * math.exp(-(m / 2.0) * (t * t / 2.0 - t ** 3 / 3.0))


def concentration_probe(kind, n, m, t, trials=1000, seed=0):
    """Empirical violation frequency of the measurement energy concentration.

    Draws a fresh ensemble of the given kind per trial, measures one fixed
    unit-Frobenius matrix, and returns the fraction of trials with
    | ||A(X)||^2 - 1 | > t.
    """
    if kind not in ("gaussian", "rademacher", "vectorization"):
        raise ValueError(f"unsupported kind {kind!r} for concentration probe")
    if not (0 < t < 1):
        raise ValueError(f"t must be in (0, 1), got {t}")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = spawn_rng(seed, 0)
    x = rng.standard_normal((n, n))
    x /= np.linalg.norm(x)
    violations = 0
    for i in range(trials):
        if kind == "vectorization":
            ens = vectorization_ensemble(n, n)
        else:
            # fresh draw per trial, keyed deterministically off (seed, trial)
            child, = spawn_seeds(seed, 1, i, count=1)
            make = gaussian_ensemble if kind == "gaussian" else rademacher_ensemble
            ens = make(n, n, m, child)
        e = apply_ensemble(ens, x)
        if abs(float(e @ e) - 1.0) > t:
            violations += 1
    return violations / trials


@dataclass(frozen=True)
class AdvisorRow:
    """One sufficient-condition row: how the sample budget m compares against
    a known requirement formula, evaluated with all absolute constants set
    to 1 and capped at n^2 (observing everything always suffices)."""

    row_id: str
    description: str
    raw_requirement: float
    requirement: float     # min(raw, n^2)
    ratio: float           # m / requirement
    satisfied: bool        # ratio >= 1, up to the unknown constant
    condition: str = ""    # side condition, if any ("" = none)
    condition_met: bool = None  # None when the condition is qualitative


def theory_advisor(report, n, r, m):
    """Compare m against sufficient sample counts for each recovery regime.

    ``report`` supplies the coherence statistics; constants are set to 1 and
    every requirement is capped at n^2, so ratios are meaningful only up to
    constants (flagged per row).
    """
    if n < 2:
        raise ValueError("advisor requires n >= 2")
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    ln = math.log(n)
    mu0, mu1 = report.mu0, report.mu1
    mus, mub, mu2, kappa = report.mu_strong, report.mu_b, report.mu2, report.kappa

    rows = [
        ("rom-generic", "n^(5/4) r log n  (random orthogonal model)",
         n ** 1.25 * r * ln, "", None),
        ("rom-smallrank", "n^(6/5) r log n  (random orthogonal model)",
         n ** 1.2 * r * ln, "r <= n^(1/5)", r <= n ** 0.2),
        ("incoherent-general",
         "max(mu1^2, mu0^(1/2) mu1, mu0 n^(1/4)) n r log n",
         max(mu1 ** 2, math.sqrt(mu0) * mu1, mu0 * n ** 0.25) * n * r * ln, "", None),
        ("incoherent-smallrank", "mu0 n^(6/5) r log n",
         mu0 * n ** 1.2 * r * ln, "r <= n^(1/5)/mu0", r <= n ** 0.2 / mu0),
        ("strong-generic", "n r log^8 n", n * r * ln ** 8, "", None),
        ("strong-midrank", "n r log^7 n", n * r * ln ** 7, "r >= log n", r >= ln),
        ("strong-smallrank", "n r log^6 n", n * r * ln ** 6, "r = O(1)", None),
        ("bounded-smallrank", "mu_B^4 n log^2 n",
         mub ** 4 * n * ln ** 2, "r = O(1)", None),
        ("strong-incoherence", "mu_strong^2 n r log^6 n",
         mus ** 2 * n * r * ln ** 6, "", None),
        ("rom-linear-rank", "n^2 (constants not computable)",
         float(n * n), "r <= c n", None),
        ("optspace-noisy",
         "n kappa^2 max(mu0 r log n, mu0^2 r^2 kappa^2, mu2^2 r^2 kappa^4)",
         n * kappa ** 2 * max(mu0 * r * ln,
                              mu0 ** 2 * r ** 2 * kappa ** 2,
                              mu2 ** 2 * r ** 2 * kappa ** 4), "", None),
    ]

    out = []
    cap = float(n * n)
    for row_id, desc, raw, cond, cond_met in rows:
        req = min(float(raw), cap)
        ratio = m / req
        out.append(AdvisorRow(row_id=row_id, description=desc,
                              raw_requirement=float(raw), requirement=req,
                              ratio=float(ratio), satisfied=bool(ratio >= 1.0),
                              condition=cond, condition_met=cond_met))
    return out
