"""Oracle estimator and closed-form risk/stability bounds.

``oracle_fit`` performs the least-squares fit over the column space of a
given orthonormal frame U — the estimator available to an oracle that knows
the true column space — and the bound functions evaluate reference risk
levels that the experiment harness compares against measured errors.  Every
bound is stated up to an absolute constant (evaluated as 1) and the reports
say so.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoundReport",
    "oracle_fit",
    "ideal_risk",
    "oracle_risk_scan",
    "minimax_bound",
    "instance_optimal_bound",
    "completion_stability_bound",
    "optspace_noisy_bound",
    "gaussian_noise_opnorm",
]


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: float
    inputs: dict = field(default_factory=dict)
    up_to_constants: bool = True


def oracle_fit(u, ens, y):
    """Least squares over {U R : R r x n2}: the best fit whose columns live in
    the span of U.  Returns U @ R_hat; rank-deficient designs fall back to
    the minimum-norm solution with a warning."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != ens.n1:
        raise ValueError(f"frame shape {u.shape} does not match ensemble rows {ens.n1}")
    r = u.shape[1]
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != ens.m:
        raise ValueError(f"y has length {y.shape[0]}, ensemble m={ens.m}")

    if ens.rows is None:
        # each measurement reads one entry, so one column: solve column by column
        rows, cols = divmod(ens.index, ens.n2)
        rmat = np.zeros((r, ens.n2))
        deficient = False
        for j in range(ens.n2):
            sel = cols == j
            if not sel.any():
                deficient = True
                continue
            sol, _, rank, _ = np.linalg.lstsq(u[rows[sel]], y[sel], rcond=None)
            deficient = deficient or rank < r
            rmat[:, j] = sol
        if deficient:
            warnings.warn("oracle_fit: rank-deficient restricted design; "
                          "returning the minimum-norm solution", stacklevel=2)
        return u @ rmat

    # materialized rows: <A_k, U R> = <U^T A_k, R>
    blocks = ens.rows.reshape(ens.m, ens.n1, ens.n2)
    design = np.einsum("mij,ir->mrj", blocks, u).reshape(ens.m, r * ens.n2)
    sol, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        # fewer independent equations than unknowns: the minimizer is not
        # unique and lstsq has picked the minimum-norm one
        warnings.warn("oracle_fit: rank-deficient restricted design; "
                      "returning the minimum-norm solution", stacklevel=2)
    return u @ sol.reshape(r, ens.n2)


def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_noise(sigma):
    _check_finite(sigma=sigma)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")


def _power(x, k):
    """x ** k, or inf where a float's ** would raise OverflowError."""
    try:
        return x ** k
    except OverflowError:
        return math.inf


def _finite_value(name, value, inputs):
    """``value`` as a float, or a ValueError naming ``inputs`` when it is
    not finite (a bound past the largest float says nothing)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite at "
                         + ", ".join(f"{k}={v}" for k, v in inputs.items()))
    return float(value)


def _bound(name, value, inputs):
    return BoundReport(name=name, value=_finite_value(name, value, inputs),
                       inputs=inputs)


def _check_spectrum(sigmas):
    s = np.asarray(sigmas, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("spectrum must be nonempty")
    if not np.all(np.isfinite(s)):
        raise ValueError("singular values must be finite")
    if np.any(s < 0):
        raise ValueError("singular values must be nonnegative")
    return s


def ideal_risk(sigmas, n, sigma_noise):
    """1/2 sum_i min(sigma_i^2, n sigma_noise^2): the keep-or-kill risk of an
    oracle that retains exactly the components worth estimating."""
    s = _check_spectrum(sigmas)
    _check_finite(n=n)
    _check_noise(sigma_noise)
    with np.errstate(over="ignore"):   # an overflow is reported as not finite
        value = 0.5 * float(np.minimum(s * s, n * _power(sigma_noise, 2)).sum())
    return _bound("ideal-risk", value,
                  {"n": n, "sigma": sigma_noise, "spectrum_len": int(s.size)})


def oracle_risk_scan(sigmas, n, sigma_noise):
    """Exhaustive scan of rank cutoffs: min over r of
    sum_{i>r} sigma_i^2 + n r sigma_noise^2.  Returns (best_r, value)."""
    s = _check_spectrum(sigmas)
    _check_finite(n=n)
    _check_noise(sigma_noise)
    noise = _power(sigma_noise, 2)
    with np.errstate(over="ignore"):
        tails = np.concatenate([np.cumsum((s * s)[::-1])[::-1], [0.0]])
        # r = 0 adds no noise term, which 0 * inf would make NaN
        values = [tails[0]] + [tails[r] + n * r * noise for r in range(1, s.size + 1)]
    best = int(np.argmin(values))
    return best, _finite_value("oracle risk", values[best],
                               {"n": n, "sigma": sigma_noise})


def minimax_bound(n, r, sigma, delta_r=0.0):
    """n r sigma^2 / (1 + delta_r): the minimax risk floor over rank-r
    matrices, tightened by the isometry constant of the ensemble."""
    _check_finite(n=n, r=r)
    _check_noise(sigma)
    if not (0 <= delta_r < 1):
        raise ValueError(f"delta_r must be in [0, 1), got {delta_r}")
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    return _bound("minimax", n * r * _power(sigma, 2) / (1.0 + delta_r),
                  {"n": n, "r": r, "sigma": sigma, "delta_r": delta_r})


def instance_optimal_bound(sigmas, n, sigma_noise, r_bar):
    """sum_{i<=r_bar} min(sigma_i^2, n sigma^2) + sum_{i>r_bar} sigma_i^2:
    the per-instance risk reference at truncation level r_bar."""
    s = _check_spectrum(sigmas)
    _check_finite(n=n)
    _check_noise(sigma_noise)
    if not (0 <= r_bar <= s.size):
        raise ValueError(f"r_bar must be in [0, {s.size}], got {r_bar}")
    with np.errstate(over="ignore"):
        value = (np.minimum(s[:r_bar] ** 2, n * _power(sigma_noise, 2)).sum()
                 + (s[r_bar:] ** 2).sum())
    return _bound("instance-optimal", value,
                  {"n": n, "sigma": sigma_noise, "r_bar": int(r_bar)})


def completion_stability_bound(n, p, delta):
    """Frobenius stability guarantee for the residual-ball program on an
    entry-sampled matrix: 4 sqrt((2 + p) n / p) delta + 2 delta."""
    _check_finite(n=n, p=p, delta=delta)
    if not (0 < p <= 1):
        raise ValueError(f"p must be in (0, 1], got {p}")
    if n < 1 or delta < 0:
        raise ValueError("need n >= 1 and delta >= 0")
    return _bound("completion-stability",
                  4.0 * math.sqrt((2.0 + p) * n / p) * delta + 2.0 * delta,
                  {"n": n, "p": p, "delta": delta})


def optspace_noisy_bound(n, m, r, kappa, noise_opnorm):
    """Spectral-pipeline error bound kappa^2 (n^2 sqrt(r) / m) * ||P_Omega(Z)||_op."""
    _check_finite(n=n, m=m, r=r, kappa=kappa, noise_opnorm=noise_opnorm)
    if n < 1 or m < 1 or r < 1:
        raise ValueError("n, m, r must be positive")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if noise_opnorm < 0:
        raise ValueError("noise operator norm must be nonnegative")
    return _bound("optspace-noisy",
                  _power(kappa, 2) * (n * n * math.sqrt(r) / m) * noise_opnorm,
                  {"n": n, "m": m, "r": r, "kappa": kappa,
                   "noise_opnorm": noise_opnorm})


def gaussian_noise_opnorm(n, m, sigma):
    """Typical ||P_Omega(Z)||_op for iid Gaussian noise on m of n^2 entries:
    sqrt(m log(n) / n) * sigma."""
    _check_finite(n=n, m=m)
    _check_noise(sigma)
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    return _finite_value("gaussian noise opnorm",
                         math.sqrt(m * math.log(n) / n) * sigma,
                         {"n": n, "m": m, "sigma": sigma})
