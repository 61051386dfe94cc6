import math

import numpy as np
import pytest

from lowrankrec.diagnostics import (CoherenceReport, coherence,
                                    concentration_bound, concentration_probe,
                                    rip_probe, theory_advisor)
from lowrankrec.matcore import (LowRankSpec, SvdFactors, equal_spectrum,
                                gen_low_rank, svd)
from lowrankrec.measure import (ObservationSet, entry_sampling_ensemble,
                                gaussian_ensemble, sample_omega,
                                vectorization_ensemble)


def hadamard4():
    h = np.array([[1, 1, 1, 1],
                  [1, -1, 1, -1],
                  [1, 1, -1, -1],
                  [1, -1, -1, 1]], dtype=float)
    return h / 2.0


# ------------------------------------------------------------------ coherence

def test_flat_singular_vectors_give_unit_mu_b():
    h = hadamard4()
    f = SvdFactors(u=h, sigma=np.array([4.0, 3.0, 2.0, 1.0]), v=h)
    rep = coherence(f)
    assert abs(rep.mu_b - 1.0) < 1e-12


def test_spiky_gives_maximal_mu_b():
    m, f = gen_low_rank(LowRankSpec(6, 6, 1, (1.0,), "spiky", 0))
    rep = coherence(svd(m), r=1)
    assert abs(rep.mu_b - 6.0) < 1e-9
    assert rep.mu_strong >= rep.mu1


def test_equal_spectrum_makes_mu2_equal_mu1():
    _, f = gen_low_rank(LowRankSpec(12, 12, 3, equal_spectrum(3, 2.5),
                                    "random-orthogonal", 4))
    rep = coherence(f, r=3)
    assert abs(rep.mu2 - rep.mu1) < 1e-9
    assert abs(rep.kappa - 1.0) < 1e-12


def test_condition_number_of_padded_diagonal():
    m = np.zeros((5, 5))
    m[0, 0], m[1, 1] = 4.0, 2.0
    rep = coherence(svd(m), r=2)
    assert abs(rep.kappa - 2.0) < 1e-12


def test_zero_smallest_singular_value_flags_infinite_kappa():
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    rep = coherence(svd(m), r=2)
    assert math.isinf(rep.kappa)


def test_coherence_scale_invariance():
    m, _ = gen_low_rank(LowRankSpec(10, 8, 2, (2.0, 1.0),
                                    "random-orthogonal", 7))
    a, b = coherence(svd(m)), coherence(svd(3.7 * m))
    for field in ("mu_b", "mu0", "mu1", "mu_strong", "mu2", "kappa"):
        assert abs(getattr(a, field) - getattr(b, field)) < 1e-9


def test_coherence_bounds_hold():
    for seed in range(10):
        _, f = gen_low_rank(LowRankSpec(9, 9, 3, equal_spectrum(3, 1.0),
                                        "random-orthogonal", seed))
        rep = coherence(f)
        assert 1.0 - 1e-12 <= rep.mu_b <= 9.0 + 1e-12
        assert rep.mu0 >= 1.0 - 1e-12
        assert rep.mu_strong >= rep.mu1 - 1e-12
        assert rep.kappa >= 1.0


def test_random_orthogonal_coherence_statistics():
    # spread factors keep mu0 at a dimension-free level and mu_strong within
    # a log factor; statistical check over 100 seeds
    n, r = 200, 6
    mu0s, strongs = [], []
    for seed in range(100):
        _, f = gen_low_rank(LowRankSpec(n, n, r, equal_spectrum(r, 1.0),
                                        "random-orthogonal", seed))
        rep = coherence(f)
        mu0s.append(rep.mu0)
        strongs.append(rep.mu_strong)
    assert np.median(mu0s) <= 5.0
    assert np.median(strongs) <= 6.0 * math.log(n)


# ------------------------------------------------------------------ rip_probe

def test_rip_vectorization_is_exact_isometry():
    est = rip_probe(vectorization_ensemble(6, 6), r=3, probes=40, seed=1)
    assert est.delta_hat == 0.0


def test_rip_entry_sampling_detects_null_space():
    omega = ObservationSet(3, 3, [(i, j) for i in range(3) for j in range(3)
                                  if (i, j) != (1, 2)])
    est = rip_probe(entry_sampling_ensemble(omega), r=1, probes=20, seed=0)
    assert est.delta_hat == 1.0
    # the closed form holds at any size, past 100 x 100 too
    omega = sample_omega(101, 101, 5000, seed=0)
    est = rip_probe(entry_sampling_ensemble(omega), r=2, probes=50, seed=0)
    assert est.delta_hat == 1.0


def test_rip_full_entry_sampling_is_isometry():
    omega = sample_omega(4, 4, 16, seed=0)
    est = rip_probe(entry_sampling_ensemble(omega), r=2, probes=20, seed=0)
    assert est.delta_hat == 0.0


def test_rip_monotone_in_rank():
    ens = gaussian_ensemble(12, 12, 100, seed=3)
    deltas = [rip_probe(ens, r=k, probes=60, seed=9).delta_hat
              for k in (1, 2, 3)]
    assert deltas[0] <= deltas[1] <= deltas[2]


def test_rip_gaussian_well_conditioned_regime():
    # m = 10 n r keeps the distortion moderate; reduced-seed version of the
    # acceptance check
    hits = 0
    for seed in range(6):
        ens = gaussian_ensemble(30, 30, 600, seed=seed)
        est = rip_probe(ens, r=2, probes=500, seed=seed)
        hits += est.delta_hat <= 0.45
    assert hits == 6


def test_rip_estimate_metadata():
    est = rip_probe(gaussian_ensemble(5, 5, 30, seed=0), r=2, probes=17, seed=5)
    assert est.r == 2 and est.probes == 17 and est.seed == 5
    assert est.delta_hat >= 0.0


# -------------------------------------------------------------- concentration

def test_concentration_bound_value():
    b = concentration_bound(200, 0.5)
    assert abs(b - 2.0 * math.exp(-100.0 * (0.125 - 0.125 / 3))) < 1e-15
    assert abs(b - 4.8e-4) < 2e-5


def test_concentration_probe_vectorization_never_violates():
    for t in (0.1, 0.5, 0.9):
        assert concentration_probe("vectorization", 5, 25, t, trials=50,
                                   seed=0) == 0.0


def test_concentration_probe_gaussian_small():
    tail = concentration_probe("gaussian", 10, 200, 0.5, trials=300, seed=1)
    assert tail == 0.0


def test_concentration_probe_rademacher():
    tail = concentration_probe("rademacher", 10, 200, 0.5, trials=1000, seed=2)
    assert tail <= 0.01


def test_concentration_probe_validates_t():
    with pytest.raises(ValueError):
        concentration_probe("gaussian", 5, 50, 1.5, trials=10, seed=0)


# ------------------------------------------------------------- theory_advisor

def flat_report(mu=2.0, kappa=1.0, r=5):
    return CoherenceReport(mu_b=mu, mu0=mu, mu1=mu, mu_strong=mu, mu2=mu,
                           kappa=kappa, r=r)


def test_advisor_full_sampling_satisfies_everything():
    rep = flat_report(mu=1.5, r=2)
    rows = theory_advisor(rep, n=100, r=2, m=100 * 100)
    assert len(rows) == 11
    assert all(row.ratio >= 1.0 for row in rows)
    assert all(row.satisfied for row in rows)
    assert all(row.requirement <= 100 * 100 for row in rows)


def test_advisor_zero_measurements():
    rows = theory_advisor(flat_report(), n=100, r=2, m=0)
    assert all(row.ratio == 0.0 for row in rows)
    assert not any(row.satisfied for row in rows)


def test_advisor_smallrank_row_ratio_ten():
    n, r = 1000, 5
    m = int(round(10 * n ** 1.2 * r * math.log(n)))
    rows = {row.row_id: row for row in theory_advisor(flat_report(r=r), n, r, m)}
    row = rows["rom-smallrank"]
    assert abs(row.ratio - 10.0) < 1e-3
    assert row.satisfied
    # the side condition r <= n^(1/5) is actually false here (1000^0.2 < 5)
    # and the table reports that honestly
    assert row.condition_met is False


def test_advisor_requirement_monotone_in_coherence():
    lo = {r.row_id: r for r in theory_advisor(flat_report(mu=1.0), 100, 2, 5000)}
    hi = {r.row_id: r for r in theory_advisor(flat_report(mu=3.0), 100, 2, 5000)}
    assert (hi["incoherent-general"].raw_requirement
            > lo["incoherent-general"].raw_requirement)
    assert (hi["strong-incoherence"].raw_requirement
            > lo["strong-incoherence"].raw_requirement)


def test_advisor_rejects_tiny_n():
    with pytest.raises(ValueError):
        theory_advisor(flat_report(), n=1, r=1, m=10)
