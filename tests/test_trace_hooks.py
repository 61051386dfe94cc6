"""The benchmark's traced run hooks library names from outside the program
and reports a metric as null when a name it hooks is gone.  These tests keep
every hooked name bound, and keep the engine calling A and A* through the
names the tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from lowrankrec.matcore import LowRankSpec, equal_spectrum, gen_low_rank
from lowrankrec.measure import apply_ensemble, gaussian_ensemble

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_hook_target_resolves_to_a_callable():
    hooks = tracing.LIBRARY_HOOKS + tracing.HARNESS_HOOKS
    missing = [f"{module}.{attr}" for module, attr, _ in hooks
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_engine_calls_the_operator_through_the_hooked_names(monkeypatch):
    solve_mod = importlib.import_module("lowrankrec.solve")
    calls = {"apply": 0, "adjoint": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solve_mod, "apply_ensemble",
                        counted("apply", solve_mod.apply_ensemble))
    monkeypatch.setattr(solve_mod, "adjoint_ensemble",
                        counted("adjoint", solve_mod.adjoint_ensemble))
    truth, _ = gen_low_rank(LowRankSpec(8, 8, 1, equal_spectrum(1, 1.0),
                                        "random-orthogonal", 4))
    ens = gaussian_ensemble(8, 8, 40, seed=4)
    rep = solve_mod.solve_noiseless(ens, apply_ensemble(ens, truth))
    assert rep.converged and rep.prox_steps > 0
    # every Douglas-Rachford iteration projects once, measuring z with A and
    # correcting it with A*, and takes one prox step
    assert calls["apply"] >= rep.prox_steps
    assert calls["adjoint"] >= rep.iterations
    assert np.isfinite(rep.estimate).all()
