"""Spans for the traced run, recorded from outside the program.

Hooks replace module attributes with timing wrappers; the program's own
code is not edited.  Each span records its name, start, end, parent span and
the id of the operation it belongs to.  Spans stay in memory until the run
ends.  A hook whose target no longer exists is skipped with a warning, and
every metric that depends on it is reported as null.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  solve's collaborators are hooked where
# lowrankrec.solve binds them, since that is the name its code calls.
LIBRARY_HOOKS = (
    ("lowrankrec.solve", "apply_ensemble", "measure.apply"),
    ("lowrankrec.solve", "adjoint_ensemble", "measure.adjoint"),
    ("lowrankrec.solve", "nuclear_norm", "matcore.nuclear_norm"),
    ("lowrankrec.solve", "operator_norm", "matcore.operator_norm"),
    ("lowrankrec.solve", "estimate_lipschitz", "solve.lipschitz"),
    ("lowrankrec.solve", "solve_penalized", "solve.penalized"),
    ("lowrankrec.solve", "solve_noiseless", "solve.noiseless"),
    ("lowrankrec.solve", "solve_dantzig", "solve.dantzig"),
    ("lowrankrec.solve", "solve_lasso", "solve.lasso"),
    ("lowrankrec.optspace", "optspace", "optspace.optspace"),
    ("lowrankrec.optspace", "trim", "optspace.trim"),
    ("lowrankrec.optspace", "estimate_rank", "optspace.estimate_rank"),
    ("lowrankrec.optspace", "spectral_init", "optspace.spectral_init"),
    ("lowrankrec.optspace", "optspace_descent", "optspace.descent"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "qr", "linalg.qr"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
)
# The bench workers are forked; spans they record never reach this process,
# so a harness run hooks only the parent side.
HARNESS_HOOKS = (
    ("lowrankrec.cli", "main", "cli.main"),
    ("lowrankrec.bench", "run_experiment", "bench.run"),
    ("lowrankrec.bench", "emit", "bench.emit"),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1, op id]
        self.op_id = -1
        self.missing = set()  # span names whose hook target is gone
        self._stack = []
        self._installed = []

    def install(self, hooks):
        for module, attr, name in hooks:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.add(name)
                print(f"warning: hook target {module}.{attr} not found; "
                      f"metrics using {name} are reported as null", file=sys.stderr)
                continue
            setattr(mod, attr, self._wrap(fn, name))
            self._installed.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
        return traced


class SpanTable:
    """Aggregates over recorded spans: per-name calls, time and self time."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        for i, s in enumerate(spans):
            d = s[END] - s[START]
            self.calls[s[NAME]] += 1
            self.total[s[NAME]] += d
            self.self_s[s[NAME]] += d - child[i]
        self.top_level_s = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)

    def parent_name(self, s):
        return self.spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    def has_ancestor(self, s, name):
        while s[PARENT] >= 0:
            s = self.spans[s[PARENT]]
            if s[NAME] == name:
                return True
        return False

    def select(self, name, pred):
        """(calls, seconds) over spans called ``name`` that satisfy ``pred``."""
        hits = [s for s in self.spans if s[NAME] == name and pred(s)]
        return len(hits), sum(s[END] - s[START] for s in hits)


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for s in spans:
            fh.write(f"{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t{s[OP]}\n")
