"""Low-rank matrix recovery: measurement models, nuclear-norm solvers, a
spectral completion pipeline, diagnostics, and error bounds.

The package root holds only ``__version__``.  Each name is imported from
the module that defines it (``lowrankrec.measure``, ``lowrankrec.solve``,
...), and importing one module loads only what that module needs."""

from ._version import VERSION as __version__

__all__ = ["__version__"]
