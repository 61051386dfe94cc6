"""Low-rank matrix recovery: measurement models, nuclear-norm solvers, a
spectral completion pipeline, diagnostics, and error bounds."""

from ._version import VERSION as __version__
from . import (rand as _rand, matcore as _matcore, measure as _measure,
               diagnostics as _diagnostics, solve as _solve, optspace as _optspace,
               oracle as _oracle, bench as _bench)
from .rand import *          # noqa: F401,F403
from .matcore import *       # noqa: F401,F403
from .measure import *       # noqa: F401,F403
from .diagnostics import *   # noqa: F401,F403
from .solve import *         # noqa: F401,F403
from .optspace import *      # noqa: F401,F403
from .oracle import *        # noqa: F401,F403
from .bench import *         # noqa: F401,F403

__all__ = ["__version__"] + [
    name for mod in (_rand, _matcore, _measure, _diagnostics, _solve, _optspace,
                     _oracle, _bench)
    for name in mod.__all__]
