"""Random walks, stationary distributions, Laplacians, and spectral bounds
for hypergraphs with per-edge (edge-dependent) vertex weights, plus a
rank-aggregation pipeline built on them.

The public names are the exception classes of ``errors`` and each other
module's ``__all__``; that list is the one record of them.
"""

__version__ = "0.1.0"

from .errors import *
from .core import *
from .walk import *
from .stationary import *
from .spectral import *
from .reduction import *
from .rankagg import *
