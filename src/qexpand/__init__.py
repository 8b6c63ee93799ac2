"""Numerical toolkit for quantum expanders and the geometry of unitary tuples.

The package exports each module's public names: its ``__all__``, and for
``errors`` every exception class. The ``qex`` command line is ``qexpand.cli``.
"""

from .errors import *
from .expanders import *
from .geometry import *
from .linalg import *
from .packing import *
from .randmat import *
from .superop import *

__version__ = "0.1.0"
