"""numpy, imported the first time the package reads one of its names.

Modules of the package write ``from . import _numpy as np`` where they would
write ``import numpy as np``.  The first read of ``np.<name>`` imports numpy
and keeps the name in this module (PEP 562), so later reads are plain
attribute lookups, and a run that touches no array data (a lagrange stream
line: plain floats and replayed tapes) never imports numpy.
``ARRAY_TYPES[type(x)]`` tests for an ndarray without importing it.
"""

import sys


def __getattr__(name):
    if name.startswith("__"):  # module protocol names (__path__, __all__) stay absent
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value


class _ArrayTypes(dict):
    """type -> whether it is an ndarray type, decided at its first lookup.

    A type met before numpy is imported is no ndarray type, since none can
    exist until numpy is imported; so a lookup never imports numpy, and its
    answer still holds for arrays of a numpy the caller imports later.
    """

    def __missing__(self, kind):
        numpy = sys.modules.get("numpy")
        known = self[kind] = numpy is not None and issubclass(kind, numpy.ndarray)
        return known


ARRAY_TYPES = _ArrayTypes()
