"""numpy, loaded at the first attribute read.

The number theory and the criteria are pure Python, so a decision that
builds no table never needs numpy.  Each module of the package that uses
it binds ``from ._lazy import np``.  When numpy is already imported, that
is numpy itself.  Otherwise it is a stand-in whose first attribute read
imports numpy, under a lock, and rebinds ``np`` to it in every module of
the package that holds the stand-in, then answers the read.  From then on
each module's ``np`` is numpy itself: the hot loops pay nothing for the
deferral, and a patch on a numpy attribute is seen everywhere.
"""

import sys
import threading

_lock = threading.Lock()


def _load():
    """Import numpy and rebind the package's stand-ins to it, once."""
    with _lock:
        import numpy
        for name, module in list(sys.modules.items()):
            if (name == __package__ or name.startswith(__package__ + ".")) \
                    and vars(module).get("np") is _stand_in:
                module.np = numpy
        return numpy


class _Numpy:
    """numpy before its first use: an attribute read loads it."""

    __slots__ = ()

    def __getattr__(self, name):
        return getattr(_load(), name)


_stand_in = _Numpy()
np = sys.modules.get("numpy") or _stand_in
