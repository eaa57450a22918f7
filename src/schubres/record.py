"""The base of the package's small value classes.

A record names its fields, two or more, in ``__slots__`` and sets them
in its own ``__init__``, through ``object.__setattr__`` since the base
refuses assignment.  The base compares two records of one class by
their field values (another class gives ``NotImplemented``), hashes the
tuple of them, writes the repr ``Name(field=value, ...)`` and raises
``AttributeError`` on assignment or deletion.  Each class writes its
constructor out, so importing the package generates and compiles no
code: generated methods of eight value classes once took about two
thirds of its import time.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # The tuple of the field values, read in C.
        cls._values = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor: the default
        # protocol would restore the slots by assignment, which is refused.
        return self.__class__, self._values
