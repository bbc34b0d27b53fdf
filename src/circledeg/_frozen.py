"""Value semantics for the package's immutable records.

Each record class declares its fields once, as ``__slots__``, in
constructor order.  A record that only stores its arguments declares no
``__init__``: :meth:`Frozen.__init__` takes one positional argument per
field.  A record that validates or canonicalizes its arguments writes its
own ``__init__``, which sets every field once with ``object.__setattr__``.
:class:`Frozen` supplies the rest: equality and hashing over the tuple of
fields, the ``Name(field=value, ...)`` repr, refusal of assignment and
deletion, copy and pickle support through the constructor, and
``_replace``.

>>> class Point(Frozen):
...     __slots__ = ("x", "y")
>>> p = Point(1, 0)
>>> p, p == Point(1, 0), hash(p) == hash((1, 0)), p._replace(y=2)
(Point(x=1, y=0), True, True, Point(x=1, y=2))
>>> Point(1)
Traceback (most recent call last):
    ...
TypeError: Point takes 2 fields, got 1
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of a single name returns the value, not a 1-tuple
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1
                                    else lambda obj: (get(obj),))
        # getattr, not cls.__dict__: a subclass without slots of its own
        # inherits its parent's fields
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *fields: object) -> None:
        setters = self._setters
        if len(fields) != len(setters):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(setters)} "
                            f"fields, got {len(fields)}")
        # next() per field costs less than a zip pair per field
        values = iter(fields)
        for store in setters:
            store(self, next(values))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self.__slots__, self._astuple(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._astuple(self))

    def _replace(self, **changes: object):
        """A copy with ``changes`` applied, validated by the constructor."""
        for name in changes:
            if name not in self.__slots__:
                raise TypeError(f"{self.__class__.__qualname__} has no field {name!r}")
        return self.__class__(*(changes.get(name, value) for name, value
                                in zip(self.__slots__, self._astuple(self))))
