"""The base of zfuse's immutable value types.

Each public type is a plain class that lists its fields, its constructor's
arguments, in __match_args__ and writes its own __init__, which checks them
and stores them with set_field.  A type may keep attributes derived from
them too, as ReferenceBounds, MassFunction and Frame do; those are not
fields.  Frozen reads that tuple to compare, hash and print instances
field by field, in the layout a frozen dataclass has, without importing
dataclasses (which costs more than the rest of zfuse to import).
"""

from __future__ import annotations

from operator import attrgetter

# stores a field from __init__, past Frozen.__setattr__
set_field = object.__setattr__


class Frozen:
    """Field-wise ==, hash and repr over __match_args__; no attribute can be
    set or deleted once __init__ returns.

    Only an instance of the very same class compares equal, so a tuple of
    the same values does not.  A field holding a dict makes hash raise
    TypeError.  A subclass that declares __slots__ keeps no __dict__ (nor
    weak references); any other keeps one, which cached_property needs.
    """

    __slots__ = ()

    # the field names, in order; every subclass sets them
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # reads every field in one C call: a tuple, or for one field its value;
        # an attrgetter binds to no instance, so self._key is the getter itself
        cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a Dempster fold compares one frame with itself at every step
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setstate__(self, state: dict | tuple) -> None:
        # copy and pickle give a slotted class (None, slots), any other a dict
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                set_field(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
