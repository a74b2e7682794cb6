"""Frozen records: the one base class of the package's record types.

A subclass of ``Record`` declares its fields as class annotations, in order,
with defaults as class attributes, and gets what ``@dataclass(frozen=True)``
gave it: construction by position or keyword (a missing or unknown argument
raises ``TypeError``), ``__post_init__``, ``Name(field=value, ...)`` as its
repr, and ``AttributeError`` on assigning or deleting an attribute. Value
records compare and hash by their field tuple, and a class's own ``__eq__``
and ``__hash__`` are kept; ``class R(Record, eq=False)`` compares and hashes
by identity. ``dataclasses`` writes the source of six methods per class and
compiles it when the module is imported; a record class is set up from
closures and an ``operator.attrgetter``, with nothing compiled. This module
imports no numpy.
"""

from __future__ import annotations

from operator import attrgetter

# Stores a field as dataclasses do, in the instance's inline values.
_set = object.__setattr__


class Record:
    """Base of a frozen record; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # the defaults of the last len(_defaults) fields

    def __init_subclass__(cls, eq: bool = True) -> None:
        super().__init_subclass__()
        cls._fields = fields = cls._fields + tuple(cls.__dict__.get("__annotations__", {}))
        defaulted = [hasattr(cls, name) for name in fields]
        required = defaulted.count(False)
        if any(defaulted[:required]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with one")
        cls._defaults = tuple(getattr(cls, name) for name in fields[required:])
        arity = len(fields)
        post_init = getattr(cls, "__post_init__", None)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != arity:
                args = _arguments(type(self), args, kwargs)
            for name, value in zip(fields, args):
                _set(self, name, value)
            if post_init is not None:
                post_init(self)
        cls.__init__ = __init__
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
            return
        get = attrgetter(*fields)  # a tuple for two fields or more
        key = get if arity > 1 else lambda record: (get(record),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented
        if "__eq__" not in cls.__dict__:
            cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = lambda self: hash(key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")


def _arguments(cls: type[Record], args: tuple, kwargs: dict) -> tuple | list:
    """The field values of ``cls(*args, **kwargs)`` in field order, with the
    defaults filled in; ``TypeError`` where a call of a function with the
    fields as parameters would raise it."""
    name, fields, defaults = cls.__name__, cls._fields, cls._defaults
    required = len(fields) - len(defaults)
    if not kwargs and required <= len(args) < len(fields):
        return args + defaults[len(args) - required:]
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    given = dict(zip(fields, args))
    for field in kwargs:
        if field not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
        if field in given:
            raise TypeError(f"{name}() got multiple values for argument {field!r}")
    values = {**dict(zip(fields[required:], defaults)), **given, **kwargs}
    missing = [field for field in fields if field not in values]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
    return [values[field] for field in fields]
