"""Frozen value classes built from closures.

`record` does for formatio's value classes what `dataclass(frozen=True)`
does, without compiling source for each class: `dataclasses` generates every
method through `exec` and pulls in `inspect`, and at import that cost more
than a typical `check` command.

Fields are the class's own annotated names, after those of record bases;
a class attribute of the same name is the field's default.  The decorator
installs `__init__` (then `__post_init__`, if the class has one), `__repr__`,
`__eq__` (same class only), `__hash__` (of the field tuple), and
`__setattr__` and `__delattr__` that raise.  Methods the class body defines
itself are kept.  Instances keep their `__dict__`, so
`functools.cached_property` works on them.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


_MISSING = object()
_setattr = object.__setattr__


def record(cls):
    """Class decorator: turn annotated class attributes into frozen fields."""
    spec: dict[str, object] = {}  # field name -> default, or _MISSING
    for base in reversed(cls.__mro__[1:]):
        spec.update(base.__dict__.get("__record_fields__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        spec[name] = cls.__dict__.get(name, _MISSING)
    names = tuple(spec)
    defaults = {name: default for name, default in spec.items() if default is not _MISSING}
    n = len(names)
    post_init = hasattr(cls, "__post_init__")
    qualname = cls.__qualname__

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} arguments, {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{qualname}() missing argument {name!r}")
            values.append(value)
        if kwargs:  # unknown names, and names already given by position
            raise TypeError(f"{qualname}() got an unexpected argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if len(args) != n or kwargs:
            args = bind(args, kwargs)
        # object's __setattr__: the record's own raises, and writing to
        # __dict__ would cost CPython 3.11+ its faster inline attribute storage
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init:
            self.__post_init__()

    if n == 0:
        def key(obj):
            return ()
    elif n == 1:
        def key(obj, _get=attrgetter(names[0])):
            return (_get(obj),)
    else:
        key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for fn in (__init__, __repr__, __eq__, __setattr__, __delattr__):
        if fn.__name__ not in cls.__dict__:
            setattr(cls, fn.__name__, fn)
    # a body that defines __eq__ but no __hash__ leaves __hash__ = None in it
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = __hash__
    cls.__record_fields__ = spec
    return cls
