"""Records: immutable objects made of a fixed list of named fields.

A subclass of ``Record`` declares its fields as class annotations, in
order, after those of its record bases; a class attribute beside an
annotation is that field's default.  The field list is read once, when
the class is created, and no code is generated.

``Record.__init__`` binds its arguments to the fields, positionally or
by keyword.  A record that checks its fields defines ``__init__``
itself: it checks, then stores each field in ``self.__dict__``.

A record is frozen: assigning or deleting an attribute raises
AttributeError.  Two records are equal when they are of the same class
and their fields are equal, a record hashes as the tuple of its fields,
and its repr is ``Name(field=value, ...)``.  Equality and hash are
made per class, when it is created, unless the class defines or
inherits other rules: each is one Python call over a C-level getter of
the fields.
"""

from __future__ import annotations

from operator import attrgetter


def bind(cls, args, kwargs) -> list:
    """The field values of ``cls(*args, **kwargs)``, in field order."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args) :]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls._defaults:
            values.append(cls._defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
    return values


def _getter(names):
    """The function from a record to the tuple of its field values."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(*names)
        return lambda r: (one(r),)
    return lambda r: ()


def _rules(names):
    """``__eq__`` and ``__hash__`` by the fields ``names``, one Python call
    each: a single field is read by a C-level getter and put in its tuple
    in place."""
    get = attrgetter(*names) if names else _getter(names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return get(self) == get(other)

    if len(names) == 1:

        def __hash__(self):
            return hash((get(self),))

    else:

        def __hash__(self):
            return hash(get(self))

    __eq__.by_fields = __hash__.by_fields = True
    return __eq__, __hash__


def by_fields(cls) -> bool:
    """Whether instances of ``cls`` compare and hash by their fields, as a
    record does unless it defines or inherits other rules."""
    return getattr(cls.__eq__, "by_fields", False) and getattr(cls.__hash__, "by_fields", False)


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._values = staticmethod(_getter(cls._fields))
        if by_fields(cls):
            cls.__eq__, cls.__hash__ = _rules(cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = bind(type(self), args, kwargs)
        self.__dict__.update(zip(self._fields, args))

    __eq__, __hash__ = _rules(())

    def __repr__(self):
        fields = ", ".join([f"{n}={getattr(self, n)!r}" for n in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
