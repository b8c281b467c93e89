"""Immutable records: the value and report classes of the library.

A record class names its fields as annotations in its body, in order, with
any default as the class attribute, and :class:`Record` serves it from a
few shared methods: construction by position or keyword, a
``__post_init__`` hook that runs after the fields are set (it may set a
field with ``object.__setattr__``), the ``Name(field=value, ...)`` repr,
refusal of attribute assignment and deletion, and equality and hash over
the field values, or identity with ``eq=False`` in the class statement.
The fields are read once, when the class is created; no code is generated
or compiled.  A class built on a hot path writes its own ``__init__``.
"""

from operator import attrgetter


class Record:
    """Base of the immutable records; see the module docstring."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults,
                         **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        # the class and the field values in order, which equality and hash
        # compare; called as self._key(self), since a getter does not bind
        cls._key = attrgetter("__class__", *cls._fields)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _arguments(cls, args, kwargs):
        """Every field's value in order, from a call that names some fields
        by keyword or leaves some to their defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} fields, "
                            f"got {len(args)}")
        given = dict(zip(cls._fields, args))
        for name in kwargs:
            if name not in cls._fields or name in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                                f"field {name!r}")
        values = {**cls._defaults, **given, **kwargs}
        missing = [name for name in cls._fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing fields {missing}")
        return [values[name] for name in cls._fields]

    def __post_init__(self):
        """Checks that run once the fields are set; none by default."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))
