"""Frozen value records whose methods are written once, for every record.

``dataclasses`` instead compiles each class's methods from source text at
every import, and loads ``inspect`` to do so.
"""


class Record:
    """An immutable record of the fields its subclass annotates, in order.

    A class value is a field's default. Construction takes each field once,
    by position or keyword, then validates in ``__post_init__``, as does
    ``replace``. Setting or deleting an attribute raises AttributeError.
    Equality, hash and repr leave out the fields whose name starts with
    ``_``. ``fields`` maps each field name to its annotation's text.
    """

    def __init_subclass__(cls):
        cls.fields = dict(vars(cls).get("__annotations__", {}))
        cls._defaults = {name: vars(cls)[name] for name in cls.fields if name in vars(cls)}
        cls._compared = tuple(name for name in cls.fields if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        values, fields = self.__dict__, self.fields
        if args:
            values.update(zip(fields, args))
        if kwargs:
            values.update(kwargs)
        repeated = len(values) != len(args) + len(kwargs)  # or a position past the last field
        if len(values) < len(fields):
            for name, value in self._defaults.items():
                values.setdefault(name, value)
        # Without keywords every key is a field name, so the count tells.
        if repeated or len(values) != len(fields) or kwargs and values.keys() != fields.keys():
            raise TypeError(f"{type(self).__name__}() takes its fields ({', '.join(fields)}) once each")
        self.__post_init__()

    def __post_init__(self):
        """Validate the fields: a subclass raises ValueError on a bad one."""

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, validated as at construction."""
        return type(self)(**{**self.__dict__, **changes})

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        values = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._compared)
        return f"{type(self).__qualname__}({values})"
