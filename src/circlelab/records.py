"""Plain record classes: fields named once, compared as a tuple.

The evidence objects of the package (density estimates, verdicts,
reports) are records. Each sets its fields in its own ``__init__`` and
names them, in order, in ``__match_args__``; equality, ``repr`` and, for a
frozen record, ``hash`` and read-only fields follow from that tuple.
Nothing is generated when a module is imported.
"""

__all__ = ["Record", "FrozenRecord"]


def _values(record) -> tuple:
    return tuple([getattr(record, name) for name in record.__match_args__])


class Record:
    """A record equal to a record of the same class with equal fields.

    A class that defines ``__eq__`` alone is unhashable, and so is a
    mutable record.
    """

    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__match_args__, _values(self)))
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A hashable record whose ``__init__`` sets its fields with
    ``object.__setattr__``; assigning or deleting an attribute later raises
    AttributeError."""

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
