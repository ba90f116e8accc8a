"""Exception types and record base classes shared across the package."""

from operator import attrgetter


class Record:
    """Base of the package's record classes. Each subclass lists its fields
    as __slots__ in constructor order: equality compares them, copies and
    pickles are rebuilt by passing them to the constructor, and repr shows
    all but the last _hidden of them in the dataclass format."""

    __slots__ = ()
    _hidden = 0

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._values = attrgetter(*cls.__slots__)  # a tuple: every record has 2+ fields

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self):
        names = self.__slots__[: len(self.__slots__) - self._hidden]
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"


class FrozenRecord(Record):
    """A hashable Record whose fields are set once, by its constructor."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FamilyMismatchError(ValueError):
    """Elements over different generator families (or different p) combined."""


class UndefinedProductError(ValueError):
    """A product was requested for an index pair absent from the table.

    Missing entries are not silently zero: structure constants are genuinely
    unknown unless the table defines them (possibly as an empty term list).
    """

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"product undefined for pair {pair}")


class ActionRangeError(ValueError):
    """A tabulated action was queried outside its declared index rectangle."""


class RelationDataError(ValueError):
    """No relation data available, or an override table is malformed."""


class RewriteBudgetError(RelationDataError):
    """A rewrite ran out of its pair-expansion budget: only an override
    table whose expansions cycle can cause it."""


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""
