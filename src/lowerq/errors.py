"""Exception types shared across the package."""


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
