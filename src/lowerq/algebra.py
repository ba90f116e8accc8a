"""Graded F_p-linear combinations and the degree-shifted join product.

Generators are indexed by nonnegative integers with an affine degree rule
deg(i) = a*i + b. The product of homogeneous classes of degrees d1, d2
lands in degree d1 + d2 + dim_g + 1, and commutes up to the sign
(-1)^(d1*d2 + dim_g + 1). Structure constants are stored for index pairs
(a, b) with a <= b only; transposed lookups apply the sign, so the
commutation law holds by construction. The algebra is non-unital.

A pair missing from the table is an error, not zero: the structure
constants are external data and silently returning zero would corrupt
any consistency check built on top of the product.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .errors import FamilyMismatchError, FrozenRecord, UndefinedProductError
from .fields import FpScalar, check_prime

ProductEntry = tuple[tuple[int, int], ...]  # ((coeff, result_index), ...)


class GeneratorFamily(FrozenRecord):
    """An indexed generator family with degree rule i -> degree_a*i + degree_b."""

    __slots__ = ("name", "degree_a", "degree_b", "max_index")

    def __init__(self, name: str, degree_a: int, degree_b: int, max_index: int | None = None):
        for key, val in (("degree_a", degree_a), ("degree_b", degree_b)):
            if val < 0:
                raise ValueError(f"{key} must be a nonnegative integer, got {val!r}")
        if max_index is not None and max_index < 0:
            raise ValueError(f"max_index must be a nonnegative integer, got {max_index!r}")
        self._set(name, degree_a, degree_b, max_index)

    def check_index(self, i: int) -> int:
        if i < 0 or (self.max_index is not None and i > self.max_index):
            raise ValueError(f"generator index {i} out of range for family {self.name}")
        return i

    def degree(self, i: int) -> int:
        return self.degree_a * self.check_index(i) + self.degree_b

    def index_for_degree(self, d: int) -> int | None:
        """The unique index in degree d, or None. Needs degree_a > 0."""
        if self.degree_a == 0:
            return None
        q, r = divmod(d - self.degree_b, self.degree_a)
        if r != 0 or q < 0 or (self.max_index is not None and q > self.max_index):
            return None
        return q


class GradedElement:
    """A finite F_p-linear combination of family generators.

    Stored in canonical sparse form: no zero coefficients. Homogeneity is
    not required; operations that need it call degree().
    """

    __slots__ = ("family", "p", "terms")

    def __init__(self, family: GeneratorFamily, p: int, terms: Mapping[int, int] | Iterable = ()):
        check_prime(p)
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon: dict[int, int] = {}
        for idx, c in items:
            family.check_index(idx)
            c = (canon.get(idx, 0) + c) % p
            if c:
                canon[idx] = c
            else:
                canon.pop(idx, None)
        self.family = family
        self.p = p
        self.terms = canon  # treat as read-only

    @classmethod
    def _trusted(cls, family: GeneratorFamily, p: int, terms: dict[int, int]) -> GradedElement:
        # For kernel results: reduced nonzero coefficients on indices that
        # the action memo has checked against the family.
        out = object.__new__(cls)
        out.family, out.p, out.terms = family, p, terms
        return out

    @classmethod
    def generator(cls, family: GeneratorFamily, p: int, index: int, coeff: int = 1) -> "GradedElement":
        return cls(family, p, {index: coeff})

    def _check(self, other: "GradedElement") -> None:
        if self.family != other.family or self.p != other.p:
            raise FamilyMismatchError("elements live over different families or moduli")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, 0) + c
        return GradedElement(self.family, self.p, terms)

    def __rmul__(self, c: int) -> "GradedElement":
        return GradedElement(self.family, self.p, {i: c * v for i, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedElement)
            and self.family == other.family
            and self.p == other.p
            and self.terms == other.terms
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for zero; error otherwise."""
        degs = {self.family.degree(i) for i in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            gen = f"{self.family.name}_{idx}"
            parts.append(gen if c == 1 else f"{c}*{gen}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.render()} over F_{self.p}>"


def n_fold_degree(n: int, degrees: Iterable[int], dim_g: int) -> int:
    """Degree of an n-fold product: sum of degrees plus (n-1)*(dim_g+1)."""
    degrees = list(degrees)
    if n != len(degrees):
        raise ValueError(f"expected {n} degrees, got {len(degrees)}")
    return sum(degrees) + (n - 1) * (dim_g + 1)


def sign_exponent(deg_a: int, deg_b: int, dim_g: int) -> int:
    return deg_a * deg_b + dim_g + 1


def commutativity_sign(deg_a: int, deg_b: int, dim_g: int, p: int) -> FpScalar:
    """(-1)^(deg_a*deg_b + dim_g + 1) as an element of F_p; always 1 for p = 2."""
    s = sign_exponent(deg_a, deg_b, dim_g)
    return FpScalar(-1 if s % 2 else 1, p)


class JoinAlgebraSpec(FrozenRecord):
    """Parameters and structure constants of one join-product algebra.

    product_table maps (a, b) with a <= b to a tuple of (coeff, result_index)
    terms. A key present with an empty tuple is a product defined to be zero;
    an absent key is an undefined product. product_table=None means no
    products are defined at all.

    Fixed once built: no field can be rebound, product_table is a read-only
    view, and specs compare by value and are unhashable. A term whose
    coefficient vanishes mod p is dropped; any other must obey the degree
    law, or the constructor raises, naming the first violation in key order.
    """

    __slots__ = ("p", "dim_g", "family", "_table")
    __hash__ = None

    def __init__(
        self,
        p: int,
        dim_g: int,
        family: GeneratorFamily,
        product_table: Mapping[tuple[int, int], Iterable[tuple[int, int]]] | None = None,
    ):
        check_prime(p)
        if not isinstance(dim_g, int) or dim_g < 0:
            raise ValueError(f"dim_g must be a nonnegative integer, got {dim_g!r}")
        table: dict[tuple[int, int], ProductEntry] | None = None
        lawful = True
        if product_table is not None:
            table = {}
            for (a, b), entry in product_table.items():
                family.check_index(a)
                family.check_index(b)
                if a > b:
                    raise ValueError(f"product table key ({a}, {b}) not in canonical order a <= b")
                # the degree law with degree_b subtracted from both sides
                want = family.degree_a * (a + b) + family.degree_b + dim_g + 1
                terms = []
                for coeff, idx in entry:
                    family.check_index(idx)
                    coeff %= p
                    if coeff:
                        terms.append((coeff, idx))
                        if family.degree_a * idx != want:
                            lawful = False
                table[(a, b)] = tuple(sorted(terms, key=lambda t: t[1]))
        self._set(p, dim_g, family, table)
        if not lawful:
            a, b, idx = self.degree_law_violations()[0]
            raise ValueError(f"product table entry ({a}, {b}) -> index {idx} breaks the degree law")

    @property
    def product_table(self) -> Mapping[tuple[int, int], ProductEntry] | None:
        return None if self._table is None else MappingProxyType(self._table)

    def sign(self, deg_a: int, deg_b: int) -> int:
        """Commutation sign for a pair of degrees, as a reduced int."""
        return self.p - 1 if sign_exponent(deg_a, deg_b, self.dim_g) % 2 else 1

    def slot_target(self, a: int, b: int) -> int | None:
        """Generator index forced by the degree law for the product of a and b."""
        d = n_fold_degree(2, (self.family.degree(a), self.family.degree(b)), self.dim_g)
        return self.family.index_for_degree(d)

    def entry(self, a: int, b: int) -> ProductEntry:
        """Table entry for the ordered pair (a, b); applies the sign for a > b."""
        if self._table is None:
            raise UndefinedProductError((a, b))
        key = (a, b) if a <= b else (b, a)
        entry = self._table.get(key)
        if entry is None:
            raise UndefinedProductError((a, b))
        if a <= b:
            return entry
        sgn = self.sign(self.family.degree(a), self.family.degree(b))
        return tuple((coeff * sgn % self.p, idx) for coeff, idx in entry)

    def join_product(self, x: GradedElement, y: GradedElement) -> GradedElement:
        """Bilinear extension of the structure constants."""
        if x.family != self.family or y.family != self.family or x.p != self.p or y.p != self.p:
            raise FamilyMismatchError("operands do not live over this algebra")
        return GradedElement(self.family, self.p, self._product_terms(x.terms, y.terms))

    def _product_terms(self, x_terms: Mapping[int, int], y_terms: Mapping[int, int]) -> dict[int, int]:
        """join_product on plain {index: coeff} dicts; the result is not reduced mod p."""
        acc: dict[int, int] = {}
        for ia, ca in x_terms.items():
            for ib, cb in y_terms.items():
                for coeff, idx in self.entry(ia, ib):
                    acc[idx] = acc.get(idx, 0) + ca * cb * coeff
        return acc

    def degree_law_violations(self) -> list[tuple[int, int, int]]:
        """Table terms whose result degree breaks the degree law, as (a, b, index)."""
        bad = []
        for (a, b), entry in sorted((self._table or {}).items()):
            want = n_fold_degree(2, (self.family.degree(a), self.family.degree(b)), self.dim_g)
            bad += [(a, b, idx) for _, idx in entry if self.family.degree(idx) != want]
        return bad

    def __repr__(self):
        n = len(self._table) if self._table is not None else "no"
        return f"JoinAlgebraSpec(p={self.p}, dim_g={self.dim_g}, {self.family.name}, {n} table entries)"
