import pytest
from hypothesis import given, strategies as st

from lowerq import (
    FpScalar,
    GeneratorFamily,
    GradedElement,
    JoinAlgebraSpec,
    commutativity_sign,
    n_fold_degree,
)
from lowerq.errors import FamilyMismatchError, UndefinedProductError

X = GeneratorFamily("x", 2, 0)
E = GeneratorFamily("e", 1, 0)


def gen2(i, c=1):
    return GradedElement.generator(X, 2, i, c)


def sparse_elements(p=2, max_index=30):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_index),
        st.integers(min_value=0, max_value=p - 1),
        max_size=6,
    ).map(lambda d: GradedElement(X, p, d))


class TestGradedElement:
    def test_char2_cancellation(self):
        assert (gen2(1) + gen2(1)).is_zero()

    def test_add_zero(self):
        zero = GradedElement(X, 2)
        assert gen2(1) + zero == gen2(1)

    def test_mod3_reduction(self):
        x = GradedElement.generator(X, 3, 3, 2)
        assert x + x == GradedElement.generator(X, 3, 3, 1)

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatchError):
            gen2(0) + GradedElement.generator(E, 2, 0)
        with pytest.raises(FamilyMismatchError):
            gen2(0) + GradedElement.generator(X, 3, 0)

    def test_no_zero_terms_stored(self):
        el = GradedElement(X, 2, {0: 2, 1: 1, 2: 0})
        assert el.terms == {1: 1}

    def test_degree(self):
        assert gen2(3).degree() == 6
        assert GradedElement(X, 2).degree() is None
        with pytest.raises(ValueError):
            (gen2(1) + gen2(2)).degree()

    def test_render(self):
        assert gen2(1).render() == "x_1"
        assert (gen2(3) + gen2(1)).render() == "x_1 + x_3"
        assert GradedElement(X, 2).render() == "0"
        assert GradedElement.generator(X, 3, 2, 2).render() == "2*x_2"

    def test_repr(self):
        assert repr(gen2(3) + gen2(1)) == "<x_1 + x_3 over F_2>"
        assert repr(GradedElement(X, 3)) == "<0 over F_3>"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            GradedElement(X, 2, {-1: 1})

    @given(x=sparse_elements(), y=sparse_elements(), z=sparse_elements())
    def test_add_associative_commutative(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x

    @given(x=sparse_elements())
    def test_add_identity(self, x):
        assert x + GradedElement(X, 2) == x


class TestDegreeBookkeeping:
    def test_index_for_degree(self):
        assert X.index_for_degree(6) == 3
        assert X.index_for_degree(5) is None and X.index_for_degree(-2) is None
        assert GeneratorFamily("x", 2, 0, 2).index_for_degree(6) is None
        # degree_a = 0 puts every index in one degree: none is unique
        assert GeneratorFamily("z", 0, 3).index_for_degree(3) is None

    def test_two_fold(self):
        assert n_fold_degree(2, (3, 4), 1) == 9

    def test_one_fold_no_shift(self):
        assert n_fold_degree(1, (17,), 5) == 17

    def test_four_fold(self):
        assert n_fold_degree(4, (0, 0, 0, 0), 1) == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            n_fold_degree(2, (1, 2, 3), 0)

    def test_sign_always_one_mod_2(self):
        for da in range(4):
            for db in range(4):
                for dg in range(3):
                    assert commutativity_sign(da, db, dg, 2) == FpScalar(1, 2)

    def test_sign_examples_odd_p(self):
        assert commutativity_sign(0, 0, 0, 3) == FpScalar(2, 3)
        assert commutativity_sign(1, 1, 1, 5) == FpScalar(4, 5)
        # even exponent
        assert commutativity_sign(0, 0, 1, 3) == FpScalar(1, 3)

    def test_int_sign_matches_commutativity_sign(self):
        for p in (2, 3, 5, 7):
            for dim_g in range(4):
                spec = JoinAlgebraSpec(p, dim_g, X)
                for da in range(6):
                    for db in range(6):
                        assert spec.sign(da, db) == commutativity_sign(da, db, dim_g, p).value


class TestJoinAlgebraSpec:
    def test_product_from_table(self):
        spec = JoinAlgebraSpec(2, 1, X, {(0, 0): [(1, 1)]})
        assert spec.join_product(gen2(0), gen2(0)) == gen2(1)

    def test_product_with_zero_element(self):
        spec = JoinAlgebraSpec(2, 1, X, {(0, 0): [(1, 1)]})
        assert spec.join_product(gen2(0), GradedElement(X, 2)).is_zero()

    def test_defined_zero_vs_undefined(self):
        spec = JoinAlgebraSpec(2, 1, X, {(0, 0): []})
        assert spec.join_product(gen2(0), gen2(0)).is_zero()
        with pytest.raises(UndefinedProductError) as exc:
            spec.join_product(gen2(0), gen2(1))
        assert exc.value.pair == (0, 1)

    def test_no_table_at_all(self):
        spec = JoinAlgebraSpec(2, 1, X)
        with pytest.raises(UndefinedProductError):
            spec.join_product(gen2(0), gen2(0))

    def test_operands_of_another_family_rejected(self):
        spec = JoinAlgebraSpec(2, 1, X, {(0, 0): [(1, 1)]})
        for a, b in [
            (GradedElement.generator(E, 2, 0), gen2(0)),
            (gen2(0), GradedElement.generator(E, 2, 0)),
            (GradedElement.generator(X, 3, 0), gen2(0)),
        ]:
            with pytest.raises(FamilyMismatchError, match="operands do not live over this algebra"):
                spec.join_product(a, b)

    def test_repr(self):
        assert repr(JoinAlgebraSpec(2, 1, X, {(0, 0): [(1, 1)], (0, 1): []})) == (
            "JoinAlgebraSpec(p=2, dim_g=1, x, 2 table entries)"
        )
        assert repr(JoinAlgebraSpec(3, 0, E)) == "JoinAlgebraSpec(p=3, dim_g=0, e, no table entries)"

    def test_non_canonical_key_rejected(self):
        with pytest.raises(ValueError):
            JoinAlgebraSpec(2, 1, X, {(2, 1): [(1, 4)]})

    def test_transposed_lookup_applies_sign(self):
        # deg e_1 * deg e_2 + dim_g + 1 = 2 + 0 + 1, odd exponent
        spec = JoinAlgebraSpec(3, 0, E, {(1, 2): [(1, 4)]})
        x1 = GradedElement.generator(E, 3, 1)
        x2 = GradedElement.generator(E, 3, 2)
        assert spec.join_product(x1, x2) == GradedElement.generator(E, 3, 4, 1)
        assert spec.join_product(x2, x1) == GradedElement.generator(E, 3, 4, 2)

    def test_degree_law_violations(self):
        good = JoinAlgebraSpec(2, 1, X, {(0, 1): [(1, 2)]})
        assert good.degree_law_violations() == []
        with pytest.raises(ValueError) as err:
            JoinAlgebraSpec(2, 1, X, {(0, 1): [(1, 3)]})
        assert str(err.value) == "product table entry (0, 1) -> index 3 breaks the degree law"

    def test_degree_law_names_sorted_first_violation(self):
        # both keys break the law; the dict lists the later key first
        with pytest.raises(ValueError, match=r"^product table entry \(0, 0\) -> index 5 breaks"):
            JoinAlgebraSpec(2, 1, X, {(1, 1): [(1, 9)], (0, 0): [(1, 5)]})

    def test_structural_error_before_degree_law(self):
        # an out-of-order key later in the dict is reported, not the
        # unlawful term before it
        with pytest.raises(ValueError, match="not in canonical order"):
            JoinAlgebraSpec(2, 1, X, {(0, 0): [(1, 5)], (2, 1): [(1, 4)]})

    def test_vanishing_unlawful_term_accepted(self):
        # index 9 is unlawful for (0, 0), but 4 and -2 vanish mod 2
        spec = JoinAlgebraSpec(2, 1, X, {(0, 0): [(4, 9), (1, 1), (-2, 7)]})
        assert spec.product_table == {(0, 0): ((1, 1),)}
        assert spec.degree_law_violations() == []

    def test_fixed_at_construction(self):
        table = {(0, 0): [(1, 1)], (1, 2): []}
        spec = JoinAlgebraSpec(2, 1, X, table)
        with pytest.raises(TypeError):
            spec.product_table[(2, 1)] = ((1, 4),)
        table[(0, 0)].append((1, 1))
        table[(0, 1)] = [(1, 2)]
        assert spec.product_table == {(0, 0): ((1, 1),), (1, 2): ()}
        assert spec.join_product(gen2(0), gen2(0)) == gen2(1)
        for name in ("p", "dim_g", "family", "product_table", "_table"):
            with pytest.raises(AttributeError):
                setattr(spec, name, None)
        assert JoinAlgebraSpec(2, 1, X).product_table is None

    def test_degree_additivity_of_products(self):
        table = {(a, b): [(1, a + b + 1)] for a in range(6) for b in range(a, 6)}
        spec = JoinAlgebraSpec(2, 1, X, table)
        for a in range(4):
            for b in range(4):
                out = spec.join_product(gen2(a), gen2(b))
                assert out.degree() == X.degree(a) + X.degree(b) + spec.dim_g + 1

    def test_slot_target(self):
        spec = JoinAlgebraSpec(2, 1, X)
        assert spec.slot_target(0, 0) == 1
        assert spec.slot_target(2, 3) == 6
        # degree 0+0+0+1 = 1 is odd, no generator there
        spec2 = JoinAlgebraSpec(2, 0, X)
        assert spec2.slot_target(0, 0) is None
