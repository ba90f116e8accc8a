from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lowerq import (
    ActionTable,
    GeneratorFamily,
    GradedElement,
    JoinAlgebraSpec,
    ModuleSpec,
    OperationSum,
    OperationWord,
    flip_coefficient,
    op_degree,
    s1_action,
    s1_algebra,
    s1_candidate_table,
    s1_module,
)
from lowerq.actions import S1_FAMILY
from lowerq.errors import ActionRangeError, FamilyMismatchError

M = s1_module()
ONES_70 = s1_candidate_table("ones", 70)  # covers every product of Q_i(x_a), a <= 10, i <= 24


def x(i, c=1):
    return GradedElement.generator(S1_FAMILY, 2, i, c)


def w2(*indices):
    return OperationWord(tuple(indices), 2)


word_lists = st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=3)


def reference_cartan_expand(m, n, a, b):
    """The loop over every i in 0..n that cartan_expand ran before it read
    the index of nonzero operations."""
    if n < 0:
        raise ValueError("operation index must be nonnegative")
    acc = GradedElement(m.family, m.p)
    for i in range(n + 1):
        qa = m.apply_op(i, a)
        qb = m.apply_op(n - i, b)
        if not qa.is_zero() and not qb.is_zero():
            acc = acc + m.algebra.join_product(qa, qb)
    return acc


# p = 3, dim_g = 0, degree rule i -> i: Q_op(e_g) lies in degree 3g + 2 + 4op
# and e_a * e_b in degree a + b + 1, so both targets are forced.
E_FAMILY = GeneratorFamily("e", 1, 0)
E_MAX = 6


def e_element(terms):
    return GradedElement(E_FAMILY, 3, terms)


@st.composite
def e_modules(draw):
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, E_MAX), st.integers(0, E_MAX)), st.integers(1, 2), max_size=30
        )
    )
    salt = draw(st.integers(0, 2))
    top = 3 * E_MAX + 2 + 4 * E_MAX
    products = {}
    for a in range(top + 1):
        for b in range(a, top + 1):
            c = (7 * a + 3 * b + salt) % 3
            products[(a, b)] = ((c, a + b + 1),) if c else ()
    entries = {(op, g): [(c, 3 * g + 2 + 4 * op)] for (op, g), c in cells.items()}
    return ModuleSpec(JoinAlgebraSpec(3, 0, E_FAMILY, products), ActionTable(E_MAX, E_MAX, entries))


class TestS1Action:
    def test_base_cases(self):
        assert s1_action(0, 0) == x(1)
        assert s1_action(2, 1).is_zero()  # C(2,1) even
        assert s1_action(4, 1) == x(5)  # C(3,2) odd

    def test_odd_index_vanishes(self):
        for i in range(20):
            assert s1_action(1, i).is_zero()
            assert s1_action(7, i).is_zero()

    def test_base_row(self):
        for j in range(51):
            assert s1_action(2 * j, 0) == x(j + 1), j

    def test_degrees_match_op_degree(self):
        for op in range(51):
            for gen in range(51):
                out = s1_action(op, gen)
                if not out.is_zero():
                    assert out.degree() == op_degree(w2(op), 2 * gen, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            s1_action(-2, 0)


class TestApplyWord:
    def test_empty_word(self):
        el = x(3) + x(5)
        assert M.apply_word(w2(), el) == el

    def test_two_step(self):
        # Q_0 Q_0 x_0 = Q_0 x_1 = x_3
        assert M.apply_word(w2(0, 0), x(0)) == x(3)

    def test_linearity_example(self):
        # Q_2 (x_1 + x_2) = 0 + C(3,1) x_6 = x_6
        assert M.apply_word(w2(2), x(1) + x(2)) == x(6)

    @given(w1=word_lists, w2_=word_lists, gen=st.integers(min_value=0, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_composition_coherence(self, w1, w2_, gen):
        word_cat = w2(*(w1 + w2_))
        via_two = M.apply_word(w2(*w1), M.apply_word(w2(*w2_), x(gen)))
        assert M.apply_word(word_cat, x(gen)) == via_two

    @given(
        word=word_lists,
        a=st.integers(min_value=0, max_value=8),
        b=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_linearity(self, word, a, b):
        lhs = M.apply_word(w2(*word), x(a) + x(b))
        rhs = M.apply_word(w2(*word), x(a)) + M.apply_word(w2(*word), x(b))
        assert lhs == rhs


class TestApplySum:
    def test_singleton(self):
        s = OperationSum.from_word(w2(4))
        assert M.apply_sum(s, x(1)) == M.apply_word(w2(4), x(1))

    def test_empty_sum(self):
        assert M.apply_sum(OperationSum(2, {}), x(3)).is_zero()

    def test_doubled_word_collapses(self):
        s = OperationSum(2, [(w2(0), 1), (w2(0), 1)])
        assert M.apply_sum(s, x(0)).is_zero()


class TestCartanExpand:
    def test_n0_single_summand(self):
        m = s1_module(s1_candidate_table("ones", 10))
        lhs = m.cartan_expand(0, x(0), x(1))
        rhs = m.algebra.join_product(m.apply_op(0, x(0)), m.apply_op(0, x(1)))
        assert lhs == rhs

    def test_ones_table_example(self):
        m = s1_module(s1_candidate_table("ones", 10))
        # both routes vanish at n = 2 on (x_0, x_0)
        assert m.cartan_expand(2, x(0), x(0)).is_zero()
        assert m.apply_op(2, m.algebra.join_product(x(0), x(0))).is_zero()

    def test_zero_argument(self):
        m = s1_module(s1_candidate_table("ones", 10))
        zero = GradedElement(S1_FAMILY, 2)
        assert m.cartan_expand(5, zero, x(0)).is_zero()
        assert m.cartan_expand(5, x(0), zero).is_zero()


    @given(
        n=st.integers(min_value=0, max_value=24),
        a=st.dictionaries(st.integers(0, 10), st.just(1), max_size=4),
        b=st.dictionaries(st.integers(0, 10), st.just(1), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_loop_on_ones_table(self, n, a, b):
        m = s1_module(ONES_70)
        xa = GradedElement(S1_FAMILY, 2, a)
        xb = GradedElement(S1_FAMILY, 2, b)
        assert m.cartan_expand(n, xa, xb) == reference_cartan_expand(m, n, xa, xb)

    @given(
        m=e_modules(),
        n=st.integers(min_value=0, max_value=E_MAX),
        a=st.dictionaries(st.integers(0, E_MAX), st.integers(1, 2), max_size=3),
        b=st.dictionaries(st.integers(0, E_MAX), st.integers(1, 2), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_full_loop_on_table_module(self, m, n, a, b):
        xa, xb = e_element(a), e_element(b)
        assert m.cartan_expand(n, xa, xb) == reference_cartan_expand(m, n, xa, xb)

    def test_beyond_max_op_still_raises(self):
        m = ModuleSpec(JoinAlgebraSpec(3, 0, E_FAMILY, {}), ActionTable(E_MAX, E_MAX, {}))
        e0 = e_element({0: 1})
        for expand in (m.cartan_expand, lambda n, a, b: reference_cartan_expand(m, n, a, b)):
            for _ in range(2):
                with pytest.raises(ActionRangeError):
                    expand(E_MAX + 1, e0, e0)


class TestCandidateTables:
    def test_kinds(self):
        ones = s1_candidate_table("ones", 6)
        bino = s1_candidate_table("binomial", 6)
        zero = s1_candidate_table("zero", 6)
        assert ones[(0, 0)] == ((1, 1),)
        assert bino[(0, 0)] == ((1, 1),)  # C(1,0) = 1
        assert bino[(1, 2)] == ()  # C(4,1) = 4 even
        assert zero[(2, 3)] == ()
        assert set(ones) == set(bino) == set(zero)

    def test_tables_satisfy_degree_law(self):
        for kind in ("ones", "binomial", "zero"):
            spec = s1_algebra(s1_candidate_table(kind, 12))
            assert spec.degree_law_violations() == []

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            s1_candidate_table("mystery", 4)


class TestActionTable:
    def algebra(self):
        return JoinAlgebraSpec(2, 1, S1_FAMILY)

    def test_lookup_and_range(self):
        table = ActionTable(4, 4, {(0, 0): [(1, 1)]})
        assert table.lookup(0, 0) == ((1, 1),)
        assert table.lookup(3, 3) == ()  # inside rectangle, omitted = zero
        with pytest.raises(ActionRangeError):
            table.lookup(5, 0)
        with pytest.raises(ActionRangeError):
            table.lookup(0, 5)

    def test_module_validates_degree_law(self):
        good = ActionTable(2, 2, {(0, 0): [(1, 1)]})
        ModuleSpec(self.algebra(), good)
        bad = ActionTable(2, 2, {(0, 0): [(1, 2)]})
        with pytest.raises(ValueError):
            ModuleSpec(self.algebra(), bad)

    def test_apply_word_out_of_range_errors(self):
        m = ModuleSpec(self.algebra(), ActionTable(2, 2, {(0, 0): [(1, 1)]}))
        with pytest.raises(ActionRangeError):
            m.apply_word(w2(4), x(0))

    def test_word_killed_inside_rectangle_never_queries_outside(self):
        # Q_1(x_0) = 0 inside the rectangle, so Q_4, outside it, acts on zero
        m = ModuleSpec(self.algebra(), ActionTable(2, 2, {(0, 0): [(1, 1)]}))
        assert m.apply_word(w2(4, 1), x(0)).terms == {}
        assert m.apply_sum(OperationSum.from_word(w2(4, 1)), x(0)).terms == {}

    def test_entry_outside_rectangle_rejected(self):
        with pytest.raises(ValueError):
            ActionTable(2, 2, {(3, 0): [(1, 1)]})

    def test_odd_p_tabulated_module(self):
        # p = 3, dim_g = 0, degree rule i -> i: op 0 sends degree d to 3d + 2
        fam = GeneratorFamily("e", 1, 0)
        algebra = JoinAlgebraSpec(3, 0, fam)
        module = ModuleSpec(algebra, ActionTable(2, 4, {(0, 0): [(2, 2)]}))
        e0 = GradedElement.generator(fam, 3, 0)
        out = module.apply_word(OperationWord((0,), 3), e0)
        assert out == GradedElement.generator(fam, 3, 2, 2)
        assert module.apply_word(OperationWord((0,), 3), 2 * e0) == GradedElement.generator(fam, 3, 2, 1)
        # inside the rectangle, unlisted cells act as zero
        assert module.apply_word(OperationWord((0, 0), 3), e0).is_zero()


class TestModulePlumbing:
    def test_builtin_requires_matching_algebra(self):
        wrong = JoinAlgebraSpec(2, 0, S1_FAMILY)
        with pytest.raises(ValueError):
            ModuleSpec(wrong, "s1_p2")

    def test_elements_from_another_family_rejected(self):
        m = s1_module(ONES_70)
        y = GradedElement.generator(GeneratorFamily("y", 2, 0), 2, 1)
        calls = [
            lambda: m.apply_op(0, y),
            lambda: m.apply_word(w2(0), y),
            lambda: m.apply_sum(OperationSum.from_word(w2(0)), y),
            lambda: m.apply_sum(OperationSum(2, {}), y),
            lambda: m.cartan_expand(0, y, x(1)),
            lambda: m.cartan_expand(0, x(1), y),
        ]
        for call in calls:
            with pytest.raises(FamilyMismatchError):
                call()

    def test_flip_coefficient(self):
        flipped = flip_coefficient(M, 4, 1)
        # true coefficient C(3,2) = 1 flips to 0
        assert M.act(4, 1) == x(5)
        assert flipped.act(4, 1).is_zero()
        # everything else untouched
        assert flipped.act(4, 0) == M.act(4, 0)
        assert flipped.act(0, 1) == M.act(0, 1)

    def test_flip_without_target_rejected(self):
        with pytest.raises(ValueError):
            flip_coefficient(M, 1, 0)  # odd op: target degree is odd


class TestActionMemo:
    def test_range_error_is_not_cached(self):
        m = ModuleSpec(JoinAlgebraSpec(2, 1, S1_FAMILY), ActionTable(2, 2, {(0, 0): [(1, 1)]}))
        for _ in range(2):
            with pytest.raises(ActionRangeError):
                m.act(3, 0)
            with pytest.raises(ActionRangeError):
                m.apply_word(w2(4), x(0))

    def test_callable_called_once_per_pair_per_module(self):
        for _ in range(2):  # a second module starts with an empty memo
            calls = Counter()

            def counting(op, gen):
                calls[(op, gen)] += 1
                return s1_action(op, gen)

            m = ModuleSpec(s1_algebra(), counting)
            for _ in range(3):
                m.apply_word(w2(4, 2, 0), x(1) + x(2))
                m.act(0, 1)
            assert (0, 1) in calls and (2, 5) in calls
            assert set(calls.values()) == {1}

    def test_flipped_module_and_base_keep_distinct_answers(self):
        base = s1_module()
        flipped = flip_coefficient(base, 4, 1)
        for _ in range(2):
            assert base.act(4, 1) == x(5)
            assert flipped.act(4, 1).is_zero()
            assert base.apply_word(w2(4), x(1)) == x(5)
            assert flipped.apply_word(w2(4), x(1)).is_zero()

    def test_mutating_a_result_leaves_the_memo_alone(self):
        m = s1_module()
        out = m.act(0, 0)
        out.terms[7] = 1
        out.terms.pop(1)
        assert m.act(0, 0) == x(1)
        assert m.apply_op(0, x(0)) == x(1)

    def test_builtin_target_outside_family_is_not_cached(self):
        fam = GeneratorFamily("x", 2, 0, max_index=3)
        m = ModuleSpec(JoinAlgebraSpec(2, 1, fam), "s1_p2")
        for _ in range(2):
            with pytest.raises(ValueError):
                m.act(0, 2)  # Q_0(x_2) = x_5

    def test_table_entry_repeating_a_target_merges(self):
        table = ActionTable(2, 2, {(0, 0): [(1, 1), (1, 1)]})
        assert ModuleSpec(JoinAlgebraSpec(2, 1, S1_FAMILY), table).act(0, 0).is_zero()
        fam = GeneratorFamily("e", 1, 0)
        table = ActionTable(2, 2, {(0, 0): [(1, 2), (1, 2)]})
        m = ModuleSpec(JoinAlgebraSpec(3, 0, fam), table)
        assert m.act(0, 0) == GradedElement.generator(fam, 3, 2, 2)


class TestNonzeroOpIndex:
    def test_s1_index_is_the_lucas_pattern(self):
        m = s1_module()
        for g in range(41):
            # grows the index one op at a time, then reads prefixes of it
            for n in [*range(81), *range(80, -1, -1)]:
                ops = m._nonzero_ops(g, n)
                assert [i for i, _ in ops] == [2 * j for j in range(n // 2 + 1) if not j & g]
                assert all(terms == m._act_terms(i, g) for i, terms in ops)

    def test_growth_matches_a_fresh_query(self):
        grown = s1_module()
        grown._nonzero_ops(3, 5)
        fresh = s1_module()
        assert grown._nonzero_ops(3, 30) == fresh._nonzero_ops(3, 30)
        # a smaller bound after a larger one is a prefix, not a new query
        assert fresh._nonzero_ops(3, 5) == grown._nonzero_ops(3, 5) == s1_module()._nonzero_ops(3, 5)

    def test_table_index_is_its_nonzero_cells(self):
        entries = {(0, 0): [(1, 1)], (4, 0): [(1, 3)], (2, 1): [(1, 4), (1, 4)], (6, 2): [(1, 8)]}
        m = ModuleSpec(JoinAlgebraSpec(2, 1, S1_FAMILY), ActionTable(6, 2, entries))
        # (2, 1) repeats its target, so it cancels mod 2 and is not indexed
        assert m._nonzero_ops(0, 6) == [(0, ((1, 1),)), (4, ((3, 1),))]
        assert m._nonzero_ops(1, 6) == []
        assert m._nonzero_ops(2, 6) == [(6, ((8, 1),))]

    def test_query_beyond_max_op_is_not_cached(self):
        m = ModuleSpec(JoinAlgebraSpec(2, 1, S1_FAMILY), ActionTable(4, 2, {(4, 0): [(1, 3)]}))
        for _ in range(2):
            with pytest.raises(ActionRangeError):
                m._nonzero_ops(0, 6)
        assert m._nonzero_ops(0, 4) == [(4, ((3, 1),))]
