import pytest
from hypothesis import given, settings, strategies as st

from lowerq import (
    OperationSum,
    OperationWord,
    RelationTable,
    adem_rewrite,
    is_admissible,
    op_degree,
    rewrite_sum,
)
from lowerq.errors import RelationDataError, RewriteBudgetError
from lowerq.operations import AffineExpr, RelationTerm, builtin_pair_terms


def w2(*indices):
    return OperationWord(tuple(indices), 2)


def term(outer, inner, coeff=1):
    return RelationTerm(coeff, AffineExpr(outer), AffineExpr(inner))


def binom_term(n, k, outer, inner):
    """C(n(w), k(w)) Q_outer(w) Q_inner(w), each given as (const, slope)."""
    return RelationTerm((AffineExpr(*n), AffineExpr(*k)), AffineExpr(*outer), AffineExpr(*inner))


def cycle_message(pair, *through):
    via = f" through {', '.join(through)}" if through else ""
    return f"relation override for {pair} yields {pair} again{via}"


# --- reference: the smallest-first loop rewrite_sum ran before it expanded
# words largest first ---


def reference_rewrite_sum(
    s, relations=None, order="leftmost", budget=10_000, pick=min, cancelled=None
):
    """Take up min(pending), or pick(pending), until nothing is pending.

    Words taken up with a coefficient that cancelled to 0 are appended to
    cancelled when a list is given."""
    if relations is None:
        relations = RelationTable(s.p)
    p = s.p
    done = {}
    pending = {}
    for word, c in s.terms.items():
        pending[word.indices] = (pending.get(word.indices, 0) + c) % p
    steps = 0
    while pending:
        idx = pick(pending)
        c = pending.pop(idx)
        if c == 0:
            if cancelled is not None:
                cancelled.append(idx)
            continue
        spots = [t for t in range(len(idx) - 1) if idx[t] > idx[t + 1]]
        if not spots:
            done[idx] = (done.get(idx, 0) + c) % p
            continue
        t = spots[0] if order == "leftmost" else spots[-1]
        steps += 1
        if steps > budget:
            raise RewriteBudgetError(f"rewrite budget of {budget} pair expansions exceeded")
        for coeff, (outer, inner) in relations.terms_for(idx[t], idx[t + 1]):
            new = idx[:t] + (outer, inner) + idx[t + 2 :]
            pending[new] = (pending.get(new, 0) + c * coeff) % p
    return OperationSum(p, {OperationWord(idx, p): c for idx, c in done.items() if c})


class CountingTable(RelationTable):
    """A RelationTable that counts terms_for calls, one per pair expansion."""

    calls = 0

    def terms_for(self, r, s):
        self.calls += 1
        return super().terms_for(r, s)


def outcome(rewrite, *args, **kwargs):
    """The rewritten sum, the string "budget" when the budget ran out, or
    "self-loop" when an override expands a pair into itself."""
    try:
        return rewrite(*args, **kwargs)
    except RewriteBudgetError:
        return "budget"
    except RelationDataError as e:
        if "again" not in str(e):
            raise
        return "self-loop"


long_words = st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=5).map(
    lambda ix: OperationWord(tuple(ix), 2)
)


def largest_first(pending):
    """The word rewrite_sum takes up next: the largest, a word before its
    extensions (max(pending) for words of one length)."""
    return min(pending, key=lambda idx: tuple(-i for i in idx))


@st.composite
def override_cases(draw):
    """A prime, an override table for every pair r > s over indices < 6,
    each expansion a few constant terms, and a word over indices < 6.

    At p = 2 an expansion may also yield indices up to 40, past the 3-bit
    digits that the word's indices need, and past a widened digit again;
    the shipped family expands the pairs they form."""
    p = draw(st.sampled_from((2, 3, 5)))
    index = st.integers(min_value=0, max_value=5)
    output = st.one_of(index, st.integers(6, 40)) if p == 2 else index
    term = st.builds(
        lambda c, o, i: RelationTerm(c, AffineExpr(o), AffineExpr(i)),
        st.integers(min_value=1, max_value=p - 1) if p > 2 else st.just(1),
        output,
        output,
    )
    table = {
        (r, s): tuple(draw(st.lists(term, max_size=2)))
        for r in range(6)
        for s in range(r)
    }
    word = OperationWord(tuple(draw(st.lists(index, min_size=2, max_size=4))), p)
    return p, table, word


words_strategy = st.lists(
    st.integers(min_value=0, max_value=20), min_size=0, max_size=4
).map(lambda ix: OperationWord(tuple(ix), 2))


class TestOpDegree:
    def test_p2_single(self):
        for i in range(6):
            assert op_degree(w2(2), 2 * i, 1) == 4 * i + 4

    def test_base_cell(self):
        assert op_degree(w2(0), 0, 1) == 2

    def test_empty_word(self):
        for d in (-3, 0, 5):
            assert op_degree(w2(), d, 1) == d

    def test_right_to_left(self):
        # Q_1 then Q_2 on degree 0, dim_g = 1: 0 -> 3 -> 10
        assert op_degree(w2(2, 1), 0, 1) == 10

    def test_odd_p(self):
        w = OperationWord((1,), 3)
        # 3*d + 2*(dim_g+1) + 4
        assert op_degree(w, 2, 1) == 6 + 4 + 4


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible(w2(1, 3))
        assert not is_admissible(w2(7, 1))
        assert is_admissible(w2(5))
        assert is_admissible(w2())

    def test_weakly_increasing_convention(self):
        assert is_admissible(w2(2, 2))
        assert not is_admissible(w2(4, 2))
        assert is_admissible(w2(0, 3, 3, 9))
        assert not is_admissible(w2(0, 3, 2, 9))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            OperationWord((-1,), 2)


class TestOperationSum:
    def test_collapse_mod_2(self):
        s = OperationSum(2, [(w2(0), 1), (w2(0), 1)])
        assert s == OperationSum(2, {})
        assert s.terms == {}

    def test_singleton(self):
        s = OperationSum.from_word(w2(1, 2))
        assert s.terms == {w2(1, 2): 1}

    def test_mixed_p_rejected(self):
        with pytest.raises(ValueError):
            OperationSum(2, {OperationWord((1,), 3): 1})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict_keyed_by_words(self, data):
        # terms given as words or raw index tuples, repeated and cancelling
        p = data.draw(st.sampled_from((2, 3, 5)))
        indices = st.lists(st.integers(0, 4), max_size=3).map(tuple)
        pool = data.draw(st.lists(indices, min_size=1, max_size=4, unique=True))
        items = data.draw(
            st.lists(
                st.tuples(st.sampled_from(pool), st.integers(-2 * p, 2 * p), st.booleans()),
                max_size=10,
            )
        )
        terms = [(OperationWord(idx, p) if as_word else idx, c) for idx, c, as_word in items]
        want: dict[OperationWord, int] = {}
        for idx, c, _ in items:
            word = OperationWord(idx, p)
            want[word] = (want.get(word, 0) + c) % p
        want = {w: c for w, c in want.items() if c}
        s = OperationSum(p, terms)
        assert s.terms == want
        assert s == OperationSum(p, want) == OperationSum(p, list(want.items())[::-1])
        assert (s == OperationSum(p, {})) == (not want)
        # the words sorted by indices, each as its word's repr shows it
        parts = [
            ("" if c == 1 else f"{c}*") + repr(w)[1:].split(" (p=")[0]
            for w, c in sorted(want.items(), key=lambda t: t[0].indices)
        ]
        assert repr(s) == ("<" + " + ".join(parts) + f" (p={p})>" if want else "<0>")


class TestBuiltinRelations:
    def test_known_expansions(self):
        # Q_4 Q_0 = Q_0 Q_2 and Q_2 Q_0 = Q_0 Q_1
        assert builtin_pair_terms(2, 4, 0) == ((1, (0, 2)),)
        assert builtin_pair_terms(2, 2, 0) == ((1, (0, 1)),)
        # Q_1 Q_0 = 0 (empty expansion)
        assert builtin_pair_terms(2, 1, 0) == ()
        # Q_4 Q_2 = Q_2 Q_3
        assert builtin_pair_terms(2, 4, 2) == ((1, (2, 3)),)

    def test_outputs_always_admissible(self):
        for r in range(30):
            for s in range(r):
                for _, (outer, inner) in builtin_pair_terms(2, r, s):
                    assert outer <= inner

    def test_admissible_pair_has_no_relation(self):
        with pytest.raises(ValueError):
            builtin_pair_terms(2, 2, 2)

    def test_odd_p_unavailable(self):
        with pytest.raises(RelationDataError):
            builtin_pair_terms(3, 4, 0)


class TestAdemRewrite:
    def test_admissible_fixed(self):
        for word in (w2(), w2(3), w2(1, 3), w2(0, 0, 5)):
            assert adem_rewrite(word) == OperationSum.from_word(word)

    def test_pair_example(self):
        assert adem_rewrite(w2(4, 0)) == OperationSum.from_word(w2(0, 2))

    def test_projection(self):
        for word in (w2(9, 4), w2(7, 3, 1), w2(12, 6, 2)):
            once = adem_rewrite(word)
            assert rewrite_sum(once) == once

    @given(word=words_strategy)
    @settings(max_examples=100, deadline=None)
    def test_output_admissible(self, word):
        for out in adem_rewrite(word).terms:
            assert is_admissible(out)

    @given(word=words_strategy, d=st.integers(min_value=0, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_degree_preserved(self, word, d):
        want = op_degree(word, d, 1)
        for out in adem_rewrite(word).terms:
            assert op_degree(out, d, 1) == want

    def test_confluence_length_3(self):
        # the leftmost-pair normal form equals the reference's under
        # either reduction order
        for a in range(13):
            for b in range(13):
                for c in range(13):
                    s = OperationSum.from_word(w2(a, b, c))
                    got = rewrite_sum(s)
                    assert got == reference_rewrite_sum(s, order="leftmost"), (a, b, c)
                    assert got == reference_rewrite_sum(s, order="rightmost"), (a, b, c)

    def test_budget_guard(self):
        with pytest.raises(RewriteBudgetError):
            adem_rewrite(w2(24, 12, 6, 3), budget=1)

    def test_cyclic_override_exhausts_budget(self):
        # Q_3 Q_1 -> Q_5 Q_0 -> Q_3 Q_1 never reaches an admissible word:
        # the cycle of override pairs is rejected at the first expansion
        table = RelationTable(2, {(3, 1): (term(5, 0),), (5, 0): (term(3, 1),)})
        for word, pair, via in ((w2(3, 1), "(3, 1)", "(5, 0)"), (w2(5, 0, 7), "(5, 0)", "(3, 1)")):
            with pytest.raises(RelationDataError) as err:
                adem_rewrite(word, table, budget=100)
            assert str(err.value) == cycle_message(pair, via)
        # Q_2 Q_3 Q_1 -> Q_2 Q_1 Q_1 -> Q_2 Q_3 Q_1 cycles through the
        # neighbouring index: no pair's overrides lead back to it, so only
        # the budget stops the rewrite
        table = RelationTable(2, {(3, 1): (term(1, 1),), (2, 1): (term(2, 3),)})
        assert table.terms_for(3, 1) == ((1, (1, 1)),)
        assert table.terms_for(2, 1) == ((1, (2, 3)),)
        with pytest.raises(RewriteBudgetError, match="budget of 100 "):
            adem_rewrite(w2(2, 3, 1), table, budget=100)

    def test_override_reaching_a_taken_up_admissible_word_again(self):
        # Q_5 Q_0 -> Q_4 Q_5 + Q_2 Q_1 and Q_2 Q_1 -> Q_4 Q_5 at p = 3: the
        # admissible Q_4 Q_5 is taken up before Q_2 Q_1 yields it again
        table = RelationTable(
            3,
            {
                (5, 0): (
                    RelationTerm(1, AffineExpr(4), AffineExpr(5)),
                    RelationTerm(1, AffineExpr(2), AffineExpr(1)),
                ),
                (2, 1): (RelationTerm(1, AffineExpr(4), AffineExpr(5)),),
            },
        )
        word = OperationWord((5, 0), 3)
        want = OperationSum(3, {OperationWord((4, 5), 3): 2})
        assert adem_rewrite(word, table) == want
        assert reference_rewrite_sum(OperationSum.from_word(word), table) == want

    def test_budget_never_fires_for_small_indices(self):
        for r in range(65):
            for s in range(65):
                adem_rewrite(w2(r, s))
        for word in (w2(64, 48, 32, 16), w2(64, 63, 62, 61), w2(50, 40, 30, 20)):
            adem_rewrite(word)

    def test_odd_p_needs_override_data(self):
        bad = OperationWord((4, 0), 3)
        with pytest.raises(RelationDataError):
            adem_rewrite(bad)
        fine = OperationWord((0, 4), 3)
        assert adem_rewrite(fine) == OperationSum.from_word(fine)


class TestRelationOverrides:
    def test_explicit_override_replaces_pair(self):
        table = RelationTable(2, {(4, 0): (RelationTerm(1, AffineExpr(1), AffineExpr(1)),)})
        assert table.terms_for(4, 0) == ((1, (1, 1)),)
        # unlisted pairs fall back to the builtin family
        assert table.terms_for(2, 0) == ((1, (0, 1)),)

    def test_parametric_override_matches_builtin(self):
        # the shipped family, computed on ints, against the same family
        # written as one parametric term, for every pair up to 64
        for r in range(65):
            for s in range(r):
                term = RelationTerm(
                    coeff=(AffineExpr(-s - 1, 1), AffineExpr(-r - s, 2)),
                    outer=AffineExpr(r + 2 * s, -2),
                    inner=AffineExpr(0, 1),
                )
                table = RelationTable(2, {(r, s): (term,)})
                assert table.terms_for(r, s) == builtin_pair_terms(2, r, s), (r, s)

    def test_unbounded_summation_rejected(self):
        term = RelationTerm(coeff=1, outer=AffineExpr(0, 1), inner=AffineExpr(0))
        with pytest.raises(RelationDataError):
            term.expand(2)

    def test_negative_indices_dropped(self):
        term = RelationTerm(1, AffineExpr(-2), AffineExpr(3))
        assert term.expand(2) == []

    def test_constant_binomial_term(self):
        # C(5, 2) = 10: 0 mod 2, 1 mod 3; C(2, 5) = 0
        term = RelationTerm((AffineExpr(5), AffineExpr(2)), AffineExpr(1), AffineExpr(2))
        assert term.expand(2) == []
        assert term.expand(3) == [(1, (1, 2))]
        empty = RelationTerm((AffineExpr(2), AffineExpr(5)), AffineExpr(1), AffineExpr(2))
        assert empty.expand(3) == []

    def test_override_yielding_its_own_pair_rejected(self):
        loop = RelationTerm(1, AffineExpr(3), AffineExpr(1))
        other = RelationTerm(1, AffineExpr(0), AffineExpr(2))
        table = RelationTable(3, {(3, 1): (other, loop)})
        for _ in range(2):  # not cached: every lookup raises
            with pytest.raises(RelationDataError, match=r"\(3, 1\) yields \(3, 1\) again"):
                table.terms_for(3, 1)
        with pytest.raises(RelationDataError, match="again"):
            adem_rewrite(OperationWord((0, 3, 1), 3), table)
        # a self term whose coefficients cancel mod p is no loop
        twice = RelationTerm(2, AffineExpr(3), AffineExpr(1))
        table = RelationTable(3, {(3, 1): (loop, other, twice)})
        assert table.terms_for(3, 1) == ((1, (0, 2)),)

    def test_three_cycle_rejected(self):
        # (4, 2) also yields the admissible Q_0 Q_1, which ends no cycle
        table = RelationTable(
            2, {(3, 1): (term(5, 0),), (5, 0): (term(4, 2),), (4, 2): (term(0, 1), term(3, 1))}
        )
        for _ in range(2):  # not cached: every lookup raises
            with pytest.raises(RelationDataError) as err:
                table.terms_for(3, 1)
            assert str(err.value) == cycle_message("(3, 1)", "(5, 0)", "(4, 2)")
        with pytest.raises(RelationDataError) as err:
            table.terms_for(4, 2)
        assert str(err.value) == cycle_message("(4, 2)", "(3, 1)", "(5, 0)")

    def test_cycle_reached_inside_a_longer_word(self):
        # Q_0 Q_4 Q_0 Q_9: the descent (4, 0) leads into the cycle of
        # (3, 1) and (5, 0), which is rejected when (3, 1) is first expanded
        table = RelationTable(
            2, {(4, 0): (term(3, 1),), (3, 1): (term(5, 0),), (5, 0): (term(3, 1),)}
        )
        with pytest.raises(RelationDataError) as err:
            adem_rewrite(w2(0, 4, 0, 9), table)
        assert str(err.value) == cycle_message("(3, 1)", "(5, 0)")
        assert table.terms_for(4, 0) == ((1, (3, 1)),)

    def test_chain_of_overrides_ending_admissible_accepted(self):
        # Q_5 Q_0 -> 2 Q_3 Q_1 + Q_1 Q_2 and Q_3 Q_1 -> Q_0 Q_4 at p = 3
        table = RelationTable(3, {(5, 0): (term(3, 1, 2), term(1, 2)), (3, 1): (term(0, 4),)})
        assert table.terms_for(5, 0) == ((1, (1, 2)), (2, (3, 1)))
        word = OperationWord((5, 0), 3)
        want = OperationSum(3, [((0, 4), 2), ((1, 2), 1)])
        assert adem_rewrite(word, table) == want
        assert reference_rewrite_sum(OperationSum.from_word(word), table) == want

    def test_cycle_off_the_expanded_pair_raises_only_on_the_cycle(self):
        # (4, 0) leads into the cycle of (3, 1) and (5, 0) but is not on it
        table = RelationTable(
            2, {(4, 0): (term(5, 0),), (3, 1): (term(5, 0),), (5, 0): (term(3, 1),)}
        )
        assert table.terms_for(4, 0) == ((1, (5, 0)),)
        with pytest.raises(RelationDataError) as err:
            adem_rewrite(w2(4, 0), table)
        assert str(err.value) == cycle_message("(5, 0)", "(3, 1)")
        with pytest.raises(RelationDataError) as err:
            table.terms_for(3, 1)
        assert str(err.value) == cycle_message("(3, 1)", "(5, 0)")

    @pytest.mark.parametrize(
        "terms, top",
        [
            ((), 0),
            ((term(7, 5), term(38, 0)), 38),
            ((term(-2, 3), term(-5, -1)), 3),
            # a binomial that vanishes mod 2 still counts
            ((binom_term((5, 0), (2, 0), (1, 0), (40, 0)),), 40),
            # C(w - 5, 2w - 13) is nonzero for 7 <= w <= 8 only: the outer
            # index 100 - 10w peaks at w = 7, the inner index w at w = 8
            ((binom_term((-5, 1), (-13, 2), (100, -10), (0, 1)),), 30),
            ((binom_term((-5, 1), (-13, 2), (0, 0), (0, 1)),), 8),
            # C(w - 10, 2w) is nonzero for no w
            ((binom_term((-10, 1), (0, 2), (50, 1), (0, 0)),), 0),
            # C(0, w + 10) is nonzero at w = -10 only, where both indices
            # are negative; with outer -w, the term is dropped all the same
            ((binom_term((0, 0), (10, 1), (0, 1), (1, 1)),), 0),
            ((binom_term((0, 0), (10, 1), (0, -1), (1, 1)),), 10),
        ],
    )
    def test_index_bound(self, terms, top):
        assert RelationTable(2, {(5, 1): terms})._top == top

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                binom_term((5, 0), (2, 0), (90, 1), (0, 0)),
                "relation term has unbounded summation range",
            ),
            (
                RelationTerm(1, AffineExpr(0, 1), AffineExpr(70)),
                "parametric relation term needs a binomial coefficient to bound its range",
            ),
        ],
    )
    def test_term_that_raises_adds_nothing_to_the_bound(self, bad, message):
        # it raises at the first expansion, before it yields any index
        table = RelationTable(2, {(5, 1): (term(2, 3), bad)})
        assert table._top == 3
        with pytest.raises(RelationDataError, match=message):
            table.terms_for(5, 1)

    def test_override_added_past_the_bound_rejected(self):
        t = RelationTable(2, {(5, 1): (term(7, 5),)})
        t.overrides[(5, 1)] = (term(38, 0),)
        message = r"relation override for \(5, 1\) yields an index past 7"
        with pytest.raises(RelationDataError, match=message):
            t.terms_for(5, 1)
        with pytest.raises(RelationDataError, match=message):
            adem_rewrite(w2(6, 3, 1), t)
        # one within the bound is taken
        t.overrides[(5, 1)] = (term(0, 7),)
        assert t.terms_for(5, 1) == ((1, (0, 7)),)

    def test_budget_error_is_data_error(self):
        assert issubclass(RewriteBudgetError, RelationDataError)


class TestAgainstReference:
    @given(word=long_words)
    @settings(max_examples=150, deadline=None)
    def test_shipped_family_matches_reference(self, word):
        s = OperationSum.from_word(word)
        got = rewrite_sum(s)
        for order in ("leftmost", "rightmost"):
            assert got == reference_rewrite_sum(s, order=order, budget=10**6)

    @given(word=long_words)
    @settings(max_examples=150, deadline=None)
    def test_shipped_family_expands_no_more_than_reference(self, word):
        s = OperationSum.from_word(word)
        new, largest, ref = CountingTable(2), CountingTable(2), CountingTable(2)
        rewrite_sum(s, new)
        reference_rewrite_sum(s, largest, "leftmost", 10**6, max)
        reference_rewrite_sum(s, ref, budget=10**6)
        assert new.calls == largest.calls <= ref.calls

    def test_each_word_expanded_once_on_a_stream_sized_word(self):
        # (62, 40, 20, 2): the smallest-first loop takes up some words
        # more than once; largest first takes each up once
        new, ref = CountingTable(2), CountingTable(2)
        s = OperationSum.from_word(w2(62, 40, 20, 2))
        assert rewrite_sum(s, new) == reference_rewrite_sum(s, ref, budget=10**6)
        assert new.calls < ref.calls

    @given(case=override_cases())
    @settings(max_examples=300, deadline=None)
    def test_override_tables_match_reference(self, case):
        p, overrides, word = case
        s = OperationSum.from_word(word)
        budget = 200
        new, mirror = CountingTable(p, overrides), CountingTable(p, overrides)
        got = outcome(rewrite_sum, s, new, budget=budget)
        # the heap takes up words in the order of max(pending): equal in
        # every case, malformed-table errors and expansion counts included
        cancelled = []
        largest = outcome(reference_rewrite_sum, s, mirror, "leftmost", budget, max, cancelled)
        assert got == largest
        if isinstance(got, OperationSum):
            assert list(got._terms.items()) == list(largest._terms.items())
        assert new.calls == mirror.calls
        # smallest first differs only where, in either order, a word's
        # coefficient cancels before it is taken up (on a cyclic table
        # that can end or prolong a cycle)
        want = outcome(
            reference_rewrite_sum, s, RelationTable(p, overrides), "leftmost", budget, min, cancelled
        )
        if not cancelled:
            # which malformed pair a cycle reaches first depends on the order
            malformed = ("budget", "self-loop")
            assert got == want or (got in malformed and want in malformed)


class TestPackedWords:
    """rewrite_sum packs each word into one int, its indices in fields
    just wide enough for the largest index of the sum and of the override
    table."""

    def test_override_widens_twice_in_one_expansion(self):
        # the indices of Q_6 Q_3 Q_1 fit 3-bit digits; expanding (5, 1)
        # yields Q_7, which needs 4 bits, and then Q_38, which needs 6
        overrides = {(5, 1): (term(7, 5), term(38, 0))}
        s = OperationSum.from_word(w2(6, 3, 1))
        new, ref = CountingTable(2, overrides), CountingTable(2, overrides)
        got = rewrite_sum(s, new)
        want = reference_rewrite_sum(s, ref, "leftmost", 10**6, max)
        assert got == want == OperationSum(2, {w2(0, 1, 19): 1, w2(2, 5, 6): 1})
        assert list(got._terms.items()) == list(want._terms.items())
        assert new.calls == ref.calls == 5

    def test_override_far_past_the_digits_of_the_word(self):
        # Q_6 Q_3 Q_1 fits 3-bit digits; expanding (5, 1) yields Q_1000000,
        # which the fields must hold from the start
        overrides = {(5, 1): (term(7, 5), term(0, 10**6))}
        s = OperationSum.from_word(w2(6, 3, 1))
        new, ref = CountingTable(2, overrides), CountingTable(2, overrides)
        got = rewrite_sum(s, new)
        want = reference_rewrite_sum(s, ref, "leftmost", 10**6, largest_first)
        assert got == want
        assert list(got._terms.items()) == list(want._terms.items())
        assert any(10**6 in idx for idx in got._terms)
        assert new.calls == ref.calls

    def test_mixed_lengths_share_one_order(self):
        # the empty word, a word and its extensions: shorter words are
        # padded, and each is taken up before its extensions
        overrides = {(5, 1): (term(7, 5), term(38, 0))}
        s = OperationSum(
            2, {w2(6, 3, 1, 0): 1, w2(): 1, w2(6, 3): 1, w2(9): 1, w2(6, 3, 1): 1, w2(6): 1}
        )
        new, ref = CountingTable(2, overrides), CountingTable(2, overrides)
        got = rewrite_sum(s, new)
        want = reference_rewrite_sum(s, ref, "leftmost", 10**6, largest_first)
        assert list(got._terms.items()) == list(want._terms.items())
        assert new.calls == ref.calls
        assert w2() in got.terms and w2(9) in got.terms

    def test_first_malformed_pair_follows_the_order(self):
        # Q_4 Q_1 is taken up before Q_3 Q_2 Q_0, so the missing odd-p
        # family is met before the override of (3, 2) that yields itself
        overrides = {(3, 2): (term(3, 2),)}
        s = OperationSum(3, {OperationWord((3, 2, 0), 3): 1, OperationWord((4, 1), 3): 1})
        new, ref = CountingTable(3, overrides), CountingTable(3, overrides)
        missing = "no built-in relation family for p = 3"
        with pytest.raises(RelationDataError, match=missing):
            rewrite_sum(s, new)
        with pytest.raises(RelationDataError, match=missing):
            reference_rewrite_sum(s, ref, "leftmost", 10**6, largest_first)
        assert new.calls == ref.calls == 1
