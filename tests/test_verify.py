import json

import pytest
from hypothesis import given, settings, strategies as st

from lowerq import (
    ActionTable,
    GeneratorFamily,
    GradedElement,
    JoinAlgebraSpec,
    ModuleSpec,
    OperationWord,
    RelationTable,
    adem_rewrite,
    flip_coefficient,
    is_admissible,
    s1_algebra,
    s1_candidate_table,
    s1_module,
    solve_product_table,
    verify_adem,
    verify_cartan,
    verify_sign_laws,
)
from lowerq.algebra import sign_exponent
from lowerq.errors import UndefinedProductError
from lowerq.operations import AffineExpr, RelationTerm
from lowerq.serialize import canonical_json
from lowerq.verify import Failure, VerificationReport

E = GeneratorFamily("e", 1, 0)
PT = GeneratorFamily("pt", 0, 0)


def reference_verify_adem(m, max_index, max_gen, relations=None, fail_fast=False):
    """The sweep verify_adem ran before it compared int dicts: a
    GradedElement for every generator and for each side of every check."""
    if relations is None:
        relations = RelationTable(m.p)
    report = VerificationReport()
    for r in range(max_index + 1):
        for s in range(max_index + 1):
            word = OperationWord((r, s), m.p)
            if is_admissible(word):
                continue
            rewritten = adem_rewrite(word, relations)
            for g in range(max_gen + 1):
                report.checked += 1
                x = m.basis_element(g)
                lhs = m.apply_word(word, x)
                rhs = m.apply_sum(rewritten, x)
                if lhs != rhs:
                    report.failures.append(
                        Failure("adem relation mismatch", {"r": r, "s": s, "gen": g},
                                lhs.render(), rhs.render())
                    )
                    if fail_fast:
                        return report
    return report


def reference_verify_cartan(m, max_n, max_gen):
    """The sweep verify_cartan ran before it compared int dicts, through
    join_product, apply_op and cartan_expand."""
    report = VerificationReport()
    gens = []
    for n in range(max_n + 1):
        for a in range(max_gen + 1):
            for b in range(max_gen + 1):
                report.checked += 1
                if b == len(gens):
                    gens.append(m.basis_element(b))
                lhs = m.apply_op(n, m.algebra.join_product(gens[a], gens[b]))
                rhs = m.cartan_expand(n, gens[a], gens[b])
                if lhs != rhs:
                    report.failures.append(
                        Failure("cartan formula mismatch", {"n": n, "a": a, "b": b},
                                lhs.render(), rhs.render())
                    )
    return report


def reference_verify_sign_laws(spec):
    """The sweep verify_sign_laws ran before it compared int dicts: two
    generators and both products built as GradedElements per stored pair."""
    report = VerificationReport()
    for (a, b) in sorted(spec.product_table or {}):
        report.checked += 1
        xa = GradedElement.generator(spec.family, spec.p, a)
        xb = GradedElement.generator(spec.family, spec.p, b)
        ab = spec.join_product(xa, xb)
        ba = spec.join_product(xb, xa)
        sgn = spec.sign(spec.family.degree(a), spec.family.degree(b))
        if ab != sgn * ba:
            s = sign_exponent(spec.family.degree(a), spec.family.degree(b), spec.dim_g)
            desc = (
                "forced-zero diagonal entry is nonzero"
                if a == b and s % 2
                else "commutation sign law violated"
            )
            report.failures.append(
                Failure(desc, {"a": a, "b": b, "sign_exponent": s},
                        ab.render(), f"{sgn}*({ba.render()})")
            )
    return report


def assert_same_signs(spec):
    """verify_sign_laws gives reference_verify_sign_laws's report without
    elapsed_ms; returns it."""
    got = verify_sign_laws(spec).to_obj()
    del got["elapsed_ms"]
    want = reference_verify_sign_laws(spec).to_obj()
    del want["elapsed_ms"]
    assert got == want
    return got


def recording(module):
    """A fresh copy of module whose action records every (op, gen) cell it
    is asked for; the copy's memo asks once per cell unless the cell raised."""
    cells = []

    def action(op, gen):
        cells.append((op, gen))
        return module.act(op, gen)

    return ModuleSpec(module.algebra, action), cells


def outcome(sweep, module, *args, **kwargs):
    """The report without elapsed_ms and the cells queried, or the error
    the sweep raised and the cells queried before it."""
    m, cells = recording(module)
    try:
        obj = sweep(m, *args, **kwargs).to_obj()
    except ValueError as e:
        return (type(e), str(e)), cells
    del obj["elapsed_ms"]
    return obj, cells


def assert_same_cartan(module, max_n, max_gen):
    """verify_cartan gives reference_verify_cartan's report without
    elapsed_ms, or its error; when it returns, it has queried the same set
    of action cells. Returns the report or the error's (type, message)."""
    got, cells = outcome(verify_cartan, module, max_n, max_gen)
    want, want_cells = outcome(reference_verify_cartan, module, max_n, max_gen)
    assert got == want
    if isinstance(got, dict):
        assert set(cells) == set(want_cells)
    return got


def odd_module():
    """p = 3, dim_g = 0, degree rule i -> i: Q_op(e_g) sits at index
    3g + 2 + 4op and e_a * e_b at a + b + 1. The action is tabulated for
    op <= 4, g <= 30, enough for words of two ops <= 4 on e_0 .. e_3.
    Where a + b = 1 mod 4 the product entry is two terms that cancel."""
    entries = {}
    for op in range(5):
        for g in range(31):
            c = (op + 2 * g + op * g) % 3
            if c:
                entries[(op, g)] = [(c, 3 * g + 2 + 4 * op)]
    products = {}
    for a in range(28):
        for b in range(a, 28):
            c = (7 * a + 3 * b + 1) % 3
            if (a + b) % 4 == 1:
                products[(a, b)] = ((1, a + b + 1), (2, a + b + 1))
            else:
                products[(a, b)] = ((c, a + b + 1),) if c else ()
    return ModuleSpec(JoinAlgebraSpec(3, 0, E, products), ActionTable(4, 30, entries))


@st.composite
def cartan_cases(draw):
    """(module, max_n, max_gen) for verify_cartan on a sparse circle or
    p = 3 action, sometimes with a family bound. The action is tabulated
    over a rectangle that is often too small, or is a callable that raises
    at a few cells; the product table misses a few pairs and stops at a
    drawn bound, and some of its entries are two terms that cancel mod p."""
    max_index = draw(st.none() | st.integers(0, 20))
    if draw(st.booleans()):
        p, dim_g, fam = 2, 1, GeneratorFamily("x", 2, 0, max_index)
        cells = draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 6)), max_size=25))
        entries = {(2 * j, g): ((1, 2 * g + j + 1),) for j, g in cells}
    else:
        p, dim_g, fam = 3, 0, GeneratorFamily("e", 1, 0, max_index)
        cells = draw(st.sets(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 2)), max_size=25
        ))
        entries = {(op, g): ((c, 3 * g + 2 + 4 * op),) for op, g, c in cells}

    def in_family(*indices):
        return max_index is None or max(indices) <= max_index

    bound = draw(st.integers(0, 24))
    missing = draw(st.sets(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=4))
    seed = draw(st.integers(0, p))
    products = {}
    for a in range(bound + 1):
        for b in range(a, bound + 1):
            if (a, b) not in missing and in_family(a + b + 1):
                c = (7 * a + 3 * b + seed) % (p + 1)
                products[(a, b)] = (
                    ((1, a + b + 1), (p - 1, a + b + 1)) if c == p  # cancels mod p
                    else ((c, a + b + 1),) if c else ()
                )
    algebra = JoinAlgebraSpec(p, dim_g, fam, products)
    if draw(st.booleans()):
        max_op, max_gen = draw(st.integers(0, 8)), draw(st.integers(0, 6))
        action = ActionTable(max_op, max_gen, {
            (op, g): terms for (op, g), terms in entries.items()
            if op <= max_op and g <= max_gen and in_family(g, terms[0][1])
        })
    else:
        bad = draw(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 6)), max_size=2))

        def action(op, g):
            if (op, g) in bad:
                raise ValueError(f"bad cell {(op, g)}")
            return GradedElement(fam, p, [(idx, c) for c, idx in entries.get((op, g), ())])

    # a negative bound checks nothing and queries nothing
    return ModuleSpec(algebra, action), draw(st.integers(-2, 8)), draw(st.integers(-2, 4))


@st.composite
def sign_specs(draw):
    """A JoinAlgebraSpec with p in {2, 3, 5}, dim_g <= 2 and degree rule
    i -> a*i + b for a in {1, 2}, b in {0, 1}, or no table at all. About
    half the keys are diagonal, where the sign law can force an entry to
    zero. An entry holds terms at the index the degree law asks for, if
    there is one, and perhaps a term that vanishes mod p at any index; or
    those plus the lawful index repeated so that its coefficients cancel
    mod p."""
    p = draw(st.sampled_from([2, 3, 5]))
    fam = GeneratorFamily("x", draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, 1])))
    dim_g = draw(st.integers(0, 2))
    if draw(st.integers(0, 9)) == 0:
        return JoinAlgebraSpec(p, dim_g, fam, None)
    diagonal = st.integers(0, 6).map(lambda u: (u, u))
    pairs = draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)) | diagonal, max_size=10))
    vanishing = st.tuples(st.integers(-2, 2).map(lambda k: k * p), st.integers(0, 12))
    table = {}
    for u, v in pairs:
        q, r = divmod(fam.degree_a * (u + v) + fam.degree_b + dim_g + 1, fam.degree_a)
        lawful = st.tuples(st.integers(-p, 2 * p), st.just(q))
        entry = [] if r else draw(st.lists(lawful, max_size=3))
        entry += draw(st.lists(vanishing, max_size=1))
        if not r and draw(st.booleans()):
            c = draw(st.integers(1, p - 1))
            entry += [(c, q), (p - c, q)]
        table[(min(u, v), max(u, v))] = entry
    return JoinAlgebraSpec(p, dim_g, fam, table)


@st.composite
def adem_cases(draw):
    """(module, max_index, max_gen, relations, fail_fast) for verify_adem:
    the circle module with up to three cells flipped, or odd_module(),
    sometimes with two terms in each value, under a drawn p = 3 override
    table. The table leaves about one pair in ten out, and Q_5 lies past
    the action's rectangle, so some sweeps raise. Every non-admissible
    pair an override yields is smaller than the pair it expands, so each
    rewrite terminates."""
    fail_fast = draw(st.booleans())
    if draw(st.booleans()):
        m = s1_module()
        for j, g in sorted(draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 20)), max_size=3))):
            m = flip_coefficient(m, 2 * j, g)
        return m, draw(st.integers(0, 12)), draw(st.integers(0, 6)), None, fail_fast
    terms = st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 4), st.integers(0, 4)), max_size=3)
    overrides = {}
    for r in range(1, 6):
        for s in range(r):
            if draw(st.integers(0, 9)):
                overrides[(r, s)] = [
                    RelationTerm(c, AffineExpr(outer), AffineExpr(inner))
                    for c, outer, inner in draw(terms)
                    if outer <= inner or (outer, inner) < (r, s)
                ]
    m = odd_module()
    if draw(st.booleans()):
        # each value gains a second term one index below, so that the order
        # in which a sweep reads the terms of a value shows in its cells
        base = m.act

        def action(op, g):
            terms = base(op, g).terms
            return GradedElement(E, 3, [(i - 1, 2 * c) for i, c in terms.items()] + list(terms.items()))

        m = ModuleSpec(m.algebra, action)
    relations = RelationTable(3, overrides)
    return m, draw(st.integers(0, 5)), draw(st.integers(0, 4)), relations, fail_fast


def odd_relations():
    """An override for every r > s <= 4: Q_r Q_s -> Q_s Q_r, plus 2 Q_0 Q_r
    when r + s is odd, plus Q_{r-1} Q_s (rewritten again) when r - 1 > s."""
    overrides = {}
    for r in range(5):
        for s in range(r):
            terms = [RelationTerm(1, AffineExpr(s), AffineExpr(r))]
            if (r + s) % 2:
                terms.append(RelationTerm(2, AffineExpr(0), AffineExpr(r)))
            if r - 1 > s:
                terms.append(RelationTerm(1, AffineExpr(r - 1), AffineExpr(s)))
            overrides[(r, s)] = terms
    return RelationTable(3, overrides)


class TestVerifyAdem:
    def test_clean_module_passes(self):
        report = verify_adem(s1_module(), 12, 6)
        assert report.passed
        # 78 non-admissible pairs (r > s), 7 generators each
        assert report.checked == 78 * 7

    def test_admissible_only_range_is_vacuous(self):
        report = verify_adem(s1_module(), 0, 6)
        assert report.checked == 0
        assert report.passed

    def test_corrupted_action_detected(self):
        corrupted = flip_coefficient(s1_module(), 4, 2)
        report = verify_adem(corrupted, 12, 6)
        assert not report.passed

    def test_fail_fast_stops_early(self):
        corrupted = flip_coefficient(s1_module(), 4, 2)
        full = verify_adem(corrupted, 12, 6)
        quick = verify_adem(corrupted, 12, 6, fail_fast=True)
        assert len(quick.failures) == 1
        assert quick.checked <= full.checked


class TestVerifyCartan:
    def test_ones_table_passes(self):
        # backed by the classical convolution identity
        # sum_{i+j=m} C(a+i, i) C(b+j, j) = C(a+b+m+1, m)
        m = s1_module(s1_candidate_table("ones", 60))
        report = verify_cartan(m, 16, 8)
        assert report.passed
        assert report.checked == 17 * 9 * 9

    def test_binomial_table_fails_from_n4(self):
        # computed, then pinned by hand: Q_4(x_0 * x_0) = Q_4(x_1) = x_5
        # while the expanded side gives C(5,2) x_5 = 0
        m = s1_module(s1_candidate_table("binomial", 60))
        report = verify_cartan(m, 16, 8)
        assert not report.passed
        first = report.failures[0]
        assert first.inputs == {"n": 4, "a": 0, "b": 0}
        assert first.lhs == "x_5"
        assert first.rhs == "0"

    def test_zero_table_passes(self):
        m = s1_module(s1_candidate_table("zero", 60))
        assert verify_cartan(m, 16, 8).passed

    def test_failures_are_exactly_the_differing_instances(self):
        # every instance recomputed from freshly built generators
        m = s1_module(s1_candidate_table("binomial", 60))
        want = []
        for n in range(11):
            for a in range(6):
                for b in range(6):
                    xa, xb = m.basis_element(a), m.basis_element(b)
                    lhs = m.apply_op(n, m.algebra.join_product(xa, xb))
                    rhs = m.cartan_expand(n, xa, xb)
                    if lhs != rhs:
                        want.append(({"n": n, "a": a, "b": b}, lhs.render(), rhs.render()))
        report = verify_cartan(m, 10, 5)
        assert want
        assert [(f.inputs, f.lhs, f.rhs) for f in report.failures] == want

    def test_generator_past_family_bound_raises_where_the_row_reaches_it(self):
        # the (0, 0) product is missing, and x_4 lies past max_index = 3:
        # the sweep reaches the missing product first
        fam = GeneratorFamily("x", 2, 0, max_index=3)
        m = ModuleSpec(JoinAlgebraSpec(2, 1, fam, {}), "s1_p2")
        with pytest.raises(UndefinedProductError):
            verify_cartan(m, 0, 5)

    def test_missing_table_is_an_error(self):
        with pytest.raises(UndefinedProductError):
            verify_cartan(s1_module(), 4, 2)


class TestParityWithWrapperSweeps:
    """The int-dict sweeps give the reports of the wrapper-based ones and
    raise the same first errors. verify_adem queries the same action cells
    in the same order; verify_cartan, sweeping each pair (a, b) over every
    n at once, queries the same set of cells when it returns."""

    def assert_same(self, sweep, reference, module, *args, **kwargs):
        got = outcome(sweep, module, *args, **kwargs)
        assert got == outcome(reference, module, *args, **kwargs)
        return got[0]

    def test_adem_clean_module(self):
        report = self.assert_same(verify_adem, reference_verify_adem, s1_module(), 16, 8)
        assert report == {"checked": 136 * 9, "failures": []}

    @pytest.mark.parametrize("cell", [(0, 0), (4, 2), (2, 3), (6, 1), (8, 0)])
    @pytest.mark.parametrize("fail_fast", [False, True])
    def test_adem_corrupted_module(self, cell, fail_fast):
        corrupted = flip_coefficient(s1_module(), *cell)
        report = self.assert_same(
            verify_adem, reference_verify_adem, corrupted, 12, 6, fail_fast=fail_fast
        )
        assert report["failures"]

    def test_adem_odd_p_table_with_overrides(self):
        for fail_fast in (False, True):
            report = self.assert_same(
                verify_adem, reference_verify_adem, odd_module(), 4, 3,
                relations=odd_relations(), fail_fast=fail_fast,
            )
            assert report["failures"]
        assert any("2*e_" in f["lhs"] + f["rhs"] for f in report["failures"])

    @given(adem_cases())
    @settings(max_examples=150, deadline=None)
    def test_adem_matches_reference_on_random_modules(self, case):
        m, max_index, max_gen, relations, fail_fast = case
        self.assert_same(
            verify_adem, reference_verify_adem, m, max_index, max_gen,
            relations=relations, fail_fast=fail_fast,
        )

    @pytest.mark.parametrize("kind, failures", [("ones", 0), ("binomial", 121)])
    def test_cartan_candidate_tables(self, kind, failures):
        m = s1_module(s1_candidate_table(kind, 4 * 12 + 32 // 2 + 2))
        report = assert_same_cartan(m, 32, 12)
        assert report["checked"] == 33 * 13 * 13
        assert len(report["failures"]) == failures

    def test_cartan_odd_p_table(self):
        report = assert_same_cartan(odd_module(), 4, 3)
        assert report["failures"]

    @given(cartan_cases())
    @settings(max_examples=150, deadline=None)
    def test_cartan_matches_reference_on_random_modules(self, case):
        assert_same_cartan(*case)

    def test_cartan_raises_the_first_error_of_the_loop(self):
        # the pair sweep queries the action cell (3, 0), outside the
        # rectangle, before any product; the loop over (n, a, b) needs the
        # undefined x_0 * x_0 first
        m = ModuleSpec(JoinAlgebraSpec(2, 1, GeneratorFamily("x", 2, 0), {}), ActionTable(2, 4, {}))
        with pytest.raises(UndefinedProductError, match=r"^product undefined for pair \(0, 0\)$"):
            verify_cartan(m, 4, 1)
        assert assert_same_cartan(m, 4, 1) == (
            UndefinedProductError, "product undefined for pair (0, 0)"
        )

    @pytest.mark.parametrize("action", ["s1_p2", ActionTable(10, 10, {})])
    def test_errors_past_the_family_bound(self, action):
        fam = GeneratorFamily("x", 2, 0, max_index=3)
        table = {(a, b): ((1, a + b + 1),) if a + b < 3 else ()
                 for a in range(4) for b in range(a, 4)}
        m = ModuleSpec(JoinAlgebraSpec(2, 1, fam, table), action)
        errors = [
            self.assert_same(verify_adem, reference_verify_adem, m, 4, 6)[1],
            assert_same_cartan(m, 4, 6)[1],
        ]
        index = 5 if action == "s1_p2" else 4
        assert errors == [f"generator index {index} out of range for family x"] * 2


class TestVerifySignLaws:
    def test_p2_degenerates_to_symmetry(self):
        spec = JoinAlgebraSpec(2, 1, GeneratorFamily("x", 2, 0), s1_candidate_table("ones", 8))
        assert verify_sign_laws(spec).passed

    def test_forced_zero_diagonal_violation(self):
        # p = 3, dim_g = 0: exponent on the (0,0) diagonal is odd,
        # so a nonzero entry must be flagged.
        spec = JoinAlgebraSpec(3, 0, E, {(0, 0): [(1, 1)]})
        report = verify_sign_laws(spec)
        assert not report.passed
        assert report.failures[0].description == "forced-zero diagonal entry is nonzero"

    def test_even_exponent_diagonal_allowed(self):
        # p = 3, dim_g = 1: exponent 0*0 + 2 is even, no constraint
        spec = JoinAlgebraSpec(3, 1, E, {(0, 0): [(1, 2)]})
        assert verify_sign_laws(spec).passed

    def test_zero_diagonal_passes(self):
        spec = JoinAlgebraSpec(3, 0, PT, {(0, 0): []})
        assert verify_sign_laws(spec).passed

    def test_off_diagonal_pairs_pass(self):
        spec = JoinAlgebraSpec(3, 0, E, {(0, 1): [(2, 2)], (1, 2): [(1, 4)]})
        report = verify_sign_laws(spec)
        assert report.passed
        assert report.checked == 2

    def test_failure_strings(self):
        # p = 3, dim_g = 0, degree rule i: the diagonal exponent i*i + 1 is
        # odd for even i, so those entries must vanish. (2, 2) does, mod 3.
        spec = JoinAlgebraSpec(3, 0, GeneratorFamily("x", 1, 0), {
            (0, 0): [(1, 1)],
            (2, 2): [(1, 5), (1, 5), (1, 5)],
            (4, 4): [(1, 9), (1, 9)],
        })
        obj = verify_sign_laws(spec).to_obj()
        del obj["elapsed_ms"]
        forced = "forced-zero diagonal entry is nonzero"
        assert obj == {"checked": 3, "failures": [
            {"description": forced, "inputs": {"a": 0, "b": 0, "sign_exponent": 1},
             "lhs": "x_1", "rhs": "2*(x_1)"},
            {"description": forced, "inputs": {"a": 4, "b": 4, "sign_exponent": 17},
             "lhs": "2*x_9", "rhs": "2*(2*x_9)"},
        ]}

    @given(sign_specs())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_random_specs(self, spec):
        assert_same_signs(spec)

    def test_matches_reference_on_solver_tables(self):
        # the tables solve --check builds: the zero table and each basis vector
        result = solve_product_table(s1_module(), 24)
        for vec in [{}] + result.basis:
            assert assert_same_signs(s1_algebra(result.table_for(vec)))["failures"] == []

    def test_matches_reference_on_odd_table(self):
        assert assert_same_signs(odd_module().algebra)["failures"]


class TestReports:
    def test_deterministic_content(self):
        m = s1_module(s1_candidate_table("binomial", 60))
        r1 = verify_cartan(m, 10, 5)
        r2 = verify_cartan(m, 10, 5)
        o1, o2 = r1.to_obj(), r2.to_obj()
        o1["elapsed_ms"] = o2["elapsed_ms"] = 0
        assert canonical_json(o1) == canonical_json(o2)

    def test_json_shape(self):
        report = verify_adem(s1_module(), 6, 3)
        obj = report.to_obj()
        assert set(obj) == {"checked", "failures", "elapsed_ms"}
        json.dumps(obj)  # serializable

    def test_render_text_mentions_failures(self):
        corrupted = flip_coefficient(s1_module(), 4, 2)
        report = verify_adem(corrupted, 12, 6)
        text = report.render_text("adem")
        assert "adem: checked" in text
        assert "FAIL" in text
