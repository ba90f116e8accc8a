import json

import pytest

from lowerq import (
    GeneratorFamily,
    JoinAlgebraSpec,
    ModuleSpec,
    flip_coefficient,
    s1_candidate_table,
    s1_module,
    verify_adem,
    verify_cartan,
    verify_sign_laws,
)
from lowerq.errors import UndefinedProductError
from lowerq.serialize import canonical_json

E = GeneratorFamily("e", 1, 0)
PT = GeneratorFamily("pt", 0, 0)


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


class TestVerifySignLaws:
    def test_p2_degenerates_to_symmetry(self):
        spec = JoinAlgebraSpec(2, 1, GeneratorFamily("x", 2, 0), s1_candidate_table("ones", 8))
        assert verify_sign_laws(spec).passed

    def test_forced_zero_diagonal_violation(self):
        # p = 3, dim_g = 0: exponent on the (0,0) diagonal is odd,
        # so a nonzero entry must be flagged.
        spec = JoinAlgebraSpec(3, 0, PT, {(0, 0): [(1, 0)]})
        report = verify_sign_laws(spec)
        assert not report.passed
        assert report.failures[0].description == "forced-zero diagonal entry is nonzero"

    def test_even_exponent_diagonal_allowed(self):
        # p = 3, dim_g = 1: exponent 0*0 + 2 is even, no constraint
        spec = JoinAlgebraSpec(3, 1, PT, {(0, 0): [(1, 0)]})
        assert verify_sign_laws(spec).passed

    def test_zero_diagonal_passes(self):
        spec = JoinAlgebraSpec(3, 0, PT, {(0, 0): []})
        assert verify_sign_laws(spec).passed

    def test_off_diagonal_pairs_pass(self):
        spec = JoinAlgebraSpec(3, 0, E, {(0, 1): [(2, 2)], (1, 2): [(1, 4)]})
        report = verify_sign_laws(spec)
        assert report.passed
        assert report.checked == 2


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
