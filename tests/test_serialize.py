import json

import pytest

from lowerq import ActionTable, GeneratorFamily, JoinAlgebraSpec, ModuleSpec, s1_candidate_table
from lowerq.errors import SchemaError
from lowerq.operations import builtin_pair_terms, RelationTable
from lowerq.serialize import (
    algebra_from_obj,
    algebra_to_obj,
    canonical_json,
    module_from_obj,
    module_to_obj,
    relation_overrides_from_obj,
)

S1_OBJ = {
    "p": 2,
    "dim_g": 1,
    "generator": {"name": "x", "degree_a": 2, "degree_b": 0},
    "product_table": [
        {"a": 0, "b": 0, "terms": [[1, 1]]},
        {"a": 0, "b": 1, "terms": [[1, 2]]},
    ],
}


class TestAlgebraSchema:
    def test_round_trip(self):
        spec = algebra_from_obj(S1_OBJ)
        assert spec.p == 2
        assert spec.dim_g == 1
        assert spec.product_table[(0, 1)] == ((1, 2),)
        assert algebra_to_obj(spec) == S1_OBJ

    def test_canonical_json_round_trip(self):
        text = canonical_json(S1_OBJ)
        assert canonical_json(json.loads(text)) == text

    def test_no_table(self):
        obj = {"p": 3, "dim_g": 0, "generator": {"name": "e", "degree_a": 1, "degree_b": 0}}
        spec = algebra_from_obj(obj)
        assert spec.product_table is None
        assert algebra_to_obj(spec) == obj

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            algebra_from_obj({"p": 2, "generator": {"name": "x", "degree_a": 2, "degree_b": 0}})

    def test_non_canonical_pair(self):
        bad = dict(S1_OBJ, product_table=[{"a": 1, "b": 0, "terms": []}])
        with pytest.raises(SchemaError):
            algebra_from_obj(bad)

    def test_duplicate_pair(self):
        bad = dict(
            S1_OBJ,
            product_table=[
                {"a": 0, "b": 0, "terms": []},
                {"a": 0, "b": 0, "terms": [[1, 1]]},
            ],
        )
        with pytest.raises(SchemaError):
            algebra_from_obj(bad)

    def test_non_integer_field(self):
        with pytest.raises(SchemaError):
            algebra_from_obj(dict(S1_OBJ, p="two"))

    @pytest.mark.parametrize("row", [5, "a", ["a", 0], None])
    def test_non_object_table_row(self, row):
        with pytest.raises(SchemaError, match="^product table entry: expected a JSON object$"):
            algebra_from_obj(dict(S1_OBJ, product_table=[row]))

    @pytest.mark.parametrize("obj", [[], "spec", 2])
    def test_non_object_spec(self, obj):
        with pytest.raises(SchemaError, match="^algebra spec: expected a JSON object$"):
            algebra_from_obj(obj)

    def test_nonprime_p(self):
        with pytest.raises(SchemaError):
            algebra_from_obj(dict(S1_OBJ, p=6))

    def test_max_index_preserved(self):
        obj = {
            "p": 2,
            "dim_g": 1,
            "generator": {"name": "x", "degree_a": 2, "degree_b": 0, "max_index": 9},
        }
        assert algebra_to_obj(algebra_from_obj(obj)) == obj


class TestModuleSchema:
    def test_builtin_action_round_trip(self):
        obj = {"algebra": dict(S1_OBJ), "action": "s1_p2"}
        module = module_from_obj(obj)
        assert module.p == 2
        assert module_to_obj(module) == obj

    def test_action_table_round_trip(self):
        obj = {
            "algebra": {
                "p": 2,
                "dim_g": 1,
                "generator": {"name": "x", "degree_a": 2, "degree_b": 0},
            },
            "action_table": {
                "max_op": 4,
                "max_gen": 4,
                "entries": [{"op": 0, "gen": 0, "terms": [[1, 1]]}],
            },
        }
        module = module_from_obj(obj)
        assert isinstance(module.action, ActionTable)
        assert module.act(0, 0).terms == {1: 1}
        assert module_to_obj(module) == obj

    @pytest.mark.parametrize("row", ["op", 0, [0, 0, []]])
    def test_non_object_table_entry(self, row):
        table = {"max_op": 4, "max_gen": 4, "entries": [row]}
        with pytest.raises(SchemaError, match="^action table entry: expected a JSON object$"):
            module_from_obj({"algebra": dict(S1_OBJ), "action_table": table})

    def test_duplicate_table_entry(self):
        entries = [
            {"op": 0, "gen": 0, "terms": [[1, 1]]},
            {"op": 0, "gen": 0, "terms": []},
        ]
        table = {"max_op": 4, "max_gen": 4, "entries": entries}
        with pytest.raises(SchemaError, match=r"^duplicate action table entry \(0, 0\)$"):
            module_from_obj({"algebra": dict(S1_OBJ), "action_table": table})

    def test_non_object_module(self):
        with pytest.raises(SchemaError, match="^module spec: expected a JSON object$"):
            module_from_obj(["s1_p2"])

    def test_unknown_builtin(self):
        with pytest.raises(SchemaError):
            module_from_obj({"algebra": dict(S1_OBJ), "action": "mystery"})

    def test_action_and_table_conflict(self):
        obj = {
            "algebra": dict(S1_OBJ),
            "action": "s1_p2",
            "action_table": {"max_op": 0, "max_gen": 0, "entries": []},
        }
        with pytest.raises(SchemaError):
            module_from_obj(obj)

    def test_degree_law_enforced(self):
        obj = {
            "algebra": {
                "p": 2,
                "dim_g": 1,
                "generator": {"name": "x", "degree_a": 2, "degree_b": 0},
            },
            "action_table": {
                "max_op": 4,
                "max_gen": 4,
                "entries": [{"op": 0, "gen": 0, "terms": [[1, 3]]}],
            },
        }
        with pytest.raises(SchemaError):
            module_from_obj(obj)

    def test_callable_action_not_serializable(self):
        module = ModuleSpec(
            JoinAlgebraSpec(2, 1, GeneratorFamily("x", 2, 0)),
            lambda op, gen: None,
        )
        with pytest.raises(SchemaError):
            module_to_obj(module)


class TestRelationOverrideSchema:
    def test_constant_terms(self):
        overrides = relation_overrides_from_obj([{"r": 4, "s": 0, "terms": [[1, 0, 2]]}])
        table = RelationTable(2, overrides)
        assert table.terms_for(4, 0) == ((1, (0, 2)),)

    def test_parametric_builtin_equivalent(self):
        r, s = 11, 4
        doc = [
            {
                "r": r,
                "s": s,
                "terms": [
                    [["binom", [-s - 1, 1], [-r - s, 2]], [r + 2 * s, -2], [0, 1]]
                ],
            }
        ]
        table = RelationTable(2, relation_overrides_from_obj(doc))
        assert table.terms_for(r, s) == builtin_pair_terms(2, r, s)

    def test_admissible_pair_rejected(self):
        with pytest.raises(SchemaError):
            relation_overrides_from_obj([{"r": 2, "s": 2, "terms": []}])

    def test_duplicate_rejected(self):
        doc = [
            {"r": 4, "s": 0, "terms": []},
            {"r": 4, "s": 0, "terms": [[1, 0, 2]]},
        ]
        with pytest.raises(SchemaError):
            relation_overrides_from_obj(doc)

    def test_non_object_entry(self):
        with pytest.raises(SchemaError, match="^relation override: expected a JSON object$"):
            relation_overrides_from_obj([[4, 0, []]])

    def test_bad_coefficient(self):
        with pytest.raises(SchemaError):
            relation_overrides_from_obj([{"r": 4, "s": 0, "terms": [["x", 0, 2]]}])

    def test_bad_expression(self):
        with pytest.raises(SchemaError):
            relation_overrides_from_obj(
                [{"r": 4, "s": 0, "terms": [[1, [0, 1, 2], 2]]}]
            )


def test_candidate_table_serializes():
    spec = JoinAlgebraSpec(2, 1, GeneratorFamily("x", 2, 0), s1_candidate_table("ones", 4))
    assert algebra_from_obj(algebra_to_obj(spec)).product_table == spec.product_table
