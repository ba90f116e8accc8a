"""JSON schemas for algebra specs, modules and relation overrides.

All emitted JSON is canonical (sorted keys, two-space indent, trailing
newline), so parsing an output and re-rendering it reproduces the bytes.
"""

from __future__ import annotations

import json

from .actions import ActionTable, ModuleSpec
from .algebra import GeneratorFamily, JoinAlgebraSpec
from .errors import SchemaError
from .operations import AffineExpr, RelationTerm


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _require(obj, key: str, kind, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is int and not _is_int(val):
        raise SchemaError(f"{where}: key {key!r} must be an integer")
    if kind in (dict, list, str) and not isinstance(val, kind):
        raise SchemaError(f"{where}: key {key!r} must be a {kind.__name__}")
    return val


def _terms_from_obj(terms: list, where: str) -> list[tuple[int, int]]:
    """[[coeff, index], ...] with both entries integers (bool, float and str rejected)."""
    parsed = []
    for t in terms:
        if not (isinstance(t, list) and len(t) == 2 and _is_int(t[0]) and _is_int(t[1])):
            raise SchemaError(f"{where} must be a [coeff, index] pair of integers, got {t!r}")
        parsed.append((t[0], t[1]))
    return parsed


def algebra_to_obj(spec: JoinAlgebraSpec) -> dict:
    fam = spec.family
    gen = {"name": fam.name, "degree_a": fam.degree_a, "degree_b": fam.degree_b}
    if fam.max_index is not None:
        gen["max_index"] = fam.max_index
    obj = {"p": spec.p, "dim_g": spec.dim_g, "generator": gen}
    if spec.product_table is not None:
        obj["product_table"] = [
            {"a": a, "b": b, "terms": [[c, i] for c, i in entry]}
            for (a, b), entry in sorted(spec.product_table.items())
        ]
    return obj


def algebra_from_obj(obj) -> JoinAlgebraSpec:
    p = _require(obj, "p", int, "algebra spec")
    dim_g = _require(obj, "dim_g", int, "algebra spec")
    gen = _require(obj, "generator", dict, "algebra spec")
    if gen.get("max_index") is not None and not _is_int(gen["max_index"]):
        raise SchemaError("generator: key 'max_index' must be an integer")
    name = _require(gen, "name", str, "generator")
    degree_a = _require(gen, "degree_a", int, "generator")
    degree_b = _require(gen, "degree_b", int, "generator")
    try:
        family = GeneratorFamily(name, degree_a, degree_b, gen.get("max_index"))
    except ValueError as e:
        raise SchemaError(f"algebra spec: {e}") from e
    table = None
    if obj.get("product_table") is not None:
        table = {}
        for row in _require(obj, "product_table", list, "algebra spec"):
            a = _require(row, "a", int, "product table entry")
            b = _require(row, "b", int, "product table entry")
            if a > b:
                raise SchemaError(f"product table entry ({a}, {b}) must have a <= b")
            if (a, b) in table:
                raise SchemaError(f"duplicate product table entry ({a}, {b})")
            terms = _require(row, "terms", list, "product table entry")
            table[(a, b)] = _terms_from_obj(terms, "product term")
    try:
        return JoinAlgebraSpec(p, dim_g, family, table)
    except ValueError as e:
        raise SchemaError(f"algebra spec: {e}") from e


def module_to_obj(m: ModuleSpec) -> dict:
    obj = {"algebra": algebra_to_obj(m.algebra)}
    if isinstance(m.action, str):
        obj["action"] = m.action
    elif isinstance(m.action, ActionTable):
        obj["action_table"] = {
            "max_op": m.action.max_op,
            "max_gen": m.action.max_gen,
            "entries": [
                {"op": op, "gen": gen, "terms": [[c, i] for c, i in terms]}
                for (op, gen), terms in sorted(m.action.entries.items())
            ],
        }
    else:
        raise SchemaError("callable action rules are not serializable")
    return obj


def module_from_obj(obj) -> ModuleSpec:
    algebra = algebra_from_obj(_require(obj, "algebra", dict, "module spec"))
    if "action" in obj and "action_table" in obj:
        raise SchemaError("module spec: give either action or action_table, not both")
    if "action" in obj:
        action = _require(obj, "action", str, "module spec")
        try:
            return ModuleSpec(algebra, action)
        except ValueError as e:
            raise SchemaError(f"module spec: {e}") from e
    if "action_table" in obj:
        tab = _require(obj, "action_table", dict, "module spec")
        entries = {}
        for row in _require(tab, "entries", list, "action table"):
            op = _require(row, "op", int, "action table entry")
            gen = _require(row, "gen", int, "action table entry")
            if (op, gen) in entries:
                raise SchemaError(f"duplicate action table entry ({op}, {gen})")
            terms = _require(row, "terms", list, "action table entry")
            parsed = _terms_from_obj(terms, "action term")
            entries[(op, gen)] = [(c % algebra.p, i) for c, i in parsed if c % algebra.p]
        try:
            table = ActionTable(
                _require(tab, "max_op", int, "action table"),
                _require(tab, "max_gen", int, "action table"),
                entries,
            )
            return ModuleSpec(algebra, table)
        except ValueError as e:
            raise SchemaError(f"module spec: {e}") from e
    raise SchemaError("module spec: needs an action or an action_table")


def _expr_from_obj(obj, where: str) -> AffineExpr:
    if _is_int(obj):
        return AffineExpr(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_int(v) for v in obj):
        return AffineExpr(obj[0], obj[1])
    raise SchemaError(f"{where}: expression must be an int or [const, slope]")


def relation_overrides_from_obj(obj) -> dict[tuple[int, int], tuple[RelationTerm, ...]]:
    """Parse a relation override document.

    Schema: a list of {"r": int, "s": int, "terms": [[coeff, outer, inner], ...]}
    where coeff is an int or ["binom", n_expr, k_expr]; outer, inner and the
    binomial arguments are affine expressions in the summation variable,
    written as an int (constant) or [const, slope].
    """
    if not isinstance(obj, list):
        raise SchemaError("relation overrides: expected a JSON list")
    out: dict[tuple[int, int], tuple[RelationTerm, ...]] = {}
    for row in obj:
        r = _require(row, "r", int, "relation override")
        s = _require(row, "s", int, "relation override")
        if r <= s:
            raise SchemaError(f"relation override ({r}, {s}) is for an admissible pair")
        if (r, s) in out:
            raise SchemaError(f"duplicate relation override for ({r}, {s})")
        terms = []
        for t in _require(row, "terms", list, "relation override"):
            if not (isinstance(t, list) and len(t) == 3):
                raise SchemaError("relation term must be [coeff, outer, inner]")
            coeff_obj, outer_obj, inner_obj = t
            if isinstance(coeff_obj, list) and coeff_obj and coeff_obj[0] == "binom":
                if len(coeff_obj) != 3:
                    raise SchemaError('binomial coefficient must be ["binom", n, k]')
                coeff = (
                    _expr_from_obj(coeff_obj[1], "binom n"),
                    _expr_from_obj(coeff_obj[2], "binom k"),
                )
            elif _is_int(coeff_obj):
                coeff = coeff_obj
            else:
                raise SchemaError('relation coefficient must be an int or ["binom", n, k]')
            terms.append(
                RelationTerm(
                    coeff=coeff,
                    outer=_expr_from_obj(outer_obj, "outer index"),
                    inner=_expr_from_obj(inner_obj, "inner index"),
                )
            )
        out[(r, s)] = tuple(terms)
    return out


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise SchemaError(f"{path} is nested too deeply to parse") from e
