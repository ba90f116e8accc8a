"""Command-line front end.

Exit codes: 0 success (verifications clean), 1 verification failures
found, 2 usage error, 3 data error (any ValueError the data raises:
bad or too deeply nested files, table terms that break the degree law,
undefined products, out-of-range action queries or generator indices, a
degree rule the solver cannot use, relation overrides whose pairs expand
into one another in a cycle, found when a pair on the cycle is first
expanded, and a rewrite that runs out of its step budget, which only a
cycle through the neighbouring indices of a longer word causes). Every
usage or data error is one line on stderr.

Words are comma-separated unsigned decimals; the leftmost index is
applied last, so --word 2,0 means apply Q_0 first and Q_2 to the result.
"""

from __future__ import annotations

import argparse
import os
import sys

from .actions import (
    BUILTIN_MODULES,
    CANDIDATE_TABLE_KINDS,
    ModuleSpec,
    s1_candidate_table,
)
from .algebra import JoinAlgebraSpec
from .operations import OperationWord, RelationTable
from .serialize import (
    algebra_from_obj,
    canonical_json,
    load_json,
    module_from_obj,
    relation_overrides_from_obj,
)
from .solver import solve_product_table
from .verify import verify_adem, verify_cartan, verify_sign_laws


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, subparsers included, that reports a usage error
    in the one line main writes for its own."""

    def error(self, message):
        self.exit(2, f"usage error: {_one_line(message)}\n")


def _emit_json(obj) -> None:
    sys.stdout.write(canonical_json(obj))


def _parse_word(text: str, p: int) -> OperationWord:
    text = text.strip()
    if not text:
        return OperationWord((), p)
    try:
        indices = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad word syntax {text!r}: expected comma-separated integers")
    if any(i < 0 for i in indices):
        raise UsageError("word indices must be unsigned decimals")
    return OperationWord(indices, p)


def _resolve_module(name: str, table_kind: str | None = None, table_size: int = 0) -> ModuleSpec:
    if name in BUILTIN_MODULES:
        if os.path.exists(name):
            print(
                f"warning: {name!r} names both a builtin module and a file; using the builtin",
                file=sys.stderr,
            )
        table = s1_candidate_table(table_kind, table_size) if table_kind else None
        return BUILTIN_MODULES[name](table)
    if not os.path.exists(name):
        raise UsageError(f"unknown module {name!r}: not a builtin and not a file")
    if table_kind:
        raise UsageError("--table applies to builtin modules only; file modules embed their table")
    return module_from_obj(load_json(name))


def _load_relations(path: str | None, p: int) -> RelationTable | None:
    if path is None:
        return None
    return RelationTable(p, relation_overrides_from_obj(load_json(path)))


# --- commands ----------------------------------------------------------


def cmd_compute(args) -> int:
    module = _resolve_module(args.module)
    word = _parse_word(args.word, module.p)
    if args.gen < 0:
        raise UsageError("--gen must be an unsigned decimal")
    result = module.apply_word(word, module.basis_element(args.gen))
    if args.format == "json":
        _emit_json(
            {
                "word": list(word.indices),
                "gen": args.gen,
                "terms": [[c, i] for i, c in sorted(result.terms.items())],
                "rendered": result.render(),
            }
        )
    else:
        print(result.render())
    return 0


def _table_cells(module: ModuleSpec, max_op: int, max_gen: int):
    cells = []
    for gen in range(max_gen + 1):
        for op in range(max_op + 1):
            el = module.act(op, gen)
            for idx, c in sorted(el.terms.items()):
                cells.append({"op": op, "gen": gen, "coeff": c, "target": idx})
    return cells


def cmd_table(args) -> int:
    module = _resolve_module(args.module)
    if args.max_op < 0 or args.max_gen < 0:
        raise UsageError("table bounds must be unsigned decimals")
    if args.format == "json":
        _emit_json(
            {
                "max_op": args.max_op,
                "max_gen": args.max_gen,
                "cells": _table_cells(module, args.max_op, args.max_gen),
            }
        )
        return 0
    # coefficient matrix: rows = gen, columns = op
    rows = []
    for gen in range(args.max_gen + 1):
        row = []
        for op in range(args.max_op + 1):
            el = module.act(op, gen)
            row.append(sum(el.terms.values()) % module.p if el.terms else 0)
        rows.append(row)
    if args.format == "csv":
        # int cells need no quoting; rows end in \r\n as csv.writer's do
        lines = [["gen", *range(args.max_op + 1)]]
        lines += [[gen, *row] for gen, row in enumerate(rows)]
        sys.stdout.write("".join(",".join(map(str, line)) + "\r\n" for line in lines))
        return 0
    width = max(3, len(str(args.max_op)))
    header = "gen\\op " + " ".join(f"{op:>{width}}" for op in range(args.max_op + 1))
    print(header)
    for gen, row in enumerate(rows):
        print(f"{gen:>6} " + " ".join(f"{c:>{width}}" for c in row))
    return 0


def _finish_verify(report, label: str, fmt: str) -> int:
    if fmt == "json":
        _emit_json(report.to_obj())
    else:
        print(report.render_text(label))
        print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    if args.kind == "adem":
        if args.max_index < 0 or args.max_gen < 0:
            raise UsageError("verify bounds must be unsigned decimals")
        module = _resolve_module(args.module)
        relations = _load_relations(args.relations, module.p)
        report = verify_adem(module, args.max_index, args.max_gen, relations=relations)
        return _finish_verify(report, "adem", args.format)
    if args.kind == "cartan":
        if args.max_n < 0 or args.max_gen < 0:
            raise UsageError("verify bounds must be unsigned decimals")
        size = 4 * args.max_gen + args.max_n // 2 + 2
        module = _resolve_module(args.module, args.table, size)
        report = verify_cartan(module, args.max_n, args.max_gen)
        return _finish_verify(report, "cartan", args.format)
    # signs
    spec = algebra_from_obj(load_json(args.spec))
    report = verify_sign_laws(spec)
    return _finish_verify(report, "signs", args.format)


def cmd_solve(args) -> int:
    module = _resolve_module(args.module)
    if args.max_degree < 0:
        raise UsageError("--max-degree must be an unsigned decimal")
    result = solve_product_table(module, args.max_degree)

    check_results = None
    if args.check and result.cartan_rectangle is not None:
        check_results = []
        assignments = [({}, "zero")] + [
            (vec, f"basis[{i}]") for i, vec in enumerate(result.basis)
        ]
        max_n, max_gen = result.cartan_rectangle
        for assignment, label in assignments:
            table = result.table_for(assignment)
            algebra = JoinAlgebraSpec(module.p, module.algebra.dim_g, module.family, table)
            mod = ModuleSpec(algebra, module.action)
            cartan = verify_cartan(mod, max_n, max_gen)
            signs = verify_sign_laws(mod.algebra)
            check_results.append((label, cartan.passed and signs.passed))

    if args.format == "json":
        obj = result.to_obj()
        if check_results is not None:
            obj["checks"] = {label: ok for label, ok in check_results}
        _emit_json(obj)
    else:
        if result.no_constraints:
            print("no constraints generated")
        print(
            f"unknowns: {len(result.slots)} slots up to total degree {result.max_degree}"
        )
        print(
            f"instances: {result.instances} "
            f"(equations {result.equations}, deferred {result.deferred})"
        )
        print(f"rank: {result.rank}, free variables: {len(result.free_slots)}")
        if result.cartan_rectangle is not None:
            n, g = result.cartan_rectangle
            print(f"cartan rectangle: max_n={n}, max_gen={g}")
        for i, vec in enumerate(result.basis):
            body = ", ".join(f"c({a},{b})={v}" for (a, b), v in sorted(vec.items()))
            print(f"basis[{i}]: {body}")
        if check_results is not None:
            for label, ok in check_results:
                print(f"check {label}: {'ok' if ok else 'FAIL'}")
    if check_results is not None and not all(ok for _, ok in check_results):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowerq",
        description=(
            "Lower-indexed operations on classifying-space homology: compute "
            "actions, print coefficient tables, verify relations, solve for "
            "join-product structure constants."
        ),
        epilog=(
            "Words are comma-separated unsigned decimals with the leftmost "
            "index applied last. Exit codes: 0 ok, 1 verification failures, "
            "2 usage error, 3 data error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="apply an operation word to a generator")
    p_compute.add_argument("--module", required=True, help="builtin name (s1_p2) or module JSON path")
    p_compute.add_argument("--word", required=True, help="comma-separated indices; leftmost applied last; empty for the identity")
    p_compute.add_argument("--gen", required=True, type=int, help="generator index")
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.set_defaults(func=cmd_compute)

    p_table = sub.add_parser("table", help="coefficient matrix of op applied to gen")
    p_table.add_argument("--module", required=True)
    p_table.add_argument("--max-op", required=True, type=int)
    p_table.add_argument("--max-gen", required=True, type=int)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a relation verification sweep")
    vsub = p_verify.add_subparsers(dest="kind", required=True)

    p_adem = vsub.add_parser("adem", help="non-admissible pairs vs their rewritten form")
    p_adem.add_argument("--module", required=True)
    p_adem.add_argument("--max-index", required=True, type=int)
    p_adem.add_argument("--max-gen", required=True, type=int)
    p_adem.add_argument(
        "--relations",
        help=(
            "relation override JSON: a list of {r, s, terms} objects, each term "
            '[coeff, outer, inner] with coeff an int or ["binom", n, k]; '
            "expressions are an int or [const, slope] in the summation variable"
        ),
    )
    p_adem.add_argument("--format", choices=("text", "json"), default="text")
    p_adem.set_defaults(func=cmd_verify)

    p_cartan = vsub.add_parser("cartan", help="product compatibility of the operations")
    p_cartan.add_argument("--module", required=True)
    p_cartan.add_argument("--max-n", required=True, type=int)
    p_cartan.add_argument("--max-gen", required=True, type=int)
    p_cartan.add_argument(
        "--table",
        choices=CANDIDATE_TABLE_KINDS,
        help="attach a named candidate product table to a builtin module",
    )
    p_cartan.add_argument("--format", choices=("text", "json"), default="text")
    p_cartan.set_defaults(func=cmd_verify)

    p_signs = vsub.add_parser("signs", help="commutation sign law on a stored table")
    p_signs.add_argument("--spec", required=True, help="algebra spec JSON path")
    p_signs.add_argument("--format", choices=("text", "json"), default="text")
    p_signs.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="solve for structure constants consistent with the relations")
    p_solve.add_argument("--module", required=True)
    p_solve.add_argument("--max-degree", required=True, type=int)
    p_solve.add_argument("--check", action="store_true", help="re-verify every emitted solution")
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    p_solve.set_defaults(func=cmd_solve)

    return parser


def _one_line(text: str) -> str:
    """text with each unprintable character escaped, so that a message
    quoting a name from a data file stays one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {_one_line(str(e))}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"data error: {_one_line(str(e))}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
