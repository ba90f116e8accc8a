"""Value semantics of the package's record classes: equality, hashing,
immutability, repr, constructor defaults and copy/pickle round trips; and
a guard that importing the CLI stays free of heavy standard modules."""

import copy
import os
import pickle
import re
import subprocess
import sys

import pytest

import lowerq
from lowerq import (
    GeneratorFamily,
    JoinAlgebraSpec,
    LinearSystem,
    OperationWord,
    SolverResult,
    VerificationReport,
)
from lowerq.operations import AffineExpr, RelationTerm
from lowerq.verify import Failure

SYSTEM = LinearSystem([((0, 1), (2, 1))], 2)


def solver_result(**changes):
    fields = dict(
        p=2, max_degree=6, slots=[(0, 0), (0, 1), (1, 1)], instances=7, equations=1,
        deferred=0, rank=1, free_slots=[(0, 1), (1, 1)],
        basis=[{(0, 1): 1}, {(0, 0): 1, (1, 1): 1}], cartan_rectangle=(6, 1), system=SYSTEM,
    )
    fields.update(changes)
    return SolverResult(**fields)


def term():
    return RelationTerm((AffineExpr(4, -1), AffineExpr(-1, 2)), AffineExpr(5, -2), AffineExpr(0, 1))


def failure():
    return Failure("Adem relation", {"r": 3, "s": 1, "gen": 0}, "x_5", "0")


def report():
    return VerificationReport(checked=9, failures=[failure()], elapsed_ms=4)


def algebra_spec(coeff=1):
    return JoinAlgebraSpec(3, 1, GeneratorFamily("x", 1, 0), {(0, 1): [(coeff, 3)], (1, 1): []})


# name -> (maker, maker of an unequal instance)
FROZEN = {
    "GeneratorFamily": (lambda: GeneratorFamily("x", 2, 0), lambda: GeneratorFamily("x", 2, 0, 7)),
    "OperationWord": (lambda: OperationWord((3, 1), 2), lambda: OperationWord((3, 1), 3)),
    "AffineExpr": (lambda: AffineExpr(3, 1), lambda: AffineExpr(3)),
    "RelationTerm": (term, lambda: RelationTerm(1, AffineExpr(5, -2), AffineExpr(0, 1))),
}
MUTABLE = {
    "LinearSystem": (lambda: LinearSystem([((0, 1), (2, 1))], 2), lambda: LinearSystem([], 2)),
    "SolverResult": (solver_result, lambda: solver_result(rank=2)),
    "Failure": (failure, lambda: Failure("Adem relation", {}, "x_5", "0")),
    "VerificationReport": (report, lambda: VerificationReport(checked=9, elapsed_ms=4)),
}
# fixed at construction like FROZEN, but unhashable: the table is a dict
UNHASHABLE_FIXED = {"JoinAlgebraSpec": (algebra_spec, lambda: algebra_spec(2))}
ALL = {**FROZEN, **MUTABLE, **UNHASHABLE_FIXED}


@pytest.mark.parametrize("name", sorted(ALL))
class TestEquality:
    def test_equal_and_unequal(self, name):
        make, other = ALL[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert a != other() and not a == other()

    def test_other_types_never_equal(self, name):
        make, _ = ALL[name]
        x = make()
        assert x != "x" and x != None  # noqa: E711
        assert not any(x == y() for n, (y, _) in ALL.items() if n != name)

    def test_copy_and_pickle_round_trip(self, name):
        x = ALL[name][0]()
        pickles = [pickle.loads(pickle.dumps(x, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in (copy.copy(x), copy.deepcopy(x), *pickles):
            assert type(y) is type(x) and y == x and repr(y) == repr(x)


class TestFrozen:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_hash_and_keys(self, name):
        make, other = FROZEN[name]
        a, b = make(), make()
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert len({a, b, other()}) == 2

    @pytest.mark.parametrize("name", sorted({**FROZEN, **UNHASHABLE_FIXED}))
    def test_assignment_raises(self, name):
        x = ALL[name][0]()
        field = {"GeneratorFamily": "name", "OperationWord": "p", "AffineExpr": "slope",
                 "RelationTerm": "coeff", "JoinAlgebraSpec": "dim_g"}[name]
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, 5)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) == before


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(MUTABLE[name][0]())


def test_join_algebra_spec_is_unhashable():
    with pytest.raises(TypeError):
        hash(algebra_spec())


class TestRepr:
    def test_generator_family(self):
        assert repr(GeneratorFamily("x", 2, 0)) == (
            "GeneratorFamily(name='x', degree_a=2, degree_b=0, max_index=None)"
        )

    def test_operation_word(self):
        assert repr(OperationWord([3, 1], 2)) == "<Q_3 Q_1 (p=2)>"
        assert repr(OperationWord((), 3)) == "<id (p=3)>"

    def test_relation_term(self):
        assert repr(RelationTerm(1, AffineExpr(5), AffineExpr(0, 1))) == (
            "RelationTerm(coeff=1, outer=AffineExpr(const=5, slope=0), "
            "inner=AffineExpr(const=0, slope=1))"
        )

    def test_linear_system(self):
        assert repr(SYSTEM) == "LinearSystem(rows=[((0, 1), (2, 1))], p=2)"

    def test_solver_result_leaves_out_system_targets_and_forced_zero(self):
        r = solver_result(targets={(0, 0): 0}, forced_zero=[(2, 3)])
        assert repr(r) == (
            "SolverResult(p=2, max_degree=6, slots=[(0, 0), (0, 1), (1, 1)], instances=7, "
            "equations=1, deferred=0, rank=1, free_slots=[(0, 1), (1, 1)], "
            "basis=[{(0, 1): 1}, {(0, 0): 1, (1, 1): 1}], cartan_rectangle=(6, 1))"
        )

    def test_failure_and_report(self):
        assert repr(report()) == (
            "VerificationReport(checked=9, failures=[Failure(description='Adem relation', "
            "inputs={'r': 3, 's': 1, 'gen': 0}, lhs='x_5', rhs='0')], elapsed_ms=4)"
        )


class TestConstructors:
    def test_keywords_and_defaults(self):
        fam = GeneratorFamily(name="x", degree_a=2, degree_b=0)
        assert fam.max_index is None and fam == GeneratorFamily("x", 2, 0, None)
        assert OperationWord(indices=[3, 1], p=2).indices == (3, 1)
        assert AffineExpr(const=4).slope == 0
        t = RelationTerm(coeff=1, outer=AffineExpr(2), inner=AffineExpr(0))
        assert (t.coeff, t.outer, t.inner) == (1, AffineExpr(2), AffineExpr(0))
        assert Failure(description="d", inputs={}, lhs="a", rhs="b").lhs == "a"
        s = LinearSystem(rows=[], p=3)
        assert (s.rows, s.p) == ([], 3)

    def test_mutable_defaults_are_fresh(self):
        a, b = VerificationReport(), VerificationReport()
        assert (a.checked, a.failures, a.elapsed_ms) == (0, [], 0)
        a.failures.append(failure())
        assert b.failures == [] and a != b
        r1, r2 = solver_result(), solver_result()
        assert (r1.targets, r1.forced_zero) == ({}, [])
        r1.targets[(0, 0)] = 0
        r1.forced_zero.append((2, 3))
        assert (r2.targets, r2.forced_zero) == ({}, [])

    def test_mutable_records_accept_assignment(self):
        r = VerificationReport()
        r.checked = 3
        assert r == VerificationReport(checked=3)

    def test_checks_still_run(self):
        with pytest.raises(ValueError, match="degree_b must be a nonnegative integer, got -1"):
            GeneratorFamily("x", 2, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            OperationWord((1, -1), 2)
        with pytest.raises(ValueError):
            OperationWord((1,), 4)


def test_cli_import_loads_no_heavy_standard_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lowerq.__file__)))
    code = (
        "import lowerq.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
    pkg = os.path.join(src, "lowerq")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as f:
                assert not re.search(r"^\s*(from|import)\s+dataclasses\b", f.read(), re.M), fname
