"""Exhaustive relation verification over bounded index rectangles.

The headline check applies, for every non-admissible pair (r, s) in a
rectangle, the Adem relation Q_r Q_s minus its rewritten normal form to
every generator and tests the result for zero. The rectangles are small
enough to sweep completely, and exhaustiveness is the point: a report
with an empty failure list certifies the identity on every instance.
Reports are deterministic for fixed inputs (fixed iteration order, no
sampling); only the elapsed-time field varies between runs.

Every sweep runs on the integer kernel of ModuleSpec and JoinAlgebraSpec.
verify_adem and verify_cartan compute each relation once, as one
{index: coeff} difference that must vanish, and build its two sides, and
a GradedElement for each, only to render a failure. verify_sign_laws
compares x_a * x_b with the signed x_b * x_a, each one table entry.
verify_adem takes a pair's expansion as its normal form when every pair
of it is admissible, and otherwise rewrites it with the kernel that
rewrite_sum wraps, on index tuples in and out. It applies the difference
with ModuleSpec's pair helper, which reads the action memo inline. It
queries the same action cells, in the same order, as apply_word and then
apply_sum would, so the first error raised is the same.
verify_cartan checks each generator pair (a, b) for every n in one pass,
as the solver assembles its pairs: it gives the report of the loop over
(n, a, b) and, when nothing raises, queries the same set of action cells.
On an error it replays that loop through the public wrappers
join_product, apply_op and cartan_expand, to raise the loop's first error.
"""

from __future__ import annotations

import time

from .actions import ModuleSpec
from .algebra import GradedElement, JoinAlgebraSpec, ProductEntry, sign_exponent
from .errors import Record
from .operations import DEFAULT_REWRITE_BUDGET, RelationTable, _rewrite


class Failure(Record):
    __slots__ = ("description", "inputs", "lhs", "rhs")

    def __init__(self, description: str, inputs: dict, lhs: str, rhs: str):
        self._set(description, inputs, lhs, rhs)

    def to_obj(self) -> dict:
        return {
            "description": self.description,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class VerificationReport(Record):
    __slots__ = ("checked", "failures", "elapsed_ms")

    def __init__(self, checked: int = 0, failures: list[Failure] | None = None, elapsed_ms: int = 0):
        self._set(checked, [] if failures is None else failures, elapsed_ms)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "checked": self.checked,
            "failures": [f.to_obj() for f in self.failures],
            "elapsed_ms": self.elapsed_ms,
        }

    def render_text(self, label: str = "verification") -> str:
        lines = [
            f"{label}: checked {self.checked} instances, "
            f"{len(self.failures)} failures ({self.elapsed_ms} ms)"
        ]
        for f in self.failures:
            inputs = ", ".join(f"{k}={v}" for k, v in f.inputs.items())
            lines.append(f"  FAIL {f.description} [{inputs}]: {f.lhs} != {f.rhs}")
        return "\n".join(lines)


def _report(checked: int, failures: list[Failure], t0: float) -> VerificationReport:
    return VerificationReport(
        checked=checked,
        failures=failures,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def _mismatch(m: ModuleSpec, description: str, inputs: dict, lhs: dict, rhs: dict) -> Failure:
    """A failure record, rendering both sides through GradedElement."""
    return Failure(
        description=description,
        inputs=inputs,
        lhs=GradedElement(m.family, m.p, lhs).render(),
        rhs=GradedElement(m.family, m.p, rhs).render(),
    )


def verify_adem(
    m: ModuleSpec,
    max_index: int,
    max_gen: int,
    relations: RelationTable | None = None,
    fail_fast: bool = False,
) -> VerificationReport:
    """Check that Q_r Q_s minus its rewritten form vanishes for every
    non-admissible pair (r, s) with r, s <= max_index on every generator
    index <= max_gen."""
    t0 = time.perf_counter()
    p = m.p
    if relations is None:
        relations = RelationTable(p)
    checked = 0
    failures: list[Failure] = []
    # x_0 .. x_max_gen, each checked where the first non-admissible pair
    # first needs it
    reached = 0
    apply_pairs = m._apply_pairs_terms
    for r in range(max_index + 1):
        for s in range(r):
            word = ((r, s, 1),)
            # every expansion replaces a pair by pairs, so the normal form
            # of Q_r Q_s is a sum of pairs, sorted by indices as apply_sum
            # sorts the terms of a sum; the relation is Q_r Q_s minus it. An
            # expansion into admissible pairs is its own normal form.
            expansion = relations.terms_for(r, s)
            if all(a <= b for _, (a, b) in expansion):
                rewritten = sorted((a, b, c) for c, (a, b) in expansion)
            else:
                normal = _rewrite({(r, s): 1}, relations, p, DEFAULT_REWRITE_BUDGET)
                rewritten = sorted((a, b, c) for (a, b), c in normal.items())
            difference = [*word, *((a, b, -c) for a, b, c in rewritten)]
            for g in range(max_gen + 1):
                checked += 1
                if g == reached:
                    m.family.check_index(g)
                    reached += 1
                if apply_pairs(difference, g):
                    lhs, rhs = apply_pairs(word, g), apply_pairs(rewritten, g)
                    failures.append(
                        _mismatch(m, "adem relation mismatch", {"r": r, "s": s, "gen": g}, lhs, rhs)
                    )
                    if fail_fast:
                        return _report(checked, failures, t0)
    return _report(checked, failures, t0)


def verify_cartan(m: ModuleSpec, max_n: int, max_gen: int) -> VerificationReport:
    """Check Q_n(x_a * x_b) against sum_{i+j=n} Q_i(x_a) * Q_j(x_b) for all
    n <= max_n and generator pairs a, b <= max_gen.

    Raises UndefinedProductError when the algebra's table does not cover
    a needed pair; an absent table is data missing, not a verified zero.
    """
    t0 = time.perf_counter()
    try:
        failures = _cartan_failures(m, max_n, max_gen)
    except Exception:
        # Errors are not memoized: run the checks again in the order of the
        # loop over n, a and b, to raise its first error.
        _replay_cartan(m, max_n, max_gen)
        raise
    return _report(max(max_n + 1, 0) * max(max_gen + 1, 0) ** 2, failures, t0)


def _cartan_failures(m: ModuleSpec, max_n: int, max_gen: int) -> list[Failure]:
    """The failures of verify_cartan, in the order of (n, a, b).

    Each ordered pair (a, b) is checked for every n <= max_n in one pass:
    one unreduced accumulator per n adds the left-hand side, read from the
    index of nonzero operations on each generator of the reduced x_a * x_b,
    and subtracts the convolution of the index entries of a and b. The
    generator checks, action cells and products are those of the loop over
    n, a and b, in another order.
    """
    if max_n < 0:
        return []
    p = m.p
    spec = m.algebra
    ops = [m._nonzero_ops(m.family.check_index(g), max_n) for g in range(max_gen + 1)]
    entries: dict[tuple[int, int], ProductEntry] = {}  # spec.entry(u, v), by (u, v)
    by_n: list[list[Failure]] = [[] for _ in range(max_n + 1)]
    for a, ops_a in enumerate(ops):
        for b, ops_b in enumerate(ops):
            # a product term that cancels mod p queries no action cell
            ab = {t: c % p for t, c in spec._product_terms({a: 1}, {b: 1}).items() if c % p}
            diff: dict[int, dict[int, int]] = {}  # n -> unreduced lhs - rhs
            for t, coeff in ab.items():
                for n, terms in m._nonzero_ops(t, max_n):
                    acc = diff.setdefault(n, {})
                    for idx, c in terms:
                        acc[idx] = acc.get(idx, 0) + coeff * c
            for i, qa in ops_a:
                for j, qb in ops_b:
                    n = i + j
                    if n > max_n:
                        break
                    # _product_terms(Q_i(x_a), Q_j(x_b)), subtracted in place
                    acc = diff.setdefault(n, {})
                    for u, beta in qa:
                        for v, gamma in qb:
                            entry = entries.get((u, v))
                            if entry is None:
                                entry = entries[(u, v)] = spec.entry(u, v)
                            for coeff, idx in entry:
                                acc[idx] = acc.get(idx, 0) - beta * gamma * coeff
            for n, acc in diff.items():
                if any(c % p for c in acc.values()):
                    lhs = m._apply_op_terms(n, ab)  # memo hits only
                    # rhs = lhs - acc, unreduced; every index of lhs is one of acc's
                    rhs = {idx: lhs.get(idx, 0) - c for idx, c in acc.items()}
                    by_n[n].append(
                        _mismatch(m, "cartan formula mismatch", {"n": n, "a": a, "b": b}, lhs, rhs)
                    )
    return [f for row in by_n for f in row]


def _replay_cartan(m: ModuleSpec, max_n: int, max_gen: int) -> None:
    """The loop over n, a and b through join_product, apply_op and
    cartan_expand, with nothing compared: run after an error, it raises
    that loop's first error."""
    # x_b is checked where the first row (n = 0, a = 0) first needs it: an
    # index past the family's bound raises only after the products before it
    gens: list[GradedElement] = []
    for n in range(max_n + 1):
        for a in range(max_gen + 1):
            for b in range(max_gen + 1):
                if b == len(gens):
                    gens.append(m.basis_element(b))
                m.apply_op(n, m.algebra.join_product(gens[a], gens[b]))
                m.cartan_expand(n, gens[a], gens[b])


def verify_sign_laws(spec: JoinAlgebraSpec) -> VerificationReport:
    """Check the commutation law on every stored pair.

    Off-diagonal pairs hold by construction (canonical storage plus signed
    transposed lookup) but are exercised through the product code path
    anyway. Diagonal entries with odd sign exponent are forced to vanish:
    c = -c gives 2c = 0, so c = 0 whenever p is odd.
    """
    t0 = time.perf_counter()
    p = spec.p
    checked = 0
    failures: list[Failure] = []
    table = spec.product_table or {}
    for (a, b) in sorted(table):
        checked += 1
        ab = {idx: c % p for idx, c in spec._product_terms({a: 1}, {b: 1}).items() if c % p}
        ba = {idx: c % p for idx, c in spec._product_terms({b: 1}, {a: 1}).items() if c % p}
        sgn = spec.sign(spec.family.degree(a), spec.family.degree(b))
        if ab != {idx: sgn * c % p for idx, c in ba.items()}:
            s = sign_exponent(spec.family.degree(a), spec.family.degree(b), spec.dim_g)
            desc = (
                "forced-zero diagonal entry is nonzero"
                if a == b and s % 2
                else "commutation sign law violated"
            )
            failures.append(
                Failure(
                    description=desc,
                    inputs={"a": a, "b": b, "sign_exponent": s},
                    lhs=GradedElement(spec.family, p, ab).render(),
                    rhs=f"{sgn}*({GradedElement(spec.family, p, ba).render()})",
                )
            )
    return _report(checked, failures, t0)
