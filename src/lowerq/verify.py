"""Exhaustive relation verification over bounded index rectangles.

The headline check compares, for every non-admissible pair (r, s) in a
rectangle, direct double application of the operations against the
application of their rewritten normal form. The rectangles are small
enough to sweep completely, and exhaustiveness is the point: a report
with an empty failure list certifies the identity on every instance.
Reports are deterministic for fixed inputs (fixed iteration order, no
sampling); only the elapsed-time field varies between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .actions import ModuleSpec
from .algebra import GradedElement, JoinAlgebraSpec, sign_exponent
from .operations import OperationWord, RelationTable, adem_rewrite, is_admissible


@dataclass
class Failure:
    description: str
    inputs: dict
    lhs: str
    rhs: str

    def to_obj(self) -> dict:
        return {
            "description": self.description,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class VerificationReport:
    checked: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed_ms: int = 0

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


def verify_adem(
    m: ModuleSpec,
    max_index: int,
    max_gen: int,
    relations: RelationTable | None = None,
    fail_fast: bool = False,
) -> VerificationReport:
    """Check direct application against rewritten form for every
    non-admissible pair (r, s) with r, s <= max_index on every generator
    index <= max_gen."""
    t0 = time.perf_counter()
    if relations is None:
        relations = RelationTable(m.p)
    checked = 0
    failures: list[Failure] = []
    for r in range(max_index + 1):
        for s in range(max_index + 1):
            word = OperationWord((r, s), m.p)
            if is_admissible(word):
                continue
            rewritten = adem_rewrite(word, relations)
            for g in range(max_gen + 1):
                checked += 1
                x = m.basis_element(g)
                lhs = m.apply_word(word, x)
                rhs = m.apply_sum(rewritten, x)
                if lhs != rhs:
                    failures.append(
                        Failure(
                            description="adem relation mismatch",
                            inputs={"r": r, "s": s, "gen": g},
                            lhs=lhs.render(),
                            rhs=rhs.render(),
                        )
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
    checked = 0
    failures: list[Failure] = []
    # x_0 .. x_max_gen, built once, each where the first row (n = 0, a = 0)
    # first needs it: an index past the family's bound raises only after
    # the products that precede it in the sweep.
    gens: list[GradedElement] = []
    for n in range(max_n + 1):
        for a in range(max_gen + 1):
            for b in range(max_gen + 1):
                checked += 1
                if b == len(gens):
                    gens.append(m.basis_element(b))
                xa = gens[a]
                xb = gens[b]
                lhs = m.apply_op(n, m.algebra.join_product(xa, xb))
                rhs = m.cartan_expand(n, xa, xb)
                if lhs != rhs:
                    failures.append(
                        Failure(
                            description="cartan formula mismatch",
                            inputs={"n": n, "a": a, "b": b},
                            lhs=lhs.render(),
                            rhs=rhs.render(),
                        )
                    )
    return _report(checked, failures, t0)


def verify_sign_laws(spec: JoinAlgebraSpec) -> VerificationReport:
    """Check the commutation law on every stored pair.

    Off-diagonal pairs hold by construction (canonical storage plus signed
    transposed lookup) but are exercised through the product code path
    anyway. Diagonal entries with odd sign exponent are forced to vanish:
    c = -c gives 2c = 0, so c = 0 whenever p is odd.
    """
    t0 = time.perf_counter()
    checked = 0
    failures: list[Failure] = []
    table = spec.product_table or {}
    for (a, b) in sorted(table):
        checked += 1
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
            failures.append(
                Failure(
                    description=desc,
                    inputs={"a": a, "b": b, "sign_exponent": s},
                    lhs=ab.render(),
                    rhs=f"{sgn}*({ba.render()})",
                )
            )
    return _report(checked, failures, t0)
