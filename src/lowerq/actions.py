"""Concrete operation actions on graded modules over a join algebra.

The headline module is the mod-2 homology of the circle group's
classifying space: generators x_i in degree 2i, with the closed-form
action

    Q_{2j}(x_i) = C(i+j, j) * x_{2i+j+1}        (p = 2, dim_g = 1)

and Q_odd = 0, forced by parity: the target degree would be odd while the
module is concentrated in even degrees. Other modules are supplied as
explicit action tables over a declared index rectangle; queries outside
the rectangle are errors, not zeros.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable, Mapping, Sequence
from operator import itemgetter
from types import MappingProxyType

from .algebra import GeneratorFamily, GradedElement, JoinAlgebraSpec
from .errors import ActionRangeError, FamilyMismatchError
from .fields import lucas_binom
from .operations import OperationSum, OperationWord, single_op_degree

ActionEntry = tuple[tuple[int, int], ...]  # ((coeff, gen_index), ...)
ActionTerms = tuple[tuple[int, int], ...]  # ((gen_index, coeff), ...), sorted by index

S1_FAMILY = GeneratorFamily("x", 2, 0)


def s1_algebra(product_table=None) -> JoinAlgebraSpec:
    """The p=2, dim_g=1 join algebra over the x_i family."""
    return JoinAlgebraSpec(2, 1, S1_FAMILY, product_table)


def _s1_terms(op_index: int, gen_index: int) -> ActionTerms:
    """Q_{2j}(x_i) = C(i+j, j) x_{2i+j+1} and Q_odd = 0, as nonzero
    (index, coeff) terms."""
    if op_index < 0 or gen_index < 0:
        raise ValueError("indices must be nonnegative")
    if op_index % 2:
        return ()
    j = op_index // 2
    c = lucas_binom(gen_index + j, j, 2)
    return ((2 * gen_index + j + 1, c),) if c else ()


def s1_action(op_index: int, gen_index: int) -> GradedElement:
    """Closed-form circle action: Q_{2j}(x_i) = C(i+j, j) x_{2i+j+1}, Q_odd = 0."""
    return GradedElement(S1_FAMILY, 2, _s1_terms(op_index, gen_index))


class ActionTable:
    """Tabulated action over the rectangle op <= max_op, gen <= max_gen.

    Entries omitted inside the rectangle are zero; queries outside it raise.
    The entries are fixed at construction; entries is a read-only view."""

    def __init__(
        self,
        max_op: int,
        max_gen: int,
        entries: Mapping[tuple[int, int], Iterable[tuple[int, int]]],
    ):
        if max_op < 0 or max_gen < 0:
            raise ValueError("rectangle bounds must be nonnegative")
        self.max_op = max_op
        self.max_gen = max_gen
        table: dict[tuple[int, int], ActionEntry] = {}
        for (op, gen), terms in entries.items():
            if not (0 <= op <= max_op and 0 <= gen <= max_gen):
                raise ValueError(f"entry ({op}, {gen}) outside declared rectangle")
            table[(op, gen)] = tuple(terms)
        self._entries = table

    @property
    def entries(self) -> Mapping[tuple[int, int], ActionEntry]:
        return MappingProxyType(self._entries)

    def lookup(self, op: int, gen: int) -> ActionEntry:
        if not (0 <= op <= self.max_op and 0 <= gen <= self.max_gen):
            raise ActionRangeError(
                f"action queried at ({op}, {gen}) outside rectangle "
                f"op <= {self.max_op}, gen <= {self.max_gen}"
            )
        return self._entries.get((op, gen), ())


ActionRule = str | ActionTable | Callable[[int, int], GradedElement]


class ModuleSpec:
    """A graded basis with an operation action over a JoinAlgebraSpec.

    The action is a builtin name, an ActionTable or a callable
    (op, gen) -> GradedElement. The constructor turns it, once, into one
    rule (op, gen) -> (index, coeff) terms. Every module keeps its own
    memo of that rule on single generators: each (op, gen) pair is built
    once, checked against the family and reduced mod p, and then served
    from the memo. A callable action must
    therefore be a pure function of (op, gen); it is called at most once
    per pair per module. Errors are never memoized: a query that raised
    raises again.

    On top of the memo each module keeps an index of nonzero operations:
    for a generator g, the ops i with Q_i(x_g) != 0 and their terms, in
    increasing i. It grows lazily with the bound n it is asked for and
    reads only the memo, so it records nothing beyond a query that
    raised. The Cartan loops of cartan_expand, verify_cartan and the solver
    run over it instead of over every i in 0..n; for the circle module only
    the i = 2j with j & g == 0 are nonzero (Lucas). verify_cartan and the
    solver read whole entries, up to their bound on n, in another order
    than such a loop would; they keep that loop's result and, for a module
    that raises, its first error.

    The arithmetic runs on plain {index: coeff} dicts in private helpers:
    _apply_op_terms, _apply_sum_terms and _apply_pairs_terms. act,
    apply_op, apply_word (a one-word sum) and apply_sum are thin wrappers
    over them that check that their elements live over this module and
    build a GradedElement for their result; cartan_expand runs its loop
    over i on _apply_op_terms. The verification sweeps call the helpers
    directly and compute each relation once, as a difference that must
    vanish, so a sweep builds its two sides, and GradedElements beyond the
    memo, only to render a failure. verify_adem calls only
    _apply_pairs_terms, which applies a sum of two-op words to one
    generator and queries the cells that _apply_sum_terms would, in the
    same order. _apply_sum_terms applies each word suffix that several
    words share once, in the same cell order.
    """

    def __init__(self, algebra: JoinAlgebraSpec, action: ActionRule):
        self.algebra = algebra
        self.action = action
        self._memo: dict[tuple[int, int], ActionTerms] = {}
        # gen -> [number of ops indexed, [(op, terms), ...] for the nonzero ones]
        self._index: dict[int, list] = {}
        if isinstance(action, str):
            if action != "s1_p2":
                raise ValueError(f"unknown builtin action {action!r}")
            if algebra.p != 2 or algebra.dim_g != 1 or (
                algebra.family.degree_a,
                algebra.family.degree_b,
            ) != (2, 0):
                raise ValueError("s1_p2 action requires p=2, dim_g=1 and degree rule 2i")
            self._rule = _s1_terms
        elif isinstance(action, ActionTable):
            self._check_table_degrees(action)
            self._rule = lambda op, gen: [(idx, c) for c, idx in action.lookup(op, gen)]
        elif callable(action):
            self._rule = lambda op, gen: action(op, gen).terms.items()
        else:
            raise TypeError("action must be a builtin name, an ActionTable or a callable")

    def _check_table_degrees(self, table: ActionTable) -> None:
        fam, p, dim_g = self.algebra.family, self.algebra.p, self.algebra.dim_g
        for (op, gen), terms in sorted(table.entries.items()):
            want = single_op_degree(p, op, fam.degree(gen), dim_g)
            for c, idx in terms:
                if fam.degree(idx) != want and c % p:
                    raise ValueError(
                        f"action entry ({op}, {gen}) -> index {idx} breaks the degree law"
                    )

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def family(self) -> GeneratorFamily:
        return self.algebra.family

    def basis_element(self, index: int, coeff: int = 1) -> GradedElement:
        return GradedElement.generator(self.family, self.p, index, coeff)

    def _act_terms(self, op_index: int, gen_index: int) -> ActionTerms:
        """The integer action kernel: Q_op(x_gen) as reduced nonzero
        (index, coeff) terms sorted by index, memoized per module."""
        key = (op_index, gen_index)
        terms = self._memo.get(key)
        if terms is None:
            out = GradedElement(self.family, self.p, self._rule(op_index, gen_index))
            terms = self._memo[key] = tuple(sorted(out.terms.items()))
        return terms

    def _nonzero_ops(self, gen_index: int, n: int) -> list[tuple[int, ActionTerms]]:
        """(i, Q_i(x_gen) terms) for every i <= n with Q_i(x_gen) != 0, in
        increasing i, read from the memo and kept in the module's index."""
        entry = self._index.get(gen_index)
        if entry is None:
            entry = self._index[gen_index] = [0, []]
        ops = entry[1]
        for i in range(entry[0], n + 1):
            terms = self._act_terms(i, gen_index)
            entry[0] = i + 1
            if terms:
                ops.append((i, terms))
        if ops and ops[-1][0] > n:
            return ops[: bisect_right(ops, n, key=itemgetter(0))]
        return ops

    def _apply_op_terms(self, op_index: int, terms: Mapping[int, int]) -> dict[int, int]:
        memo = self._memo
        acc: dict[int, int] = {}
        for idx, c in terms.items():
            # the memo is read inline: this is the innermost loop of every sweep
            action = memo.get((op_index, idx))
            if action is None:
                action = self._act_terms(op_index, idx)
            for idx2, c2 in action:
                acc[idx2] = acc.get(idx2, 0) + c * c2
        if not acc:
            return acc
        p = self.algebra.p
        return {idx: c % p for idx, c in acc.items() if c % p}

    def _apply_sum_terms(
        self, words: Iterable[tuple[Sequence[int], int]], terms: Mapping[int, int]
    ) -> dict[int, int]:
        """sum c * w(terms) over the (indices, c) pairs, reduced mod p. Each
        word applies right to left and stops once its result is zero. A trie
        on the reversed words, {index: (result, children)}, applies a shared
        suffix once; cells are first queried as word after word would."""
        acc: dict[int, int] = {}
        root: dict = {}
        for indices, c in words:
            out, node = terms, root
            for i in reversed(indices):
                if not out:
                    break
                hit = node.get(i)
                if hit is None:
                    hit = node[i] = (self._apply_op_terms(i, out), {})
                out, node = hit
            for idx, v in out.items():
                acc[idx] = acc.get(idx, 0) + c * v
        p = self.p
        return {idx: v % p for idx, v in acc.items() if v % p}

    def _apply_pairs_terms(
        self, words: Iterable[tuple[int, int, int]], gen_index: int
    ) -> dict[int, int]:
        """sum c * Q_a(Q_b(x_gen)) over the (a, b, c) triples, reduced mod p.

        Q_b(x_gen) is its memo entry as it stands: reduced, nonzero, with
        distinct indices. So each word queries the cells that
        _apply_sum_terms queries for (a, b) on x_gen, in the same order.
        """
        memo = self._memo
        acc: dict[int, int] = {}
        for a, b, c in words:
            inner = memo.get((b, gen_index))
            if inner is None:
                inner = self._act_terms(b, gen_index)
            for idx, v in inner:
                outer = memo.get((a, idx))
                if outer is None:
                    outer = self._act_terms(a, idx)
                cv = c * v
                for idx2, v2 in outer:
                    acc[idx2] = acc.get(idx2, 0) + cv * v2
        if not acc:
            return acc
        p = self.algebra.p
        return {idx: v % p for idx, v in acc.items() if v % p}

    def _check_element(self, x: GradedElement) -> None:
        if x.family != self.family or x.p != self.p:
            raise FamilyMismatchError("element does not live over this module")

    def act(self, op_index: int, gen_index: int) -> GradedElement:
        """Apply a single operation to a single generator."""
        return GradedElement(self.family, self.p, self._act_terms(op_index, gen_index))

    def apply_op(self, op_index: int, x: GradedElement) -> GradedElement:
        self._check_element(x)
        return GradedElement(self.family, self.p, self._apply_op_terms(op_index, x.terms))

    def apply_word(self, w: OperationWord | Sequence[int], x: GradedElement) -> GradedElement:
        """Apply a word right to left, extended linearly: a one-word sum."""
        indices = w.indices if isinstance(w, OperationWord) else tuple(w)
        self._check_element(x)
        terms = self._apply_sum_terms(((indices, 1),), x.terms)
        return GradedElement._trusted(self.family, self.p, terms)

    def apply_sum(self, s: OperationSum, x: GradedElement) -> GradedElement:
        """Coefficient-weighted sum of apply_word over the terms of s."""
        self._check_element(x)
        terms = self._apply_sum_terms(sorted(s._terms.items()), x.terms)
        return GradedElement._trusted(self.family, self.p, terms)

    def cartan_expand(self, n: int, a: GradedElement, b: GradedElement) -> GradedElement:
        """sum_{i+j=n} Q_i(a) * Q_j(b), the product-side of the Cartan formula."""
        if n < 0:
            raise ValueError("operation index must be nonnegative")
        self._check_element(a)
        self._check_element(b)
        # Q_i(a) * Q_{n-i}(b) vanishes unless some generator of a has a
        # nonzero Q_i and some generator of b a nonzero Q_{n-i}.
        ops_a = {i for g in a.terms for i, _ in self._nonzero_ops(g, n)}
        ops_b = {n - j for g in b.terms for j, _ in self._nonzero_ops(g, n)}
        acc: dict[int, int] = {}
        for i in sorted(ops_a & ops_b):
            qa = self._apply_op_terms(i, a.terms)
            qb = self._apply_op_terms(n - i, b.terms)
            if qa and qb:
                for idx, c in self.algebra._product_terms(qa, qb).items():
                    acc[idx] = acc.get(idx, 0) + c
        return GradedElement(self.family, self.p, acc)


# --- candidate product tables for the circle module -------------------

CANDIDATE_TABLE_KINDS = ("ones", "binomial", "zero")


def s1_candidate_table(kind: str, max_pair_sum: int) -> dict[tuple[int, int], ActionEntry]:
    """Candidate structure constants for x_a * x_b, for all a <= b with
    a + b <= max_pair_sum.

    The degree law forces the target x_{a+b+1}; what is unknown is the
    coefficient. "ones" puts C = 1 everywhere, "binomial" puts
    C(a+b+1, a), "zero" defines every product to vanish. None of these is
    privileged; the consistency checks and the solver adjudicate.
    """
    if kind not in CANDIDATE_TABLE_KINDS:
        raise ValueError(f"unknown candidate table {kind!r}")
    table: dict[tuple[int, int], ActionEntry] = {}
    for a in range(max_pair_sum + 1):
        for b in range(a, max_pair_sum - a + 1):
            if kind == "ones":
                coeff = 1
            elif kind == "binomial":
                coeff = lucas_binom(a + b + 1, a, 2)
            else:
                coeff = 0
            table[(a, b)] = ((coeff, a + b + 1),) if coeff else ()
    return table


def s1_module(product_table=None) -> ModuleSpec:
    """The circle module with the closed-form p=2 action."""
    return ModuleSpec(s1_algebra(product_table), "s1_p2")


BUILTIN_MODULES: dict[str, Callable[..., ModuleSpec]] = {"s1_p2": s1_module}


def flip_coefficient(module: ModuleSpec, op_index: int, gen_index: int) -> ModuleSpec:
    """A copy of the module with one action coefficient changed by +1 mod p.

    The corrupted cell keeps its degree-lawful target index, so the
    corruption is invisible to degree checks and only relation
    verification can catch it. Used to confirm the harness is not
    vacuously green.
    """
    fam, p, dim_g = module.family, module.p, module.algebra.dim_g
    target_deg = single_op_degree(p, op_index, fam.degree(gen_index), dim_g)
    target = fam.index_for_degree(target_deg)
    if target is None:
        raise ValueError(
            f"cell ({op_index}, {gen_index}) has no degree-lawful target to corrupt"
        )
    base = module.act

    def corrupted(op: int, gen: int) -> GradedElement:
        out = base(op, gen)
        if (op, gen) != (op_index, gen_index):
            return out
        terms = dict(out.terms)
        terms[target] = terms.get(target, 0) + 1
        return GradedElement(fam, p, terms)

    return ModuleSpec(module.algebra, corrupted)
