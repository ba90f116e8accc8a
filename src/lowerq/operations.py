"""Lower-indexed operation words, degree bookkeeping and Adem rewriting.

Indexing convention. The raw operations theta_i come one per equivariant
chain degree i >= 0. For p = 2 every theta_i is kept and written Q_i; for
odd p only the indices i = 2t(p-1) survive and Q_t denotes theta_{2t(p-1)}.
A word (i_1, ..., i_k) means the composite Q_{i_1} o ... o Q_{i_k} with the
rightmost index applied first.

Degrees. Q_j raises the degree d of its argument to

    p = 2:    2*d + (dim_g + 1) + j
    p odd:    p*d + (p-1)*(dim_g + 1) + 2*j*(p-1)

Writing D = d + dim_g + 1 for the shifted degree, both cases read
D -> p*D + (index weight), which is why relation coefficients below can
depend on the indices alone and never on the degree of the argument.

Admissibility and relations. A word is admissible when its indices are
weakly increasing (adjacent pairs satisfy i_t <= i_{t+1}); admissible
words are the normal forms of the rewriting system. The shipped relation
family for p = 2 expands a non-admissible pair (r, s), r > s, as

    Q_r Q_s = sum_w C(w - s - 1, 2w - r - s) Q_{r + 2s - 2w} Q_w

with terms of negative outer index dropped (negative-degree chain classes
vanish, so Q_i = 0 for i < 0). Every surviving term satisfies
outer <= s < w, so a single expansion of a pair is already admissible.
The family is configuration, not an axiom: the test suite certifies it
against the closed-form circle-group action before it is trusted, and a
JSON override can replace individual pairs. No odd-p family is shipped;
rewriting at odd p requires override data.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from heapq import heapify, heappop, heappush
from types import MappingProxyType

from .errors import FrozenRecord, RelationDataError, RewriteBudgetError
from .fields import check_prime, lucas_binom

DEFAULT_REWRITE_BUDGET = 1_000_000


class OperationWord(FrozenRecord):
    """A composite of lower-indexed operations; rightmost index acts first."""

    __slots__ = ("indices", "p")

    def __init__(self, indices: Iterable[int], p: int):
        indices = tuple(indices)
        check_prime(p)
        if any(i < 0 for i in indices):
            raise ValueError("operation indices must be nonnegative")
        self._set(indices, p)

    def __repr__(self):
        body = " ".join(f"Q_{i}" for i in self.indices) or "id"
        return f"<{body} (p={self.p})>"


def single_op_degree(p: int, op_index: int, input_degree: int, dim_g: int) -> int:
    """Degree after applying one operation to a class of the given degree."""
    if p == 2:
        return 2 * input_degree + dim_g + 1 + op_index
    return p * input_degree + (p - 1) * (dim_g + 1) + 2 * op_index * (p - 1)


def op_degree(w: OperationWord, input_degree: int, dim_g: int) -> int:
    """Degree after applying the whole word, rightmost index first."""
    d = input_degree
    for i in reversed(w.indices):
        d = single_op_degree(w.p, i, d, dim_g)
    return d


def is_admissible(w: OperationWord) -> bool:
    """True when every adjacent index pair is weakly increasing."""
    idx = w.indices
    return all(idx[t] <= idx[t + 1] for t in range(len(idx) - 1))


class OperationSum:
    """F_p-linear combination of operation words, in canonical sparse form,
    kept as {indices: coeff}; reading terms builds the OperationWords."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: Mapping[OperationWord, int] | Iterable = ()):
        check_prime(p)
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon: dict[tuple[int, ...], int] = {}
        for word, c in items:
            if not isinstance(word, OperationWord):
                word = OperationWord(tuple(word), p)
            if word.p != p:
                raise ValueError("all words in a sum must share p")
            idx = word.indices
            c = (canon.get(idx, 0) + c) % p
            if c:
                canon[idx] = c
            else:
                canon.pop(idx, None)
        self.p = p
        self._terms = canon

    @classmethod
    def _trusted(cls, p: int, terms: dict[tuple[int, ...], int]) -> "OperationSum":
        # For sums the rewriter built: distinct index tuples of nonnegative
        # ints with reduced nonzero coefficients, already in canonical form.
        out = object.__new__(cls)
        out.p = p
        out._terms = terms
        return out

    @classmethod
    def from_word(cls, word: OperationWord, coeff: int = 1) -> "OperationSum":
        # the word's constructor has checked its indices and p
        c = coeff % word.p
        return cls._trusted(word.p, {word.indices: c} if c else {})

    @property
    def terms(self) -> dict[OperationWord, int]:
        """{word: coeff}, built afresh on each read."""
        return {OperationWord(idx, self.p): c for idx, c in self._terms.items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperationSum)
            and self.p == other.p
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self):
        if not self._terms:
            return "<0>"
        parts = []
        for idx, c in sorted(self._terms.items()):
            body = " ".join(f"Q_{i}" for i in idx) or "id"
            parts.append(body if c == 1 else f"{c}*{body}")
        return "<" + " + ".join(parts) + f" (p={self.p})>"


# --- relation tables --------------------------------------------------


class AffineExpr(FrozenRecord):
    """const + slope*w in the summation variable w."""

    __slots__ = ("const", "slope")

    def __init__(self, const: int, slope: int = 0):
        self._set(const, slope)

    def at(self, w: int) -> int:
        return self.const + self.slope * w


class RelationTerm(FrozenRecord):
    """One (possibly parametric) term of a relation right-hand side.

    coeff is either a plain integer or a pair (n_expr, k_expr) standing for
    the binomial coefficient C(n_expr(w), k_expr(w)); outer and inner give
    the replacement index pair. A term involving the summation variable
    expands over the (finite) range where the binomial is combinatorially
    nonzero; terms whose outer or inner index comes out negative are
    dropped as zero operations.
    """

    __slots__ = ("coeff", "outer", "inner")

    def __init__(self, coeff: int | tuple[AffineExpr, AffineExpr], outer: AffineExpr, inner: AffineExpr):
        self._set(coeff, outer, inner)

    def _range(self) -> range:
        """The values of the summation variable that expand visits."""
        binom = self.coeff if isinstance(self.coeff, tuple) else ()
        if not any(e.slope for e in (*binom, self.outer, self.inner)):
            return range(1)
        if binom:
            lo, hi = _binom_support(*binom)
            return range(lo, hi + 1)
        raise RelationDataError(
            "parametric relation term needs a binomial coefficient to bound its range"
        )

    def _reach(self) -> int:
        """A bound, at least 0, on the indices expand yields."""
        try:
            ws = self._range()
        except RelationDataError:  # raised before any index is yielded
            return 0
        ends = (ws[0], ws[-1]) if ws else ()  # affine outer and inner peak at an end
        return max([0, *(e.at(w) for e in (self.outer, self.inner) for w in ends)])

    def expand(self, p: int) -> list[tuple[int, tuple[int, int]]]:
        binom = isinstance(self.coeff, tuple)
        terms = []
        for w in self._range():
            if binom:
                c = lucas_binom(self.coeff[0].at(w), self.coeff[1].at(w), p)
            else:
                c = self.coeff % p
            out, inn = self.outer.at(w), self.inner.at(w)
            if c and out >= 0 and inn >= 0:
                terms.append((c, (out, inn)))
        return terms


def _binom_support(n_expr: AffineExpr, k_expr: AffineExpr) -> tuple[int, int]:
    # Solve 0 <= k(w) and k(w) <= n(w) for w; both bounds must exist.
    lo: int | None = None
    hi: int | None = None

    def constrain(c0: int, c1: int):
        # c0 + c1*w >= 0
        nonlocal lo, hi
        if c1 > 0:
            b = (-c0 + c1 - 1) // c1  # ceil(-c0 / c1)
            lo = b if lo is None else max(lo, b)
        elif c1 < 0:
            b = c0 // (-c1)  # floor(c0 / -c1)
            hi = b if hi is None else min(hi, b)
        elif c0 < 0:
            lo, hi = 0, -1  # empty

    constrain(k_expr.const, k_expr.slope)
    constrain(n_expr.const - k_expr.const, n_expr.slope - k_expr.slope)
    if lo is None or hi is None:
        raise RelationDataError("relation term has unbounded summation range")
    return lo, hi


def builtin_pair_terms(p: int, r: int, s: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """Shipped expansion of the non-admissible pair (r, s); p = 2 only.

    The terms C(w - s - 1, 2w - r - s) Q_{r + 2s - 2w} Q_w for
    ceil((r + s) / 2) <= w <= r - 1, where the binomial can be nonzero, up
    to the first w whose outer index is negative; sorted by (outer, inner).
    """
    if p != 2:
        raise RelationDataError(
            f"no built-in relation family for p = {p}; supply an override table"
        )
    if r <= s:
        raise ValueError(f"pair ({r}, {s}) is admissible and has no relation")
    terms = []
    for w in range((r + s + 1) // 2, r):
        outer = r + 2 * s - 2 * w
        if outer < 0:
            break
        c = lucas_binom(w - s - 1, 2 * w - r - s, 2)
        if c:
            terms.append((c, (outer, w)))
    # outer falls as w rises
    return tuple(reversed(terms))


class RelationTable:
    """Per-pair Adem expansions: overrides where given, built-in data otherwise.

    The overrides are fixed at construction; overrides is a read-only view.
    Built-in expansions yield indices below their pair, so a rewrite reaches
    no index past its input's and _top, the largest an override can yield."""

    def __init__(
        self,
        p: int,
        overrides: Mapping[tuple[int, int], Iterable[RelationTerm]] | None = None,
    ):
        check_prime(p)
        self.p = p
        self._overrides = {k: tuple(v) for k, v in (overrides or {}).items()}
        self._top = max((t._reach() for v in self._overrides.values() for t in v), default=0)
        self._cache: dict[tuple[int, int], tuple] = {}

    @property
    def overrides(self) -> Mapping[tuple[int, int], tuple[RelationTerm, ...]]:
        return MappingProxyType(self._overrides)

    def terms_for(self, r: int, s: int) -> tuple[tuple[int, tuple[int, int]], ...]:
        """Expansion of Q_r Q_s as ((coeff, (outer, inner)), ...); r > s required.

        Cached per pair, which the fixed overrides keep current."""
        key = (r, s)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if key in self._overrides:
            expansion = self._override_terms(key)
            self._check_cycle(key, expansion)
        else:
            expansion = builtin_pair_terms(self.p, r, s)
        self._cache[key] = expansion
        return expansion

    def _override_terms(self, key: tuple[int, int]) -> tuple[tuple[int, tuple[int, int]], ...]:
        """The merged expansion of an override pair, sorted by (outer, inner)."""
        acc: dict[tuple[int, int], int] = {}
        for term in self._overrides[key]:
            for c, pair in term.expand(self.p):
                acc[pair] = (acc.get(pair, 0) + c) % self.p
        return tuple(sorted(((c, pair) for pair, c in acc.items() if c), key=lambda t: t[1]))

    def _check_cycle(self, key: tuple[int, int], expansion: tuple) -> None:
        """Raise if the override pairs reachable from key lead back to it.

        Q_r Q_s would then be rewritten into itself until the budget ran
        out. Shipped expansions yield only admissible pairs, so only
        override pairs continue a chain; each is visited once, breadth
        first, and the error names the pairs of the shortest way back.
        """
        seen = {key}
        queue = [(expansion, ())]
        for terms, path in queue:  # the queue grows as it is read
            for _, pair in terms:
                if pair == key:
                    through = " through " + ", ".join(map(str, path)) if path else ""
                    raise RelationDataError(
                        f"relation override for {key} yields {key} again{through}"
                    )
                if pair not in seen and pair in self._overrides and pair[0] > pair[1]:
                    seen.add(pair)
                    queue.append((self._override_terms(pair), path + (pair,)))


def adem_rewrite(
    w: OperationWord,
    relations: RelationTable | None = None,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> OperationSum:
    """Rewrite a word into an equal sum of admissible words.

    The leftmost non-admissible adjacent pair of a word is expanded first;
    the shipped family gives the same normal form whichever pair is taken.
    budget bounds the number of pair expansions and exists only as a guard
    against malformed override tables. See rewrite_sum.
    """
    return rewrite_sum(OperationSum.from_word(w), relations, budget=budget)


def rewrite_sum(
    s: OperationSum,
    relations: RelationTable | None = None,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> OperationSum:
    """Linear extension of adem_rewrite to sums of words.

    Pending words are expanded largest first in lexicographic order, a
    word before its extensions. Every shipped expansion (r, s) ->
    (outer, inner) has outer <= s < r, so each word it yields is smaller
    than the word it came from: a word is taken up only after every word
    that can yield it, and is expanded once, with its fully merged
    coefficient, or skipped when that coefficient is 0. Which pair of a
    word is expanded (the leftmost descent) depends on the word alone, so
    on a table whose expansions terminate the order in which words are
    taken up cannot change the result.

    budget counts pair expansions. An override table whose expansions can
    cycle is malformed. RelationTable rejects a cycle of override pairs at
    the first expansion of a pair on it; a cycle that runs through the
    neighbouring indices of a longer word is left to the budget, and
    whether the budget runs out can then depend on which coefficients
    cancel.
    """
    if relations is None:
        relations = RelationTable(s.p)
    return OperationSum._trusted(s.p, _rewrite(s._terms, relations, s.p, budget))


def _rewrite(
    terms: Mapping[tuple[int, ...], int], relations: RelationTable, p: int, budget: int
) -> dict[tuple[int, ...], int]:
    """The rewriting loop of rewrite_sum, on words packed into single ints.

    terms maps index tuples to reduced nonzero coefficients; the normal
    form comes back the same way, in the order its words were taken up.
    Each word is one int of k fields of f = m + 1 bits, its first index
    highest, and the top bit of each field is a zero guard. The digits are
    sized once, for the largest index of the sum and relations._top, so
    every word the loop reaches fits them. A shorter word is padded with
    the digit 2^m - 1, which no index reaches, so the larger word has the
    larger code and a word's code exceeds its extensions'; the heap holds
    negated codes. Subtracting each digit from its right neighbour across
    the guards borrows exactly at the descents, and the highest borrowed
    guard marks the leftmost.
    """
    if not terms:
        return {}
    k = max(2, *map(len, terms))
    m = (max(relations._top, *map(max, filter(None, terms)), 0) + 1).bit_length()
    f = m + 1
    pad = (1 << m) - 1
    ones = ((1 << f * (k - 1)) - 1) // ((1 << f) - 1)
    guards, low = ones << m, ones * pad  # the guard bits; the digits of all fields but the first
    pending: dict[int, int] = {}
    for idx, c in terms.items():
        code = 0
        for i in idx + (pad,) * (k - len(idx)):
            code = code << f | i
        pending[-code] = c
    heap = list(pending)
    heapify(heap)
    done: dict[int, int] = {}

    steps = 0
    while heap:
        neg = heappop(heap)
        c = pending.pop(neg)
        if c == 0:
            continue
        code = -neg
        desc = guards ^ (((code & low) | guards) - (code >> f)) & guards
        if not desc:
            # An override table need not shrink words, so an admissible
            # word can be reached again after it was taken up.
            done[neg] = done.get(neg, 0) + c
            continue
        steps += 1
        if steps > budget:
            raise RewriteBudgetError(f"rewrite budget of {budget} pair expansions exceeded")
        s0 = desc.bit_length()  # the guard of b's field is bit s0 - 1
        s1 = s0 - f
        a, b = code >> s0 & pad, code >> s1 & pad
        base = neg + (a << s0) + (b << s1)  # the word with its pair zeroed
        for coeff, (outer, inner) in relations.terms_for(a, b):
            new = base - (outer << s0) - (inner << s1)
            old = pending.get(new)
            if old is None:
                heappush(heap, new)
                old = 0
            pending[new] = (old + c * coeff) % p
    shifts = range(f * (k - 1), -1, -f)
    out: dict[tuple[int, ...], int] = {}
    for neg, c in done.items():
        c %= p
        if c:
            idx = tuple(-neg >> sh & pad for sh in shifts)
            out[idx[: idx.index(pad)] if pad in idx else idx] = c
    return out
