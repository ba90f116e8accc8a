"""Exact linear solving for unknown product structure constants.

The degree law pins the target generator of every product slot
x_a * x_b, so the only unknowns are the scalar coefficients c_{a,b},
one per canonical pair a <= b within the degree bound. A pair whose
product degree holds no generator is forced to zero outright and is not
an unknown. Every Cartan instance Q_n(x_a * x_b) = sum_{i+j=n}
Q_i(x_a) * Q_j(x_b) is linear in the unknowns and contributes one
homogeneous equation per target generator. Instances that mention, with
nonzero coefficient, a slot beyond the degree bound are deferred
(counted, never silently dropped). The system is reduced by exact
Gaussian elimination over F_p to reduced row-echelon form with columns
ordered lexicographically by (a, b); that form is unique, so ranks, free
slots and nullspace bases are reproducible. The rows stay sparse (see
LinearSystem) from assembly to the nullspace basis.

Each canonical pair (a, b) is assembled in one pass over every n <=
max_degree: the module's index of nonzero operations on x_a is convolved
with the one on x_b, and the left-hand sides are read from the index on
the pair's target. The result, and the first error of a module that
raises, are those of a loop over every i in 0..n for each instance; when
nothing raises, the same action cells are queried. The target, sign and
column of each ordered product term (u, v) are worked out once per solve.

The Cartan rectangle needs, for every square [0, g] x [0, g], the first
n at which some instance (n, a, b) of the square is deferred; assembly
records it for every canonical pair. The ordered pair (b, a) needs none:
its expansion mentions the slots of that of (a, b), with i and j swapped,
and its coefficients differ only by signs +-1, which never make one zero.
"""

from __future__ import annotations

from .actions import ModuleSpec
from .algebra import sign_exponent
from .errors import Record

Slot = tuple[int, int]
Row = tuple[tuple[int, int], ...]
PairInfo = tuple[int | None, int, int | None]  # target, sign, column of a product term


def rref_mod_p(rows: list[Row], p: int) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row-echelon form over F_p of (col, coeff) rows; returns the
    nonzero reduced rows as {col: coeff} dicts and their pivot columns.
    Each distinct row in turn, shortest first and, among rows of one length,
    highest lowest column first, is reduced by the echelon rows so far and
    joins them, normalized, under its lowest column; back-reduction runs
    right to left. The reduced form is unique, so the order changes only
    how much fill-in the elimination makes."""
    echelon: dict[int, dict[int, int]] = {}
    for row in sorted(dict.fromkeys(rows), key=lambda row: (len(row), -row[0][0] if row else 0)):
        r = dict(row)
        while r:
            col = min(r)
            prow = echelon.get(col)
            if prow is None:
                inv = pow(r[col], -1, p)
                echelon[col] = {c: v * inv % p for c, v in r.items()}
                break
            _subtract(r, r[col], prow, p)
    pivots = sorted(echelon)
    for col in reversed(pivots):
        prow = echelon[col]
        # the rows right of col are reduced: each subtraction clears one pivot
        for c in [c for c in prow if c != col and c in echelon]:
            _subtract(prow, prow[c], echelon[c], p)
    return [echelon[col] for col in pivots], pivots


def _subtract(row: dict[int, int], f: int, prow: dict[int, int], p: int) -> None:
    """row -= f * prow over F_p, in place, keeping only nonzero entries."""
    for c, v in prow.items():
        nv = (row.get(c, 0) - f * v) % p
        if nv:
            row[c] = nv
        else:
            del row[c]


def nullspace_basis(
    rref_rows: list[dict[int, int]], pivots: list[int], ncols: int, p: int
) -> list[dict[int, int]]:
    """One {col: coeff} basis vector per free column of an RREF matrix, in
    column order. A reduced row's entries other than its pivot lie in free
    columns, so each row is read once."""
    pivot_set = set(pivots)
    basis: dict[int, dict[int, int]] = {f: {} for f in range(ncols) if f not in pivot_set}
    for row, c in zip(rref_rows, pivots):
        for f, v in row.items():
            if f != c:
                basis[f][c] = -v % p
    for f, vec in basis.items():
        vec[f] = 1  # after the pivot columns, which all lie left of f
    return list(basis.values())


class LinearSystem(Record):
    """The homogeneous system A x = 0 over F_p, one unknown per column
    (SolverResult.slots names the columns in order). Each row is a tuple
    of (col, coeff) pairs, sorted by col, holding only the nonzero
    coefficients reduced mod p; the rows stay sparse because the Cartan
    systems are about 1% nonzero."""

    __slots__ = ("rows", "p")

    def __init__(self, rows: list[Row], p: int):
        self._set(rows, p)

    def residual(self, vec: list[int]) -> list[int]:
        """A*x mod p for a dense vector x, for a direct check of emitted solutions."""
        return [sum(a * vec[c] for c, a in row) % self.p for row in self.rows]


class SolverResult(Record):
    # forced_zero: canonical pairs past the degree bound that assembly met forced to zero
    __slots__ = ("p", "max_degree", "slots", "instances", "equations", "deferred", "rank",
                 "free_slots", "basis", "cartan_rectangle", "system", "targets", "forced_zero")
    _hidden = 3  # system, targets and forced_zero

    def __init__(self, p: int, max_degree: int, slots: list[Slot], instances: int, equations: int,
                 deferred: int, rank: int, free_slots: list[Slot], basis: list[dict[Slot, int]],
                 cartan_rectangle: tuple[int, int] | None, system: LinearSystem,
                 targets: dict[Slot, int | None] | None = None, forced_zero: list[Slot] | None = None):
        self._set(p, max_degree, slots, instances, equations, deferred, rank, free_slots, basis,
                  cartan_rectangle, system, {} if targets is None else targets,
                  [] if forced_zero is None else forced_zero)

    @property
    def no_constraints(self) -> bool:
        return self.equations == 0

    def table_for(self, assignment: dict[Slot, int]) -> dict[Slot, tuple]:
        """Materialize an assignment as a product table covering every slot
        within the degree bound and every forced-zero pair that assembly
        met past it (forced-zero slots included as defined zeros)."""
        table: dict[Slot, tuple] = dict.fromkeys(self.forced_zero, ())
        for slot, target in self.targets.items():
            c = assignment.get(slot, 0) % self.p
            if c and target is None:
                raise ValueError(f"slot {slot} is forced to zero by the degree law")
            table[slot] = ((c, target),) if c else ()
        return table

    def zero_table(self) -> dict[Slot, tuple]:
        return self.table_for({})

    def to_obj(self) -> dict:
        return {
            "p": self.p,
            "max_degree": self.max_degree,
            "unknowns": [list(s) for s in self.slots],
            "instances": self.instances,
            "equations": self.equations,
            "deferred": self.deferred,
            "rank": self.rank,
            "free": [list(s) for s in self.free_slots],
            "basis": [
                [[a, b, c] for (a, b), c in sorted(vec.items())] for vec in self.basis
            ],
            "cartan_rectangle": (
                None
                if self.cartan_rectangle is None
                else {
                    "max_n": self.cartan_rectangle[0],
                    "max_gen": self.cartan_rectangle[1],
                }
            ),
            "no_constraints": self.no_constraints,
        }


def _enumerate_pairs(m: ModuleSpec, max_degree: int) -> dict[Slot, int | None]:
    """Canonical pairs within the degree bound, in lexicographic order,
    each mapped to its target generator, or to None for a pair forced to
    zero (no generator in its product degree)."""
    spec = m.algebra
    fam = spec.family
    if fam.degree_a <= 0:
        raise ValueError("solver needs an injective degree rule (degree_a > 0)")
    targets: dict[Slot, int | None] = {}
    a = 0
    while fam.degree(a) * 2 + spec.dim_g + 1 <= max_degree:
        b = a
        while fam.degree(a) + fam.degree(b) + spec.dim_g + 1 <= max_degree:
            targets[(a, b)] = spec.slot_target(a, b)
            b += 1
        a += 1
    return targets


def _pair_rows(
    m: ModuleSpec, cols: dict[Slot, int], targets: dict[Slot, int | None],
    pairs: dict[Slot, PairInfo], a: int, b: int, max_degree: int
) -> tuple[set[int], list[Row]]:
    """The Cartan instances (n, a, b) of one canonical pair for every
    n <= max_degree, as (deferred, rows): the set of n whose instance is
    deferred, and the nonzero rows of the others as sorted (col, coeff)
    tuples, in the order of n and then of their target generator.

    targets is the slot map of _enumerate_pairs; the target of a product
    term outside it is worked out from the degree law. pairs caches, per
    ordered pair (u, v) of one solve, the target of its canonical slot, its
    sign and the slot's column (None outside the solved range).
    """
    spec = m.algebra
    p = spec.p
    fam = spec.family
    lhs_target = targets[(a, b)]
    try:
        lhs_ops = [] if lhs_target is None else m._nonzero_ops(lhs_target, max_degree)
        ops_a = m._nonzero_ops(a, max_degree)
        ops_b = m._nonzero_ops(b, max_degree - ops_a[0][0]) if ops_a else []
    except Exception:
        # Errors are not memoized: query again in the order of the loop over
        # n and i, Q_n(x_target), Q_n(x_a), Q_{n-i}(x_b), to raise its first.
        for n in range(max_degree + 1):
            if lhs_target is not None:
                m._nonzero_ops(lhs_target, n)
            ops = m._nonzero_ops(a, n)
            if ops:
                m._nonzero_ops(b, n - ops[0][0])
        raise
    # n -> target generator -> {col: coeff}, starting from the left-hand sides
    accs = {n: {mgen: {cols[(a, b)]: alpha} for mgen, alpha in terms} for n, terms in lhs_ops}
    deferred: set[int] = set()
    for i, qa in ops_a:
        for j, qb in ops_b:
            n = i + j
            if n > max_degree:
                break
            if n in deferred:
                continue  # its rows are dropped
            acc = accs.setdefault(n, {})
            for u, beta in qa:
                for v, gamma in qb:
                    hit = pairs.get((u, v))
                    if hit is None:
                        slot = (u, v) if u <= v else (v, u)
                        target = targets[slot] if slot in targets else spec.slot_target(*slot)
                        sgn = 1 if u <= v else spec.sign(fam.degree(u), fam.degree(v))
                        hit = pairs[(u, v)] = (target, sgn, cols.get(slot))
                    target, sgn, col = hit
                    # beta, gamma and sgn are nonzero mod p, so every term counts
                    if target is None:
                        continue  # forced zero by the degree law
                    if col is None:
                        deferred.add(n)
                        continue
                    row = acc.setdefault(target, {})
                    row[col] = row.get(col, 0) - beta * gamma * sgn
    emitted = (
        tuple(sorted((col, c % p) for col, c in row.items() if c % p))
        for n, acc in sorted(accs.items()) if n not in deferred
        for _, row in sorted(acc.items())
    )
    return deferred, [row for row in emitted if row]


def _cartan_rectangle(first_deferred: dict[Slot, int], max_degree: int) -> tuple[int, int] | None:
    """Largest-coverage rectangle (max_n, max_gen) whose every Cartan
    instance is expressible within the solved slots; None when no instance
    is coverable at all.

    first_deferred maps every canonical pair within the degree bound to the
    first n whose instance was deferred, or max_degree + 1 when none was.
    """
    best = None
    best_score = -1
    limit = max_degree + 1  # first deferred n over the square [0, g] x [0, g]
    g = 0
    while (g, g) in first_deferred:
        for a in range(g + 1):
            limit = min(limit, first_deferred[(a, g)])
        max_n = limit - 1
        if max_n >= 0:
            score = (max_n + 1) * (g + 1) * (g + 1)
            if score > best_score or (score == best_score and g > best[1]):
                best = (max_n, g)
                best_score = score
        g += 1
    return best


def solve_product_table(m: ModuleSpec, max_degree: int) -> SolverResult:
    """Set up and reduce the Cartan consistency system for the module's
    unknown structure constants, up to the given total degree.

    Deferral is counted over the window n <= max_degree per pair; beyond
    that window every instance mentions only out-of-range unknowns.
    """
    spec = m.algebra
    p = spec.p
    targets = _enumerate_pairs(m, max_degree)
    slots = [slot for slot, target in targets.items() if target is not None]
    cols = {slot: i for i, slot in enumerate(slots)}

    pairs: dict[Slot, PairInfo] = {}
    rows: list[Row] = []
    deferred = 0
    first_deferred: dict[Slot, int] = {}
    for (a, b) in targets:
        pair_deferred, pair_rows = _pair_rows(m, cols, targets, pairs, a, b, max_degree)
        deferred += len(pair_deferred)
        first_deferred[(a, b)] = min(pair_deferred, default=max_degree + 1)
        rows.extend(pair_rows)
    # An odd sign exponent forces diagonal entries to vanish outright.
    if p != 2:
        for (a, b) in slots:
            if a == b and sign_exponent(spec.family.degree(a), spec.family.degree(b), spec.dim_g) % 2:
                rows.append(((cols[(a, b)], 1),))

    system = LinearSystem(rows=rows, p=p)
    rref, pivots = rref_mod_p(rows, p)
    basis_vecs = nullspace_basis(rref, pivots, len(slots), p)
    pivot_set = set(pivots)
    return SolverResult(
        p=p,
        max_degree=max_degree,
        slots=slots,
        instances=len(targets) * (max_degree + 1),
        equations=len(rows),
        deferred=deferred,
        rank=len(pivots),
        free_slots=[slots[c] for c in range(len(slots)) if c not in pivot_set],
        basis=[{slots[c]: v for c, v in vec.items()} for vec in basis_vecs],
        cartan_rectangle=_cartan_rectangle(first_deferred, max_degree),
        system=system,
        targets=targets,
        forced_zero=sorted(
            {(u, v) if u <= v else (v, u) for (u, v), hit in pairs.items() if hit[0] is None}
            - targets.keys()
        ),
    )
