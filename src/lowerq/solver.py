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
ordered lexicographically by (a, b), so ranks, free slots and nullspace
bases are reproducible. The rows keep one sparse format (see LinearSystem)
from assembly on: rref_mod_p eliminates on {col: coeff} dict copies of
them and nullspace_basis emits {col: coeff} vectors, so no dense row or
vector is ever built.

An instance's right-hand side runs only over the i with Q_i(x_a) != 0,
read from the module's index of nonzero operations, and looks up
Q_{n-i}(x_b) in the memo for each of them, so it queries the same action
cells as a loop over every i in 0..n. The canonical slot, target and
commutation sign of each ordered product term (u, v) are worked out once
per solve and kept in a map that solve_product_table owns.

The reported Cartan rectangle needs, for every generator square
[0, g] x [0, g], the first n at which some instance (n, a, b) of the
square is deferred. The main loop has already classified every canonical
pair a <= b for every n <= max_degree, so it records the first deferred
n of each pair and the rectangle search reads those flags instead of
rebuilding instances. The ordered pair (b, a) needs no flag of its own:
its expansion mentions the same slots as that of (a, b), with the roles
of i and j swapped, and its coefficients differ only by commutation
signs, which are +-1 and so never turn a nonzero coefficient into zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actions import ModuleSpec
from .algebra import sign_exponent

Slot = tuple[int, int]
Row = tuple[tuple[int, int], ...]


def rref_mod_p(rows: list[Row], ncols: int, p: int) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row-echelon form over F_p of (col, coeff) rows; returns the
    nonzero reduced rows as {col: coeff} dicts and their pivot columns."""
    sparse = [dict(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(sparse)) if col in sparse[i]), None)
        if pivot is None:
            continue
        sparse[r], sparse[pivot] = sparse[pivot], sparse[r]
        inv = pow(sparse[r][col], -1, p)
        prow = sparse[r] = {c: v * inv % p for c, v in sparse[r].items()}
        for i, row in enumerate(sparse):
            f = row.get(col)
            if f is None or i == r:
                continue
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    del row[c]
        pivots.append(col)
        r += 1
    return sparse[:r], pivots


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


@dataclass
class LinearSystem:
    """The homogeneous system A x = 0 over F_p, one unknown per slot. Each
    row is a tuple of (col, coeff) pairs, sorted by col, holding only the
    nonzero coefficients reduced mod p; the rows stay sparse because the
    Cartan systems are about 1% nonzero."""

    slots: list[Slot]
    rows: list[Row]
    p: int

    def residual(self, vec: list[int]) -> list[int]:
        """A*x mod p for a dense vector x, for a direct check of emitted solutions."""
        return [sum(a * vec[c] for c, a in row) % self.p for row in self.rows]


@dataclass
class SolverResult:
    p: int
    max_degree: int
    slots: list[Slot]
    instances: int
    equations: int
    deferred: int
    rank: int
    pivot_slots: list[Slot]
    free_slots: list[Slot]
    basis: list[dict[Slot, int]]
    cartan_rectangle: tuple[int, int] | None
    system: LinearSystem = field(repr=False)
    targets: dict[Slot, int | None] = field(repr=False, default_factory=dict)

    @property
    def no_constraints(self) -> bool:
        return self.equations == 0

    def table_for(self, assignment: dict[Slot, int]) -> dict[Slot, tuple]:
        """Materialize an assignment as a product table covering every slot
        within the degree bound (forced-zero slots included as defined zeros)."""
        table: dict[Slot, tuple] = {}
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


def _instance_rows(
    m: ModuleSpec,
    cols: dict[Slot, int],
    targets: dict[Slot, int | None],
    pairs: dict[Slot, tuple[Slot, int | None, int]],
    n: int,
    a: int,
    b: int,
):
    """The nonzero rows (one per target generator) of one Cartan instance,
    as sorted (col, coeff) tuples.

    targets is the slot map of _enumerate_pairs and must hold the pair
    (a, b); the target of a product term outside it is worked out from the
    degree law. pairs caches, per ordered pair (u, v) of one solve, its
    canonical slot, that slot's target and the commutation sign of (u, v).
    Returns (rows, deferred): deferred is True when the instance mentions,
    with nonzero coefficient, an unknown outside the solved range.
    """
    spec = m.algebra
    p = spec.p
    fam = spec.family
    acc: dict[int, dict[int, int]] = {}
    deferred = False

    def pair(u: int, v: int) -> tuple[Slot, int | None, int]:
        hit = pairs.get((u, v))
        if hit is None:
            slot = (u, v) if u <= v else (v, u)
            target = targets[slot] if slot in targets else spec.slot_target(*slot)
            sgn = 1 if u <= v else spec.sign(fam.degree(u), fam.degree(v))
            hit = pairs[(u, v)] = (slot, target, sgn)
        return hit

    def add(target_gen: int, slot: Slot, coeff: int):
        nonlocal deferred
        coeff %= p
        if not coeff:
            return
        col = cols.get(slot)
        if col is None:
            deferred = True
            return
        row = acc.setdefault(target_gen, {})
        row[col] = (row.get(col, 0) + coeff) % p
        if not row[col]:
            del row[col]

    lhs_slot, lhs_target, lhs_sign = pair(a, b)
    if lhs_target is not None:
        for mgen, alpha in m._act_terms(n, lhs_target):
            add(mgen, lhs_slot, alpha * lhs_sign)
    for i, qa in m._nonzero_ops(a, n):
        qb = m._act_terms(n - i, b)
        for u, beta in qa:
            for v, gamma in qb:
                slot, target, sgn = pair(u, v)
                if target is None:
                    continue  # forced zero by the degree law
                add(target, slot, -beta * gamma * sgn)
    rows = [tuple(sorted(row.items())) for _, row in sorted(acc.items()) if row]
    return rows, deferred


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

    pairs: dict[Slot, tuple[Slot, int | None, int]] = {}
    rows: list[Row] = []
    instances = 0
    deferred = 0
    first_deferred: dict[Slot, int] = {}
    for (a, b) in targets:
        first_deferred[(a, b)] = max_degree + 1
        for n in range(max_degree + 1):
            instances += 1
            instance_rows, was_deferred = _instance_rows(m, cols, targets, pairs, n, a, b)
            if was_deferred:
                deferred += 1
                first_deferred[(a, b)] = min(first_deferred[(a, b)], n)
                continue
            rows.extend(instance_rows)
    # An odd sign exponent forces diagonal entries to vanish outright.
    if p != 2:
        for (a, b) in slots:
            if a == b and sign_exponent(spec.family.degree(a), spec.family.degree(b), spec.dim_g) % 2:
                rows.append(((cols[(a, b)], 1),))

    system = LinearSystem(slots=slots, rows=rows, p=p)
    rref, pivots = rref_mod_p(rows, len(slots), p)
    basis_vecs = nullspace_basis(rref, pivots, len(slots), p)
    pivot_set = set(pivots)
    return SolverResult(
        p=p,
        max_degree=max_degree,
        slots=slots,
        instances=instances,
        equations=len(rows),
        deferred=deferred,
        rank=len(pivots),
        pivot_slots=[slots[c] for c in pivots],
        free_slots=[slots[c] for c in range(len(slots)) if c not in pivot_set],
        basis=[{slots[c]: v for c, v in vec.items()} for vec in basis_vecs],
        cartan_rectangle=_cartan_rectangle(first_deferred, max_degree),
        system=system,
        targets=targets,
    )
