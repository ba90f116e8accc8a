import pytest
from hypothesis import given, settings, strategies as st

from lowerq import (
    ActionTable,
    GeneratorFamily,
    JoinAlgebraSpec,
    ModuleSpec,
    lucas_binom,
    s1_algebra,
    s1_module,
    solve_product_table,
    verify_cartan,
    verify_sign_laws,
)
from lowerq.solver import _instance_rows, nullspace_basis, rref_mod_p


# --- references: the dense elimination and nullspace, and the recomputing
# rectangle search, that the solver used before it ran on sparse rows and
# deferral flags ---


def dense_rref_mod_p(rows, ncols, p):
    rows = [r[:] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def dense_nullspace_basis(rref_rows, pivots, ncols, p):
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for row, c in zip(rref_rows, pivots):
            vec[c] = (-row[f]) % p
        basis.append(vec)
    return basis


def pair_rows(rows, p):
    """Dense rows in the solver's row format: (col, coeff) tuples sorted by
    col, holding only the nonzero coefficients reduced mod p."""
    return [tuple((c, v % p) for c, v in enumerate(row) if v % p) for row in rows]


def densify(vecs, ncols):
    return [[vec.get(c, 0) for c in range(ncols)] for vec in vecs]


def recomputed_cartan_rectangle(m, cols, targets, max_degree):
    pairs = {}
    best = None
    best_score = -1
    g = 0
    while (g, g) in targets:
        n = 0
        while n <= max_degree:
            if any(
                _instance_rows(m, cols, targets, pairs, n, a, b)[1]
                for a in range(g + 1)
                for b in range(g + 1)
            ):
                break
            n += 1
        max_n = n - 1
        if max_n >= 0:
            score = (max_n + 1) * (g + 1) * (g + 1)
            if score > best_score or (score == best_score and g > best[1]):
                best = (max_n, g)
                best_score = score
        g += 1
    return best


def reference_instance_rows(m, cols, targets, n, a, b):
    """The row assembly that ran over every i in 0..n, before the solver read
    the index of nonzero operations and cached slots and signs per solve."""
    spec = m.algebra
    p = spec.p
    fam = spec.family
    acc = {}
    deferred = False

    def add(target_gen, slot, coeff):
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

    lhs_slot = (a, b) if a <= b else (b, a)
    lhs_sign = 1 if a <= b else spec.sign(fam.degree(a), fam.degree(b))
    lhs_target = targets[lhs_slot]
    if lhs_target is not None:
        for mgen, alpha in m._act_terms(n, lhs_target):
            add(mgen, lhs_slot, alpha * lhs_sign)
    for i in range(n + 1):
        qa = m._act_terms(i, a)
        if not qa:
            continue
        qb = m._act_terms(n - i, b)
        for u, beta in qa:
            for v, gamma in qb:
                slot = (u, v) if u <= v else (v, u)
                target = targets[slot] if slot in targets else spec.slot_target(*slot)
                if target is None:
                    continue
                sgn = 1 if u <= v else spec.sign(fam.degree(u), fam.degree(v))
                add(target, slot, -beta * gamma * sgn)
    rows = [row for _, row in sorted(acc.items()) if any(row.values())]
    return rows, deferred


def assert_rows_match_reference(module, result):
    """Every instance (n, a, b) and (n, b, a) of the solve, row for row, with
    the reference's dict rows put in the solver's row format."""
    cols = {slot: i for i, slot in enumerate(result.slots)}
    pairs = {}
    for a, b in result.targets:
        for n in range(result.max_degree + 1):
            for u, v in ((a, b), (b, a)):
                got = _instance_rows(module, cols, result.targets, pairs, n, u, v)
                rows, deferred = reference_instance_rows(module, cols, result.targets, n, u, v)
                want = [tuple(sorted((c, x) for c, x in row.items() if x)) for row in rows]
                assert got == (want, deferred)


def reference_rectangle(module, result):
    cols = {slot: i for i, slot in enumerate(result.slots)}
    return recomputed_cartan_rectangle(module, cols, result.targets, result.max_degree)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nrows = draw(st.integers(min_value=0, max_value=30))
    ncols = draw(st.integers(min_value=0, max_value=20))
    entry = st.integers(min_value=-p, max_value=2 * p)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    return rows, ncols, p


class TestLinearAlgebra:
    def test_rref_gf2(self):
        rows = [((0, 1), (1, 1)), ((1, 1), (2, 1)), ((0, 1), (2, 1))]
        rref, pivots = rref_mod_p(rows, 3, 2)
        assert pivots == [0, 1]
        assert rref == [{0: 1, 2: 1}, {1: 1, 2: 1}]

    def test_rref_gf5_normalizes_pivots(self):
        rows = [((0, 2), (1, 1)), ((0, 4), (1, 2))]
        rref, pivots = rref_mod_p(rows, 2, 5)
        assert pivots == [0]
        assert rref == [{0: 1, 1: 3}]  # 2^{-1} = 3 mod 5

    def test_nullspace_members_annihilate(self):
        rows = [((0, 1), (1, 1), (2, 1)), ((1, 1), (3, 1))]
        rref, pivots = rref_mod_p(rows, 4, 3)
        for vec in nullspace_basis(rref, pivots, 4, 3):
            for row in rows:
                assert sum(a * vec.get(c, 0) for c, a in row) % 3 == 0

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_rref_matches_dense_reference(self, case):
        rows, ncols, p = case
        rref, pivots = rref_mod_p(pair_rows(rows, p), ncols, p)
        want_rref, want_pivots = dense_rref_mod_p(rows, ncols, p)
        assert (densify(rref, ncols), pivots) == (want_rref, want_pivots)
        assert all(0 < v < p for row in rref for v in row.values())
        basis = nullspace_basis(rref, pivots, ncols, p)
        assert densify(basis, ncols) == dense_nullspace_basis(want_rref, want_pivots, ncols, p)
        assert all(list(vec) == sorted(vec) and 0 < min(vec.values()) for vec in basis)

    def test_nullspace_dimension(self):
        rows = [((0, 1), (2, 1)), ((1, 1), (2, 1))]
        rref, pivots = rref_mod_p(rows, 3, 2)
        assert nullspace_basis(rref, pivots, 3, 2) == [{0: 1, 1: 1, 2: 1}]


@pytest.fixture(scope="module")
def result():
    return solve_product_table(s1_module(), 24)


@pytest.fixture(scope="module")
def result72():
    return solve_product_table(s1_module(), 72)


class TestSolveS1:

    def test_first_equation_links_strata(self, result):
        # Q_0(x_0 * x_0) = c_{0,0} x_3 and Q_0(x_0) * Q_0(x_0) = c_{1,1} x_3
        cols = {slot: i for i, slot in enumerate(result.slots)}
        rows, deferred = _instance_rows(s1_module(), cols, result.targets, {}, 0, 0, 0)
        assert not deferred
        assert rows == [((cols[(0, 0)], 1), (cols[(1, 1)], 1))]
        for vec in result.basis:
            assert vec.get((0, 0), 0) == vec.get((1, 1), 0)

    def test_zero_assignment_always_solves(self, result):
        assert result.system.residual([0] * len(result.slots)) == [0] * result.equations
        max_n, max_gen = result.cartan_rectangle
        zero_mod = ModuleSpec(
            JoinAlgebraSpec(2, 1, s1_module().family, result.zero_table()),
            "s1_p2",
        )
        assert verify_cartan(zero_mod, max_n, max_gen).passed
        assert verify_sign_laws(zero_mod.algebra).passed

    def test_all_ones_is_a_solution(self, result, result72):
        # the constant-one table satisfies every generated equation exactly
        for r in (result, result72):
            vec = [1] * len(r.slots)
            assert r.system.residual(vec) == [0] * r.equations

    def test_binomial_candidate_is_not_a_solution(self, result):
        vec = [lucas_binom(a + b + 1, a, 2) for (a, b) in result.slots]
        assert any(result.system.residual(vec))

    def test_gaussian_self_check(self, result):
        for vec_map in result.basis:
            vec = [vec_map.get(slot, 0) for slot in result.slots]
            assert result.system.residual(vec) == [0] * result.equations

    def test_round_trip(self, result):
        max_n, max_gen = result.cartan_rectangle
        for vec in result.basis:
            table = result.table_for(vec)
            mod = ModuleSpec(JoinAlgebraSpec(2, 1, s1_module().family, table), "s1_p2")
            assert verify_cartan(mod, max_n, max_gen).passed
            assert verify_sign_laws(mod.algebra).passed

    def test_determinism(self, result):
        again = solve_product_table(s1_module(), 24)
        assert again.slots == result.slots
        assert again.rank == result.rank
        assert again.basis == result.basis
        assert again.cartan_rectangle == result.cartan_rectangle

    def test_deferred_counted(self, result):
        assert result.deferred > 0
        assert result.instances == len(result.slots) * (result.max_degree + 1)

    def test_rectangle_matches_recomputed_reference(self):
        m = s1_module()
        for d in range(41):
            result = solve_product_table(m, d)
            assert result.cartan_rectangle == reference_rectangle(m, result), d

    def test_rows_match_full_loop_reference(self):
        m = s1_module()
        assert_rows_match_reference(m, solve_product_table(m, 40))

    @pytest.mark.parametrize("max_degree, nslots", [(12, 12), (14, 16)])
    def test_basis_spans_every_brute_force_solution(self, max_degree, nslots):
        # every GF(2) assignment to the slots: the zero-residual ones are
        # exactly the 2**len(basis) combinations of the basis vectors, each
        # the combination given by its values on the free slots
        result = solve_product_table(s1_module(), max_degree)
        assert len(result.slots) == nslots
        zero = [0] * result.equations
        solutions = 0
        for mask in range(2**nslots):
            vec = [(mask >> c) & 1 for c in range(nslots)]
            if result.system.residual(vec) != zero:
                continue
            solutions += 1
            values = dict(zip(result.slots, vec))
            combo = dict.fromkeys(result.slots, 0)
            for slot, basis_vec in zip(result.free_slots, result.basis):
                for s, v in basis_vec.items():
                    combo[s] = (combo[s] + values[slot] * v) % 2
            assert combo == values
        assert solutions == 2 ** len(result.basis)

    def test_slots_in_lexicographic_order(self, result):
        assert result.slots == sorted(result.slots)

    def test_to_obj_shape(self, result):
        obj = result.to_obj()
        assert obj["rank"] == result.rank
        assert obj["cartan_rectangle"] == {
            "max_n": result.cartan_rectangle[0],
            "max_gen": result.cartan_rectangle[1],
        }
        assert len(obj["basis"]) == len(result.free_slots)


class TestSolverEdges:
    def test_no_constraints_outcome(self):
        result = solve_product_table(s1_module(), 0)
        assert result.no_constraints
        assert result.slots == []
        assert result.basis == []
        assert result.cartan_rectangle is None

    def test_odd_p_forced_diagonals(self):
        # all-zero action over an odd-p algebra: the only equations are the
        # forced-zero rows on diagonals with odd sign exponent
        fam = GeneratorFamily("e", 1, 0)
        algebra = JoinAlgebraSpec(3, 0, fam)
        module = ModuleSpec(algebra, ActionTable(8, 8, {}))
        result = solve_product_table(module, 8)
        forced = [
            (a, b) for (a, b) in result.slots if a == b and (a * a + 1) % 2
        ]
        assert forced  # (0,0) at least
        assert result.rank == len(forced)
        assert result.cartan_rectangle == reference_rectangle(module, result)
        for vec in result.basis:
            for slot in forced:
                assert vec.get(slot, 0) == 0

    def test_odd_p_rows_match_reference(self):
        # p = 3, dim_g = 0, degree rule i -> i: Q_op(e_g) = c e_{3g+2+4op}; the
        # transposed product terms carry the sign (-1)^(deg u * deg v + 1)
        fam = GeneratorFamily("e", 1, 0)
        cells = {(op, g): [(1 + (op + g) % 2, 3 * g + 2 + 4 * op)] for op in range(3) for g in range(4)}
        module = ModuleSpec(JoinAlgebraSpec(3, 0, fam), ActionTable(14, 14, cells))
        result = solve_product_table(module, 14)
        assert result.equations > 0
        assert_rows_match_reference(module, result)

    @given(st.sets(st.tuples(st.integers(0, 10), st.integers(0, 20)), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_rectangle_matches_reference_on_random_tables(self, cells):
        # sparse degree-lawful circle actions Q_{2j}(x_g) = x_{2g+j+1}, so that
        # off-diagonal pairs can defer before the diagonal one
        entries = {(2 * j, g): [(1, 2 * g + j + 1)] for j, g in cells}
        module = ModuleSpec(s1_algebra(), ActionTable(20, 20, entries))
        result = solve_product_table(module, 20)
        assert result.cartan_rectangle == reference_rectangle(module, result)
        assert_rows_match_reference(module, result)

    def test_non_injective_family_rejected(self):
        fam = GeneratorFamily("pt", 0, 0)
        module = ModuleSpec(JoinAlgebraSpec(3, 0, fam), ActionTable(2, 2, {}))
        with pytest.raises(ValueError):
            solve_product_table(module, 4)
