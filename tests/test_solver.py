import pytest
from hypothesis import given, settings, strategies as st

from lowerq import (
    ActionTable,
    GeneratorFamily,
    GradedElement,
    JoinAlgebraSpec,
    ModuleSpec,
    lucas_binom,
    s1_algebra,
    s1_module,
    solve_product_table,
    verify_cartan,
    verify_sign_laws,
)
from lowerq.algebra import sign_exponent
from lowerq.errors import UndefinedProductError
from lowerq.operations import single_op_degree
from lowerq.solver import _enumerate_pairs, nullspace_basis, rref_mod_p


# --- references: the dense elimination and nullspace, the one-instance-at-
# a-time row assembly and the recomputing rectangle search that the solver
# used before it ran on sparse rows, per-pair convolution and deferral flags ---


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


def in_span(vec, result):
    """Whether the assignment vec (slot -> coeff) lies in the span of the
    basis. Each basis vector is 1 on its own free slot and 0 on the others,
    so the only candidate combination is the one given by vec's values on
    the free slots."""
    p = result.p
    combo = dict.fromkeys(result.slots, 0)
    for slot, basis_vec in zip(result.free_slots, result.basis):
        for s, v in basis_vec.items():
            combo[s] = (combo[s] + vec.get(slot, 0) * v) % p
    return combo == {s: vec.get(s, 0) % p for s in result.slots}


def assert_nested(small, large):
    """Raising the degree bound adds equations and slots but keeps every
    equation of the smaller window, so each basis vector of the larger
    window restricts to a solution of the smaller one."""
    assert set(small.slots) <= set(large.slots)
    for vec in large.basis:
        assert in_span({s: vec.get(s, 0) for s in small.slots}, small)


def recomputed_cartan_rectangle(m, cols, targets, max_degree):
    best = None
    best_score = -1
    g = 0
    while (g, g) in targets:
        n = 0
        while n <= max_degree:
            if any(
                reference_instance_rows(m, cols, targets, n, a, b)[1]
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


def reference_rows(module, targets, max_degree):
    """The rows and deferred count of the solve, one instance (n, a, b) at a
    time through reference_instance_rows: pairs in order, then n, then the
    odd-p forced diagonals. Rows are in the solver's row format."""
    spec = module.algebra
    slots = [slot for slot, target in targets.items() if target is not None]
    cols = {slot: i for i, slot in enumerate(slots)}
    rows, deferred = [], 0
    for a, b in targets:
        for n in range(max_degree + 1):
            instance_rows, was_deferred = reference_instance_rows(module, cols, targets, n, a, b)
            deferred += was_deferred
            if not was_deferred:
                rows.extend(tuple(sorted((c, x) for c, x in row.items() if x)) for row in instance_rows)
    if spec.p != 2:
        for a, b in slots:
            if a == b and sign_exponent(spec.family.degree(a), spec.family.degree(b), spec.dim_g) % 2:
                rows.append(((cols[(a, b)], 1),))
    return rows, deferred


def reference_solve(module, max_degree):
    """SolverResult.to_obj() of the solve as it ran before: reference rows,
    dense elimination and nullspace, and the recomputing rectangle search."""
    p = module.algebra.p
    targets = _enumerate_pairs(module, max_degree)
    slots = [slot for slot, target in targets.items() if target is not None]
    cols = {slot: i for i, slot in enumerate(slots)}
    rows, deferred = reference_rows(module, targets, max_degree)
    dense = [[dict(row).get(c, 0) for c in range(len(slots))] for row in rows]
    rref, pivots = dense_rref_mod_p(dense, len(slots), p)
    basis = dense_nullspace_basis(rref, pivots, len(slots), p)
    rectangle = recomputed_cartan_rectangle(module, cols, targets, max_degree)
    return {
        "p": p,
        "max_degree": max_degree,
        "unknowns": [list(s) for s in slots],
        "instances": len(targets) * (max_degree + 1),
        "equations": len(rows),
        "deferred": deferred,
        "rank": len(pivots),
        "free": [list(s) for c, s in enumerate(slots) if c not in pivots],
        "basis": [[[a, b, v] for (a, b), v in zip(slots, vec) if v] for vec in basis],
        "cartan_rectangle": (
            None if rectangle is None else {"max_n": rectangle[0], "max_gen": rectangle[1]}
        ),
        "no_constraints": not rows,
    }


def outcome(solve, module_factory, max_degree):
    """The to_obj() of a solve, or the type and message of its error."""
    try:
        out = solve(module_factory(), max_degree)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return out if isinstance(out, dict) else out.to_obj()


def assert_rows_match_reference(module, result):
    """The solve's rows are those of reference_instance_rows over every
    non-deferred instance (n, a, b), in the solver's order, and it defers as
    many instances as the reference does."""
    rows, deferred = reference_rows(module, result.targets, result.max_degree)
    assert result.system.rows == rows
    assert result.deferred == deferred


def assert_transpose_defers_alike(module, result):
    """The reference defers (n, b, a) exactly when it defers (n, a, b): the
    rectangle search reads one deferral flag per canonical pair."""
    cols = {slot: i for i, slot in enumerate(result.slots)}
    for a, b in result.targets:
        for n in range(result.max_degree + 1):
            assert (
                reference_instance_rows(module, cols, result.targets, n, a, b)[1]
                == reference_instance_rows(module, cols, result.targets, n, b, a)[1]
            )


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
        rref, pivots = rref_mod_p(rows, 2)
        assert pivots == [0, 1]
        assert rref == [{0: 1, 2: 1}, {1: 1, 2: 1}]

    def test_rref_gf5_normalizes_pivots(self):
        rows = [((0, 2), (1, 1)), ((0, 4), (1, 2))]
        rref, pivots = rref_mod_p(rows, 5)
        assert pivots == [0]
        assert rref == [{0: 1, 1: 3}]  # 2^{-1} = 3 mod 5

    def test_nullspace_members_annihilate(self):
        rows = [((0, 1), (1, 1), (2, 1)), ((1, 1), (3, 1))]
        rref, pivots = rref_mod_p(rows, 3)
        for vec in nullspace_basis(rref, pivots, 4, 3):
            for row in rows:
                assert sum(a * vec.get(c, 0) for c, a in row) % 3 == 0

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_rref_matches_dense_reference(self, case):
        rows, ncols, p = case
        rref, pivots = rref_mod_p(pair_rows(rows, p), p)
        want_rref, want_pivots = dense_rref_mod_p(rows, ncols, p)
        assert (densify(rref, ncols), pivots) == (want_rref, want_pivots)
        assert all(0 < v < p for row in rref for v in row.values())
        basis = nullspace_basis(rref, pivots, ncols, p)
        assert densify(basis, ncols) == dense_nullspace_basis(want_rref, want_pivots, ncols, p)
        assert all(list(vec) == sorted(vec) and 0 < min(vec.values()) for vec in basis)

    @given(matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rref_ignores_row_order_and_repeats(self, case, data):
        # the reduced form is unique: shuffled rows, some of them repeated,
        # reduce to the dense reference's rows and pivots
        rows, ncols, p = case
        repeats = data.draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
        shuffled = data.draw(st.permutations(rows + repeats))
        rref, pivots = rref_mod_p(pair_rows(shuffled, p), p)
        assert (densify(rref, ncols), pivots) == dense_rref_mod_p(rows, ncols, p)

    def test_nullspace_dimension(self):
        rows = [((0, 1), (2, 1)), ((1, 1), (2, 1))]
        rref, pivots = rref_mod_p(rows, 2)
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
        rows, deferred = reference_instance_rows(s1_module(), cols, result.targets, 0, 0, 0)
        assert (rows, deferred) == ([{cols[(0, 0)]: 1, cols[(1, 1)]: 1}], False)
        assert result.system.rows[0] == ((cols[(0, 0)], 1), (cols[(1, 1)], 1))
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

    def test_equations_count_repeated_rows(self, result72):
        assert result72.equations == len(result72.system.rows) == 771
        assert len(set(result72.system.rows)) < result72.equations

    def test_rectangle_matches_recomputed_reference(self):
        m = s1_module()
        for d in range(41):
            result = solve_product_table(m, d)
            assert result.cartan_rectangle == reference_rectangle(m, result), d

    def test_rows_match_full_loop_reference(self):
        m = s1_module()
        result = solve_product_table(m, 40)
        assert_rows_match_reference(m, result)
        assert_transpose_defers_alike(m, result)

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

    def test_public_path_oracle_is_the_span_of_the_basis(self):
        # an oracle independent of assembly and elimination: the GF(2)
        # assignments under which every instance (n, a, b), n <= 12, holds
        # through apply_op on join_product against cartan_expand are exactly
        # the span of the basis. An instance whose expansion mentions a slot
        # past the degree bound raises, and is skipped: the solver defers it.
        result = solve_product_table(s1_module(), 12)
        slots = result.slots
        assert len(slots) == 12

        def holds(m, n, a, b):
            x_a, x_b = m.basis_element(a), m.basis_element(b)
            try:
                rhs = m.cartan_expand(n, x_a, x_b)
            except UndefinedProductError:
                return True
            return m.apply_op(n, m.algebra.join_product(x_a, x_b)) == rhs

        passing = set()
        for mask in range(2 ** len(slots)):
            values = {slot: (mask >> c) & 1 for c, slot in enumerate(slots)}
            m = s1_module(result.table_for(values))
            if all(holds(m, n, a, b) for (a, b) in result.targets for n in range(13)):
                passing.add(mask)
        span = set()
        for combo in range(2 ** len(result.basis)):
            vec = dict.fromkeys(slots, 0)
            for i, basis_vec in enumerate(result.basis):
                if (combo >> i) & 1:
                    for slot, v in basis_vec.items():
                        vec[slot] ^= v
            span.add(sum(vec[slot] << c for c, slot in enumerate(slots)))
        assert len(span) == 2 ** len(result.basis)
        assert passing == span

    def test_nested_windows(self, result, result72):
        # an oracle past brute force: an instance emitted where it should be
        # deferred, or the reverse, breaks the nesting
        result40 = solve_product_table(s1_module(), 40)
        for small, large in ((result, result40), (result40, result72), (result, result72)):
            assert_nested(small, large)

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
        assert_transpose_defers_alike(module, result)

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
        assert_transpose_defers_alike(module, result)

    @given(
        st.sampled_from(("circle", "p3")),
        st.integers(0, 14),
        st.integers(0, 14),
        st.sets(st.tuples(st.integers(0, 7), st.integers(0, 14), st.integers(1, 2)), max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_nested_windows_on_random_tables(self, kind, d1, d2, cells):
        # sparse circle actions Q_{2j}(x_g) = x_{2g+j+1} and sparse p = 3
        # actions, over rectangles that every solve up to degree 14 stays in
        if kind == "circle":
            algebra = s1_algebra()
            entries = {(2 * j, g): [(1, 2 * g + j + 1)] for j, g, _ in cells}
        else:
            algebra = JoinAlgebraSpec(3, 0, GeneratorFamily("e", 1, 0))
            entries = {(op, g): [(c, 3 * g + 2 + 4 * op)] for op, g, c in cells}
        module = ModuleSpec(algebra, ActionTable(14, 14, entries))
        small, large = sorted((d1, d2))
        assert_nested(solve_product_table(module, small), solve_product_table(module, large))

    def test_forced_zero_pairs_past_the_bound_are_defined_zeros(self):
        # x_a * x_b lies in odd degree 2a + 2b + 1, where no generator lies, so
        # every product term is skipped as forced to zero; the check over the
        # rectangle (6, 1) needs x_1 * x_3, past the degree bound 6
        fam = GeneratorFamily("x", 2, 0)
        cells = {(1, 0): [(1, 1)], (1, 1): [(1, 3)], (3, 0): [(1, 2)]}
        module = ModuleSpec(JoinAlgebraSpec(2, 0, fam), ActionTable(9, 9, cells))
        result = solve_product_table(module, 6)
        assert result.slots == [] and result.cartan_rectangle == (6, 1)
        assert result.forced_zero == [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        table = result.table_for({})
        assert set(table) == set(result.targets) | set(result.forced_zero)
        # every slot within the bound is forced to zero too
        with pytest.raises(ValueError, match=r"slot \(0, 1\) is forced to zero by the degree law"):
            result.table_for({(0, 1): 1})
        assert result.table_for({(0, 1): 2}) == table
        zero = ModuleSpec(JoinAlgebraSpec(2, 0, fam, table), module.action)
        report = verify_cartan(zero, 6, 1)
        assert report.passed and report.checked == 7 * 2 * 2
        assert verify_sign_laws(zero.algebra).passed

    def test_non_injective_family_rejected(self):
        fam = GeneratorFamily("pt", 0, 0)
        module = ModuleSpec(JoinAlgebraSpec(3, 0, fam), ActionTable(2, 2, {}))
        with pytest.raises(ValueError):
            solve_product_table(module, 4)

    @given(
        st.sampled_from(("circle", "p3")),
        st.integers(0, 23),
        st.integers(0, 25),
        st.integers(0, 25),
        st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 2)), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_solve_on_random_tables(self, kind, max_degree, max_op, max_gen, cells):
        # sparse tables whose rectangle is often smaller than the degree bound,
        # so that many solves raise: the result or the first error must be the
        # reference's, and a solve that returns queries the reference's cells
        if kind == "circle":
            algebra = s1_algebra()
            entries = {(2 * j, g): [(1, 2 * g + j + 1)] for j, g, _ in cells}
        else:
            algebra = JoinAlgebraSpec(3, 0, GeneratorFamily("e", 1, 0))
            entries = {(op, g): [(c, 3 * g + 2 + 4 * op)] for op, g, c in cells}
        entries = {k: v for k, v in entries.items() if k[0] <= max_op and k[1] <= max_gen}
        modules = []

        def make():
            modules.append(ModuleSpec(algebra, ActionTable(max_op, max_gen, entries)))
            return modules[-1]

        got = outcome(solve_product_table, make, max_degree)
        assert got == outcome(reference_solve, make, max_degree)
        if isinstance(got, dict):
            assert set(modules[0]._memo) == set(modules[1]._memo)

    @pytest.mark.parametrize("bad", [{(1, 3), (0, 1)}, {(2, 3), (0, 1)}, {(3, 0), (0, 1)}, set()])
    def test_callable_matches_reference_solve(self, bad):
        # generator 1 is no product target here (x_a * x_b lands in index
        # a + b + 2), so the solve reads its own cells; a callable raising at
        # a cell of a pair's target and at one of its second generator must
        # give the error that the loop over n and i meets first
        fam = GeneratorFamily("y", 1, 0)

        def action(op, g):
            if (op, g) in bad:
                raise ValueError(f"bad cell {(op, g)}")
            terms = {single_op_degree(2, op, g, 1): 1} if (op + g) % 3 else {}
            return GradedElement(fam, 2, terms)

        modules = []

        def make():
            modules.append(ModuleSpec(JoinAlgebraSpec(2, 1, fam), action))
            return modules[-1]

        for max_degree in range(11):
            modules.clear()
            got = outcome(solve_product_table, make, max_degree)
            assert got == outcome(reference_solve, make, max_degree)
            if not isinstance(got, str):
                assert set(modules[0]._memo) == set(modules[1]._memo)
        if bad:
            assert got.startswith("ValueError: bad cell")
        else:
            assert got["equations"] > 0
