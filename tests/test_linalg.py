"""Exact linear algebra properties, mostly hypothesis-driven."""

import pytest
from hypothesis import given, settings, strategies as st

from quivalg.linalg import (
    QQ,
    Matrix,
    SpanSolver,
    block_diagonal,
    coefficients_in_span,
    determinant,
    extend_independent,
    invert,
    kernel_basis,
    left_kernel_basis,
    rank,
    rat,
    row_space_basis,
    rref,
    solve_left,
    vstack,
)

settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")

rationals = st.builds(QQ, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, min_rows=0, min_cols=0, max_dim=4):
    nr = draw(st.integers(min_rows, max_dim))
    nc = draw(st.integers(min_cols, max_dim))
    rows = [[draw(rationals) for _ in range(nc)] for _ in range(nr)]
    return Matrix(nr, nc, rows)


@st.composite
def square_matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    return Matrix(n, n, rows)


@st.composite
def matrix_chains(draw, max_dim=3):
    """Three multiplication-compatible matrices."""
    dims = [draw(st.integers(1, max_dim)) for _ in range(4)]
    mats = []
    for i in range(3):
        rows = [
            [draw(rationals) for _ in range(dims[i + 1])] for _ in range(dims[i])
        ]
        mats.append(Matrix(dims[i], dims[i + 1], rows))
    return mats


@st.composite
def sparse_matrices(draw, nrows=None, ncols=None, max_dim=5):
    """Mostly zero entries, whole zero rows and columns, and 0 x k shapes."""
    nr = draw(st.integers(0, max_dim)) if nrows is None else nrows
    nc = draw(st.integers(0, max_dim)) if ncols is None else ncols
    zero_rows = draw(st.sets(st.integers(0, max_dim - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max_dim - 1), max_size=2))
    rows = []
    for i in range(nr):
        row = []
        for j in range(nc):
            # about three entries in four are zero
            if i in zero_rows or j in zero_cols or draw(st.integers(0, 3)):
                row.append(QQ(0))
            else:
                row.append(draw(rationals))
        rows.append(row)
    return Matrix(nr, nc, rows)


@st.composite
def sparse_products(draw, max_dim=5):
    """Two sparse matrices whose product is defined."""
    r, k, c = (draw(st.integers(0, max_dim)) for _ in range(3))
    return draw(sparse_matrices(r, k)), draw(sparse_matrices(k, c))


def _cofactor_determinant(rows):
    if not rows:
        return QQ(1)
    total = QQ(0)
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * x * _cofactor_determinant(minor)
    return total


@given(sparse_products())
def test_sparse_matmul_matches_triple_loop(pair):
    a, b = pair
    naive = [
        [sum((a.rows[i][t] * b.rows[t][j] for t in range(a.ncols)), QQ(0)) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]
    assert a @ b == Matrix(a.nrows, b.ncols, naive)


@given(sparse_matrices())
def test_sparse_rref_idempotent_and_keeps_rank(m):
    ech, pivots = rref(m)
    assert rref(ech) == (ech, pivots)
    assert ech.take_rows(range(len(pivots), m.nrows)).is_zero()
    solver = SpanSolver(m.ncols)
    for row in m.rows:
        solver.insert(row)
    assert len(pivots) == solver.rank == rank(m.transpose())


@given(sparse_matrices(), st.data())
def test_sparse_span_solver_agrees_with_coefficients_in_span(m, data):
    solver = SpanSolver(m.ncols)
    independent = [i for i, row in enumerate(m.rows) if solver.insert(row)]
    assert solver.nrows == m.nrows
    assert solver.rank == len(independent) == rank(m)
    basis = m.take_rows(independent)
    targets = m.rows + data.draw(sparse_matrices(2, m.ncols)).rows
    for target in targets:
        direct = coefficients_in_span(basis, target)
        via_solver = solver.coords(target)
        assert (direct is None) == (via_solver is None)
        if via_solver is not None:
            # coefficients of the rows that did not enlarge the span are 0
            assert [via_solver[i] for i in independent] == direct
            assert sum(1 for c in via_solver if c) == sum(1 for c in direct if c)


@given(st.integers(0, 4).flatmap(lambda n: sparse_matrices(n, n)))
def test_sparse_determinant_matches_cofactor_expansion(m):
    assert determinant(m) == _cofactor_determinant(m.rows)


def test_rat_shares_scalars_and_still_coerces():
    q = QQ(-3, 7)
    assert rat(q) is q
    assert rat(5) == QQ(5) and type(rat(5)) is QQ
    assert rat("-3/7") == q and type(rat("-3/7")) is QQ
    with pytest.raises(TypeError):
        rat(0.5)


@given(matrices())
def test_rref_idempotent(m):
    ech, pivots = rref(m)
    again, pivots2 = rref(ech)
    assert again == ech
    assert pivots2 == pivots


@given(matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())


@given(matrices())
def test_rank_nullity(m):
    k = kernel_basis(m)
    assert rank(m) + k.nrows == m.ncols
    for v in k.rows:
        prod = m @ Matrix(m.ncols, 1, [[x] for x in v])
        assert prod.is_zero()


@given(matrices())
def test_left_kernel_annihilates(m):
    k = left_kernel_basis(m)
    assert rank(m) + k.nrows == m.nrows
    if k.nrows:
        assert (k @ m).is_zero()


@given(matrices())
def test_row_space_basis_spans_original(m):
    basis = row_space_basis(m)
    assert basis.nrows == rank(m)
    for row in m.rows:
        assert coefficients_in_span(basis, row) is not None


@given(matrices(max_dim=3), matrices(max_dim=3))
def test_solve_left_round_trip(x, a):
    # force compatible shapes by rebuilding x against a's row count
    x = Matrix(x.nrows, a.nrows, [[QQ(i + j, 1) for j in range(a.nrows)] for i in range(x.nrows)])
    b = x @ a
    y = solve_left(a, b)
    assert y is not None
    assert y @ a == b


@given(square_matrices(), square_matrices())
def test_determinant_multiplicative(m, n):
    size = min(m.nrows, n.nrows)
    m = Matrix(size, size, [row[:size] for row in m.rows[:size]])
    n = Matrix(size, size, [row[:size] for row in n.rows[:size]])
    assert determinant(m @ n) == determinant(m) * determinant(n)


@given(square_matrices())
def test_invert_against_determinant(m):
    inv = invert(m)
    if determinant(m) == 0:
        assert inv is None
    else:
        assert m @ inv == Matrix.identity(m.nrows)
        assert inv @ m == Matrix.identity(m.nrows)


@given(square_matrices())
def test_duplicate_row_kills_determinant(m):
    if m.nrows < 2:
        return
    rows = [list(r) for r in m.rows]
    rows[-1] = list(rows[0])
    assert determinant(Matrix(m.nrows, m.ncols, rows)) == 0


@given(matrices(min_rows=1), st.lists(rationals, min_size=1, max_size=4))
def test_span_solver_matches_coefficients_in_span(basis, coeffs):
    coeffs = coeffs[: basis.nrows]
    target = [sum((c * x for c, x in zip(coeffs, col)), QQ(0)) for col in zip(*basis.rows)] if basis.ncols else []
    solver = SpanSolver(basis.ncols)
    stored = []
    for row in basis.rows:
        if solver.insert(row):
            stored.append(row)
    assert solver.rank == rank(basis)
    direct = coefficients_in_span(basis, target)
    via_solver = solver.coords(target)
    assert direct is not None
    assert via_solver is not None
    # solver coords are over the independent inserted rows, in order
    rebuilt = [QQ(0)] * basis.ncols
    for c, row in zip(via_solver, stored):
        for j, x in enumerate(row):
            rebuilt[j] += c * x
    assert rebuilt == target


@given(sparse_matrices())
def test_span_solver_coords_or_insert_matches_coords_then_insert(m):
    """One call per row answers as coords() would, and inserts exactly
    the rows coords() finds outside the span."""
    once, twice = SpanSolver(m.ncols), SpanSolver(m.ncols)
    for row in m.rows + m.rows:
        expected = twice.coords(row)
        if expected is None:
            twice.insert(row)
        assert once.coords_or_insert(row) == expected
        assert (once.nrows, once.rank) == (twice.nrows, twice.rank)


@given(matrices())
def test_span_solver_insert_reports_dependence(m):
    solver = SpanSolver(m.ncols)
    r = 0
    for row in m.rows:
        grew = solver.insert(row)
        if grew:
            r += 1
        assert solver.rank == r
    assert r == rank(m)


@given(matrices(max_dim=3), matrices(max_dim=3))
def test_extend_independent_completes_span(base, cand):
    cand = Matrix(cand.nrows, base.ncols, [
        [cand.rows[i][j % cand.ncols] if cand.ncols else QQ(0) for j in range(base.ncols)]
        for i in range(cand.nrows)
    ])
    picked = extend_independent(base, cand)
    chosen = cand.take_rows(picked)
    combined = vstack([base, chosen])
    assert rank(combined) == rank(base) + len(picked)
    everything = vstack([base, cand])
    assert rank(combined) == rank(everything)


@given(matrix_chains())
def test_matmul_associative(chain):
    a, b, c = chain
    assert (a @ b) @ c == a @ (b @ c)


@given(matrix_chains())
def test_transpose_antihomomorphism(chain):
    a, b, _ = chain
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


@given(square_matrices(), square_matrices())
def test_trace_commutator(m, n):
    size = min(m.nrows, n.nrows)
    m = Matrix(size, size, [row[:size] for row in m.rows[:size]])
    n = Matrix(size, size, [row[:size] for row in n.rows[:size]])
    assert (m @ n).trace() == (n @ m).trace()


@given(st.lists(square_matrices(max_dim=3), min_size=1, max_size=3))
def test_block_diagonal_determinant(blocks):
    bd = block_diagonal(blocks)
    expected = QQ(1)
    for b in blocks:
        expected *= determinant(b)
    assert determinant(bd) == expected


def test_zero_and_identity_edge_cases():
    z = Matrix.zero(0, 3)
    assert rank(z) == 0
    assert kernel_basis(z).nrows == 3
    assert coefficients_in_span(z, [QQ(0)] * 3) == []
    assert coefficients_in_span(z, [QQ(1), QQ(0), QQ(0)]) is None
    assert determinant(Matrix.identity(4)) == 1
    assert invert(Matrix.identity(4)) == Matrix.identity(4)
