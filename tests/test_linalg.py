"""Exact linear algebra properties, mostly hypothesis-driven."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quivalg
from quivalg.linalg import (
    QQ,
    Matrix,
    SpanSolver,
    block_diagonal_rect,
    coefficients_in_span,
    determinant,
    div,
    extend_independent,
    invert,
    kernel_basis,
    left_kernel_basis,
    rank,
    rat,
    row_space_basis,
    rref,
    solve_left,
    hstack,
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
    """Each row goes in both dense and as the dict of its stored pairs,
    the form the pipeline uses."""
    solver, sparse = SpanSolver(m.ncols), SpanSolver(m.ncols)
    independent = [i for i, row in enumerate(m.rows) if solver.insert(row)]
    assert [i for i, r in enumerate(m.pairs) if sparse.insert(dict(r))] == independent
    assert solver.nrows == sparse.nrows == m.nrows
    assert solver.rank == sparse.rank == len(independent) == rank(m)
    basis = m.take_rows(independent)
    extra = data.draw(sparse_matrices(2, m.ncols))
    for target, pairs in zip(m.rows + extra.rows, m.pairs + extra.pairs):
        direct = coefficients_in_span(basis, target)
        for via_solver in (solver.coords(target), solver.coords(dict(pairs)), sparse.coords(target)):
            assert (direct is None) == (via_solver is None)
            if via_solver is not None:
                # coefficients of the rows that did not enlarge the span are 0
                assert [via_solver[i] for i in independent] == direct
                assert sum(1 for c in via_solver if c) == sum(1 for c in direct if c)


def test_span_solver_checks_sparse_rows():
    """A dict row is checked like a dense one: a column outside
    range(ncols) is refused, and a zero value is dropped."""
    solver = SpanSolver(2)
    for bad in ({5: 1}, {2: 1}, {-1: 1}, {0: 1, 2: 1}):
        for call in (solver.insert, solver.coords, solver.coords_or_insert):
            with pytest.raises(ValueError):
                call(bad)
    with pytest.raises(ValueError):
        solver.insert([1, 0, 0])
    assert (solver.nrows, solver.rank) == (0, 0)
    assert solver.insert({0: 0, 1: 1}) is True
    assert (solver.nrows, solver.rank) == (1, 1)
    assert solver.coords({0: 0, 1: 2}) == [2]
    assert solver.coords_or_insert({0: 3, 1: 0}) is None
    assert solver.coords({0: 6, 1: 4}) == [4, 2]
    assert solver.insert({}) is False and solver.coords({}) == [0, 0, 0]


@pytest.mark.parametrize(
    "nrows, ncols, rows, message",
    [
        (-1, 2, None, "negative matrix dimensions"),
        (2, -1, None, "negative matrix dimensions"),
        (2, 1, [[1]], "row count mismatch"),
        (1, 2, [[1]], "column count mismatch"),
    ],
)
def test_matrix_shape_checks(nrows, ncols, rows, message):
    with pytest.raises(ValueError, match=message):
        Matrix(nrows, ncols, rows)


@given(st.integers(0, 4).flatmap(lambda n: sparse_matrices(n, n)))
def test_sparse_determinant_matches_cofactor_expansion(m):
    assert determinant(m) == _cofactor_determinant(m.rows)


def test_rat_shares_scalars_and_still_coerces():
    q = QQ(-3, 7)
    assert rat(q) is q
    assert rat(5) == 5 and type(rat(5)) is int
    assert rat(QQ(10, 2)) == 5 and type(rat(QQ(10, 2))) is int
    assert rat("-3/7") == q and type(rat("-3/7")) is QQ
    with pytest.raises(TypeError):
        rat(0.5)


def test_div_is_exact_and_whole_quotients_are_ints():
    assert div(6, 3) == 2 and type(div(6, 3)) is int
    assert div(-7, 2) == QQ(-7, 2) and type(div(-7, 2)) is QQ
    assert div(QQ(3, 2), QQ(1, 2)) == 3 and type(div(QQ(3, 2), QQ(1, 2))) is int
    assert div(1, QQ(-2, 3)) == QQ(-3, 2)
    assert div(QQ(4, 3), 2) == QQ(2, 3)
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


@st.composite
def whole_heavy_matrices(draw, nrows=None, ncols=None, max_dim=4):
    """Entries drawn as often from the integers -4..4 as from rationals,
    so that eliminations divide ints by ints."""
    nr = draw(st.integers(0, max_dim)) if nrows is None else nrows
    nc = draw(st.integers(0, max_dim)) if ncols is None else ncols
    entries = st.one_of(st.integers(-4, 4), rationals)
    return Matrix.from_rows([[draw(entries) for _ in range(nc)] for _ in range(nr)], nc)


def _int_canonical(m):
    """m with its whole entries as ints, as rat() gives them."""
    return Matrix.from_rows(m.rows, m.ncols)


def _all_fractions(m):
    """m with every entry a Fraction, whole ones included."""
    return Matrix(m.nrows, m.ncols, [[QQ(x) for x in r] for r in m.rows])


def _scalars(result):
    """Every scalar in a nest of tuples, lists and matrices."""
    if isinstance(result, Matrix):
        return [x for r in result.pairs for _, x in r]
    if isinstance(result, (tuple, list)):
        return [x for part in result for x in _scalars(part)]
    return [] if result is None else [result]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(sparse_matrices(), whole_heavy_matrices()), st.integers(0, 4), st.data())
def test_int_scalars_give_the_results_of_fraction_scalars(m, n, data):
    """Whole entries as ints give the same results as every entry a
    Fraction, and no operation makes a float."""
    b = data.draw(whole_heavy_matrices(ncols=m.ncols))
    in_span = data.draw(whole_heavy_matrices(2, m.nrows)) @ m
    square = data.draw(whole_heavy_matrices(n, n))
    canonical = _int_canonical(m)
    assert all(type(x) is int or x.denominator > 1 for x in _scalars(canonical))
    results = []
    for convert in (_int_canonical, _all_fractions):
        a, rhs, ins, sq = (convert(x) for x in (m, b, in_span, square))
        solver = SpanSolver(a.ncols)
        for r in a.rows:
            solver.insert(r)
        results.append(
            (
                rref(a),
                kernel_basis(a),
                solve_left(a, rhs),
                solve_left(a, ins),
                determinant(sq),
                invert(sq),
                [solver.coords(r) for r in rhs.rows + ins.rows],
            )
        )
    assert results[0] == results[1]
    assert results[0][3] is not None
    assert not [x for x in _scalars(results) if isinstance(x, float)]


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


@st.composite
def dependent_systems(draw, max_dim=4):
    """(a, b): the rows of a include combinations of other rows of a, in any
    order; the rows of b are combinations of rows of a or arbitrary rows."""
    base = draw(matrices(min_rows=1, min_cols=1, max_dim=max_dim))
    combos = st.lists(rationals, min_size=base.nrows, max_size=base.nrows)

    def combination(coeffs):
        return [sum((c * x for c, x in zip(coeffs, col)), QQ(0)) for col in zip(*base.rows)]

    arbitrary = st.lists(rationals, min_size=base.ncols, max_size=base.ncols)
    rows = base.rows + [combination(draw(combos)) for _ in range(draw(st.integers(1, 3)))]
    rows = draw(st.permutations(rows))
    targets = [
        combination(draw(combos)) if draw(st.booleans()) else draw(arbitrary)
        for _ in range(draw(st.integers(0, 3)))
    ]
    return Matrix(len(rows), base.ncols, rows), Matrix(len(targets), base.ncols, targets)


@given(dependent_systems())
def test_solve_left_matches_coefficients_in_span_row_by_row(system):
    a, b = system
    expected = [coefficients_in_span(a, row) for row in b.rows]
    got = solve_left(a, b)
    if any(coeffs is None for coeffs in expected):
        assert got is None
    else:
        assert got == Matrix(b.nrows, a.nrows, expected)


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
    bd = block_diagonal_rect(blocks)
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


def _assert_canonical(m):
    """Stored rows are sorted by column, in range, and hold no zero; the
    dense view rebuilds an equal matrix with an equal hash."""
    assert len(m.pairs) == m.nrows
    for r in m.pairs:
        cols = [j for j, _ in r]
        assert cols == sorted(set(cols))
        assert all(0 <= j < m.ncols for j in cols)
        assert all(x for _, x in r)
    again = Matrix(m.nrows, m.ncols, m.rows)
    assert again == m and hash(again) == hash(m)


@given(sparse_products(), st.data())
def test_stored_pairs_stay_canonical(pair, data):
    a, b = pair
    same = data.draw(sparse_matrices(a.nrows, a.ncols))
    for m in (a, b, same):
        _assert_canonical(m)
    c = data.draw(rationals)
    # (a | a) @ (b ; -b), a - a and a + (-a) cancel every entry they touch
    cancelled = [hstack([a, a]) @ vstack([b, -b]), a - a, a + (-a)]
    assert all(m.is_zero() for m in cancelled)
    results = cancelled + [
        a @ b,
        a + same,
        a - same,
        a.scale(c),
        a.scale(0),
        -a,
        a.transpose(),
        a.take_rows(range(a.nrows - 1, -1, -1)),
        vstack([a, same]),
        hstack([a, same]),
        block_diagonal_rect([a, b]),
        rref(a)[0],
        kernel_basis(a),
        left_kernel_basis(a),
        Matrix.identity(a.nrows),
    ]
    square = Matrix(a.nrows, a.nrows, [row[: a.nrows] + (QQ(0),) * (a.nrows - a.ncols) for row in a.rows])
    results.append(square)
    inverse = invert(square)
    if inverse is not None:
        results.append(inverse)
    x = data.draw(sparse_matrices(ncols=a.nrows))
    solved = solve_left(a, x @ a)
    assert solved is not None and solved @ a == x @ a
    results.append(solved)
    for m in results:
        _assert_canonical(m)
    assert a.is_zero() == all(not x for row in a.rows for x in row)
    assert square.trace() == sum((square.rows[i][i] for i in range(a.nrows)), QQ(0))
    assert determinant(square) == _cofactor_determinant(square.rows)


def test_matrix_coerces_entries_through_rat():
    """Dense rows are stored as canonical scalars, so no float or string
    reaches the arithmetic."""
    m = Matrix(1, 4, [["1/2", QQ(4, 2), "-3", 0]])
    assert m.pairs == [[(0, QQ(1, 2)), (1, 2), (2, -3)]]
    assert [type(x) for _, x in m.pairs[0]] == [QQ, int, int]
    assert Matrix.from_rows([[QQ(6, 3), "0"]]).pairs == [[(0, 2)]]
    assert type(Matrix.from_rows([[QQ(6, 3)]]).pairs[0][0][1]) is int
    for rows in ([[0.5, 0], [0, 1]], [[0.0, 1], [1, 0]]):
        with pytest.raises(TypeError):
            Matrix(2, 2, rows)
        with pytest.raises(TypeError):
            Matrix.from_rows(rows)


def test_rows_view_is_read_only():
    m = Matrix.from_rows([[1, 0], [0, 2]])
    before = Matrix.from_rows([[1, 0], [0, 2]])
    view = m.rows
    with pytest.raises(TypeError):
        view[0][1] = QQ(5)
    with pytest.raises(TypeError):
        m.rows[1][1] = QQ(5)
    # replacing a whole row of the view changes only the view
    view[0] = (QQ(7), QQ(7))
    assert m == before and m.rows == [(QQ(1), QQ(0)), (QQ(0), QQ(2))]


def _rows_subscript_writes(tree):
    """Line numbers where a subscript of some `.rows` is assigned or deleted."""

    def writes_into_rows(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(writes_into_rows(t) for t in target.elts)
        if not isinstance(target, ast.Subscript):
            return False
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        return isinstance(base, ast.Attribute) and base.attr == "rows"

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(writes_into_rows(t) for t in targets):
            lines.append(node.lineno)
    return lines


def test_no_module_writes_through_the_rows_view():
    """Matrix.rows is a view built on access, so a write into it would be
    lost; the package builds sparse rows instead."""
    assert _rows_subscript_writes(ast.parse("m.rows[i][j] = 1\nm.rows[i] += [2]")) == [1, 2]
    found = {}
    for path in sorted(Path(quivalg.__file__).resolve().parent.glob("*.py")):
        lines = _rows_subscript_writes(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert not found, f"writes into .rows: {found}"


def _divisions(tree, helper=None):
    """Line numbers of the / and /= operations in a module, except those
    inside its top-level function named helper."""
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == helper:
            allowed = {id(n) for n in ast.walk(node)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div)
        and id(node) not in allowed
    )


def test_division_goes_through_the_exact_helper():
    """int / int is a float in Python, so every division in the package
    is linalg.div, which returns an int or a Fraction."""
    snippet = ast.parse("x = a / b\ny /= 2\ndef div(a, b):\n    return a / b")
    assert _divisions(snippet) == [1, 2, 4]
    assert _divisions(snippet, "div") == [1, 2]
    package = Path(quivalg.__file__).resolve().parent
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        helper = "div" if path.name == "linalg.py" else None
        lines = _divisions(tree, helper)
        if lines:
            found[path.name] = lines
        if helper:
            assert len(_divisions(tree)) == 1, "linalg.div divides once"
    assert not found, f"divisions outside linalg.div: {found}"


def _div_users(tree):
    """The functions of a module that use div, each named as its
    top-level function or Class.method (nested functions count for the
    one they sit in); "<module>" for a use outside every function."""
    owner = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            owner.update((id(n), node.name) for n in ast.walk(node))
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    owner.update((id(n), f"{node.name}.{fn.name}") for n in ast.walk(fn))
    return {
        owner.get(id(n), "<module>")
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id == "div" or isinstance(n, ast.Attribute) and n.attr == "div"
    }


def test_divisions_sit_in_five_functions():
    """Every linalg.div call sits in one of five functions: the shared
    pivot step of the package's one elimination core, the sweep's row
    rescaling, two polynomial helpers of the factor search and the
    parser's rational literals.  A second elimination loop, or a place
    where a prime field would need its own inverse, shows up here."""
    snippet = ast.parse(
        "def f(a):\n    def g():\n        return div(a, 2)\n    return g\n"
        "class C:\n    def m(self):\n        return linalg.div(1, 2)\n"
        "x = div(1, 2)\n"
    )
    assert _div_users(snippet) == {"f", "C.m", "<module>"}
    package = Path(quivalg.__file__).resolve().parent
    found = {}
    for path in sorted(package.glob("*.py")):
        users = _div_users(ast.parse(path.read_text(), str(path)))
        if users:
            found[path.name] = users
    assert found == {
        "algebra.py": {"_Sweep.action_row"},
        "endos.py": {"_pdivmod", "_idempotent"},
        "linalg.py": {"_pivot"},
        "textio.py": {"_parse_rational"},
    }
