"""Endomorphism algebra structure, radicals, and decomposition."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from quivalg import (
    DecompositionInconclusiveError,
    ModuleHom,
    Quiver,
    Representation,
    build_algebra,
    decompose,
    direct_sum,
    hom_basis,
    indec_injectives,
    indec_projectives,
    invert,
    is_isomorphic,
    regular_module,
    simples,
    validate,
)
from quivalg import endos
from quivalg.endos import BlockView, EndStructure
from quivalg.linalg import QQ, Matrix, SpanSolver, rank, row_space_basis, vstack

from conftest import auslander_module, global_radical_blocks, summand_rows


def _view(reps):
    return BlockView(direct_sum(reps), reps)


@pytest.fixture(scope="module")
def l2_mixed_reps(l2):
    return [simples(l2)[0], indec_projectives(l2)[0]]


@pytest.fixture(scope="module")
def l2_mixed(l2_mixed_reps):
    return direct_sum(l2_mixed_reps)


def test_end_dims_l2_mixed(l2_mixed, l2_mixed_reps):
    e = EndStructure(l2_mixed)
    assert e.dim == 5
    assert e.radical_coords.nrows == 3
    # Hom(S,P) then Hom(P,S) survives one step
    view = BlockView(l2_mixed, l2_mixed_reps)
    rad = global_radical_blocks(view, e)
    assert sum(mat.nrows for mat in view.block_span_products(rad, rad).values()) == 1


@pytest.mark.parametrize(
    "parts, square_dim",
    [("SP", 1), ("P", 0), ("PP", 0), ("SSP", 1)],
)
def test_radical_powers_pinned(l2, parts, square_dim):
    """rad^2 of End over the dual numbers, one summand or several."""
    pick = {"S": simples(l2)[0], "P": indec_projectives(l2)[0]}
    view = _view([pick[c] for c in parts])
    rad = global_radical_blocks(view)
    assert sum(mat.nrows for mat in view.block_span_products(rad, rad).values()) == square_dim


def test_block_flats_match_sliced_blocks(a2):
    """block_flats gives every (bu, bv) block of a hom from summand bu
    into M as _flat of that block sliced out of the matrices at each
    vertex, on five summands over a quiver with two vertices."""
    view = _view([*simples(a2), *indec_projectives(a2), simples(a2)[0]])
    nb = len(view.summands)
    assert nb == 5
    for h in EndStructure(view.module).basis:
        for bu in range(nb):
            flats = view.block_flats(bu, summand_rows(view, bu, h.vertex_maps))
            for bv in range(nb):
                blocks = []
                for v, mat in enumerate(h.vertex_maps):
                    r0, c0 = view.offsets[v][bu], view.offsets[v][bv]
                    nr, nc = view.summands[bu].dims[v], view.summands[bv].dims[v]
                    blocks.append(Matrix(nr, nc, [row[c0 : c0 + nc] for row in mat.rows[r0 : r0 + nr]]))
                assert flats.get((bu, bv), []) == endos._flat(blocks)


def test_block_span_products_cuts_each_span_row_once(l2, count_calls):
    """Each span row is cut into block matrices once, not once per product
    it takes part in."""
    s, p = simples(l2)[0], indec_projectives(l2)[0]
    view = _view([s, s, p])
    rad = global_radical_blocks(view)
    rows = sum(mat.nrows for mat in rad.values())
    cuts = count_calls(BlockView, "_block_mats")
    sq = view.block_span_products(rad, rad)
    assert cuts["calls"] == rows
    cuts["calls"] = 0
    view.block_span_products(sq, rad)
    assert cuts["calls"] == rows + sum(mat.nrows for mat in sq.values())


def _all_pairs_span(view, left, right):
    """The span of every product of a left row with a right row, blockwise:
    the formula block_span_products must agree with."""
    out = {}
    for (bu, bw), lspan in left.items():
        for (bw2, bv), rspan in right.items():
            if bw2 != bw:
                continue
            for lflat in lspan.pairs:
                for rflat in rspan.pairs:
                    lms, rms = view._block_mats(bu, bw, lflat), view._block_mats(bw, bv, rflat)
                    out.setdefault((bu, bv), []).append(endos._flat([x @ y for x, y in zip(lms, rms)]))
    spans = {}
    for key, rows in out.items():
        basis = row_space_basis(Matrix._from_pairs(len(rows), view._block_width(*key), rows))
        if basis.nrows:
            spans[key] = basis
    return spans


def _span_product_summands(l2):
    s, p = simples(l2)[0], indec_projectives(l2)[0]
    sums = [[{"S": s, "P": p}[c] for c in parts] for parts in ("SP", "P", "PP", "SSP")]
    auslander = [
        [x.rep for x in decompose(auslander_module(n, dense))] for n in (3, 4, 5) for dense in (False, True)
    ]
    return sums + auslander


def test_block_span_products_matches_all_pairs(l2, translates, m_structure):
    """Skipping left rows already in the span gives the span, and the
    canonical basis, of all products, at every power of the radical:
    over the dual numbers, Auslander modules in Jordan and dense bases,
    and M."""
    cases = [(reps, None) for reps in _span_product_summands(l2)] + [(translates, m_structure)]
    for reps, e in cases:
        view = _view(reps)
        rad = global_radical_blocks(view, e)
        cur = rad
        while cur:
            nxt = view.block_span_products(cur, rad)
            assert nxt == _all_pairs_span(view, cur, rad)
            cur = nxt


def test_radical_square_of_m_forms_few_products(translates, m_structure, count_calls):
    """M's rad^2 (dimension 150) takes 826 products of radical rows; all
    pairs took 5,280, and the bound is a quarter of that."""
    view = _view(translates)
    rad = global_radical_blocks(view, m_structure)
    products = count_calls(endos, "_flat")
    sq = view.block_span_products(rad, rad)
    assert sum(mat.nrows for mat in sq.values()) == 150
    assert products["calls"] == 826 <= 5_280 // 4


def test_end_dims_l2_double_projective(l2):
    p = indec_projectives(l2)[0]
    pp = direct_sum([p, p])
    e = EndStructure(pp)
    assert e.dim == 8
    assert e.radical_coords.nrows == 4


def test_semisimple_end_has_zero_radical(a2):
    reg = regular_module(a2)
    # End(A2-regular) is A2 itself: radical = the arrow span
    e = EndStructure(reg)
    assert e.dim == 3
    assert e.radical_coords.nrows == 1
    s = simples(a2)[0]
    assert EndStructure(s).radical_coords.nrows == 0


def test_radical_homs_are_nilpotent(l2_mixed):
    e = EndStructure(l2_mixed)
    for h in e.radical_homs():
        power = h
        for _ in range(l2_mixed.total_dim):
            power = power * h
        assert power.is_zero()
    ident = ModuleHom.identity(l2_mixed)
    assert e.coords(ident) is not None
    # the identity never lies in the radical span
    solver = SpanSolver(l2_mixed.total_dim ** 2)
    for h in e.radical_homs():
        solver.insert([x for row in h.total_matrix().rows for x in row])
    assert solver.coords([x for row in ident.total_matrix().rows for x in row]) is None


def test_natural_and_regular_trace_forms_agree(l2, l2_mixed, a2):
    # the radical from the trace form of the action on the module must
    # match the radical from the trace form of left multiplication on
    # the endomorphism algebra itself
    targets = [l2_mixed, regular_module(a2), direct_sum([indec_projectives(l2)[0]] * 2)]
    for x in targets:
        e = EndStructure(x)
        n = e.dim
        left_mult = []
        for i in range(n):
            rows = []
            for j in range(n):
                prod = e.basis[i] * e.basis[j]
                rows.append(e.coords(prod))
            left_mult.append(Matrix(n, n, rows))
        gram = Matrix(
            n, n, [[(left_mult[i] @ left_mult[j]).trace() for j in range(n)] for i in range(n)]
        )
        from quivalg.linalg import left_kernel_basis

        reg_radical = left_kernel_basis(gram)
        nat_radical = e.radical_coords
        assert rank(reg_radical) == rank(nat_radical)
        assert rank(vstack([reg_radical, nat_radical])) == rank(nat_radical)


def test_decompose_indecomposable_is_identity(l2):
    p = indec_projectives(l2)[0]
    parts = decompose(p)
    assert len(parts) == 1
    assert parts[0].rep.total_dim == p.total_dim
    assert parts[0].idempotent.total_matrix() == Matrix.identity(p.total_dim)


def test_decompose_split_pair(l2_mixed):
    parts = decompose(l2_mixed)
    assert sorted(s.rep.total_dim for s in parts) == [1, 2]
    ident = ModuleHom.identity(l2_mixed)
    total = None
    for s in parts:
        e = s.idempotent
        assert (e * e).total_matrix() == e.total_matrix()
        total = e if total is None else total + e
    assert total.total_matrix() == ident.total_matrix()
    for i, si in enumerate(parts):
        for j, sj in enumerate(parts):
            prod = si.idempotent * sj.idempotent
            if i != j:
                assert prod.is_zero()


def test_decompose_inclusion_projection_identities(l2_mixed):
    for s in decompose(l2_mixed):
        round_trip = s.inclusion * s.projection  # summand -> M -> summand
        assert round_trip.total_matrix() == Matrix.identity(s.rep.total_dim)
        back = s.projection * s.inclusion  # M -> summand -> M
        assert back.total_matrix() == s.idempotent.total_matrix()


def test_decompose_deterministic(l2_mixed):
    a = [s.rep.dims for s in decompose(l2_mixed)]
    b = [s.rep.dims for s in decompose(l2_mixed)]
    assert a == b


def test_end_of_m_frozen_profile(translates, m_structure):
    assert m_structure.dim == 165
    assert m_structure.radical_coords.nrows == 160
    view = _view(translates)
    rad = global_radical_blocks(view, m_structure)
    assert sum(mat.nrows for mat in view.block_span_products(rad, rad).values()) == 150


def test_m_summands_match_translates(m_summands, translates):
    assert len(m_summands) == 5
    assert [s.rep.total_dim for s in m_summands] == [t.total_dim for t in translates]
    for s, t in zip(m_summands, translates):
        assert bool(is_isomorphic(s.rep, t))


def test_decompose_of_m_cuts_the_complement_from_the_second_idempotent_on(m_module, count_calls):
    """decompose cuts each lifted idempotent down to the running
    complement only from the second on, while the complement is not the
    identity: 39 ModuleHom products for M, 42 when the first is cut too."""
    products = count_calls(ModuleHom, "__mul__")
    assert len(decompose(m_module)) == 5
    assert products["calls"] == 39


def test_kronecker_module_with_a_field_of_endomorphisms():
    """On the Kronecker quiver, x = Q^2 => Q^2 with a = I and b = [[0, 2],
    [1, 0]] has End(x) = Q[b] with b^2 = 2, the field Q(sqrt 2): the
    minimal polynomial t^2 - 2 of b is irreducible of the corner's
    degree, so decompose certifies x indecomposable.  Its double splits
    into two copies of x."""
    q = Quiver(["u", "w"], [("a", "u", "w"), ("b", "u", "w")])
    kronecker = build_algebra(q, [])
    x = Representation(
        kronecker, [2, 2], [Matrix.identity(2), Matrix.from_rows([[0, 2], [1, 0]])]
    )
    assert validate(x) is None
    e = EndStructure(x)
    assert e.dim == 2 and e.radical_coords.nrows == 0
    assert len(decompose(x)) == 1
    parts = decompose(direct_sum([x, x]))
    assert len(parts) == 2
    assert all(is_isomorphic(p.rep, x) for p in parts)


def test_decompose_falls_back_to_fixed_combinations(l2, count_calls, monkeypatch):
    """End(S + S) over the dual numbers is M_2(Q).  In the basis I, E12,
    2 E12 + E21 and [[1, 1], [-1, 2]] no element has a minimal polynomial
    that splits (t - 1, t^2, t^2 - 2, t^2 - 3t + 3), and none is
    irreducible of degree 4, the corner's dimension, so no basis element
    splits the unit or certifies it primitive.  decompose goes on to the
    products b_i b_j in order and splits with the sixth one tried, E12 (2
    E12 + E21) = E11, after skipping E12 E12 = 0.  With no combinations
    allowed, the corner stays undecided and the error names the budget."""
    s = simples(l2)[0]
    m = direct_sum([s, s])
    basis = [
        ModuleHom(m, m, [Matrix.from_rows(rows)])
        for rows in ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 2], [1, 0]], [[1, 1], [-1, 2]])
    ]
    monkeypatch.setattr(endos, "hom_basis", lambda x, y: basis)
    polys = count_calls(endos, "_minimal_polynomial")
    parts = decompose(m)
    assert polys["calls"] == 4 + 6
    assert len(parts) == 2
    assert all(is_isomorphic(p.rep, s) for p in parts)

    monkeypatch.setattr(endos, "MAX_SPLIT_ATTEMPTS", 0)
    budget = "dimension 4 after its basis and 0 combinations, MAX_SPLIT_ATTEMPTS = 0$"
    with pytest.raises(DecompositionInconclusiveError, match=budget):
        decompose(m)


def test_decompose_certifies_primitive_corners_by_dimension(count_calls):
    """P + S + I over the path algebra of the linear quiver A_8, one copy
    of each of its 21 distinct indecomposables, has End/rad = Q^21.  Each
    primitive corner is certified by its dimension alone, with no
    pairwise commutator sweep: 1,782 quotient products, 4,862 when every
    corner was also checked commutative."""
    q = Quiver([f"v{i}" for i in range(8)], [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(7)])
    a8 = build_algebra(q, [])
    parts = {}
    for r in indec_projectives(a8) + simples(a8) + indec_injectives(a8):
        parts.setdefault(tuple(r.dims), r)  # an A_8 indecomposable is its dims
    mults = count_calls(endos._Quotient, "mult")
    summands = decompose(direct_sum(list(parts.values())))
    assert len(parts) == len(summands) == 21
    assert mults["calls"] <= 1782


def test_decompose_lifts_and_reduces_a_basis_with_radical_parts(l2, monkeypatch):
    """End(P + S) over the dual numbers in a basis whose elements outside
    the radical carry a radical part: the lifted idempotent is not yet
    idempotent, so the lifting iteration runs, and the quotient
    projection has radical coordinates to reduce."""
    s, p = simples(l2)[0], indec_projectives(l2)[0]
    m = direct_sum([p, s])
    r = EndStructure(m).radical_homs()[0]
    basis = [h + r if i % 2 == 0 else h for i, h in enumerate(hom_basis(m, m))]

    lifted = []
    lift = endos._lift_to_idempotent

    def spy_lift(h):
        lifted.append(h * h == h)
        return lift(h)

    reduced = []
    project = endos._Quotient.project

    def spy_project(q, coords):
        # the echelon rows are reduced, so each lead coordinate stays as
        # given until its own row is subtracted
        reduced.append(sum(1 for lead in q._ech if coords[lead]))
        return project(q, coords)

    monkeypatch.setattr(endos, "_lift_to_idempotent", spy_lift)
    monkeypatch.setattr(endos._Quotient, "project", spy_project)
    monkeypatch.setattr(endos, "hom_basis", lambda x, y: basis)
    parts = decompose(m)
    assert False in lifted
    assert sum(reduced) > 0
    assert sorted(part.rep.dims for part in parts) == [[1], [2]]
    for part in parts:
        assert is_isomorphic(part.rep, p if part.rep.dims == [2] else s)


def test_decompose_factors_a_quartic_into_two_quadratics(monkeypatch):
    """Q(sqrt 2) + Q(sqrt 3) on the Kronecker quiver, with a = I and b the
    block-diagonal [[0, 2], [1, 0]] and [[0, 3], [1, 0]], conjugated by
    one invertible P at both vertices.  The first minimal polynomial
    decompose factors is the quartic (t^2 - 2)(t^2 - 3), which has no
    rational root, so splitting it needs its quadratic factors."""
    q = Quiver(["u", "w"], [("a", "u", "w"), ("b", "u", "w")])
    kronecker = build_algebra(q, [])
    fields = [
        Representation(kronecker, [2, 2], [Matrix.identity(2), Matrix.from_rows([[0, d], [1, 0]])])
        for d in (2, 3)
    ]
    b = Matrix.from_rows([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]])
    change = Matrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 2, 0], [0, 1, 1, 1]])
    x = Representation(kronecker, [4, 4], [Matrix.identity(4), change @ b @ invert(change)])
    assert validate(x) is None

    factored = []
    factor = endos._factor

    def spy_factor(f):
        factors, rest = factor(f)
        factored.append((len(f) - 1, sorted(len(g) - 1 for g, _ in factors)))
        return factors, rest

    monkeypatch.setattr(endos, "_factor", spy_factor)
    parts = decompose(x)
    assert factored[0] == (4, [2, 2])
    assert len(parts) == 2
    assert sorted([bool(is_isomorphic(p.rep, f)) for f in fields] for p in parts) == [
        [False, True],
        [True, False],
    ]


def _kronecker_field(kronecker, p):
    """Q^d => Q^d with a = I and b the companion matrix of the monic
    irreducible p (ascending coefficients), so End = Q[t]/(p)."""
    d = len(p) - 1
    rows = [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d - 1)]
    b = Matrix.from_rows(rows + [[-c for c in p[:-1]]])
    return Representation(kronecker, [d, d], [Matrix.identity(d), b])


@st.composite
def _unimodular(draw, n):
    """An integer matrix with an integer inverse: a unit lower times a unit
    upper triangular matrix, its rows permuted."""
    entry = st.integers(-2, 2)
    low = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    rows = (Matrix.from_rows(low) @ Matrix.from_rows(up)).rows
    return Matrix.from_rows([rows[i] for i in draw(st.permutations(range(n)))])


# t - 1, t + 2, t^2 - 2, t^2 - 3, t^2 + t + 1
_FIELD_POLYS = ([-1, 1], [2, 1], [-2, 0, 1], [-3, 0, 1], [1, 1, 1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_decompose_returns_the_kronecker_fields_it_was_given(data):
    """A direct sum of one or two Kronecker modules whose endomorphisms
    are fields Q[t]/(p), disguised by unimodular changes of basis at both
    vertices, decomposes into exactly those field modules.  The minimal
    polynomials decompose meets have degrees 2 to 4, the product of two
    irreducible quadratics among them."""
    q = Quiver(["u", "w"], [("a", "u", "w"), ("b", "u", "w")])
    kronecker = build_algebra(q, [])
    fields = [_kronecker_field(kronecker, p) for p in _FIELD_POLYS]
    picks = data.draw(st.lists(st.integers(0, len(fields) - 1), min_size=1, max_size=2))
    x = direct_sum([fields[k] for k in picks])
    n = x.dims[0]
    left, right = data.draw(_unimodular(n)), data.draw(_unimodular(n))
    y = Representation(kronecker, [n, n], [left @ m @ invert(right) for m in x.matrices])
    assert validate(y) is None
    # distinct field modules have no nonzero map between them, and one
    # to a field module of the same dimensions is an isomorphism
    matched = []
    for part in decompose(y):
        found = [k for k in set(picks) if fields[k].dims == part.rep.dims]
        found = [k for k in found if hom_basis(part.rep, fields[k])]
        assert len(found) == 1
        matched += found
    assert sorted(matched) == sorted(picks)


# primitive irreducible polynomials over Q, ascending coefficients: t,
# t - 1, t + 2, 2t - 3, 3t + 1, t^2 - 2, t^2 + t + 1, 2t^2 + 3, and of
# higher degree t^3 - 2, t^3 + t + 1, t^4 + 1, t^4 - 10t^2 + 1 and
# t^5 - t - 1
_LOW = ([0, 1], [-1, 1], [2, 1], [-3, 2], [1, 3], [-2, 0, 1], [1, 1, 1], [3, 0, 2])
_HIGH = ([-2, 0, 0, 1], [1, 1, 0, 1], [1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [-1, -1, 0, 0, 0, 1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.dictionaries(st.sampled_from(range(len(_LOW))), st.integers(1, 3), max_size=3),
    st.sampled_from([()] + [(i,) for i in range(len(_HIGH))] + [(0, 1), (0, 0)]),
)
def test_factor_returns_known_irreducibles_in_order(low, high):
    """_factor of a product of known irreducibles lists them with their
    multiplicities, sorted by degree, then multiplicity, then
    coefficients from the leading one down.  A cofactor of degree 6 with
    no factor of degree <= 2, (t^3 - 2)(t^3 + t + 1) or (t^3 - 2)^2,
    stays unlisted and its degree is returned."""
    f = [1]
    for i, k in low.items():
        for _ in range(k):
            f = endos._pmul(f, _LOW[i])
    for i in high:
        f = endos._pmul(f, _HIGH[i])
    if len(f) == 1:
        return
    expected = [(_LOW[i], k) for i, k in low.items()]
    if len(high) == 1:
        expected.append((_HIGH[high[0]], 1))
    expected.sort(key=lambda gk: (len(gk[0]), gk[1], gk[0][::-1]))
    why = "of degree 6 with no factor of degree <= 2" if len(high) == 2 else ""
    assert endos._factor(f) == (expected, why)


def test_decompose_leaves_a_sextic_field_undecided():
    """x with a = I and b the companion matrix of t^6 - 2 has End(x) =
    Q(2^(1/6)).  Its minimal polynomials of full degree 6 have no factor
    of degree <= 2, which the factor search leaves undecided, so
    decompose reports the degree instead of certifying x indecomposable,
    and does so quickly."""
    q = Quiver(["u", "w"], [("a", "u", "w"), ("b", "u", "w")])
    x = _kronecker_field(build_algebra(q, []), [-2, 0, 0, 0, 0, 0, 1])
    start = time.perf_counter()
    with pytest.raises(DecompositionInconclusiveError, match="of degree 6 with no factor"):
        decompose(x)
    assert time.perf_counter() - start < 10


def test_factor_search_stays_bounded():
    """Kronecker's search is not made when its divisors or candidate
    factors cannot be listed within the bounds: a quartic whose end
    coefficients are 720720 has 240 * 480 candidate linear factors, and
    one whose value at 1 is a prime of 24 digits beats trial division.
    Both come back undecided at once, the reason naming the bounds.  A
    quadratic needs no search: t^2 - N, N that prime, is irreducible
    because 4N is not a square."""
    big = 100000000000000000000117  # prime
    start = time.perf_counter()
    assert endos._factor([-big, 0, 1]) == ([([-big, 0, 1], 1)], "")
    assert endos._factor([720720, 3, 5, 7, 720720]) == ([], "of degree 4 past the search's bounds")
    # (t - 1)^2 is listed beside a quartic whose value at 1 is big
    quartic = [1, 0, big - 2, 0, 1]
    assert endos._factor(endos._pmul(quartic, [1, -2, 1])) == (
        [([-1, 1], 2)],
        "of degree 4 past the search's bounds",
    )
    assert time.perf_counter() - start < 2


def test_decompose_certifies_a_large_prime_field_indecomposable():
    """x with a = I and b the companion matrix of t^2 - N, N a prime of 24
    digits, has End(x) = Q(sqrt N).  Trial division cannot factor N, but
    the discriminant 4N is not a square, so t^2 - N is irreducible, of
    the corner's dimension 2, and decompose certifies x indecomposable
    at once."""
    q = Quiver(["u", "w"], [("a", "u", "w"), ("b", "u", "w")])
    x = _kronecker_field(build_algebra(q, []), [-100000000000000000000117, 0, 1])
    start = time.perf_counter()
    assert [s.rep for s in decompose(x)] == [x]
    assert time.perf_counter() - start < 5


def test_factor_decides_quadratics_by_the_discriminant():
    """A quadratic's rational roots come from its discriminant, not from
    divisor lists: (t - p)(t - q) for the primes p = 10^9 + 7 and
    q = 998244353 splits, t^2 + 2pq + 1 is irreducible, a square has one
    factor of multiplicity 2, and a leading coefficient other than 1
    gives primitive linear factors."""
    p, q = 10**9 + 7, 998244353
    assert endos._factor([p * q, -(p + q), 1]) == ([([-p, 1], 1), ([-q, 1], 1)], "")
    assert endos._factor([2 * p * q + 1, 0, 1]) == ([([2 * p * q + 1, 0, 1], 1)], "")
    assert endos._factor([p * p, -2 * p, 1]) == ([([-p, 1], 2)], "")
    assert endos._factor([-3 * q, 3 - 2 * q, 2]) == ([([-q, 1], 1), ([3, 2], 1)], "")
