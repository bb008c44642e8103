"""Representations, homs, duality, covers, and hom spaces.

Oracle facts come from the two smallest test algebras: the dual
numbers (one loop, square zero) and the path algebra of v1 -> v2.
"""

import gc
import re
import weakref
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivalg import (
    ExceedsBound,
    ModuleHom,
    Representation,
    cokernel,
    decompose,
    direct_sum,
    dual,
    hom_basis,
    indec_injectives,
    indec_projectives,
    injective_envelope,
    invert,
    is_injective,
    is_isomorphic,
    is_projective,
    kernel,
    projective_cover,
    projective_dimension,
    regular_module,
    simples,
    syzygy,
    validate,
)
from quivalg import Quiver, build_algebra, modules
from quivalg.linalg import QQ, Matrix, left_kernel_basis, rank, row_space_basis, vstack
from quivalg.modules import _indecomposable_iso, _radical_rows, _top

from conftest import element, resolution_differential, truncated_quotients


def test_validate_accepts_regular(two_loop, a2):
    assert validate(regular_module(two_loop)) is None
    assert validate(regular_module(a2)) is None


def test_validate_rejects_broken_action(l2):
    # x acting as the identity violates x^2 = 0
    bad = Representation(l2, [1], [Matrix(1, 1, [[QQ(1)]])])
    assert validate(bad) is not None


@pytest.mark.parametrize(
    "dims, mats, message",
    [
        ([1, 1], [Matrix.zero(1, 1)], "expected 1 vertex dimensions, got 2"),
        ([1], [], "expected 1 arrow matrices, got 0"),
        ([1], [Matrix.zero(1, 2)], "arrow 'x' needs a 1x1 matrix, got 1x2"),
    ],
)
def test_representation_shape_checks(l2, dims, mats, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Representation(l2, dims, mats)


@pytest.mark.parametrize(
    "maps, message",
    [([], "one matrix per vertex required"), ([Matrix.zero(2, 1)], "vertex 0 map must be 1x2, got 2x1")],
)
def test_module_hom_shape_checks(l2, maps, message):
    """A hom from S to P over the dual numbers needs one 1x2 matrix."""
    with pytest.raises(ValueError, match=re.escape(message)):
        ModuleHom(simples(l2)[0], indec_projectives(l2)[0], maps)


def test_simples_and_projectives_a2(a2):
    s = simples(a2)
    assert [x.dims for x in s] == [[1, 0], [0, 1]]
    p = indec_projectives(a2)
    assert [x.dims for x in p] == [[1, 1], [0, 1]]
    i = indec_injectives(a2)
    assert [x.dims for x in i] == [[1, 0], [1, 1]]
    for x in s + p + i:
        assert validate(x) is None


def test_projectives_are_cached_without_keeping_the_algebra_alive():
    """The cached projectives hold their algebra, so a cache outside the
    algebra would keep every algebra passed to indec_projectives alive."""
    q = Quiver(["v"], [("x", "v", "v")])
    a = build_algebra(q, [element(q, (1, ["x", "x", "x"]))])
    first = indec_projectives(a)
    second = indec_projectives(a)
    assert len(first) == 1 and all(p is r for p, r in zip(first, second))
    assert indec_injectives(a)[0].algebra is a  # caches on the opposite too
    ref = weakref.ref(a)
    del a, first, second
    gc.collect()
    assert ref() is None


def test_opposite_links_back_without_a_cycle():
    """An algebra whose injectives were built is freed as soon as its last
    reference goes, without the cyclic garbage collector: its opposite
    points back to it only weakly."""
    q = Quiver(["v"], [("x", "v", "v")])
    a = build_algebra(q, [element(q, (1, ["x", "x", "x"]))])
    assert a.opposite.opposite is a
    gc.disable()
    try:
        indec_injectives(a)
        ref = weakref.ref(a)
        del a
        assert ref() is None
    finally:
        gc.enable()


def test_l2_projective_equals_injective(l2):
    p = indec_projectives(l2)[0]
    i = indec_injectives(l2)[0]
    assert p.dims == [2] and i.dims == [2]
    assert is_projective(i) and is_injective(p)
    assert bool(is_isomorphic(p, i))


def test_regular_module_is_projective_sum(two_loop):
    reg = regular_module(two_loop)
    assert reg.total_dim == two_loop.dim
    assert is_projective(reg)
    assert not is_injective(reg)  # the two-loop quotient is not selfinjective


def test_direct_sum_structure(l2):
    p = indec_projectives(l2)[0]
    s = simples(l2)[0]
    total = direct_sum([p, s])
    assert total.total_dim == 3
    assert total.dims == [p.dims[v] + s.dims[v] for v in range(l2.num_vertices)]
    assert validate(total) is None
    # each arrow acts by p's matrix, then s's, stacked along the diagonal
    for ar in l2.quiver.arrows:
        upper = [list(r) + [0] * s.dims[ar.target] for r in p.matrices[ar.index].rows]
        lower = [[0] * p.dims[ar.target] + list(r) for r in s.matrices[ar.index].rows]
        assert total.matrices[ar.index] == Matrix.from_rows(upper + lower)


def test_hom_composition_is_left_to_right(a2):
    p = indec_projectives(a2)
    # Hom(P2, P1) is one-dimensional, Hom(P1, P2) vanishes
    assert len(hom_basis(p[1], p[0])) == 1
    assert len(hom_basis(p[0], p[1])) == 0
    f = hom_basis(p[1], p[0])[0]
    g = ModuleHom.identity(p[0])
    assert (f * g).total_matrix() == f.total_matrix()


def test_hom_dims_two_loop(two_loop):
    reg = regular_module(two_loop)
    assert len(hom_basis(reg, reg)) == two_loop.dim
    s = simples(two_loop)[0]
    assert len(hom_basis(reg, s)) == 1
    # Hom(S, A) is the right annihilator of the radical, i.e. the socle,
    # whose dimension is that of the top of D(A)
    assert len(hom_basis(s, reg)) == len(_top(dual(reg))) == 2


def test_kernel_cokernel_exactness(l2):
    p = indec_projectives(l2)[0]
    s = simples(l2)[0]
    covers = hom_basis(p, s)
    onto = next(h for h in covers if h.rank() == 1)
    k, inc = kernel(onto)
    assert k.total_dim == 1
    assert (inc * onto).is_zero()
    c, pr = cokernel(inc)
    assert c.total_dim == 1
    assert (inc * pr).is_zero()


def test_radical_top_socle_l2(l2):
    """P over the dual numbers has radical, top and socle of dimension 1,
    as the rows that covers and is_isomorphic read, and the cover of P
    is P itself."""
    p = indec_projectives(l2)[0]
    assert [r.nrows for r in _radical_rows(p)] == [1]
    assert len(_top(dual(p))) == 1
    cover, epi = projective_cover(p)
    assert cover.total_dim == p.total_dim and epi.rank() == p.total_dim


def test_projective_cover_minimal(two_loop):
    s = simples(two_loop)[0]
    cover, epi = projective_cover(s)
    assert cover.total_dim == two_loop.dim  # local algebra: cover of S is A
    assert epi.rank() == 1
    env, mono = injective_envelope(s)
    assert env.total_dim == two_loop.dim
    assert mono.rank() == 1


def test_dual_reverses_dims(a2):
    p1 = indec_projectives(a2)[0]
    d = dual(p1)
    assert d.algebra is not a2
    assert d.total_dim == p1.total_dim
    assert validate(d) is None


def test_dual_swaps_projective_injective(two_loop):
    reg = regular_module(two_loop)
    da = dual(regular_module(two_loop.opposite))
    assert is_injective(da)
    assert not is_projective(da)
    assert validate(da) is None
    assert da.total_dim == reg.total_dim


def test_is_isomorphic_negative_certainty(l2):
    p = indec_projectives(l2)[0]
    s = simples(l2)[0]
    verdict = is_isomorphic(p, s)
    assert not verdict
    assert verdict is None  # every negative answer is certain


def test_is_isomorphic_no_between_projective_and_two_simples(l2):
    """P and S + S over the dual numbers have equal dimensions and a
    two-dimensional Hom space both ways, yet are not isomorphic: the
    answer is None either way round, with no search to run out."""
    p = indec_projectives(l2)[0]
    s = simples(l2)[0]
    ss = direct_sum([s, s])
    assert len(hom_basis(p, ss)) == len(hom_basis(ss, p)) == 2
    assert is_isomorphic(p, ss) is None
    assert is_isomorphic(ss, p) is None


def test_is_isomorphic_matches_summands(l2):
    """S + S has neither a simple top nor a simple socle, and no element
    of the Hom basis between two copies of it is invertible, so the
    witness comes from matching the summands of both sides."""
    s = simples(l2)[0]
    x = direct_sum([s, s])
    y = direct_sum([s, s])
    assert x is not y
    assert not any(h.is_isomorphism() for h in hom_basis(x, y))
    witness = is_isomorphic(x, y)
    assert witness.is_isomorphism() and witness.is_valid()
    assert witness.source is x and witness.target is y


def test_is_isomorphic_finds_nontrivial_witness(l2, two_loop):
    p = indec_projectives(l2)[0]
    twisted = Representation(l2, [2], [Matrix(2, 2, [[QQ(0), QQ(3)], [QQ(0), QQ(0)]])])
    assert validate(twisted) is None
    witness = is_isomorphic(p, twisted)
    assert bool(witness)
    assert witness.is_isomorphism()
    assert witness.source is p and witness.target is twisted


def test_zero_module_edge_cases(l2):
    z = Representation(l2, [0], [Matrix.zero(0, 0)])
    assert z.is_zero() and z.total_dim == 0
    assert hom_basis(z, z) == []
    assert is_projective(z) and is_injective(z)
    z2 = Representation(l2, [0], [Matrix.zero(0, 0)])
    assert is_isomorphic(z, z2).is_isomorphism()  # empty decompositions


def _jordan_module(n):
    """K[x]/(x) + ... + K[x]/(x^n) over K[x]/(x^n), in its Jordan basis."""
    q = Quiver(["v"], [("x", "v", "v")])
    a = build_algebra(q, [element(q, (1, ["x"] * n))])
    size = n * (n + 1) // 2
    jordan = [[QQ(0)] * size for _ in range(size)]
    start = 0
    for block in range(1, n + 1):
        for k in range(block - 1):
            jordan[start + k][start + k + 1] = QQ(1)
        start += block
    m = Representation(a, [size], [Matrix(size, size, jordan)])
    assert validate(m) is None
    return m


def test_hom_basis_folds_each_basis_path_from_its_prefix(count_calls, monkeypatch):
    # Jordan module K[x]/(x) + ... + K[x]/(x^7) over K[x]/(x^7): every hom
    # out of a projective sum folds a generator image through the basis
    # paths it was asked for, each one arrow past the row of its prefix,
    # and a path whose prefix's row is zero has a zero row with no fold
    n = 7
    m = _jordan_module(n)
    a = m.algebra

    row_times = count_calls(modules, "_row_times")
    folds = {"generators": 0, "row_times": 0, "paths": 0, "covers": 0}
    generator_maps = modules._generator_maps

    def counted(psum, target, images, positions):
        before = row_times["calls"]
        out = generator_maps(psum, target, images, positions)
        folds["generators"] += len(images)
        folds["row_times"] += row_times["calls"] - before
        # the trivial path heads each list and takes no fold
        for s, v in enumerate(psum.vertices):
            for pos in positions[s][1:]:
                prefix = a._pos[v, a.basis[pos].arrows[:-1]]
                w = a.basis[prefix].target
                row = psum.offsets[s][w] + a.endpoint_basis(v, w).index(prefix)
                folds["paths"] += bool(out[w].pairs[row])
        folds["covers"] += all(len(p) == a.dim for p in positions)
        return out

    monkeypatch.setattr(modules, "_generator_maps", counted)
    homs = hom_basis(m, m)
    assert len(homs) == n * (n + 1) * (2 * n + 1) // 6
    # one generator per Jordan block for each hom, plus the covers
    assert folds["generators"] >= n * len(homs)
    assert folds["covers"] >= 1
    assert folds["row_times"] == folds["paths"]


def test_hom_basis_folds_only_the_rows_its_sections_read(count_calls):
    """In the Jordan module over K[x]/(x^7), the sections of the cover
    read the rows 1, x, ..., x^(b-1) of the summand of block size b only,
    so each hom folds its generator images 0 + 1 + ... + 6 = 21 times
    instead of 7 * 6 = 42.  Folding every basis path took 10,508 sparse
    row products (_row_times calls) for the 140 homs."""
    m = _jordan_module(7)
    row_times = count_calls(modules, "_row_times")
    homs = hom_basis(m, m)
    assert row_times["calls"] <= 10508 - 21 * len(homs)
    assert len(homs) == 140
    assert all(h.is_valid() for h in homs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_basis_paths_hold_their_prefixes(case):
    """Every nontrivial basis path, of a built algebra and of its
    opposite, has its one-arrow-shorter prefix in the basis: the hom folds
    fold each basis path from its prefix's row."""
    q, rels, n, _paths = case
    a = build_algebra(q, rels, length_cap=n + 2)
    for alg in (a, a.opposite):
        basis = {(p.source, p.arrows) for p in alg.basis}
        assert all((src, arrows[:-1]) in basis for src, arrows in basis if arrows)


# -- the presented Hom solve against the commuting-square system --------


def _commuting_square_nullity(m, n):
    """dim Hom(m, n) as the nullity of the stacked commuting-square system.

    The unknowns are the entries of the vertex maps f_v; every arrow
    a: u -> v contributes the entries of mat_m(a) @ f_v - f_u @ mat_n(a).
    """
    a = m.algebra
    offsets, total = [], 0
    for v in range(a.num_vertices):
        offsets.append(total)
        total += m.dims[v] * n.dims[v]
    rows = []
    for ar in a.quiver.arrows:
        u, v = ar.source, ar.target
        ma, na = m.matrices[ar.index], n.matrices[ar.index]
        for i in range(m.dims[u]):
            for j in range(n.dims[v]):
                row = [QQ(0)] * total
                for k in range(m.dims[v]):
                    row[offsets[v] + k * n.dims[v] + j] += ma.rows[i][k]
                for l in range(n.dims[u]):
                    row[offsets[u] + i * n.dims[u] + l] -= na.rows[l][j]
                rows.append(row)
    return total - rank(Matrix(len(rows), total, rows))


def _small_sums(draw, max_total_dim):
    """The indecomposable projectives, injectives and simples over a drawn
    truncated quotient, and the picks of one or two of them whose direct
    sum has total dimension at most max_total_dim."""
    q, rels, n, _paths = draw(truncated_quotients())
    a = build_algebra(q, rels, length_cap=n + 2)
    base = indec_projectives(a) + indec_injectives(a) + simples(a)
    picks = [(i,) for i in range(len(base))]
    picks += combinations_with_replacement(range(len(base)), 2)
    picks = [p for p in picks if sum(base[i].total_dim for i in p) <= max_total_dim]
    return base, picks


@st.composite
def hom_pairs(draw, max_total_dim=12):
    """X and Y over a truncated quotient, each an indecomposable projective,
    injective or simple, or a direct sum of two of them."""
    base, picks = _small_sums(draw, max_total_dim)

    def module(pick):
        return direct_sum([base[i] for i in pick])

    return module(draw(st.sampled_from(picks))), module(draw(st.sampled_from(picks)))


@st.composite
def small_modules(draw, max_total_dim=12):
    """One module as in hom_pairs."""
    base, picks = _small_sums(draw, max_total_dim)
    return direct_sum([base[i] for i in draw(st.sampled_from(picks))])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hom_pairs())
def test_hom_basis_matches_commuting_square_nullity(pair):
    x, y = pair
    homs = hom_basis(x, y)
    assert len(homs) == _commuting_square_nullity(x, y)
    assert all(h.is_valid() for h in homs)
    flat = [[c for f in h.vertex_maps for row in f.rows for c in row] for h in homs]
    width = sum(x.dims[v] * y.dims[v] for v in range(len(x.dims)))
    assert rank(Matrix(len(flat), width, flat)) == len(homs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hom_pairs())
def test_is_isomorphic_is_symmetric_and_swaps_sums(pair):
    """X + Y is isomorphic to Y + X through a verified witness, and X is
    isomorphic to Y exactly when Y is isomorphic to X."""
    x, y = pair
    xy, yx = direct_sum([x, y]), direct_sum([y, x])
    witness = is_isomorphic(xy, yx)
    assert witness.is_isomorphism() and witness.is_valid()
    assert witness.source is xy and witness.target is yx
    assert (is_isomorphic(x, y) is None) == (is_isomorphic(y, x) is None)


@st.composite
def disguised_sums(draw, max_total_dim=6):
    """The indecomposable summands of X and of Y, drawn as in hom_pairs,
    and X + Y in a basis changed at each vertex by a unit lower triangular
    matrix with entries -1, 0 and 1.  The change mixes the summands, so
    the idempotents decompose lifts are not orthogonal to begin with."""
    base, picks = _small_sums(draw, max_total_dim)
    known = [base[i] for _ in range(2) for i in draw(st.sampled_from(picks))]
    m = direct_sum(known)
    entry = st.integers(-1, 1)
    change = [
        Matrix(d, d, [[1 if i == j else draw(entry) if j < i else 0 for j in range(d)] for i in range(d)])
        for d in m.dims
    ]
    arrows = m.algebra.quiver.arrows
    mats = [change[a.source] @ mat @ invert(change[a.target]) for a, mat in zip(arrows, m.matrices)]
    return known, Representation(m.algebra, m.dims, mats)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(disguised_sums())
def test_decompose_of_a_sum_finds_the_summands_of_both(case):
    """Krull-Schmidt: the summands decompose finds in X + Y, in a
    disguised basis, match the indecomposables X and Y were built from,
    one to one up to isomorphism, and its inclusions stack to an
    invertible matrix at every vertex."""
    known, m = case
    assert validate(m) is None
    parts = decompose(m)
    assert len(parts) == len(known)
    for part in parts:
        match = next((k for k, x in enumerate(known) if _indecomposable_iso(x, part.rep)), None)
        assert match is not None
        known.pop(match)
    for v, d in enumerate(m.dims):
        stacked = vstack([part.inclusion.vertex_maps[v] for part in parts])
        assert stacked.nrows == d and (d == 0 or invert(stacked) is not None)


# -- duality and syzygies on the sparse matrices ----------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_modules())
def test_double_dual_is_isomorphic(x):
    """D(D(X)) lives over the opposite of the opposite, which is the
    algebra itself, and is isomorphic to X (it is X, entry by entry)."""
    xx = dual(dual(x))
    assert xx.algebra is x.algebra
    assert is_isomorphic(xx, x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_modules())
def test_syzygy_dimension_is_cover_minus_module(x):
    """0 -> Omega(X) -> P(X) -> X -> 0 is exact: dim Omega(X) = dim P(X) - dim X."""
    cover, epi = projective_cover(x)
    assert epi.rank() == x.total_dim
    assert syzygy(x, 1).total_dim == cover.total_dim - x.total_dim


@st.composite
def modules_and_duals(draw):
    """One module as in small_modules, over a quotient of dimension at
    most 8, or its dual over the opposite.  Over larger quotients the
    fifth syzygy that _pd_by_zero_syzygy builds can pass 5,000
    dimensions."""
    x = draw(small_modules().filter(lambda m: m.algebra.dim <= 8))
    return dual(x) if draw(st.booleans()) else x


def _pd_by_zero_syzygy(x, bound):
    """Projective dimension as the first k whose next syzygy is zero."""
    for k in range(bound + 1):
        x = syzygy(x, 1)
        if x.is_zero():
            return k
    return ExceedsBound(bound)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(modules_and_duals())
def test_projectivity_from_the_top_matches_the_cover_maps(x):
    """is_projective and is_injective compare dimensions over the top, and
    projective_dimension stops at the first projective syzygy; the cover
    and envelope maps, and the first zero syzygy, decide the same."""
    assert is_projective(x) == projective_cover(x)[1].is_isomorphism()
    assert is_injective(x) == injective_envelope(x)[1].is_isomorphism()
    assert projective_dimension(x, 4) == _pd_by_zero_syzygy(x, 4)


def test_projective_dimension_along_a_linear_quiver():
    """Over the path algebra of v0 -> v1 -> ... -> v5 with rad^2 = 0, the
    first syzygy of S(i) is S(i + 1) and S(5) = P(5), so S(i) has
    projective dimension 5 - i, and S(0) exceeds the bound 4."""
    q = Quiver([f"v{i}" for i in range(6)], [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(5)])
    a = build_algebra(q, [element(q, (1, [f"a{i}", f"a{i + 1}"])) for i in range(4)])
    expected = [ExceedsBound(4), 4, 3, 2, 1, 0]
    assert [projective_dimension(s, 4) for s in simples(a)] == expected
    assert [_pd_by_zero_syzygy(s, 4) for s in simples(a)] == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_generator_rows_read_the_whole_differential(data):
    """generator_rows(k), folded into the whole differential P_(k+1) ->
    P_k through the projective sums' own matrices, composes to zero with
    the map before it (the cover for k = 0), its image is that map's
    kernel at every vertex, and P_(k+1) has one summand per top vector of
    that kernel, so the resolution is exact and minimal: for every
    simple, indecomposable projective and indecomposable injective of a
    truncated quotient of dimension at most 24, and their duals over the
    opposite.  The few larger quotients drawn would take most of the
    test's time."""
    q, rels, n, _paths = data
    a = build_algebra(q, rels, length_cap=n + 2)
    assume(a.dim <= 24)
    base = simples(a) + indec_projectives(a) + indec_injectives(a)
    for x in base + [dual(y) for y in base]:
        res = modules._Resolution(x)
        before = res.cover()[1]
        for k in (0, 1):
            d = resolution_differential(res, k)
            assert (d * before).is_zero()
            for f, g in zip(d.vertex_maps, before.vertex_maps):
                assert row_space_basis(f) == row_space_basis(left_kernel_basis(g))
            assert len(res.top(k + 1)) == len(_top(kernel(before)[0]))
            before = d
