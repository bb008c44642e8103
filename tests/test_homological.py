"""Syzygies, translates, dimensions: small closed-form oracles first,
then the two-loop translate pipeline."""

import pytest
from hypothesis import example, given, settings

from conftest import auslander_module, element, ext2_codimension, resolution_cover, resolution_differential, truncated_quotients

from quivalg import (
    AtLeastBound,
    ExceedsBound,
    IncompletePresentationWarning,
    Quiver,
    Representation,
    ar_translate,
    build_algebra,
    cartan_determinant,
    cartan_matrix,
    cluster_tilting_verdict,
    dominant_dimension,
    end_as_quiver_algebra,
    end_of_summands,
    ext_dim,
    global_dimension,
    indec_projectives,
    injective_envelope,
    is_generator_cogenerator,
    is_isomorphic,
    is_projective,
    is_selfinjective,
    projective_dimension,
    reference_end_algebra,
    regular_module,
    simples,
    syzygy,
    tau2,
    transpose,
)
from quivalg import algebra, endos, endquiver, homological, modules
from quivalg.linalg import Matrix
from quivalg.modules import _Resolution, _radical_rows, _sub_rep, _top, cokernel, dual, kernel, projective_cover


# -- dual numbers: everything is periodic --------------------------------


def test_l2_syzygy_of_simple_is_simple(l2):
    s = simples(l2)[0]
    o1 = syzygy(s, 1)
    assert bool(is_isomorphic(o1, s))
    assert bool(is_isomorphic(syzygy(s, 3), s))


def test_l2_translate_fixes_simple(l2):
    s = simples(l2)[0]
    assert bool(is_isomorphic(ar_translate(s), s))


def test_l2_ext_self_extension(l2):
    s = simples(l2)[0]
    assert ext_dim(s, s, 1) == 1
    assert ext_dim(s, s, 2) == 1  # periodic resolution


def test_l2_cartan_and_selfinjectivity(l2):
    assert int(cartan_determinant(l2)) == 2
    assert is_selfinjective(l2)


def test_l2_dimensions_hit_bounds(l2):
    s = simples(l2)[0]
    assert projective_dimension(s, 5) == ExceedsBound(5)
    assert global_dimension(l2, 5) == ExceedsBound(5)
    assert projective_dimension(dual(s), 4) == ExceedsBound(4)
    assert dominant_dimension(l2, 6) == AtLeastBound(6)


# -- dominant dimension against whole injective envelopes ---------------


def _dominant_dimension_by_envelopes(a, bound):
    """The definition, read literally: how many leading terms of the
    minimal injective coresolution of A, each whole envelope tested."""
    cur = regular_module(a)
    for k in range(bound):
        if cur.is_zero():
            return AtLeastBound(bound)
        env, mono = injective_envelope(cur)
        if not is_projective(env):
            return k
        cur = cokernel(mono)[0]
    return AtLeastBound(bound)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_dominant_dimension_matches_whole_envelopes(data):
    """dominant_dimension reads which I(v) are projective once and the
    coresolution's terms off one resolution of D(A); on small random
    quotients it agrees with testing every envelope whole, at bounds 1-4."""
    q, rels, _n, _paths = data
    a = build_algebra(q, rels)
    for bound in range(1, 5):
        assert dominant_dimension(a, bound) == _dominant_dimension_by_envelopes(a, bound)


def _kronecker_algebra():
    return build_algebra(Quiver(["u", "w"], [("a", "u", "w"), ("b", "u", "w")]), [])


def _truncated_polynomial(n):
    q = Quiver(["v"], [("x", "v", "v")])
    return build_algebra(q, [element(q, (1, ["x"] * n))])


# (name, builder given the two-loop translates, domdim at the default bound)
_DOMDIM_CASES = [
    ("verify-paper-B", lambda translates: end_of_summands(translates).presented, 3),
    ("reference-B", lambda _: reference_end_algebra(), 3),
    *[
        ("auslander-%d" % n, lambda _, n=n: end_as_quiver_algebra(auslander_module(n)).presented, 2)
        for n in (4, 5, 6, 7)
    ],
    ("kronecker", lambda _: _kronecker_algebra(), 0),
    ("selfinjective-x4", lambda _: _truncated_polynomial(4), AtLeastBound(6)),
]


@pytest.mark.parametrize("build, expected", [c[1:] for c in _DOMDIM_CASES], ids=[c[0] for c in _DOMDIM_CASES])
def test_dominant_dimension_matches_whole_envelopes_on_fixed_algebras(build, expected, translates):
    """The paper's B, both computed and frozen, the Auslander algebras of
    K[x]/(x^n), the hereditary Kronecker algebra and the selfinjective
    K[x]/(x^4), each against every envelope tested whole."""
    a = build(translates)
    for bound in (1, 2, 3, 4, 6):
        assert dominant_dimension(a, bound) == _dominant_dimension_by_envelopes(a, bound)
    assert dominant_dimension(a) == expected


def test_dominant_dimension_finds_each_top_once(count_calls):
    """On B, dominant_dimension reads which of the 5 I(v) are projective
    off their tops, then resolves D(B) over the opposite algebra: one more
    top and one cover, and the later terms up to the answer 3 as rows
    over the opposite's table, with no echelon, cover or cokernel: 6
    radical-row echelons and 1 cover.  Taking cokernels of the envelopes
    took 9 echelons, 3 covers and 3 cokernels."""
    b = reference_end_algebra()
    radical_rows = count_calls(modules, "_radical_rows")
    covers = count_calls(modules, "_cover_data")
    cokernels = count_calls(modules, "cokernel")
    assert dominant_dimension(b) == 3
    assert (radical_rows["calls"], covers["calls"], cokernels["calls"]) == (6, 1, 0)


def test_dominant_dimension_stops_with_the_coresolution(count_calls):
    """K[x]/(x^4) is selfinjective, so D(A) is projective and the
    coresolution of A stops after its first term: no cover is built, at
    any bound."""
    a = _truncated_polynomial(4)
    covers = count_calls(modules, "_cover_data")
    for bound in (1, 6, 20):
        assert dominant_dimension(a, bound) == AtLeastBound(bound)
    assert covers["calls"] == 0


def test_global_dimension_finds_each_top_once(count_calls):
    """On B, projective_dimension reads each simple's top once from its
    radical rows, for both the projectivity test and the cover, and
    covers each simple once: 5 radical-row echelons and 5 covers.  The
    later syzygies, their tops and the next kernels are rows over B's
    table, with no representation, radical-row echelon or cover; as
    representations the 19 syzygies took 19 echelons and 14 covers."""
    b = reference_end_algebra()
    radical_rows = count_calls(modules, "_radical_rows")
    covers = count_calls(modules, "_cover_data")
    assert global_dimension(b) == 3
    assert (radical_rows["calls"], covers["calls"]) == (5, 5)


def _euler_matrix(resolutions, nv, gdim):
    """Sum of (-1)^k E_k over k <= gdim, where E_k[i][j] is the
    multiplicity of P(j) in degree k of the resolution of S(i)."""
    euler = [[0] * nv for _ in range(nv)]
    for i, res in enumerate(resolutions):
        for k in range(gdim + 1):
            for v, _ in res.top(k):
                euler[i][v] += (-1) ** k
    return Matrix(nv, nv, euler)


# a -> b -> a with ab = 0: gldim 2, one Ext^2 between the simples; the
# random quotients with finite gldim are all hereditary
_CYCLE = Quiver(["u", "v"], [("a", "u", "v"), ("b", "v", "u")])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
@example((_CYCLE, [element(_CYCLE, (1, ["a", "b"]))], 3, None))
def test_simples_resolutions_give_ext2_total_and_euler_form(data):
    """On small random quotients, the degree-2 Betti total of the simples'
    minimal resolutions is the IJ+JI codimension, and wherever gldim is
    finite the alternating Betti matrix inverts the Cartan matrix.  Bound
    2 certifies every finite gldim drawn; a local quotient has none."""
    q, rels, _n, _paths = data
    a = build_algebra(q, rels)
    resolutions = [_Resolution(s) for s in simples(a)]
    assert homological._ext2_total(resolutions) == ext2_codimension(q, rels, a.dim)
    gdim = homological._global_dimension(resolutions, 2)
    if isinstance(gdim, ExceedsBound):
        return
    nv = a.num_vertices
    assert _euler_matrix(resolutions, nv, gdim) @ cartan_matrix(a) == Matrix.identity(nv)


def _kernel_route_syzygies(x, count):
    """x and its first count syzygies, each the kernel of the projective
    cover of the one before, as representations."""
    out = [x]
    for _ in range(count):
        out.append(kernel(projective_cover(out[-1])[1])[0])
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_table_resolutions_match_the_kernel_route(data):
    """On small random quotients, the simples' resolutions over the
    algebra's table give the gldim that the kernel route of covers and
    kernels of representations gives, and the Ext^2 total that the
    IJ+JI sweep gives.  Their syzygies, the tops read off table rows and
    the representations syzygy builds from those rows on demand, have
    the dimension vectors and tops of the kernel route's."""
    q, rels, _n, _paths = data
    a = build_algebra(q, rels)
    resolutions = [_Resolution(s) for s in simples(a)]
    assert homological._ext2_total(resolutions) == ext2_codimension(q, rels, a.dim)
    pds = []
    for s, res in zip(simples(a), resolutions):
        route = _kernel_route_syzygies(s, 3)
        for k in (1, 2, 3):
            tops = [[v for v, _ in top] for top in (res.top(k), _top(res.syzygy(k)), _top(route[k]))]
            assert tops[0] == tops[1] == tops[2]
            assert res.syzygy(k).dims == route[k].dims == syzygy(s, k).dims
        pds.append(next((k for k in range(3) if route[k + 1].is_zero()), None))
    expected = ExceedsBound(2) if None in pds else max(pds)
    assert homological._global_dimension(resolutions, 2) == expected


def test_reference_algebra_euler_form():
    b = reference_end_algebra()
    resolutions = [_Resolution(s) for s in simples(b)]
    assert homological._global_dimension(resolutions, 6) == 3
    assert [len(res.top(2)) for res in resolutions] == [3, 1, 2, 2, 2]
    assert _euler_matrix(resolutions, 5, 3) @ cartan_matrix(b) == Matrix.identity(5)


def test_kronecker_dominant_dimension_zero():
    """No indecomposable injective of the Kronecker algebra is projective."""
    kronecker = build_algebra(Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v")]), [])
    assert dominant_dimension(kronecker, 6) == 0 == _dominant_dimension_by_envelopes(kronecker, 6)


# -- path algebra of v1 -> v2: hereditary --------------------------------


def test_a2_global_dimension_one(a2):
    assert global_dimension(a2, 6) == 1
    assert dominant_dimension(a2, 6) == 1
    assert int(cartan_determinant(a2)) == 1
    assert not is_selfinjective(a2)


def test_a2_projective_dimensions(a2):
    s1, s2 = simples(a2)
    assert projective_dimension(s1, 6) == 1
    assert projective_dimension(s2, 6) == 0
    assert ext_dim(s1, s2, 1) == 1  # one arrow v1 -> v2
    assert ext_dim(s2, s1, 1) == 0


def test_a2_translate_of_top_simple(a2):
    s1 = simples(a2)[0]
    p2 = indec_projectives(a2)[1]
    assert bool(is_isomorphic(ar_translate(s1), p2))
    for p in indec_projectives(a2):
        assert transpose(p).is_zero()
        assert ar_translate(p).is_zero()


def test_minimal_presentation_is_exact(a2, l2):
    """The first two terms of the resolution that hom_basis and ext_dim
    read present the module: p1 -> p0 -> s is exact at p0 and onto s."""
    for alg in (a2, l2):
        s = simples(alg)[0]
        res = _Resolution(s)
        d, epi = resolution_differential(res, 0), resolution_cover(res)
        assert (d * epi).is_zero()
        c, _ = cokernel(d)
        assert bool(is_isomorphic(c, s))


# -- the two-loop local algebra pipeline ---------------------------------


def test_two_loop_simple_syzygy_is_radical(two_loop):
    s = simples(two_loop)[0]
    o1 = syzygy(s, 1)
    reg = regular_module(two_loop)
    r, _ = _sub_rep(reg, _radical_rows(reg))
    assert bool(is_isomorphic(o1, r))
    assert o1.total_dim == 5


def test_two_loop_global_dimension_infinite(two_loop):
    assert global_dimension(two_loop, 6) == ExceedsBound(6)
    assert not is_selfinjective(two_loop)


def test_translate_dims_frozen(translates):
    assert [t.total_dim for t in translates] == [6, 8, 5, 8, 6]


def test_fourth_translate_is_projective_regular(two_loop, translates):
    u4 = translates[4]
    assert is_projective(u4)
    witness = is_isomorphic(u4, regular_module(two_loop))
    assert bool(witness)
    assert witness.is_isomorphism()


def test_translates_have_no_self_ext1(translates, m_module):
    reg_dual = translates[0]
    assert ext_dim(reg_dual, m_module, 1) == 0
    assert ext_dim(m_module, m_module, 1) == 0


def test_ext_regression_pins(two_loop, translates, m_module):
    # frozen second-degree values; these are regression pins, the
    # vanishing in degree one is the meaningful statement
    reg = regular_module(two_loop)
    da = translates[0]
    assert ext_dim(da, reg, 1) == 0
    assert ext_dim(da, reg, 2) == 4
    assert ext_dim(m_module, m_module, 2) == 35


def test_generator_cogenerator_classification(two_loop, translates, m_module):
    assert is_generator_cogenerator(m_module)
    assert not is_generator_cogenerator(regular_module(two_loop))
    assert not is_generator_cogenerator(translates[0])


def test_tau2_of_projective_vanishes(two_loop):
    assert tau2(regular_module(two_loop)).is_zero()


def test_reference_algebra_dimensions():
    b = reference_end_algebra()
    assert global_dimension(b, 6) == 3
    assert dominant_dimension(b, 6) == 3
    assert int(cartan_determinant(b)) == 1
    cm = cartan_matrix(b)
    assert [[int(x) for x in row] for row in cm.rows] == [
        [6, 8, 5, 8, 6],
        [6, 10, 6, 9, 8],
        [4, 6, 4, 6, 5],
        [7, 10, 6, 10, 8],
        [4, 7, 4, 6, 6],
    ]


def test_cluster_tilting_verdict_on_pipeline(translates, count_calls):
    structures = count_calls(endos.EndStructure, "__init__")
    decompositions = count_calls(endos, "decompose")
    presentations = count_calls(endquiver, "end_of_summands")
    builds = count_calls(algebra, "build_algebra")
    verdict = cluster_tilting_verdict(translates, 2, bound=6)
    assert verdict.conclusive
    assert verdict.is_cluster_tilting is True
    assert bool(verdict)
    assert verdict.global_dimension == 3
    assert verdict.ext2_simples_total == 10
    assert verdict.dominant_dimension == 3
    assert verdict.end_dim == 165
    assert verdict.presentation.presented.dim == 165
    # End(M) and the presented B, each computed once, from the known
    # summands: nothing is decomposed, and End(M) is built in summand
    # blocks, with one EndStructure per translate and none over M; B's
    # table comes from the path search, with no sweep
    assert structures["calls"] == 5
    assert decompositions["calls"] == 0
    assert presentations["calls"] == 1
    assert builds["calls"] == 0


@pytest.mark.parametrize(
    "case, message",
    [
        (lambda l2: ([regular_module(l2)], 1), "degree must be at least 2"),
        (lambda l2: ([regular_module(build_algebra(Quiver(["v"], []), []))], 2), "must not be semisimple"),
        (lambda l2: ([Representation(l2, [0], [Matrix.zero(0, 0)])], 2), "summand 0 is zero"),
    ],
    ids=["n=1", "no-arrows", "zero-module"],
)
def test_cluster_tilting_verdict_input_checks(l2, case, message):
    summands, n = case(l2)
    with pytest.raises(ValueError, match=message):
        cluster_tilting_verdict(summands, n)


def test_cluster_tilting_verdict_rejects_an_isolated_vertex():
    q = Quiver(["u", "w", "z"], [("a", "u", "w")])
    a = build_algebra(q, [])
    with pytest.raises(ValueError, match="connected quiver"):
        cluster_tilting_verdict([regular_module(a)], 2)


def test_cluster_tilting_verdict_on_a_connected_two_vertex_quiver(a2, count_calls):
    """Over the path algebra of v1 -> v2 the sum of its three
    indecomposables passes the connectivity check; its Auslander algebra
    has gldim = domdim = 2, so M is not 2-cluster-tilting, and its one
    relation gives its one Ext^2 between simples.  The resolutions of B's
    simples cover the simples only: their syzygies, Ext^2 total included,
    are rows over B's table.  Covering every syzygy that is not
    projective made 22 covers, and covering the projective ones too 25;
    dominant dimension read off one resolution of D(B) takes 12."""
    covers = count_calls(modules, "_cover_data")
    verdict = cluster_tilting_verdict(indec_projectives(a2) + simples(a2)[:1], 2, bound=6)
    assert verdict.conclusive
    assert verdict.is_cluster_tilting is False
    assert verdict.generator_cogenerator
    assert verdict.global_dimension == 2
    assert verdict.ext2_simples_total == 1
    assert verdict.dominant_dimension == 2
    assert covers["calls"] == 12


def test_cluster_tilting_inconclusive_when_presentation_capped(translates):
    with pytest.warns(IncompletePresentationWarning):
        verdict = cluster_tilting_verdict(translates, 2, bound=6, max_length=5)
    assert verdict.presentation.incomplete
    assert verdict.presentation.presented is None
    assert verdict.is_cluster_tilting is None
    assert not verdict.conclusive
    assert verdict.generator_cogenerator
    assert verdict.global_dimension is None
    assert verdict.ext2_simples_total is None
    assert verdict.dominant_dimension is None
    assert verdict.end_dim == 165
    assert verdict.ext_dims == {1: 0}


def test_cluster_tilting_capped_but_not_cogenerator(translates):
    # DA alone is no generator, which settles the verdict without B
    with pytest.warns(IncompletePresentationWarning):
        verdict = cluster_tilting_verdict([translates[0]], 2, bound=6, max_length=1)
    assert verdict.presentation.incomplete
    assert not verdict.generator_cogenerator
    assert verdict.conclusive
    assert verdict.is_cluster_tilting is False


def test_cluster_tilting_inconclusive_at_low_bound(translates):
    verdict = cluster_tilting_verdict(translates, 2, bound=2)
    assert not verdict.conclusive
    assert verdict.is_cluster_tilting is None
    assert not bool(verdict)


def test_cluster_tilting_rejects_bare_regular(two_loop):
    verdict = cluster_tilting_verdict([regular_module(two_loop)], 2, bound=6)
    assert verdict.conclusive
    assert verdict.is_cluster_tilting is False
