"""Quiver presentations of endomorphism algebras."""

import warnings
from fractions import Fraction

import pytest

from quivalg import (
    DimensionMismatchError,
    IncompletePresentationWarning,
    ModuleHom,
    Quiver,
    Representation,
    block_diagonal_rect,
    cluster_tilting_verdict,
    decompose,
    end_as_quiver_algebra,
    end_of_summands,
    ext_dim,
    format_algebra,
    indec_projectives,
    minimize_relations,
    presentation_dimension_check,
    reference_end_algebra,
    reference_end_quiver,
    reference_end_relations,
    regular_module,
    simples,
    build_dimension_only,
    direct_sum,
)
from quivalg import algebra, endos, endquiver, homological
from quivalg.endquiver import path_endomorphism
from quivalg.endos import BlockView, EndStructure
from quivalg.linalg import Matrix, SpanSolver
from quivalg.modules import _Resolution

from conftest import auslander_module, element, ext2_codimension, global_radical_blocks


def test_l2_projective_presentation(l2):
    p = indec_projectives(l2)[0]
    pres = end_as_quiver_algebra(p)
    assert pres.quiver.num_vertices == 1
    assert len(pres.quiver.arrows) == 1
    assert pres.adjacency == [[1]]
    assert not pres.incomplete
    assert pres.presented.dim == 2
    # the single relation is the squared loop
    assert len(pres.relations) == 1
    (rel,) = pres.relations
    terms = rel.sorted_terms()
    assert len(terms) == 1 and terms[0][0].length == 2


def test_a2_regular_presentation_recovers_quiver(a2):
    pres = end_as_quiver_algebra(regular_module(a2))
    assert pres.quiver.num_vertices == 2
    assert len(pres.quiver.arrows) == 1
    assert pres.relations == []
    assert pres.presented.dim == 3


def test_m_presentation_frozen_shape(m_presentation):
    pres = m_presentation
    assert pres.quiver.num_vertices == 5
    assert len(pres.quiver.arrows) == 10
    assert pres.adjacency == [
        [0, 0, 0, 2, 0],
        [1, 0, 0, 0, 2],
        [0, 1, 0, 0, 0],
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
    ]
    assert [x.total_dim for x in pres.summands] == [6, 8, 5, 8, 6]
    assert pres.raw_relation_count == 184
    assert not pres.incomplete
    assert pres.presented.dim == 165


def test_m_presentation_path_dictionary_idempotents(m_presentation):
    """The trivial path at vertex k is the identity of block (k, k) of
    pres.module, the direct sum of the summands, and zero elsewhere."""
    pres = m_presentation
    assert pres.module == direct_sum(pres.summands)
    for k in range(pres.quiver.num_vertices):
        e = path_endomorphism(pres, pres.quiver.trivial_path(k))
        assert (e * e).total_matrix() == e.total_matrix()
        for v, mat in enumerate(e.vertex_maps):
            units = [Matrix.identity(x.dims[v]).scale(int(j == k)) for j, x in enumerate(pres.summands)]
            assert mat == block_diagonal_rect(units)


def test_m_presentation_relations_vanish(m_presentation):
    """Each relation, folded term by term through path_endomorphism,
    is the zero endomorphism of M."""
    pres = m_presentation
    m = pres.module
    for rel in pres.relations:
        h = ModuleHom.zero(m, m)
        for path, coeff in rel.sorted_terms():
            h = h + path_endomorphism(pres, path).scale(coeff)
        assert h.is_zero()


def test_m_presentation_arrows_lie_in_radical(m_presentation):
    """Every arrow is a nonzero endomorphism of pres.module in the span of
    its trace-form radical."""
    e = EndStructure(m_presentation.module)
    rad = SpanSolver(e.dim)
    for row in e.radical_coords.pairs:
        rad.insert(dict(row))
    for a in m_presentation.quiver.arrows:
        h = m_presentation.path_dictionary[m_presentation.quiver.arrow_path(a.label)]
        assert not h.is_zero()
        assert rad.coords(dict(enumerate(e.coords(h)))) is not None


def test_presentation_rejects_paths_short_of_end(l2):
    """End(S + S) over the dual numbers is M_2(Q), of dimension 4 and
    semisimple, so no quiver with one vertex per copy of S presents it:
    the two copies, which decompose finds, are isomorphic, and S + S, not
    basic, is refused before any path is searched."""
    s = simples(l2)[0]
    with pytest.raises(DimensionMismatchError, match="summand 0 is isomorphic to another, summand 1"):
        end_as_quiver_algebra(direct_sum([s, s]))


def _presentation_facts(pres):
    """What a presentation says: its quiver and relations as text, the
    adjacency, the raw and kept relation counts and kept relations, dim End."""
    kept = minimize_relations(pres.quiver, pres.relations, pres.end_dim)
    return (
        format_algebra(pres.quiver, pres.relations),
        pres.adjacency,
        pres.raw_relation_count,
        len(kept),
        format_algebra(pres.quiver, kept),
        pres.end_dim,
    )


def test_end_of_summands_matches_the_whole_module_on_the_translates(translates, m_presentation):
    """From the five translates or from their sum through decompose, End(M)
    gets the same presentation, relations and kept relations included;
    listing the translates in reverse reverses the adjacency."""
    pres = end_of_summands(translates)
    assert _presentation_facts(pres) == _presentation_facts(m_presentation)
    assert (pres.raw_relation_count, len(minimize_relations(pres.quiver, pres.relations, 165))) == (184, 50)
    reversed_adjacency = [row[::-1] for row in pres.adjacency[::-1]]
    assert reversed_adjacency != pres.adjacency
    assert end_of_summands(translates[::-1]).adjacency == reversed_adjacency


@pytest.mark.parametrize("dense", [False, True], ids=["jordan", "dense"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_end_of_summands_matches_the_whole_module_on_auslander_modules(n, dense):
    m = auslander_module(n, dense)
    reps = [s.rep for s in decompose(m)]
    assert _presentation_facts(end_of_summands(reps)) == _presentation_facts(end_as_quiver_algebra(m))


AUSLANDER_CASES = [(n, dense) for n in (4, 5, 6, 7) for dense in (False, True)]


@pytest.mark.parametrize(
    "case",
    ["translates"] + AUSLANDER_CASES,
    ids=["translates"] + ["%d-%s" % (n, "dense" if dense else "jordan") for n, dense in AUSLANDER_CASES],
)
def test_blockwise_radical_is_the_global_radical_cut_into_blocks(translates, m_structure, case):
    """The radical end_of_summands builds block by block, every block off
    the diagonal and rad End(X_u) on it, is the trace-form radical of all
    of End(M) cut into M's summand blocks: on the translates, and on the
    summands decompose finds in the Auslander modules, whose End(X_u) are
    K[x]/(x^k) with nonzero radicals."""
    if case == "translates":
        reps, structure = translates, m_structure
    else:
        reps, structure = [s.rep for s in decompose(auslander_module(*case))], None
    view = BlockView(direct_sum(reps), reps)
    rad, end_dim = endquiver._radical_blocks(view)
    e = structure or EndStructure(view.module)
    assert end_dim == e.dim
    assert rad == global_radical_blocks(view, e)


def test_a_whole_module_is_decomposed_once_and_presented_from_its_summands(count_calls):
    decompositions = count_calls(endos, "decompose")
    presentations = count_calls(endquiver, "end_of_summands")
    structures = count_calls(EndStructure, "__init__")
    pres = end_as_quiver_algebra(auslander_module(5, True))
    assert pres.presented.dim == 55
    assert (decompositions["calls"], presentations["calls"]) == (1, 1)
    # End(m) for decompose, then one End(X) per summand; none over the sum
    assert structures["calls"] == 1 + 5


def _table_facts(alg):
    """What a table algebra is: its basis in order, its table and its
    Loewy length."""
    return alg.basis, alg._action, alg.loewy_length


def test_search_table_is_the_raw_sweep_table(m_presentation):
    """B's table from the path search is the one the sweep of its 184 raw
    relations certifies: the same basis in the same order, the same rows
    and the same Loewy length.  A table with one coordinate changed is
    told apart."""
    pres = m_presentation
    b = pres.presented
    swept = algebra.build_algebra(pres.quiver, pres.relations)
    assert _table_facts(b) == _table_facts(swept)
    assert (b.dim, b.loewy_length) == (165, 17)
    k, i, row = next((k, i, row) for k, rows in enumerate(b._action) for i, row in enumerate(rows) if len(row) > 1)
    mutated = [list(rows) for rows in b._action]
    j = next(iter(row))
    mutated[k][i] = {**row, j: row[j] + 1}
    assert _table_facts(algebra.PresentedAlgebra(b.quiver, b.basis, mutated)) != _table_facts(swept)


@pytest.mark.parametrize("dense", [False, True], ids=["jordan", "dense"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_search_table_is_the_raw_sweep_table_on_auslander_modules(n, dense, count_calls):
    """The same on the Auslander algebras of K[x]/(x^n), whose
    presentation runs no sweep at all."""
    m = auslander_module(n, dense)
    sweeps = count_calls(algebra, "_stabilize")
    pres = end_as_quiver_algebra(m)
    assert sweeps["calls"] == 0
    b = pres.presented
    assert _table_facts(b) == _table_facts(algebra.build_algebra(pres.quiver, pres.relations))
    assert b.dim == n * (n + 1) * (2 * n + 1) // 6


def _zero_module(x):
    return Representation(x.algebra, [0], [Matrix.zero(0, 0) for _ in x.matrices])


@pytest.mark.parametrize(
    "present",
    [end_of_summands, lambda summands: cluster_tilting_verdict(summands, 2)],
    ids=["end_of_summands", "verdict"],
)
@pytest.mark.parametrize(
    "case, error, message",
    [
        (lambda t: [t[1], t[1]], DimensionMismatchError, "summand 0 is isomorphic to another"),
        (lambda t: [direct_sum([t[0], t[2]]), t[1]], DimensionMismatchError, "a summand is decomposable"),
        (lambda t: [t[1], _zero_module(t[1])], ValueError, "summand 1 is zero"),
        (lambda t: [], ValueError, "needs at least one summand"),
    ],
    ids=["isomorphic-pair", "decomposable", "zero-summand", "empty"],
)
def test_end_of_summands_refuses_what_is_not_basic_indecomposables(translates, present, case, error, message):
    """The summands must be pairwise non-isomorphic indecomposables with
    End/rad = K: [tau2(DA), tau2(DA)] has an isomorphic pair, and End(DA
    + tau2^2(DA))/rad has dimension 2.  No summand, or a zero one, is a
    ValueError."""
    with pytest.raises(error, match=message):
        present(case(translates))


def test_minimize_relations_tiny_loop():
    q = Quiver(["v"], [("x", "v", "v")])
    r2 = element(q, (1, ["x", "x"]))
    r3 = element(q, (1, ["x", "x", "x"]))
    kept = minimize_relations(q, [r3, r2], 2, length_cap=10)
    assert kept == [r2]
    with pytest.raises(DimensionMismatchError):
        minimize_relations(q, [r3, r2], 3, length_cap=10)


def test_minimize_relations_keeps_needed():
    q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    rels = [
        element(q, (1, ["x", "x"])),
        element(q, (1, ["y", "y"])),
        element(q, (1, ["x", "y"])),
        element(q, (1, ["y", "x"])),
    ]
    dim = build_dimension_only(q, rels, length_cap=10)
    kept = minimize_relations(q, rels, dim, length_cap=10)
    assert kept == rels  # all four are independent in the monomial case


def test_minimize_relations_unstable_input_unchanged():
    # K<x, y>/(x^2, y^2) is infinite dimensional: (xy)^k never vanishes
    q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    rels = [
        element(q, (1, ["x", "x"])),
        element(q, (1, ["y", "y"])),
        element(q, (1, ["x", "x", "x"])),
    ]
    assert minimize_relations(q, rels, 7, length_cap=6) == rels


def test_minimize_pipeline_relations_in_one_sweep(m_presentation, count_calls):
    pres = m_presentation
    sweeps = count_calls(algebra, "_stabilize")
    kept = minimize_relations(pres.quiver, pres.relations, 165, length_cap=20)
    assert sweeps["calls"] == 1
    assert len(kept) <= 50
    assert presentation_dimension_check(pres.quiver, kept, 165)


@pytest.mark.parametrize("n", [3, 4])
def test_path_search_eliminates_each_product_once(n, monkeypatch):
    """Each seed (idempotent or arrow) and each product of a stored path
    with an arrow is eliminated once: a product either becomes a stored
    path or gives a relation."""
    calls = []

    class CountingSolver(SpanSolver):
        def _eliminate(self, row):
            calls.append(1)
            return super()._eliminate(row)

    monkeypatch.setattr(endquiver, "SpanSolver", CountingSolver)
    pres = end_as_quiver_algebra(auslander_module(n))
    seeds = pres.quiver.num_vertices + len(pres.quiver.arrows)
    products = len(pres.path_dictionary) - seeds + pres.raw_relation_count
    assert pres.presented.dim == n * (n + 1) * (2 * n + 1) // 6
    assert len(calls) == seeds + products


def test_end_presentation_tests_few_entries_for_zero():
    """Matrices keep only their nonzero entries, and a whole entry is an
    int, so computing End of the Auslander module of K[x]/(x^4) and
    presenting it tests no Fraction for zero: 74,471 Fraction.__bool__
    calls when rows were stored dense and every entry was a Fraction."""
    m = auslander_module(4)
    calls = 0
    original = Fraction.__bool__

    def counted(self):
        nonlocal calls
        calls += 1
        return original(self)

    Fraction.__bool__ = counted
    try:
        pres = end_as_quiver_algebra(m)
    finally:
        Fraction.__bool__ = original
    assert pres.presented.dim == 30
    assert calls == 0


def test_path_search_stays_in_block_coordinates(m_module, m_summands, count_calls, monkeypatch):
    """The path search multiplies Peirce blocks, not endomorphisms of M,
    and the path dictionary is built from the blocks on first read."""
    monkeypatch.setattr(endquiver, "decompose", lambda *args, **kwargs: m_summands)
    muls = count_calls(ModuleHom, "__mul__")
    homs = count_calls(BlockView, "hom_from_block_flat")
    pres = end_as_quiver_algebra(m_module)
    assert pres.presented.dim == 165
    assert (muls["calls"], homs["calls"]) == (0, 0)
    assert len(pres.path_dictionary) == 165
    assert (muls["calls"], homs["calls"]) == (0, 165)
    assert pres.path_dictionary is pres.path_dictionary
    assert homs["calls"] == 165


def _ext2_total(a):
    return homological._ext2_total([_Resolution(s) for s in simples(a)])


def test_ext2_simples_total_two_loop(two_loop):
    s = simples(two_loop)[0]
    assert ext_dim(s, s, 2) == 2
    assert _ext2_total(two_loop) == 2
    assert ext2_codimension(two_loop.quiver, two_loop.relations, two_loop.dim) == 2


@pytest.mark.parametrize("length_cap, total", [(3, None), (5, 2)])
def test_ext2_simples_total_is_none_until_the_sweep_stabilizes(two_loop, length_cap, total):
    """KQ/(IJ + JI) for the two-loop relations needs paths of length 5."""
    q = two_loop.quiver
    assert ext2_codimension(q, two_loop.relations, two_loop.dim, length_cap=length_cap) == total


def test_ext2_simples_total_end_algebra(m_presentation):
    """The Ext^2 total read off the simples' resolutions agrees with the
    IJ+JI codimension on B and on the reference presentation."""
    pres = m_presentation
    assert ext2_codimension(pres.quiver, pres.relations, 165) == 10
    assert _ext2_total(pres.presented) == 10
    q = reference_end_quiver()
    assert ext2_codimension(q, reference_end_relations(q), 165) == 10
    assert _ext2_total(reference_end_algebra()) == 10


def test_presentation_dimension_check_reference():
    q = reference_end_quiver()
    rels = reference_end_relations(q)
    assert presentation_dimension_check(q, rels, 165)
    assert not presentation_dimension_check(q, rels, 164)


def test_presentation_dimension_check_infinite():
    q = Quiver(["v"], [("x", "v", "v")])
    assert presentation_dimension_check(q, [], 7, length_cap=6) is None


def test_incomplete_presentation_warns(l2):
    p = indec_projectives(l2)[0]
    with pytest.warns(IncompletePresentationWarning):
        pres = end_as_quiver_algebra(p, max_length=1)
    assert pres.incomplete
    assert pres.presented is None


def test_reference_relation_count_is_eleven():
    q = reference_end_quiver()
    assert len(reference_end_relations(q)) == 11
    assert reference_end_algebra().dim == 165
