"""Quiver presentations of endomorphism algebras."""

import warnings

import pytest

from quivalg import (
    DimensionMismatchError,
    IncompletePresentationWarning,
    Quiver,
    element_endomorphism,
    end_as_quiver_algebra,
    ext2_simples_total,
    ext_dim,
    indec_projectives,
    minimize_relations,
    path_endomorphism,
    presentation_dimension_check,
    reference_end_algebra,
    reference_end_quiver,
    reference_end_relations,
    regular_module,
    simples,
    build_algebra,
    build_dimension_only,
    parse_algebra,
    parse_module,
)
from quivalg import algebra, endquiver
from quivalg.linalg import Matrix, SpanSolver

from conftest import element


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
    assert [s.rep.total_dim for s in pres.vertex_summands] == [6, 8, 5, 8, 6]
    assert pres.raw_relation_count == 184
    assert not pres.incomplete
    assert pres.presented.dim == 165


def test_m_presentation_path_dictionary_idempotents(m_presentation):
    pres = m_presentation
    for v in range(pres.quiver.num_vertices):
        e = path_endomorphism(pres, pres.quiver.trivial_path(v))
        assert (e * e).total_matrix() == e.total_matrix()
        assert e.total_matrix() == pres.vertex_summands[v].idempotent.total_matrix()


def test_m_presentation_relations_vanish(m_presentation):
    pres = m_presentation
    for rel in pres.relations:
        h = element_endomorphism(pres, rel)
        assert h.is_zero()


def test_m_presentation_arrows_lie_in_radical(m_presentation, m_structure):
    # no arrow is invertible on its summand pair and none is an idempotent combo
    for a in m_presentation.quiver.arrows:
        h = m_presentation.path_dictionary[m_presentation.quiver.arrow_path(a.label)]
        assert not h.is_zero()
        assert m_structure.coords(h) is not None


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


def _auslander_module(n):
    """K[x]/(x) + ... + K[x]/(x^n) over K[x]/(x^n), one Jordan block each."""
    a = build_algebra(*parse_algebra("vertices v\narrow x: v -> v\nrelation %s\n" % "*".join(["x"] * n)))
    size = n * (n + 1) // 2
    mat = [[0] * size for _ in range(size)]
    off = 0
    for block in range(1, n + 1):
        for k in range(block - 1):
            mat[off + k][off + k + 1] = 1
        off += block
    text = "vertex v %d\narrow x\n" % size + "\n".join(" ".join(map(str, r)) for r in mat)
    return parse_module(text, algebra=a)


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
    pres = end_as_quiver_algebra(_auslander_module(n))
    seeds = pres.quiver.num_vertices + len(pres.quiver.arrows)
    products = len(pres.path_dictionary) - seeds + pres.raw_relation_count
    assert pres.presented.dim == n * (n + 1) * (2 * n + 1) // 6
    assert len(calls) == seeds + products


def test_ext2_simples_total_two_loop(two_loop):
    s = simples(two_loop)[0]
    assert ext_dim(s, s, 2) == 2
    assert ext2_simples_total(two_loop.quiver, two_loop.relations, two_loop.dim) == 2


def test_ext2_simples_total_end_algebra(m_presentation):
    pres = m_presentation
    assert ext2_simples_total(pres.quiver, pres.relations, 165) == 10
    q = reference_end_quiver()
    assert ext2_simples_total(q, reference_end_relations(q), 165) == 10


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
