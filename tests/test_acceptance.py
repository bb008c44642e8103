"""Acceptance gate.

Each test covers one numbered criterion, is timed fresh against its
stated budget where one exists, and prints a single verdict line.
Shared fixtures are deliberately not used inside timed sections: every
timed criterion pays for its own construction.
"""

import random
import time

from quivalg import (
    ExceedsBound,
    ModuleHom,
    PathAlgElement,
    Quiver,
    ar_translate,
    build_algebra,
    cartan_determinant,
    decompose,
    direct_sum,
    dominant_dimension,
    dual,
    end_as_quiver_algebra,
    ext_dim,
    global_dimension,
    hom_basis,
    indec_projectives,
    is_isomorphic,
    is_projective,
    is_selfinjective,
    minimize_relations,
    presentation_dimension_check,
    reference_end_quiver,
    reference_end_relations,
    regular_module,
    simples,
    syzygy,
    tau2,
    two_loop_local_algebra,
)
from quivalg.endos import EndStructure
from quivalg.endquiver import path_endomorphism
from quivalg.linalg import QQ

from conftest import element


# Collected by the terminal-summary hook in conftest so the verdict
# lines survive output capture.
CRITERION_LINES = []


def _report(number, ok, detail, elapsed=None, budget=None):
    stamp = "" if elapsed is None else f" [{elapsed:.2f}s / {budget:.0f}s]"
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}{stamp}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def _pipeline(a):
    da = dual(regular_module(a.opposite))
    translates = [da]
    for _ in range(4):
        translates.append(tau2(translates[-1]))
    return da, translates, direct_sum(translates)


def test_criterion_1_base_algebra():
    t0 = time.perf_counter()
    a = two_loop_local_algebra()
    ok = a.dim == 6 and not is_selfinjective(a)
    elapsed = time.perf_counter() - t0
    _report(1, ok, f"dim A = {a.dim}, selfinjective = {is_selfinjective(a)}", elapsed, 1.0)


def test_criterion_2_fourth_translate_projective():
    t0 = time.perf_counter()
    a = two_loop_local_algebra()
    _, translates, _ = _pipeline(a)
    u4 = translates[4]
    witness = is_isomorphic(u4, regular_module(a))
    ok = is_projective(u4) and bool(witness) and witness.is_isomorphism()
    elapsed = time.perf_counter() - t0
    _report(2, ok, f"tau2^4(DA) projective with iso witness, dim {u4.total_dim}", elapsed, 30.0)


# reference labeled adjacency, 1-based vertex names
_REFERENCE_EDGES = {
    (1, 2): 1,
    (1, 4): 1,
    (2, 3): 1,
    (2, 5): 1,
    (3, 4): 1,
    (4, 1): 2,
    (4, 5): 1,
    (5, 2): 2,
}


def test_criterion_3_decomposition_and_quiver_shape():
    t0 = time.perf_counter()
    a = two_loop_local_algebra()
    _, _, m = _pipeline(a)
    summands = decompose(m)
    pres = end_as_quiver_algebra(m)
    n = pres.quiver.num_vertices
    # documented ordering: computed vertex k is the k-th translate
    # starting from the dual regular module; the reference labels count
    # from the other end, so computed k maps to label n - k
    edges = {}
    for u in range(n):
        for v in range(n):
            c = pres.adjacency[u][v]
            if c:
                edges[(n - u, n - v)] = c
    ok = (
        len(summands) == 5
        and n == 5
        and len(pres.quiver.arrows) == 10
        and edges == _REFERENCE_EDGES
    )
    elapsed = time.perf_counter() - t0
    _report(
        3,
        ok,
        f"{len(summands)} summands, {n} vertices, {len(pres.quiver.arrows)} arrows, labeled adjacency matches",
        elapsed,
        300.0,
    )


def test_criterion_4_end_dimension_two_ways():
    a = two_loop_local_algebra()
    _, _, m = _pipeline(a)
    via_hom = len(hom_basis(m, m))
    pres = end_as_quiver_algebra(m)
    via_presentation = pres.presented.dim
    ok = via_hom == via_presentation == 165
    _report(4, ok, f"hom solve {via_hom}, presented {via_presentation}")


def test_criterion_5_global_and_dominant_dimension():
    t0 = time.perf_counter()
    a = two_loop_local_algebra()
    _, _, m = _pipeline(a)
    b = end_as_quiver_algebra(m).presented
    gl = global_dimension(b, 6)
    dom = dominant_dimension(b, 6)
    ok = gl == 3 and dom == 3
    elapsed = time.perf_counter() - t0
    _report(5, ok, f"gldim B = {gl}, domdim B = {dom} at bound 6", elapsed, 600.0)


def test_criterion_6_cartan_determinant():
    a = two_loop_local_algebra()
    b = end_as_quiver_algebra(_pipeline(a)[2]).presented
    det = cartan_determinant(b)
    ok = det == 1
    _report(6, ok, f"Cartan determinant of B = {det}")


def test_criterion_7_eleven_relation_presentation():
    q = reference_end_quiver()
    rels = reference_end_relations(q)
    built = build_algebra(q, rels, length_cap=20)
    ok = len(rels) == 11 and built.dim == 165
    _report(7, ok, f"{len(rels)} relations build to dimension {built.dim}")


def test_criterion_8_minimize_relations():
    a = two_loop_local_algebra()
    _, _, m = _pipeline(a)
    pres = end_as_quiver_algebra(m)
    raw = pres.raw_relation_count
    kept = minimize_relations(pres.quiver, pres.relations, 165, length_cap=20)
    preserved = presentation_dimension_check(pres.quiver, kept, 165, length_cap=20)
    ok = len(kept) < raw and preserved
    _report(8, ok, f"raw {raw} relations reduced to {len(kept)}, dimension preserved")


def test_criterion_9_ext_vanishing():
    a = two_loop_local_algebra()
    da, _, m = _pipeline(a)
    e_da = ext_dim(da, regular_module(a), 1)
    e_m = ext_dim(m, m, 1)
    ok = e_da == 0 and e_m == 0
    _report(9, ok, f"Ext1(DA, A) = {e_da}, Ext1(M, M) = {e_m}")


def test_criterion_10_oracle_suites():
    t0 = time.perf_counter()
    q = Quiver(["v"], [("x", "v", "v")])
    l2 = build_algebra(q, [element(q, (1, ["x", "x"]))])
    s = simples(l2)[0]
    ok_l2 = (
        bool(is_isomorphic(syzygy(s, 1), s))
        and bool(is_isomorphic(ar_translate(s), s))
        and ext_dim(s, s, 1) == 1
        and int(cartan_determinant(l2)) == 2
        and is_selfinjective(l2)
        and global_dimension(l2, 5) == ExceedsBound(5)
    )
    l2_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    q2 = Quiver(["v1", "v2"], [("a", "v1", "v2")])
    a2 = build_algebra(q2, [])
    ok_a2 = (
        global_dimension(a2, 6) == 1
        and dominant_dimension(a2, 6) == 1
        and int(cartan_determinant(a2)) == 1
    )
    a2_elapsed = time.perf_counter() - t0
    ok = ok_l2 and ok_a2
    _report(
        10,
        ok,
        f"dual numbers suite {l2_elapsed:.2f}s, A2 suite {a2_elapsed:.2f}s",
    )
    assert l2_elapsed < 1.0 and a2_elapsed < 1.0


def test_criterion_11_invariant_suites():
    a = two_loop_local_algebra()
    _, _, m = _pipeline(a)
    summands = decompose(m)
    ident = ModuleHom.identity(m)

    total = None
    orthogonal = True
    for i, si in enumerate(summands):
        e = si.idempotent
        if (e * e).total_matrix() != e.total_matrix():
            orthogonal = False
        total = e if total is None else total + e
        for j, sj in enumerate(summands):
            if i != j and not (si.idempotent * sj.idempotent).is_zero():
                orthogonal = False
    complete = total.total_matrix() == ident.total_matrix()

    squares = all(h.is_valid() for h in hom_basis(m, m))

    pres = end_as_quiver_algebra(m)
    zero = ModuleHom.zero(m, m)
    relations_vanish = all(
        sum((path_endomorphism(pres, p).scale(c) for p, c in rel.sorted_terms()), zero).is_zero()
        for rel in pres.relations
    )

    def clean(vec):
        return {p: c for p, c in vec.items() if c != 0}

    def associative(alg, triples):
        for i, j, k in triples:
            left = alg.multiply_vec(alg.mult_basis(i, j), {k: QQ(1)})
            right = alg.multiply_vec({i: QQ(1)}, alg.mult_basis(j, k))
            if clean(left) != clean(right):
                return False
        return True

    rng = random.Random(0)
    b = pres.presented
    sampled = [tuple(rng.randrange(b.dim) for _ in range(3)) for _ in range(24)]
    q_small = Quiver(["v"], [("x", "v", "v")])
    small = build_algebra(q_small, [element(q_small, (1, ["x", "x"]))])
    exhaustive = [
        (i, j, k)
        for i in range(small.dim)
        for j in range(small.dim)
        for k in range(small.dim)
    ]
    assoc = associative(b, sampled) and associative(small, exhaustive)

    ok = orthogonal and complete and squares and relations_vanish and assoc
    _report(
        11,
        ok,
        "idempotents orthogonal and complete, hom squares commute, "
        "relations vanish on the module, multiplication associative",
    )
