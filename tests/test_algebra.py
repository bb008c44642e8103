"""Quotient construction oracles and multiplication invariants."""

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from quivalg import (
    MalformedRelationError,
    NotFiniteDimensionalError,
    PathAlgElement,
    PresentedAlgebra,
    Quiver,
    algebra,
    build_algebra,
    build_dimension_only,
    ext2_simples_total,
    minimize_relations,
    reference_end_algebra,
)
from quivalg.algebra import _stabilize
from quivalg.linalg import QQ
from quivalg.quiver import Path

from conftest import element


def test_two_loop_frozen_dimensions(two_loop):
    assert two_loop.dim == 6
    assert two_loop.num_vertices == 1
    assert two_loop.loewy_length == 4
    # basis leads with the trivial path, then the arrows
    assert two_loop.basis[0].length == 0
    assert {two_loop.basis[1].length, two_loop.basis[2].length} == {1}


def test_two_loop_relations_vanish(two_loop):
    q = two_loop.quiver
    for rel in (
        element(q, (1, ["a", "a"])),
        element(q, (1, ["a", "b"]), (1, ["b", "b"]), (1, ["b", "b", "a"])),
    ):
        assert two_loop.normal_form(rel).is_zero()
        assert not any(two_loop.element_vec(rel).values())


def test_reference_end_algebra_frozen_profile():
    b = reference_end_algebra()
    assert b.dim == 165
    assert b.num_vertices == 5
    assert b.loewy_length == 17
    hist = Counter(p.length for p in b.basis)
    assert dict(hist) == {0: 5, 1: 10, 2: 19, 3: 31, 4: 43, 5: 37, 6: 15, 7: 4, 8: 1}


def test_reference_basis_starts_with_idempotents_then_arrows():
    b = reference_end_algebra()
    assert [p.length for p in b.basis[:5]] == [0] * 5
    assert [p.length for p in b.basis[5:15]] == [1] * 10
    for v in range(5):
        assert b.idempotent_position(v) == v


def test_endpoint_basis_partitions_reference():
    b = reference_end_algebra()
    total = 0
    for u in range(5):
        for v in range(5):
            idxs = b.endpoint_basis(u, v)
            total += len(idxs)
            for i in idxs:
                p = b.basis[i]
                assert (p.source, p.target) == (u, v)
    assert total == b.dim


def _unit(i):
    # basis vectors are sparse {index: coeff} maps
    return {i: QQ(1)}


def _clean(vec):
    return {i: c for i, c in vec.items() if c != 0}


def test_identity_vec_is_unit():
    b = reference_end_algebra()
    ident = b.identity_vec()
    for i in (0, 7, 42, 164):
        assert _clean(b.multiply_vec(ident, _unit(i))) == _unit(i)
        assert _clean(b.multiply_vec(_unit(i), ident)) == _unit(i)


def test_associativity_sampled_on_reference():
    b = reference_end_algebra()
    rng = random.Random(0)
    for _ in range(24):
        i, j, k = (rng.randrange(b.dim) for _ in range(3))
        left = b.multiply_vec(b.mult_basis(i, j), _unit(k))
        right = b.multiply_vec(_unit(i), b.mult_basis(j, k))
        assert _clean(left) == _clean(right)


def test_apply_arrow_matches_mult_basis(two_loop):
    nv = two_loop.num_vertices
    for ai, _ in enumerate(two_loop.quiver.arrows):
        for i in range(two_loop.dim):
            stepped = two_loop.apply_arrow(_unit(i), ai)
            assert _clean(stepped) == _clean(two_loop.mult_basis(i, nv + ai))


def test_opposite_is_involution(two_loop):
    op = two_loop.opposite
    assert op.dim == two_loop.dim
    assert op.opposite is two_loop
    reversed_basis = [Path(p.target, tuple(reversed(p.arrows)), p.source) for p in two_loop.basis]
    assert [p.sort_key() for p in op.basis] == [p.sort_key() for p in reversed_basis]


def test_loop_without_relations_is_infinite_dimensional():
    q = Quiver(["v"], [("x", "v", "v")])
    with pytest.raises(NotFiniteDimensionalError):
        build_algebra(q, [], length_cap=6)


def test_malformed_relation_mixed_endpoints():
    q = Quiver(["u", "w"], [("a", "u", "w")])
    e_u = PathAlgElement.from_path(q, q.trivial_path(0))
    a = PathAlgElement.from_path(q, q.arrow_path("a"))
    with pytest.raises(MalformedRelationError):
        build_algebra(q, [e_u + a])


def test_build_dimension_only_matches(two_loop):
    q = two_loop.quiver
    rels = list(two_loop.relations)
    assert build_dimension_only(q, rels, length_cap=20) == 6


def test_path_store_holds_only_paths_with_basis_middle():
    """On the 90-dimensional quantum plane the store stays within vertices +
    arrows + indeg * outdeg summed over every path that was ever basis;
    all 524,287 paths up to the last swept length would not."""
    q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    rels = [
        element(q, (1, ["x"] * 9)),
        element(q, (1, ["y"] * 10)),
        element(q, (1, ["y", "x"]), (Fraction(-2, 3), ["x", "y"])),
    ]
    eng, acc = _stabilize(q, rels, 20)
    assert acc.dim == 90
    paths = eng.paths
    bound = q.num_vertices + len(q.arrows) + sum(
        len(q.in_arrows[paths.src[m]]) * len(q.out_arrows[paths.tgt[m]]) for m in eng.pid_of
    )
    assert len(paths.parent) <= bound
    assert max(paths.level) == 18


def test_normal_form_and_vec_round_trip(two_loop):
    for i in range(two_loop.dim):
        el = two_loop.basis_element(i)
        vec = two_loop.element_vec(el)
        assert _clean(vec) == _unit(i)
        assert two_loop.vec_to_element(vec) == el


# -- differential oracle: the sweep against plain echelonization --------


def _paths_by_length(q, n):
    """paths[k] lists every path of length k, for k = 0..n."""
    paths = [[q.trivial_path(v) for v in range(q.num_vertices)]]
    for _ in range(n):
        paths.append(
            [
                Path(p.source, p.arrows + (a.index,), a.target)
                for p in paths[-1]
                for a in q.out_arrows[p.target]
            ]
        )
    return paths


@st.composite
def truncated_quotients(draw):
    """A small quiver, its truncation length N, and relations with J^N in I.

    Random vertex-homogeneous relations have terms of length 2..N-1; every
    path of length N is added as a monomial relation.
    """
    nv = draw(st.integers(1, 2))
    vertex = st.integers(0, nv - 1).map(lambda v: f"v{v}")
    arrows = [(f"a{i}", draw(vertex), draw(vertex)) for i in range(draw(st.integers(1, 3)))]
    q = Quiver([f"v{v}" for v in range(nv)], arrows)
    n = draw(st.integers(2, 4))
    paths = _paths_by_length(q, n)
    by_ends = {}
    for k in range(2, n):
        for p in paths[k]:
            by_ends.setdefault((p.source, p.target), []).append(p)
    coeffs = st.integers(-3, 3).filter(bool)
    rels = []
    for _ in range(draw(st.integers(0, 3)) if by_ends else 0):
        ends = draw(st.sampled_from(sorted(by_ends)))
        terms = draw(st.lists(st.sampled_from(by_ends[ends]), min_size=1, max_size=3, unique=True))
        rels.append(PathAlgElement(q, {p: draw(coeffs) for p in terms}))
    rels += [PathAlgElement.from_path(q, p) for p in paths[n]]
    return q, rels, n, paths


def _truncated_basis(rels, n, paths):
    """Paths of length < N that lead no row of span{u*r*v} mod J^N.

    Rows are echelonized with the largest path in length-lex order as the
    lead, the order the sweep picks its basis by.
    """
    short = [p for k in range(n) for p in paths[k]]
    echelon = {}
    for r in rels:
        for u in short:
            for v in short:
                row = {}
                for p, c in r.terms.items():
                    if u.target != p.source or p.target != v.source:
                        continue
                    if u.length + p.length + v.length < n:
                        w = Path(u.source, u.arrows + p.arrows + v.arrows, v.target)
                        row[w] = row.get(w, 0) + Fraction(c)
                row = {w: c for w, c in row.items() if c}
                while row:
                    lead = max(row, key=Path.sort_key)
                    piv = echelon.get(lead)
                    if piv is None:
                        echelon[lead] = row
                        break
                    f = row[lead] / piv[lead]
                    for w, c in piv.items():
                        row[w] = row.get(w, 0) - f * c
                    row = {w: c for w, c in row.items() if c}
    return {p for p in short if p not in echelon}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_sweep_matches_truncated_echelon_oracle(case):
    q, rels, n, paths = case
    expected = _truncated_basis(rels, n, paths)
    alg = build_algebra(q, rels, length_cap=n + 2)
    assert set(alg.basis) == expected
    assert alg.dim == len(expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_minimize_relations_keeps_ordered_subset_of_same_ideal(case):
    q, rels, n, _paths = case
    full = build_algebra(q, rels, length_cap=n + 2)
    kept = minimize_relations(q, rels, full.dim, length_cap=n + 2)
    remaining = iter(rels)
    assert all(any(k is r for r in remaining) for k in kept)
    alg = build_algebra(q, kept, length_cap=n + 2)
    assert alg.basis == full.basis
    # every dropped relation lies in the ideal of the kept ones
    assert all(alg.normal_form(r).is_zero() for r in rels)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_opposite_table_is_left_multiplication(case):
    """Row k, arrow a of the opposite's table is a * basis[k] in A, with
    the arrow read at its own basis position (arrows are ordered by
    source vertex first, not by index)."""
    q, rels, n, _paths = case
    a = build_algebra(q, rels, length_cap=n + 2)
    pos = {p.arrows[0]: i for i, p in enumerate(a.basis) if p.length == 1}
    op = a.opposite
    for ai in range(len(q.arrows)):
        for k in range(a.dim):
            assert _clean(op.apply_arrow(_unit(k), ai)) == _clean(a.mult_basis(pos[ai], k))


# -- the certificate's relation check against a per-term fold ----------


def _relations_vanish_per_term(alg, relations):
    """Reference relation check: every term of every relation folded on
    its own from every basis element ending at the relation's source."""
    for r in relations:
        source = r.uniform_endpoints()[0]
        for u in range(alg.num_vertices):
            for k in alg.endpoint_basis(u, source):
                out = {}
                for p, c in r.terms.items():
                    vec = {k: QQ(1)}
                    for ai in p.arrows:
                        if not vec:
                            break
                        vec = alg.apply_arrow(vec, ai)
                    for i, x in vec.items():
                        out[i] = out.get(i, 0) + c * x
                if any(out.values()):
                    return False
    return True


def _checked_relations_vanish(verdicts):
    """A stand-in for algebra._relations_vanish that asserts agreement
    with the per-term fold and records each verdict."""
    tree_check = algebra._relations_vanish

    def check(alg, relations):
        verdict = tree_check(alg, relations)
        assert verdict == _relations_vanish_per_term(alg, relations)
        verdicts.append(verdict)
        return verdict

    return check


def _attempts_logged(attempts):
    """A stand-in for algebra._certify recording (level, accepted)."""
    certify = algebra._certify

    def logged(eng, relations):
        alg = certify(eng, relations)
        attempts.append((len(eng.paths.level_start) - 2, alg is not None))
        return alg

    return logged


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_relation_check_matches_per_term_fold(case):
    """At every level where the sweep attempts a certificate, the prefix
    tree check and the per-term fold agree, on the relations and on each
    of their terms taken alone (most of which do not vanish)."""
    q, rels, n, _paths = case
    verdicts = []
    with mock.patch.object(algebra, "_relations_vanish", _checked_relations_vanish(verdicts)):
        alg = build_algebra(q, rels, length_cap=n + 2)
    assert verdicts and verdicts[-1] is True
    check = _checked_relations_vanish(verdicts)
    for r in rels:
        for p in r.terms:
            check(alg, [PathAlgElement.from_path(q, p)])
    assert check(alg, rels)


def test_ext2_product_sweep_rejects_at_level_9_and_accepts_at_10(m_presentation):
    """The 200 products g*a and a*g of B's 50 kept relations: the first
    certificate attempt fails the relation check, the next one passes."""
    pres = m_presentation
    kept = minimize_relations(pres.quiver, pres.relations, 165)
    assert len(kept) == 50
    verdicts, attempts = [], []
    with mock.patch.object(
        algebra, "_relations_vanish", _checked_relations_vanish(verdicts)
    ), mock.patch.object(algebra, "_certify", _attempts_logged(attempts)):
        assert ext2_simples_total(pres.quiver, kept, 165) == 10
    assert attempts == [(9, False), (10, True)]
    assert verdicts == [False, True]


def test_certificate_of_raw_relations_folds_shared_prefixes_once(m_presentation, count_calls):
    """One certificate of the 184 raw relations of B; folding every term
    of every relation separately makes 45,871 apply_arrow calls."""
    pres = m_presentation
    assert len(pres.relations) == 184
    attempts = []
    folds = count_calls(PresentedAlgebra, "apply_arrow")
    with mock.patch.object(algebra, "_certify", _attempts_logged(attempts)):
        alg = _stabilize(pres.quiver, pres.relations, 20)[1]
    assert attempts == [(9, True)]
    assert alg.dim == 165
    assert folds["calls"] < 20_000


# -- the certificate's radical layers against multiplying every vector ----


def _radical_dims_by_products(alg):
    """Reference radical span iteration: every echelon vector of J^k
    times every arrow, echelonized into J^(k+1); the dimensions of the
    nonzero powers, or None when J^(dim+2) is still nonzero."""
    echelon = {}

    def span_insert(vec):
        while vec:
            lead = max(vec)
            piv = echelon.get(lead)
            if piv is None:
                vec = {p: x / vec[lead] for p, x in vec.items()}
                echelon[lead] = vec
                return vec
            f = vec[lead]
            for p, x in piv.items():
                vec[p] = vec.get(p, 0) - f * x
            vec = {p: x for p, x in vec.items() if x}
        return None

    current = [{k: QQ(1)} for k, p in enumerate(alg.basis) if p.length > 0]
    dims = []
    while current:
        if len(dims) > alg.dim:
            return None
        dims.append(len(current))
        echelon.clear()
        nxt = []
        for vec in current:
            for ai in range(len(alg.quiver.arrows)):
                out = alg.apply_arrow(vec, ai)
                if out:
                    stored = span_insert(dict(out))
                    if stored is not None:
                        nxt.append(stored)
        current = nxt
    return dims


def _checked_radical_dims(log):
    """A stand-in for algebra._radical_dims that asserts agreement with
    the reference iteration and records each result."""
    layered = algebra._radical_dims

    def check(alg):
        dims = layered(alg)
        assert dims == _radical_dims_by_products(alg)
        log.append(dims)
        return dims

    return check


def _built_with_checked_radical_dims(q, rels, length_cap=20):
    log = []
    with mock.patch.object(algebra, "_radical_dims", _checked_radical_dims(log)):
        alg = build_algebra(q, rels, length_cap=length_cap)
    assert log and log[-1] is not None
    assert alg.loewy_length == len(log[-1]) + 1
    return alg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_radical_dims_match_reference_iteration(case):
    q, rels, n, _paths = case
    alg = _built_with_checked_radical_dims(q, rels, length_cap=n + 2)
    assert alg.loewy_length <= n


def test_radical_dims_match_reference_on_b_kept_relations(m_presentation):
    pres = m_presentation
    kept = minimize_relations(pres.quiver, pres.relations, 165)
    assert len(kept) == 50
    alg = _built_with_checked_radical_dims(pres.quiver, kept)
    assert alg.dim == 165
    assert alg.loewy_length == 17


@pytest.mark.parametrize("lam, mu", [(1, 1), (Fraction(-2, 3), 5), (2, -1), (3, 0)])
def test_radical_dims_match_reference_on_two_loop_family(lam, mu):
    """a^2 and ab + lam*b^2 + mu*b^2*a, a relation of mixed length when
    mu is nonzero; (1, 1) is the two-loop algebra."""
    q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
    terms = [(1, ["a", "b"]), (lam, ["b", "b"]), (mu, ["b", "b", "a"])]
    rels = [element(q, (1, ["a", "a"])), element(q, *[t for t in terms if t[0]])]
    alg = _built_with_checked_radical_dims(q, rels)
    assert (alg.dim, alg.loewy_length) == (6, 4)


def _table_algebra(q, basis, action):
    """A PresentedAlgebra carrying a hand-made table."""
    alg = PresentedAlgebra()
    alg.quiver = q
    alg._set_basis(basis)
    alg._action = action
    return alg


def test_radical_dims_reject_idempotent_loop():
    """x * x = x: the table passes the unit check, but J is not nilpotent."""
    q = Quiver(["v"], [("x", "v", "v")])
    basis = [q.trivial_path(0), q.path(["x"])]
    alg = _table_algebra(q, basis, [[{1: QQ(1)}], [{1: QQ(1)}]])
    assert algebra._radical_dims(alg) is None
    assert _radical_dims_by_products(alg) is None


def test_radical_dims_reject_basis_path_off_its_parent_row():
    """x * x = 2 xx: nilpotent, but the basis path xx is not the unit row
    of its parent times its last arrow, so the layers cannot be read off
    the basis paths."""
    q = Quiver(["v"], [("x", "v", "v")])
    basis = [q.trivial_path(0), q.path(["x"]), q.path(["x", "x"])]
    alg = _table_algebra(q, basis, [[{1: QQ(1)}], [{2: QQ(2)}], [{}]])
    assert _radical_dims_by_products(alg) == [2, 1]
    assert algebra._radical_dims(alg) is None


def _quantum_plane(p, r, scalar):
    q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    return q, [
        element(q, (1, ["x"] * p)),
        element(q, (1, ["y"] * r)),
        element(q, (1, ["y", "x"]), (-scalar, ["x", "y"])),
    ]


def _commutative_grid(m, n, seed):
    """The m-by-n grid quiver with every square commuting up to a seeded
    nonzero scalar: the tensor product of two linearly oriented A_m, A_n."""
    rng = random.Random(seed)

    def name(i, j):
        return f"g{i}_{j}"

    arrows = [(f"h{i}_{j}", name(i, j), name(i + 1, j)) for i in range(m - 1) for j in range(n)]
    arrows += [(f"w{i}_{j}", name(i, j), name(i, j + 1)) for i in range(m) for j in range(n - 1)]
    q = Quiver([name(i, j) for i in range(m) for j in range(n)], arrows)
    rels = [
        element(
            q,
            (1, [f"h{i}_{j}", f"w{i + 1}_{j}"]),
            (-Fraction(rng.randint(2, 9), rng.randint(2, 9)), [f"w{i}_{j}", f"h{i}_{j + 1}"]),
        )
        for i in range(m - 1)
        for j in range(n - 1)
    ]
    return q, rels


@pytest.mark.parametrize("p, r", [(9, 9), (9, 10)])
def test_quantum_plane_loewy_length(p, r):
    """K<x,y>/(x^p, y^r, yx - q xy) has dimension p*r and Loewy length
    p + r - 1: the top monomial x^(p-1) y^(r-1) has length p + r - 2."""
    alg = build_algebra(*_quantum_plane(p, r, Fraction(-3, 7)))
    assert (alg.dim, alg.loewy_length) == (p * r, p + r - 1)


@pytest.mark.parametrize("m, n", [(5, 6), (6, 6)])
def test_commutative_grid_loewy_length(m, n):
    """The m-by-n commuting grid has dimension C(m+1, 2) * C(n+1, 2) and
    Loewy length m + n - 1, one more than its longest path."""
    alg = build_algebra(*_commutative_grid(m, n, seed=1))
    assert alg.dim == (m * (m + 1) // 2) * (n * (n + 1) // 2)
    assert alg.loewy_length == m + n - 1


def test_grid_certificate_reads_layers_off_basis_paths(count_calls):
    """build_algebra of the 6-by-6 grid: multiplying every echelon vector
    of every J^k by all 60 arrows made 89,200 apply_arrow calls.  The
    table is read only along the arrows leaving each basis path."""
    q, rels = _commutative_grid(6, 6, seed=1)
    attempts = []
    folds = count_calls(PresentedAlgebra, "apply_arrow")
    rows = count_calls(algebra._Sweep, "action_row")
    with mock.patch.object(algebra, "_certify", _attempts_logged(attempts)):
        alg = build_algebra(q, rels)
    assert [ok for _level, ok in attempts] == [True]
    assert alg.dim == 441
    assert folds["calls"] < 5_000
    assert rows["calls"] == sum(len(q.out_arrows[p.target]) for p in alg.basis)
