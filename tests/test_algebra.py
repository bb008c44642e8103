"""Quotient construction oracles and multiplication invariants."""

import hashlib
import random
import traceback
from collections import Counter
from fractions import Fraction
from itertools import chain
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
    minimize_relations,
    reference_end_algebra,
    reference_end_quiver,
    reference_end_relations,
    two_loop_local_algebra,
    two_loop_quiver,
    two_loop_relations,
)
from quivalg.algebra import _stabilize
from quivalg.linalg import QQ
from quivalg.quiver import Path

from conftest import element, ext2_codimension, truncated_quotients


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
        assert not two_loop.element_vec(rel)


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
        assert (b.basis[v].source, b.basis[v].length) == (v, 0)


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
    ident = {v: QQ(1) for v in range(b.num_vertices)}  # trivial paths head the basis
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


def test_opposite_table_folds_from_the_parent_row(two_loop, m_presentation):
    """The opposite's row k, arrow a, folded as (a * p) * c from the row
    of the parent p of basis[k] = p * c, is a * basis[k] as mult_basis
    multiplies it along the whole path, on A, on B as the path search
    presents it and on the algebra of the paper's eleven relations; and
    the opposite of the opposite is the algebra itself."""
    for a in (two_loop, m_presentation.presented, reference_end_algebra()):
        op = a.opposite
        assert op.opposite is a
        arrow_pos = {p.arrows[0]: i for i, p in enumerate(a.basis) if p.length == 1}
        for k, p in enumerate(a.basis):
            for ai, x in enumerate(a.quiver.arrows):
                want = a.mult_basis(arrow_pos[ai], k) if x.target == p.source else {}
                assert _clean(op._action[k][ai]) == _clean(want)


def test_loop_without_relations_is_infinite_dimensional():
    q = Quiver(["v"], [("x", "v", "v")])
    with pytest.raises(NotFiniteDimensionalError):
        build_algebra(q, [], length_cap=6)


def test_not_finite_error_does_not_keep_the_sweep():
    """The error's traceback holds the frames it passed through; none of
    them still holds the sweep and its stored paths."""
    q = Quiver(["u", "w"], [("a", "u", "w"), ("b", "w", "u")])
    with pytest.raises(NotFiniteDimensionalError) as info:
        build_algebra(q, [], length_cap=8)
    held = [
        v
        for frame, _ in traceback.walk_tb(info.value.__traceback__)
        for v in frame.f_locals.values()
    ]
    assert held
    assert not [v for v in held if isinstance(v, (algebra._Sweep, algebra._Paths))]


def test_malformed_relation_mixed_endpoints():
    q = Quiver(["u", "w"], [("a", "u", "w")])
    e_u = PathAlgElement.from_path(q, q.trivial_path(0))
    a = PathAlgElement.from_path(q, q.arrow_path("a"))
    with pytest.raises(MalformedRelationError):
        build_algebra(q, [e_u + a])


@pytest.mark.parametrize(
    "relation, message",
    [
        (lambda q: "a*b", "relation 0 is not a PathAlgElement"),
        (lambda q: PathAlgElement(q), None),
        (lambda q: element(q, (1, ["a", "b"]), (-1, ["c"])), "relation 0 has a term of length < 2"),
        (lambda q: PathAlgElement.from_path(q, Path(0, (1, 0), 0)), "does not live on this quiver"),
    ],
    ids=["not-an-element", "zero", "short-term", "off-quiver"],
)
def test_validate_relations_input_checks(relation, message):
    """Over u -a-> w -b-> z with c: u -> z, build_algebra rejects a
    relation that is not a path-algebra element, one with a term of
    length < 2 and one whose path does not follow the arrows, and skips
    a zero relation."""
    q = Quiver(["u", "w", "z"], [("a", "u", "w"), ("b", "w", "z"), ("c", "u", "z")])
    if message is not None:
        with pytest.raises(MalformedRelationError, match=message):
            build_algebra(q, [relation(q)])
        return
    b, free = build_algebra(q, [relation(q)]), build_algebra(q, [])
    assert (b.dim, b.basis, b.relations, b._action) == (free.dim, free.basis, free.relations, free._action)


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
        len(q.in_arrows[paths.src[m]]) * len(q.out_arrows[paths.tgt[m]]) for m in eng.basis
    )
    assert len(paths.parent) <= bound
    assert max(paths.level) == 18


def test_normal_form_and_vec_round_trip(two_loop):
    for i in range(two_loop.dim):
        el = PathAlgElement.from_path(two_loop.quiver, two_loop.basis[i])
        vec = two_loop.element_vec(el)
        assert _clean(vec) == _unit(i)


# -- differential oracle: the sweep against plain echelonization --------


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
    assert all(not alg.element_vec(r) for r in rels)
    # the build's own sweep records the same kept set
    assert full.kept_relations == kept


def _zero_free(vec):
    return all(c != 0 for c in vec.values())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_products_store_no_zero_value(case):
    """The sparse axpy stores a column new to its accumulator without a
    zero test, so every table row and every product must stay zero-free,
    on the algebra and on its opposite.  The alternating signs make
    cancellations likely."""
    q, rels, n, _paths = case
    a = build_algebra(q, rels, length_cap=n + 2)
    for alg in (a, a.opposite):
        assert all(_zero_free(row) for rows in alg._action for row in rows)
        signs = {k: QQ((-1) ** k) for k in range(alg.dim)}
        for ai in range(len(alg.quiver.arrows)):
            assert _zero_free(alg.apply_arrow(signs, ai))
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert _zero_free(alg.mult_basis(i, j))
        assert _zero_free(alg.multiply_vec(signs, signs))
        for r in alg.relations:
            assert alg.element_vec(r) == {}
            for p in r.terms:
                assert _zero_free(alg.element_vec(PathAlgElement.from_path(alg.quiver, p)))


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


def _old_verdict(alg, relations):
    """The certificate's verdict by the per-term fold from every basis
    element, with the radical check."""
    return _relations_vanish_per_term(alg, relations) and algebra._radical_dims(alg) is not None


def _new_verdict(alg, relations):
    """The certificate's verdict as _certify reaches it on a table."""
    return algebra._radical_dims(alg) is not None and algebra._ideal_vanishes(alg, relations)


def _attempts_logged(attempts):
    """A stand-in for algebra._certify recording (level, accepted)."""
    certify = algebra._certify

    def logged(eng, relations):
        alg = certify(eng, relations)
        attempts.append((len(eng.paths.level_start) - 2, alg is not None))
        return alg

    return logged


def _checked_certify(attempts):
    """_attempts_logged, asserting at each attempt that _certify agrees
    with the per-term fold plus the radical check on the same table."""
    logged = _attempts_logged(attempts)

    def check(eng, relations):
        alg = logged(eng, relations)
        assert (alg is not None) == _old_verdict(algebra._table_of(eng), relations)
        return alg

    return check


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_relation_check_matches_per_term_fold(case):
    """At every level where the sweep attempts a certificate, _certify
    and the per-term fold plus the radical check agree; so do the two
    relation checks on the certified table, for the relations and for
    each of their terms taken alone (most of which do not vanish)."""
    q, rels, n, _paths = case
    attempts = []
    with mock.patch.object(algebra, "_certify", _checked_certify(attempts)):
        alg = build_algebra(q, rels, length_cap=n + 2)
    assert attempts and attempts[-1][1] is True
    for r in rels:
        for p in r.terms:
            single = [PathAlgElement.from_path(q, p)]
            assert _new_verdict(alg, single) == _old_verdict(alg, single)
    assert _new_verdict(alg, rels) and _old_verdict(alg, rels)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients())
def test_every_relation_vanishes_in_the_built_algebra(case):
    """build_algebra returns only a certified quotient, and the
    certificate folds each relation from its source idempotent; so each
    relation, folded from there, is zero in the algebra built."""
    q, rels, n, _paths = case
    alg = build_algebra(q, rels, length_cap=n + 2)
    assert all(not alg.element_vec(r) for r in rels)
    assert all(not alg.opposite.element_vec(r) for r in alg.opposite.relations)


def test_raw_relations_of_b_vanish_in_the_built_algebra(m_presentation):
    pres = m_presentation
    alg = build_algebra(pres.quiver, pres.relations)
    assert len(alg.relations) == 184 and alg.dim == 165
    assert all(not alg.element_vec(r) for r in alg.relations)


def _mutated(alg, data):
    """A copy of alg's table with one or two composable entries replaced:
    by zero, by a multiple of the old row, or by a random row over the
    paths with the entry's endpoints or over the whole basis.  Entries
    p * a off the basis are preferred: changing the row of a basis path
    fails the unit check."""
    action = [list(rows) for rows in alg._action]
    paths = {(p.source, p.arrows) for p in alg.basis}
    entries = [(k, a) for k, p in enumerate(alg.basis) for a in alg.quiver.out_arrows[p.target]]
    off_basis = [
        (k, a)
        for k, a in entries
        if (alg.basis[k].source, alg.basis[k].arrows + (a.index,)) not in paths
    ]
    entries = off_basis or entries
    coeffs = st.integers(-2, 2).filter(bool)
    for _ in range(data.draw(st.integers(1, 2))):
        k, a = data.draw(st.sampled_from(entries))
        old = action[k][a.index]
        ends = (alg.basis[k].source, a.target)
        pool = [i for i, p in enumerate(alg.basis) if (p.source, p.target) == ends]
        kinds = ["zero", "scaled"] * bool(old) + ["same ends"] * bool(pool) + ["any"]
        kind = data.draw(st.sampled_from(kinds))
        if kind == "zero":
            row = {}
        elif kind == "scaled":
            row = {i: c * data.draw(st.sampled_from([-2, -1, 2])) for i, c in old.items()}
        else:
            pool = pool if kind == "same ends" else range(alg.dim)
            support = data.draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)
            )
            row = {i: data.draw(coeffs) for i in support}
        action[k][a.index] = row
    return _table_algebra(alg.quiver, alg.basis, action)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_quotients(), st.data())
def test_certificate_accepts_no_mutated_table_the_per_term_fold_rejects(case, data):
    """Mutate one or two entries of a certified table: when the check of
    _certify accepts the result, the per-term fold from every basis
    element plus the radical check accepts it too.  Both are asked about
    the relations and about those shorter than the truncation alone; the
    monomials of length N fold many entries from the idempotents, so
    without them a check that only folds relations from the idempotents
    is caught accepting a table the per-term fold rejects."""
    q, rels, n, _paths = case
    alg = build_algebra(q, rels, length_cap=n + 2)
    table = _mutated(alg, data)
    for some in (rels, [r for r in rels if r.max_length() < n]):
        assert _new_verdict(alg, some) and _old_verdict(alg, some)
        if _new_verdict(table, some):
            assert _old_verdict(table, some)


def test_certificate_rejects_an_ambiguity_behind_a_zero_prefix():
    """b: u -> v, c: v -> w, a: w -> z, d: v -> z, with b*c = 0, c*a = d
    and b*d a basis path: (b*c)*a = 0 but b*(c*a) = b*d, so the table is
    not associative.  The relation b*c folds to zero from u, and from
    every basis element ending at u, so only the ambiguity of b, c and a
    can reject; its prefix e_b * c folds to zero while e_b * d does not,
    and a walk that pruned zero prefixes would accept."""
    arrows = [("b", "u", "v"), ("c", "v", "w"), ("a", "w", "z"), ("d", "v", "z")]
    q = Quiver(["u", "v", "w", "z"], arrows)
    basis = [q.trivial_path(v) for v in range(4)]
    basis += [q.path(x) for x in (["b"], ["c"], ["d"], ["a"], ["b", "d"])]
    action = [[{}] * 4 for _ in basis]
    action[0][0], action[1][1], action[1][3], action[2][2] = {4: 1}, {5: 1}, {6: 1}, {7: 1}
    action[4][3] = {8: 1}  # b * d
    action[5][2] = {6: 1}  # c * a = d, off the basis
    table = _table_algebra(q, basis, action)
    rels = [element(q, (1, ["b", "c"]))]
    assert table.apply_arrow({4: 1}, 1) == {}
    assert _old_verdict(table, rels)
    assert algebra._radical_dims(table) is not None
    assert not algebra._ideal_vanishes(table, rels)


def test_certificate_rejects_a_row_leaving_its_source():
    """b: u -> s, c: s -> 1, a: 1 -> 2, f: 2 -> 3, g: v -> 2, h: s -> 3,
    with c*a = g and g*f = h: rows that start at another vertex than
    their basis path.  The relation c*a*f - h folds to zero from s, and
    every ambiguity b * (p*a) with p starting at s resolves, but
    b * (c*a*f - h) folds to -b*h, so the per-term fold rejects.  The
    check for p starting elsewhere, here b * (g*f - h), needs the rows
    to start where their basis paths do."""
    arrows = [("b", "u", "s"), ("c", "s", "1"), ("a", "1", "2")]
    arrows += [("f", "2", "3"), ("g", "v", "2"), ("h", "s", "3")]
    q = Quiver(["u", "s", "v", "1", "2", "3"], arrows)
    basis = [q.trivial_path(v) for v in range(6)]
    basis += [q.path(x) for x in (["b"], ["c"], ["a"], ["f"], ["g"], ["h"])]
    basis += [q.path(x) for x in (["b", "c"], ["b", "h"], ["a", "f"])]
    action = [[{}] * 6 for _ in basis]
    action[0][0], action[1][1], action[1][5] = {6: 1}, {7: 1}, {11: 1}
    action[2][4], action[3][2], action[4][3] = {10: 1}, {8: 1}, {9: 1}
    action[6][1], action[6][5], action[8][3] = {12: 1}, {13: 1}, {14: 1}
    action[7][2] = {10: 1}  # c * a = g
    action[10][3] = {11: 1}  # g * f = h
    table = _table_algebra(q, basis, action)
    rels = [element(q, (1, ["c", "a", "f"]), (-1, ["h"]))]
    assert not table.element_vec(rels[0])
    assert algebra._radical_dims(table) is not None
    assert not _old_verdict(table, rels)
    assert not algebra._ideal_vanishes(table, rels)


def test_ext2_product_sweep_rejects_at_level_9_and_accepts_at_10(m_presentation):
    """The 200 products g*a and a*g of B's 50 kept relations: the first
    certificate attempt passes the radical check and fails the relation
    check, the next one passes; the per-term fold agrees at both."""
    pres = m_presentation
    kept = minimize_relations(pres.quiver, pres.relations, 165)
    assert len(kept) == 50
    attempts, verdicts = [], []
    ideal_vanishes = algebra._ideal_vanishes

    def recorded(alg, relations):
        verdict = ideal_vanishes(alg, relations)
        verdicts.append((verdict, _relations_vanish_per_term(alg, relations)))
        return verdict

    with mock.patch.object(algebra, "_ideal_vanishes", recorded), mock.patch.object(
        algebra, "_certify", _checked_certify(attempts)
    ):
        assert ext2_codimension(pres.quiver, kept, 165) == 10
    assert attempts == [(9, False), (10, True)]
    assert verdicts == [(False, False), (True, True)]


def test_certificate_of_raw_relations_folds_shared_prefixes_once(m_presentation, count_calls):
    """One certificate of the 184 raw relations of B; folding every term
    of every relation separately from every basis element makes 45,871
    apply_arrow calls.  Each relation is folded from its source
    idempotent only."""
    pres = m_presentation
    assert len(pres.relations) == 184
    attempts = []
    folds = count_calls(PresentedAlgebra, "apply_arrow")
    with mock.patch.object(algebra, "_certify", _attempts_logged(attempts)):
        alg = _stabilize(pres.quiver, pres.relations, 20)[1]
    assert attempts == [(9, True)]
    assert alg.dim == 165
    assert folds["calls"] < 3_000


# the reference algebra's basis, table and kept relations, as built from
# the frozen eleven relations
REFERENCE_DIGEST = "32063adb6a4685795b57ff85634bab31f866eedbba5eaa702dbc804dabb3c90a"


def _reference_digest(alg):
    """sha256 of the basis, the table and the kept relations, with every
    scalar written as a reduced fraction."""
    lines = [repr([(p.source, p.arrows, p.target) for p in alg.basis])]
    lines += [
        repr([sorted((i, str(Fraction(c))) for i, c in row.items()) for row in rows])
        for rows in alg._action
    ]
    lines += [
        repr(sorted((p.source, p.arrows, str(Fraction(c))) for p, c in r.terms.items()))
        for r in alg.kept_relations
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_reference_sweep_output_pinned():
    alg = reference_end_algebra()
    assert (alg.dim, alg.loewy_length, len(alg.kept_relations)) == (165, 17, 11)
    assert _reference_digest(alg) == REFERENCE_DIGEST


def test_reference_sweep_work_counters(count_calls):
    """The reference sweep certifies once; its radical layers multiply
    echelon vectors only by arrows that compose, and the compressed
    residues change no row the sweep imposes.  A path whose parent dies
    in its own level gets only the parent's translate row, since a
    second row for it would reduce to zero.  527 paths are ever basis,
    362 of them killed at levels 7 to 9."""
    q = reference_end_quiver()
    rels = reference_end_relations(q)
    attempts, radical = [], {"calls": 0}
    folds = count_calls(PresentedAlgebra, "apply_arrow")
    rows = count_calls(algebra._Sweep, "_row_insert")
    basis = count_calls(algebra._Sweep, "_basis_add")
    radical_dims = algebra._radical_dims

    def counted_radical_dims(alg):
        before = folds["calls"]
        dims = radical_dims(alg)
        radical["calls"] += folds["calls"] - before
        return dims

    with mock.patch.object(algebra, "_certify", _attempts_logged(attempts)), mock.patch.object(
        algebra, "_radical_dims", counted_radical_dims
    ):
        alg = build_algebra(q, rels)
    assert [ok for _level, ok in attempts] == [True]
    assert alg.dim == 165
    assert folds["calls"] <= 2_000
    assert radical["calls"] <= 1_000
    assert rows["calls"] == 2_026
    assert basis["calls"] == 527


def test_pipeline_sweep_work_counters(m_presentation, count_calls):
    """Row inserts and ever-basis paths of the other sweeps: the two-loop
    algebra, B's 184 raw relations and the 50 relations that sweep kept,
    which verify-paper runs, and the 200 Ext^2 products of those 50 that
    the ext2_codimension oracle sweeps.  A pass imposing rows that the
    others already imply shows up here too."""
    pres = m_presentation
    kept = minimize_relations(pres.quiver, pres.relations, 165)
    assert (len(pres.relations), len(kept)) == (184, 50)
    rows = count_calls(algebra._Sweep, "_row_insert")
    basis = count_calls(algebra._Sweep, "_basis_add")
    work = []
    for run in (
        two_loop_local_algebra,
        lambda: _stabilize(pres.quiver, pres.relations, 20),
        lambda: ext2_codimension(pres.quiver, kept, 165),
        lambda: build_dimension_only(pres.quiver, kept),
    ):
        rows["calls"] = basis["calls"] = 0
        run()
        work.append((rows["calls"], basis["calls"]))
    assert work == [(36, 11), (566, 165), (849, 215), (432, 165)]


# basis, table and kept relations of two inputs whose tables are full of
# Fractions, as the sweep over Fractions built them
PLANE_DIGEST = "96515bdc326e78616db284df95847786e010ce970c3ab4f92b6f399ed00264d4"
GRID_DIGEST = "835b16f62cfce315135d55f6c78e70fc2ad39ddb9847a27cd6c9d467b370390a"


def _reference_input():
    q = reference_end_quiver()
    return q, reference_end_relations(q)


SWEEP_INPUTS = {
    "reference": _reference_input,
    "plane": lambda: _quantum_plane(9, 10, Fraction(-3, 7)),
    "grid": lambda: _commutative_grid(4, 4, seed=1),
}


@pytest.mark.parametrize("name, dim, digest", [("plane", 90, PLANE_DIGEST), ("grid", 100, GRID_DIGEST)])
def test_rational_sweep_output_pinned(name, dim, digest):
    alg = build_algebra(*SWEEP_INPUTS[name]())
    assert alg.dim == dim
    assert _reference_digest(alg) == digest


_FRACTION_OPERATORS = [
    name
    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
        "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
        "__pos__", "__neg__", "__abs__", "__trunc__", "__floor__", "__ceil__",
        "__round__", "__hash__", "__eq__", "__lt__", "__gt__", "__le__", "__ge__",
        "__bool__",
    )
    if name in vars(Fraction)
]


@pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
def test_sweep_runs_no_fraction_arithmetic(name, monkeypatch):
    """_stabilize constructs no Fraction and runs no Fraction operator
    outside _table_of and _certify, which turn the integer rows into the
    package's scalars and check them.  The Fraction sweep constructed
    8,842 Fractions on the reference; the certificate still meets the
    Fractions its table holds, so the counting is live."""
    q, rels = SWEEP_INPUTS[name]()
    counts = Counter()
    where = ["sweep"]

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[where[-1], key] += 1
            return fn(*args, **kwargs)

        return call

    def checking(fn):
        def call(*args, **kwargs):
            where.append("certificate")
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()

        return call

    new = vars(Fraction)["__new__"]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("new", new.__func__)))
    for op in _FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, op, counted("op", vars(Fraction)[op]))
    for fn in ("_certify", "_table_of"):
        monkeypatch.setattr(algebra, fn, checking(getattr(algebra, fn)))
    alg = _stabilize(q, rels, 20)[1]
    monkeypatch.undo()
    assert alg.dim == {"reference": 165, "plane": 90, "grid": 100}[name]
    assert (counts["sweep", "new"], counts["sweep", "op"]) == (0, 0)
    assert counts["certificate", "new"] > 0 and counts["certificate", "op"] > 0


def _stored_bits(eng):
    """Bit length of the largest numerator or denominator the sweep
    stores: the classes of its non-basis paths and the residues of its
    killed basis paths."""
    classes = chain(eng.cls.values(), eng.side.values())
    return max(max(abs(x).bit_length() for x in chain(v.values(), [d])) for v, d in classes)


@pytest.mark.parametrize("name, bits", [("reference", 5), ("plane", 45), ("grid", 8)])
def test_sweep_stored_coefficient_bits(name, bits):
    """Pinned bit bound of the integer rows: each class is stored over one
    denominator, with the common factor divided out.  The Fraction sweep
    stored at most 4, 45 and 8 bits on these inputs."""
    eng, _alg = _stabilize(*SWEEP_INPUTS[name](), 20)
    assert _stored_bits(eng) == bits


def _two_loop_input():
    q = two_loop_quiver()
    return q, two_loop_relations(q)


@pytest.mark.parametrize("name", ["two-loop", *sorted(SWEEP_INPUTS)])
def test_sweep_keeps_one_class_per_stored_path(name):
    """Every stored path is either a path that was ever basis or a path
    with a stored class, never both, and only ever-basis paths carry a
    residue."""
    eng, _alg = _stabilize(*{"two-loop": _two_loop_input, **SWEEP_INPUTS}[name](), 20)
    assert eng.basis.keys().isdisjoint(eng.cls)
    assert len(eng.basis) + len(eng.cls) == len(eng.paths.parent)
    assert set(eng.side) <= set(eng.basis)


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
    return PresentedAlgebra(q, basis, action)


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
