"""Shared fixtures and hypothesis strategies.

Small oracle algebras are cheap and rebuilt per session anyway; the
translate pipeline over the two-loop algebra is shared session-wide so
its cost is paid once.  truncated_quotients draws small random algebras
for the property tests of the quotient engine and the module layer, and
ext2_codimension is the sweep-side oracle for the Ext^2 total.
"""

import sys

import pytest
from hypothesis import strategies as st

from quivalg import (
    Matrix,
    NotFiniteDimensionalError,
    Quiver,
    Representation,
    build_algebra,
    build_dimension_only,
    decompose,
    direct_sum,
    dual,
    end_as_quiver_algebra,
    invert,
    parse_algebra,
    regular_module,
    tau2,
    two_loop_local_algebra,
)
from quivalg.algebra import _validate_relations
from quivalg.endos import EndStructure
from quivalg.linalg import row_space_basis
from quivalg.modules import ModuleHom, _hom_from_generators, _projective_sum
from quivalg.quiver import Path, PathAlgElement


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Criterion verdict lines are printed inside captured stdout; echo
    # them here so they show up in a plain -v run too.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) counts the calls of owner.name during a test.

    A function is rebound in every quivalg namespace that imported it, so
    calls made inside the package are counted too; a method is rebound on
    its class.  Returns a dict whose "calls" entry counts the calls.
    """

    def install(owner, name):
        orig = getattr(owner, name)
        counter = {"calls": 0}

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return orig(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, counted)
        else:
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] == "quivalg" and vars(mod).get(name) is orig:
                    monkeypatch.setattr(mod, name, counted)
        return counter

    return install


def resolution_differential(res, k):
    """The differential P_(k+1) -> P_k of a modules._Resolution, as a hom
    between the projective sums as modules: each generator goes to its
    generator row, moved from table columns to vertex coordinates, and
    folds through the matrices of P_k, not the table."""
    a = res.algebra
    lo, hi = res.vertices(k), res.vertices(k + 1)
    target = _projective_sum(a, lo)
    images = []
    for v_t, row in zip(hi, res.generator_rows(k)):
        cols = [s * a.dim + pos for s, v in enumerate(lo) for pos in a.endpoint_basis(v, v_t)]
        at = {c: i for i, c in enumerate(cols)}
        images.append([(at[c], x) for c, x in row])
    return ModuleHom(_projective_sum(a, hi), target, _hom_from_generators(a, hi, target, images))


def resolution_cover(res):
    """The epi P_0 -> m of a modules._Resolution of m, as a hom."""
    return ModuleHom(_projective_sum(res.algebra, res.vertices(0)), res.module, res.cover())


def element(quiver, *terms):
    """Sum of (coeff, [labels]) pairs as a path algebra element."""
    out = None
    for coeff, labels in terms:
        part = PathAlgElement.from_path(quiver, quiver.path(list(labels)), coeff)
        out = part if out is None else out + part
    return out


def summand_rows(view, bu, mats):
    """The rows of summands[bu] in matrices of an endomorphism of
    view.module: the hom from that summand into the module."""
    return [
        Matrix._from_pairs(d, mat.ncols, mat.pairs[offs[bu] : offs[bu] + d])
        for mat, offs, d in zip(mats, view.offsets, view.summands[bu].dims)
    ]


def global_radical_blocks(view, structure=None):
    """The trace-form radical of End(view.module), from structure or a
    fresh EndStructure, cut into view's summand blocks: the canonical span
    (row_space_basis) of each nonzero block.  view.module is the direct
    sum of view's summands, so its coordinates are block coordinates and
    nothing is conjugated.  The oracle for end_of_summands' blockwise
    radical."""
    structure = structure or EndStructure(view.module)
    rows = {}
    for h in structure.radical_homs():
        for bu in range(len(view.summands)):
            for key, flat in view.block_flats(bu, summand_rows(view, bu, h.vertex_maps)).items():
                rows.setdefault(key, []).append(flat)
    return {
        key: row_space_basis(Matrix._from_pairs(len(flats), view._block_width(*key), flats))
        for key, flats in rows.items()
    }


def auslander_module(n, dense=False):
    """K[x]/(x) + ... + K[x]/(x^n) over K[x]/(x^n), x in Jordan form or,
    dense, conjugated by I + N, where N sends each odd basis vector i to
    the vector 3i + 1 mod the size when that is even: N^2 = 0, so the
    matrix keeps integer entries while it fills in."""
    a = build_algebra(*parse_algebra("vertices v\narrow x: v -> v\nrelation %s\n" % "*".join(["x"] * n)))
    size = n * (n + 1) // 2
    jordan = [[0] * size for _ in range(size)]
    off = 0
    for block in range(1, n + 1):
        for k in range(block - 1):
            jordan[off + k][off + k + 1] = 1
        off += block
    mat = Matrix(size, size, jordan)
    if dense:
        nil = [[int(i % 2 == 1 and j == (3 * i + 1) % size and j % 2 == 0) for j in range(size)] for i in range(size)]
        p = Matrix.identity(size) + Matrix(size, size, nil)
        mat = p @ mat @ invert(p)
    return Representation(a, [size], [mat])


@pytest.fixture(scope="session")
def l2():
    """Dual numbers as a one-loop quotient: selfinjective, not semisimple."""
    q = Quiver(["v"], [("x", "v", "v")])
    return build_algebra(q, [element(q, (1, ["x", "x"]))])


@pytest.fixture(scope="session")
def a2():
    """Path algebra of v1 -> v2, no relations: hereditary, dim 3."""
    q = Quiver(["v1", "v2"], [("a", "v1", "v2")])
    return build_algebra(q, [])


@pytest.fixture(scope="session")
def two_loop():
    return two_loop_local_algebra()


@pytest.fixture(scope="session")
def translates(two_loop):
    """Dual regular module and its first four second translates."""
    da = dual(regular_module(two_loop.opposite))
    out = [da]
    for _ in range(4):
        out.append(tau2(out[-1]))
    return out


@pytest.fixture(scope="session")
def m_module(translates):
    return direct_sum(translates)


@pytest.fixture(scope="session")
def m_structure(m_module):
    return EndStructure(m_module)


@pytest.fixture(scope="session")
def m_summands(m_module):
    return decompose(m_module)


@pytest.fixture(scope="session")
def m_presentation(m_module):
    return end_as_quiver_algebra(m_module, max_length=20)


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


def ext2_codimension(quiver, relations, dim, length_cap=20):
    """dim I/(IJ+JI) for the ideal I of the relations and the arrow ideal J,
    None when KQ/(IJ+JI) does not stabilize by length_cap.

    dim is the dimension of KQ/I.  IJ+JI is the ideal generated by g*a
    and a*g for every relation g and composable arrow a, so one sweep
    gives its codimension.  For an admissible I the result is the sum of
    dim Ext^2(S_i, S_j) over all pairs of simples (Bongartz, 1983).
    """
    arrows = [
        PathAlgElement.from_path(quiver, Path(a.source, (a.index,), a.target))
        for a in quiver.arrows
    ]
    products = []
    for g in _validate_relations(quiver, relations):
        source, target = g.uniform_endpoints()
        products += [g * arrows[a.index] for a in quiver.out_arrows[target]]
        products += [arrows[a.index] * g for a in quiver.in_arrows[source]]
    try:
        return build_dimension_only(quiver, products, length_cap=length_cap) - dim
    except NotFiniteDimensionalError:
        return None
