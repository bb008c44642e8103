"""Right modules over a presented algebra, given as quiver representations.

A representation assigns a row-vector space to every vertex and a matrix to
every arrow; arrows act on the right (x at source(a) maps to x @ mat(a) at
target(a)).  Homomorphisms are per-vertex matrices subject to commuting
squares, composed left-to-right like paths.  Everything here is exact.
The internal helpers pass vectors as sparse rows, the sorted nonzero
(column, value) pairs that linalg.Matrix stores.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import QuivalgError
from .linalg import (
    QQ,
    Matrix,
    ONE,
    _echelon_add,
    _iadd,
    _row_times,
    _tagged_kernel,
    block_diagonal_rect,
    left_kernel_basis,
    rat,
    row_space_basis,
    rref,
    solve_left,
    vstack,
)
from .quiver import Path, PathAlgElement
from .algebra import PresentedAlgebra


class Representation:
    """A right module: dimension per vertex, matrix per arrow.

    Instances are treated as immutable.  Construction checks shapes only;
    validate() checks that the algebra's relations act by zero.
    """

    __slots__ = ("algebra", "dims", "matrices")

    def __init__(
        self,
        algebra: PresentedAlgebra,
        dims: Sequence[int],
        matrices: Sequence[Matrix],
    ):
        dims = [int(d) for d in dims]
        matrices = list(matrices)
        if len(dims) != algebra.num_vertices:
            raise ValueError(
                f"expected {algebra.num_vertices} vertex dimensions, got {len(dims)}"
            )
        arrows = algebra.quiver.arrows
        if len(matrices) != len(arrows):
            raise ValueError(
                f"expected {len(arrows)} arrow matrices, got {len(matrices)}"
            )
        for a, mat in zip(arrows, matrices):
            if mat.nrows != dims[a.source] or mat.ncols != dims[a.target]:
                raise ValueError(
                    f"arrow {a.label!r} needs a {dims[a.source]}x{dims[a.target]} "
                    f"matrix, got {mat.nrows}x{mat.ncols}"
                )
        self.algebra = algebra
        self.dims = dims
        self.matrices = matrices

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_matrix(self, p: Path) -> Matrix:
        """Action of a path: product of its arrow matrices in path order."""
        if p.length == 0:
            return Matrix.identity(self.dims[p.source])
        out = self.matrices[p.arrows[0]]
        for ai in p.arrows[1:]:
            out = out @ self.matrices[ai]
        return out

    def element_matrix(self, el: PathAlgElement) -> Matrix:
        """Action of a vertex-homogeneous path-algebra element."""
        ends = el.uniform_endpoints()
        if ends is None:
            raise ValueError("element does not have uniform endpoints")
        u, v = ends
        acc = Matrix.zero(self.dims[u], self.dims[v])
        for p, c in el.sorted_terms():
            acc = acc + self.path_matrix(p).scale(c)
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.dims == other.dims
            and self.matrices == other.matrices
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(self.dims)))

    def __repr__(self) -> str:
        return f"Representation(dims {self.dims}, total {self.total_dim})"


def validate(r: Representation) -> Optional[str]:
    """None when every relation acts by zero, else a report on the first
    violation.  Shape mismatches are rejected at construction already."""
    for rel in r.algebra.relations:
        mat = r.element_matrix(rel)
        if not mat.is_zero():
            return f"relation {rel!r} acts by a nonzero matrix"
    return None


class ModuleHom:
    """Homomorphism between representations: one matrix per vertex.

    The commuting-square law, for each arrow a: v -> w, is
    mat_source(a) @ f_w == f_v @ mat_target(a); h1 * h2 composes
    left-to-right (h1 then h2), matching path composition.
    """

    __slots__ = ("source", "target", "vertex_maps")

    def __init__(
        self,
        source: Representation,
        target: Representation,
        vertex_maps: Sequence[Matrix],
    ):
        vertex_maps = list(vertex_maps)
        if len(vertex_maps) != source.algebra.num_vertices:
            raise ValueError("one matrix per vertex required")
        for v, f in enumerate(vertex_maps):
            if f.nrows != source.dims[v] or f.ncols != target.dims[v]:
                raise ValueError(
                    f"vertex {v} map must be {source.dims[v]}x{target.dims[v]}, "
                    f"got {f.nrows}x{f.ncols}"
                )
        self.source = source
        self.target = target
        self.vertex_maps = vertex_maps

    @staticmethod
    def identity(m: Representation) -> "ModuleHom":
        return ModuleHom(m, m, [Matrix.identity(d) for d in m.dims])

    @staticmethod
    def zero(m: Representation, n: Representation) -> "ModuleHom":
        return ModuleHom(m, n, [Matrix.zero(m.dims[v], n.dims[v]) for v in range(len(m.dims))])

    def is_valid(self) -> bool:
        """Exact check of every commuting square."""
        for a in self.source.algebra.quiver.arrows:
            lhs = self.source.matrices[a.index] @ self.vertex_maps[a.target]
            rhs = self.vertex_maps[a.source] @ self.target.matrices[a.index]
            if lhs != rhs:
                return False
        return True

    def __mul__(self, other: "ModuleHom") -> "ModuleHom":
        """Left-to-right composition: self then other."""
        if self.target is not other.source and self.target != other.source:
            raise ValueError("composition endpoints do not match")
        maps = [f @ g for f, g in zip(self.vertex_maps, other.vertex_maps)]
        return ModuleHom(self.source, other.target, maps)

    def __add__(self, other: "ModuleHom") -> "ModuleHom":
        maps = [f + g for f, g in zip(self.vertex_maps, other.vertex_maps)]
        return ModuleHom(self.source, self.target, maps)

    def scale(self, c) -> "ModuleHom":
        c = rat(c)
        return ModuleHom(self.source, self.target, [f.scale(c) for f in self.vertex_maps])

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.vertex_maps)

    def total_matrix(self) -> Matrix:
        """Block-diagonal matrix over the concatenated vertex spaces."""
        return block_diagonal_rect(self.vertex_maps)

    def rank(self) -> int:
        return sum(len(rref(f)[1]) for f in self.vertex_maps)

    def is_isomorphism(self) -> bool:
        return (
            self.source.dims == self.target.dims
            and self.rank() == sum(self.source.dims)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleHom):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.vertex_maps == other.vertex_maps
        )

    def __repr__(self) -> str:
        return f"ModuleHom({self.source!r} -> {self.target!r})"


def _same_algebra(m: Representation, n: Representation) -> None:
    if m.algebra is not n.algebra:
        raise ValueError("representations live over different algebras")


# -- basic module constructions ----------------------------------------


def simples(a: PresentedAlgebra) -> List[Representation]:
    """S(i): one-dimensional at vertex i, all arrows acting by zero."""
    out = []
    for i in range(a.num_vertices):
        dims = [1 if v == i else 0 for v in range(a.num_vertices)]
        mats = [
            Matrix.zero(dims[ar.source], dims[ar.target]) for ar in a.quiver.arrows
        ]
        out.append(Representation(a, dims, mats))
    return out


def indec_projectives(a: PresentedAlgebra) -> List[Representation]:
    """P(i) = e_i A, with basis the algebra basis paths starting at i and
    arrows acting by right multiplication through the algebra's table.
    Cached on the algebra, so the projectives live and die with it."""
    if a._projectives is None:
        local = {pos: k for block in a._by_endpoints.values() for k, pos in enumerate(block)}
        a._projectives = []
        for i in range(a.num_vertices):
            dims = [len(a.endpoint_basis(i, v)) for v in range(a.num_vertices)]
            mats = []
            for ar in a.quiver.arrows:
                rows = [a._action[pos][ar.index].items() for pos in a.endpoint_basis(i, ar.source)]
                rows = [sorted((local[p], c) for p, c in r) for r in rows]
                mats.append(Matrix._from_pairs(dims[ar.source], dims[ar.target], rows))
            a._projectives.append(Representation(a, dims, mats))
    return list(a._projectives)


def dual(r: Representation) -> Representation:
    """Vector-space dual over the opposite algebra: same dimensions, each
    reversed arrow acting by the transposed matrix.  An involution."""
    op = r.algebra.opposite
    mats = [m.transpose() for m in r.matrices]
    return Representation(op, list(r.dims), mats)


def indec_injectives(a: PresentedAlgebra) -> List[Representation]:
    """I(i) = dual of the i-th indecomposable projective of the opposite."""
    return [dual(p) for p in indec_projectives(a.opposite)]


def regular_module(a: PresentedAlgebra) -> Representation:
    """A as a right module over itself: the sum of all P(i) in vertex order."""
    return direct_sum(indec_projectives(a))


def direct_sum(ms: Sequence[Representation]) -> Representation:
    """Direct sum in the given order: each arrow acts by the summands'
    matrices along the diagonal."""
    ms = list(ms)
    if not ms:
        raise ValueError("direct_sum needs at least one summand")
    a = ms[0].algebra
    for m in ms[1:]:
        if m.algebra is not a:
            raise ValueError("direct_sum over mixed algebras")
    dims = [sum(m.dims[v] for m in ms) for v in range(a.num_vertices)]
    mats = [
        block_diagonal_rect([m.matrices[ar.index] for m in ms])
        for ar in a.quiver.arrows
    ]
    return Representation(a, dims, mats)


# -- explicit sums of indecomposable projectives ------------------------


class _ProjSum:
    """Direct sum of P(v) for a list of vertices, with generator positions.

    Summand s occupies a contiguous row block at every vertex; its
    generator (the trivial path of P(vertices[s])) sits at row
    offsets[s][vertices[s]] of the vertex space, which is local index 0 of
    the block because trivial paths head the algebra basis.
    """

    __slots__ = ("algebra", "vertices", "rep", "offsets")

    def __init__(self, algebra: PresentedAlgebra, vertices: Sequence[int]):
        self.algebra = algebra
        self.vertices = list(vertices)
        projs = indec_projectives(algebra)
        parts = [projs[v] for v in self.vertices]
        self.offsets: List[List[int]] = []
        dims = [0] * algebra.num_vertices
        for part in parts:
            self.offsets.append(dims)
            dims = [d + e for d, e in zip(dims, part.dims)]
        mats = [
            block_diagonal_rect([p.matrices[ar.index] for p in parts])
            for ar in algebra.quiver.arrows
        ]
        self.rep = Representation(algebra, dims, mats)


def _paths_out_of(a: PresentedAlgebra, v: int, wanted: Optional[set] = None) -> List[int]:
    """Positions of the basis paths out of v, shorter paths first; with
    wanted, a set of such positions, only those and their prefixes.  The
    basis of a certified algebra is closed under prefixes (its
    certificate rejects a table otherwise), and so is the reversed basis
    of its opposite, so every prefix has a position."""
    positions = [p for w in range(a.num_vertices) for p in a.endpoint_basis(v, w)]
    if wanted is not None:
        at = {a.basis[p].arrows: p for p in positions}
        keep = set()
        for p in wanted:
            arrows = a.basis[p].arrows
            keep.update(at[arrows[:k]] for k in range(len(arrows) + 1))
        positions = [p for p in positions if p in keep]
    positions.sort(key=lambda p: len(a.basis[p].arrows))
    return positions


def _fold_basis_paths(
    a: PresentedAlgebra, row: List, times: Callable, positions: Sequence[int]
) -> Dict[int, List]:
    """A sparse row at some vertex v times each basis path out of v at
    positions, by position, where times(row, arrow) is the row times an
    arrow.  positions lists every path after its prefix, the path one
    arrow shorter, as _paths_out_of gives them; each nontrivial path is
    folded from its prefix's row, and a zero prefix row is passed on."""
    by_arrows: Dict[Tuple[int, ...], List] = {}
    out: Dict[int, List] = {}
    for pos in positions:
        arrows = a.basis[pos].arrows
        prefix = by_arrows[arrows[:-1]] if arrows else row
        folded = times(prefix, arrows[-1]) if arrows and prefix else prefix
        by_arrows[arrows] = out[pos] = folded
    return out


def _generator_maps(
    psum: _ProjSum, n: Representation, images: Sequence[Sequence], positions: Sequence[Sequence[int]]
) -> List[Matrix]:
    """Vertex maps of the hom out of a projective sum sending generator s
    to the sparse row images[s] of n; only the rows at the basis
    positions in positions[s] are folded through n's action, the others
    are left zero."""
    a = psum.algebra
    times = lambda row, ai: _row_times(row, n.matrices[ai])
    rows: List[List[List]] = [[] for _ in range(a.num_vertices)]
    for s, v_s in enumerate(psum.vertices):
        folded = _fold_basis_paths(a, images[s], times, positions[s])
        for w in range(a.num_vertices):
            rows[w].extend(folded.get(pos, []) for pos in a.endpoint_basis(v_s, w))
    return [Matrix._from_pairs(len(rows[w]), n.dims[w], rows[w]) for w in range(a.num_vertices)]


def _hom_from_generators(
    psum: _ProjSum, n: Representation, images: Sequence[Sequence]
) -> ModuleHom:
    """The hom out of a projective sum sending each generator to the given
    sparse row of n at the matching vertex; basis paths fold through n's
    action."""
    paths = {v: _paths_out_of(psum.algebra, v) for v in set(psum.vertices)}
    positions = [paths[v] for v in psum.vertices]
    return ModuleHom(psum.rep, n, _generator_maps(psum, n, images, positions))


# -- substructures and quotients ----------------------------------------


def _sub_rep(
    m: Representation, rows_list: Sequence[Matrix]
) -> Tuple[Representation, ModuleHom]:
    """Subrepresentation on given row bases, which must be arrow-stable.
    Each row has a column where it holds 1 and the other rows 0, as a
    free column of a kernel_basis row or the pivot of a row_space_basis
    row does; a product row's coordinates are read off those columns,
    then checked against it."""
    a = m.algebra
    dims = [rm.nrows for rm in rows_list]
    ids = []  # per vertex: identity column -> row index
    for rm in rows_list:
        count = Counter(j for r in rm.pairs for j, _ in r)
        ident = lambda r: next((j for j, x in r if x == ONE and count[j] == 1), None)
        ids.append({ident(r): i for i, r in enumerate(rm.pairs)})
    mats = []
    for ar in a.quiver.arrows:
        prod = rows_list[ar.source] @ m.matrices[ar.index]
        cols = ids[ar.target]
        read = [sorted((cols[j], x) for j, x in r if j in cols) for r in prod.pairs]
        sol = Matrix._from_pairs(prod.nrows, dims[ar.target], read)
        if sol @ rows_list[ar.target] != prod:
            raise QuivalgError("internal: subspace is not arrow-stable")
        mats.append(sol)
    sub = Representation(a, dims, mats)
    incl = ModuleHom(sub, m, rows_list)
    return sub, incl


def _quotient_data(sub: Matrix, ambient: int) -> Tuple[Matrix, Matrix]:
    """(lift, proj) for the quotient of an ambient row space by a sub
    row space: lift rows are the non-pivot unit representatives, proj maps
    ambient coordinates to quotient coordinates, and lift @ proj is the
    identity on the quotient."""
    ech, pivots = rref(sub)
    pivot_set = set(pivots)
    np_cols = [j for j in range(ambient) if j not in pivot_set]
    lift = Matrix._from_pairs(len(np_cols), ambient, [[(j, ONE)] for j in np_cols])
    # a pivot row is zero in the other pivot columns, so past its pivot
    # it holds non-pivot columns only
    np_index = {j: c for c, j in enumerate(np_cols)}
    pivot_rows = dict(zip(pivots, ech.pairs))
    rows = []
    for i in range(ambient):
        if i in pivot_set:
            rows.append([(np_index[j], -x) for j, x in pivot_rows[i][1:]])
        else:
            rows.append([(np_index[i], ONE)])
    return lift, Matrix._from_pairs(ambient, len(np_cols), rows)


def _quotient_rep(
    m: Representation, sub_rows: Sequence[Matrix]
) -> Tuple[Representation, ModuleHom]:
    """Quotient of m by an arrow-stable subspace, with the projection hom."""
    a = m.algebra
    lifts, projs = zip(*(_quotient_data(sub_rows[v], m.dims[v]) for v in range(a.num_vertices)))
    mats = [lifts[ar.source] @ m.matrices[ar.index] @ projs[ar.target] for ar in a.quiver.arrows]
    quot = Representation(a, [lift.nrows for lift in lifts], mats)
    return quot, ModuleHom(m, quot, list(projs))


def kernel(h: ModuleHom) -> Tuple[Representation, ModuleHom]:
    """Kernel with its inclusion into the source."""
    rows_list = [left_kernel_basis(f) for f in h.vertex_maps]
    return _sub_rep(h.source, rows_list)


def cokernel(h: ModuleHom) -> Tuple[Representation, ModuleHom]:
    """Cokernel with the projection from the target."""
    image_rows = [row_space_basis(f) for f in h.vertex_maps]
    return _quotient_rep(h.target, image_rows)


def _radical_rows(m: Representation) -> List[Matrix]:
    ins = m.algebra.quiver.in_arrows
    return [
        row_space_basis(vstack([m.matrices[ar.index] for ar in ins[v]])) if ins[v] else Matrix.zero(0, d)
        for v, d in enumerate(m.dims)
    ]


# -- covers, envelopes, projectivity ------------------------------------


def _top(m: Representation) -> List[Tuple[int, int]]:
    """(vertex, index) of the unit vectors of m that span a complement of
    its radical, so a basis of top(m): at each vertex, those missing the
    radical pivots.  The radical rows are rref rows, so each row's pivot
    is its first column."""
    out = []
    for v, rad in enumerate(_radical_rows(m)):
        pivot_set = {row[0][0] for row in rad.pairs}
        out.extend((v, j) for j in range(m.dims[v]) if j not in pivot_set)
    return out


def _cover_data(m: Representation, top: Sequence[Tuple[int, int]]) -> Tuple[_ProjSum, ModuleHom]:
    """Projective cover as an explicit sum of P(v) with the covering epi:
    one summand P(v) per vector (v, j) of top, which is _top(m), its
    generator mapped to that vector."""
    psum = _ProjSum(m.algebra, [v for v, _ in top])
    return psum, _hom_from_generators(psum, m, [[(j, ONE)] for _, j in top])


class _Resolution:
    """Lazily extended minimal projective resolution of m, past its cover
    in the algebra's own coordinates (Green-Solberg-Zacharia, Trans. AMS
    2001).  cover() is m's cover with its epi.  A term P_k, the sum of
    e_v B over vertices(k), is only that list; column s * dim B + pos of
    a row of P_k is basis position pos of summand s, and arrows act on
    rows through the table (_table_times).  Omega_k, k >= 1, is kept by
    vertex as rows of P_(k-1): the _tagged_kernel of the cover's rows, or
    of each generator of Omega_(k-1) folded along the basis paths out of
    its vertex.  Each row's last column holds its 1 and the others' 0, so
    a vector of Omega_k has its coordinates there.  top(k) keeps the rows
    independent of Omega_k * J: the generator rows of P_k -> P_(k-1).
    syzygy(k) builds a Representation only when asked.
    """

    def __init__(self, m: Representation):
        self.module, self.algebra = m, m.algebra
        self._cover: Optional[Tuple[_ProjSum, ModuleHom]] = None
        self._rows: List[List[List]] = []  # _rows[k - 1][w]: Omega_k at vertex w
        self._tops: List[List[Tuple[int, int]]] = [_top(m)]

    def cover(self) -> Tuple[_ProjSum, ModuleHom]:
        if self._cover is None:
            self._cover = _cover_data(self.module, self._tops[0])
        return self._cover

    def vertices(self, k: int) -> List[int]:
        return [v for v, _ in self.top(k)]

    def is_projective(self, k: int) -> bool:
        """Omega_k is projective exactly when its cover has its dimension."""
        projs = indec_projectives(self.algebra)
        dim = self.module.total_dim if k == 0 else sum(map(len, self.omega(k)))
        return sum(projs[v].total_dim for v in self.vertices(k)) == dim

    def omega(self, k: int) -> List[List]:
        """Omega_k, k >= 1, as rows by vertex."""
        a, nv = self.algebra, self.algebra.num_vertices
        while len(self._rows) < k:
            s = len(self._rows)  # Omega_(s+1), the kernel of P_s -> Omega_s
            cols: List[List] = [[] for _ in range(nv)]
            images, tag = [[] for _ in range(nv)], 0
            if s == 0:
                for t, v in enumerate(self.vertices(0)):
                    for w in range(nv):
                        cols[w] += [t * a.dim + pos for pos in a.endpoint_basis(v, w)]
                images, tag = [f.pairs for f in self.cover()[1].vertex_maps], max(self.module.dims)
            elif not self.is_projective(s):
                times = lambda row, ai: _table_times(a, row, ai)
                for t, (v, g) in enumerate(zip(self.vertices(s), self.generator_rows(s - 1))):
                    folded = _fold_basis_paths(a, g, times, _paths_out_of(a, v))
                    for pos in sorted(folded):
                        cols[a.basis[pos].target].append(t * a.dim + pos)
                        images[a.basis[pos].target].append(folded[pos])
                tag = len(self.vertices(s - 1)) * a.dim
            self._rows.append([_tagged_kernel(zip(cols[w], images[w]), tag) for w in range(nv)])
        return self._rows[k - 1]

    def top(self, k: int) -> List[Tuple[int, int]]:
        """(vertex, row index) of the top vectors of Omega_k; for k = 0,
        _top of the module."""
        while len(self._tops) <= k:
            s, top = len(self._tops), []
            for w, here in enumerate(self.omega(s)):
                ech: Dict[int, Dict] = {}
                for ar in self.algebra.quiver.in_arrows[w]:
                    for r in self._arrow_rows(s, ar) if len(ech) < len(here) else ():
                        _echelon_add(ech, dict(r))
                top += [(w, j) for j in range(len(here)) if j not in ech]
            self._tops.append(top)
        return self._tops[k]

    def generator_rows(self, k: int) -> List[List]:
        """The image of each generator of P_(k+1) in P_k: the top rows of
        Omega_(k+1)."""
        rows = self.omega(k + 1)
        return [rows[v][j] for v, j in self.top(k + 1)]

    def _arrow_rows(self, k: int, ar) -> List[List]:
        """Omega_k's rows at ar.source times ar, in the coordinates of its
        rows at ar.target, read off their last columns."""
        rows = self.omega(k)
        at = {r[-1][0]: j for j, r in enumerate(rows[ar.target])}
        prods = (_table_times(self.algebra, r, ar.index) for r in rows[ar.source])
        return [[(at[c], x) for c, x in prod if c in at] for prod in prods]

    def syzygy(self, k: int) -> Representation:
        """Omega_k as a Representation, its arrows read off its rows."""
        if k == 0:
            return self.module
        dims = [len(r) for r in self.omega(k)]
        mats = [
            Matrix._from_pairs(dims[ar.source], dims[ar.target], self._arrow_rows(k, ar))
            for ar in self.algebra.quiver.arrows
        ]
        return Representation(self.algebra, dims, mats)


def _table_times(a: PresentedAlgebra, row: List, ai: int) -> List:
    """A row of a projective sum in table columns (_Resolution) times an arrow."""
    acc: Dict[int, "QQ"] = {}
    for col, c in row:
        pos = col % a.dim
        _iadd(acc, ((col - pos + p, x) for p, x in a._action[pos][ai].items()), c)
    return sorted(acc.items())


def projective_cover(m: Representation) -> Tuple[Representation, ModuleHom]:
    psum, epi = _cover_data(m, _top(m))
    return psum.rep, epi


def injective_envelope(m: Representation) -> Tuple[Representation, ModuleHom]:
    """Minimal injective extension, via the cover of the dual module."""
    dm = dual(m)
    psum, epi = _cover_data(dm, _top(dm))
    env = dual(psum.rep)
    mono = ModuleHom(m, env, [f.transpose() for f in epi.vertex_maps])
    return env, mono


def is_projective(m: Representation) -> bool:
    return _Resolution(m).is_projective(0)


def is_injective(m: Representation) -> bool:
    return is_projective(dual(m))


# -- hom spaces ---------------------------------------------------------

def hom_basis(m: Representation, n: Representation) -> List[ModuleHom]:
    """Deterministic basis of Hom(m, n), solved through a minimal
    projective presentation P1 -> P0 -> m.

    Hom is left exact, so Hom(m, n) is the kernel of the induced map
    Hom(P0, n) -> Hom(P1, n), with one unknown per generator coordinate;
    each solution factors back through m along sections of the cover.
    m must be a module over its algebra (validate(m) is None).
    """
    _same_algebra(m, n)
    a = m.algebra
    if not any(m.dims[v] * n.dims[v] for v in range(a.num_vertices)):
        return []
    res = _Resolution(m)
    system = _induced_hom_matrix(res, 0, n)
    psum0, epi = res.cover()
    solutions = left_kernel_basis(system)
    # sections of the cover epi, one per vertex, to factor homs through m
    sections = [solve_left(f, Matrix.identity(f.ncols)) for f in epi.vertex_maps]
    assert all(sec is not None for sec in sections)
    # fold only the rows of P0 that the sections read, and their prefixes
    read = [{j for r in sec.pairs for j, _ in r} for sec in sections]
    positions = []
    for v_s, offsets in zip(psum0.vertices, psum0.offsets):
        blocks = [(w, enumerate(a.endpoint_basis(v_s, w), start)) for w, start in enumerate(offsets)]
        positions.append(_paths_out_of(a, v_s, {p for w, block in blocks for i, p in block if i in read[w]}))
    # solution column -> (summand, coordinate of its generator image)
    owner = [(s, k) for s, v in enumerate(psum0.vertices) for k in range(n.dims[v])]
    out = []
    for sol in solutions.pairs:
        images: List[List] = [[] for _ in psum0.vertices]
        for j, x in sol:
            s, k = owner[j]
            images[s].append((k, x))
        g = _generator_maps(psum0, n, images, positions)
        out.append(ModuleHom(m, n, [sec @ gv for sec, gv in zip(sections, g)]))
    return out


def _induced_hom_matrix(res: _Resolution, k: int, n: Representation) -> Matrix:
    """Matrix of precomposition with the differential d of res from
    degree k+1 to k: Hom(P_k, n) -> Hom(P_(k+1), n).

    Both hom spaces are taken in generator coordinates: a hom out of a
    projective sum is the list of generator images, one row of n per
    summand.  Row index = source coordinate, column index = target one.
    Each generator coordinate is folded through the basis paths that the
    generator rows name, each path from its prefix's row.
    """
    a = res.algebra
    times = lambda row, ai: _row_times(row, n.matrices[ai])
    # per summand s of P_k: (column offset of generator t, coefficient,
    # basis position) for the entries of t's generator row in summand s
    per_summand: List[List] = [[] for _ in res.vertices(k)]
    ncols = 0
    for v_t, gen in zip(res.vertices(k + 1), res.generator_rows(k)):
        for col, c in gen:
            per_summand[col // a.dim].append((ncols, c, col % a.dim))
        ncols += n.dims[v_t]
    rows: List[List] = []
    for v_s, terms in zip(res.vertices(k), per_summand):
        paths = _paths_out_of(a, v_s, {pos for _, _, pos in terms})
        for beta in range(n.dims[v_s]):
            folded = _fold_basis_paths(a, [(beta, ONE)], times, paths)
            row: dict = {}
            for base, c, pos in terms:
                _iadd(row, ((base + j, x) for j, x in folded[pos]), c)
            rows.append(sorted(row.items()))
    return Matrix._from_pairs(len(rows), ncols, rows)


# -- isomorphism testing ------------------------------------------------


def _indecomposable_iso(x: Representation, y: Representation) -> Optional[ModuleHom]:
    """The first element of the basis of Hom(x, y) that is an isomorphism,
    or None; for x indecomposable, None proves x and y not isomorphic.

    Proof (Fitting's lemma; Auslander-Reiten-Smalo, I.4): End(x) is
    local, so its non-units form a proper subspace, the radical.  Given
    an isomorphism phi: x -> y, f -> f * phi^-1 maps Hom(x, y) linearly
    onto End(x), so it carries the basis to a basis of End(x), which
    cannot lie in the radical.  Some basis element f thus has f * phi^-1
    a unit, and f is an isomorphism.
    """
    if x.dims != y.dims:
        return None
    return next((f for f in hom_basis(x, y) if f.is_isomorphism()), None)


def is_isomorphic(m: Representation, n: Representation) -> Optional[ModuleHom]:
    """A verified isomorphism m -> n, or None when there is none; both
    answers are certain.

    A nonzero module with a simple top or a simple socle (the dual of
    the top of its dual) is indecomposable and goes straight to
    _indecomposable_iso.  Other modules are split into indecomposable
    summands on both sides, matched greedily, which
    decides isomorphism by Krull-Schmidt, and the witness sums the
    matched summands' isomorphisms; decompose may raise
    DecompositionInconclusiveError there.
    """
    from .endos import decompose

    _same_algebra(m, n)
    if m.dims != n.dims:
        return None
    if len(_top(m)) == 1 or len(_top(dual(m))) == 1:
        return _indecomposable_iso(m, n)
    witness = ModuleHom.zero(m, n)
    unmatched = decompose(n)
    for s in decompose(m):
        for i, t in enumerate(unmatched):
            f = _indecomposable_iso(s.rep, t.rep)
            if f is not None:
                witness = witness + s.projection * f * t.inclusion
                del unmatched[i]
                break
        else:
            return None
    if not witness.is_isomorphism():
        raise QuivalgError("internal: matched summands do not sum to an isomorphism")
    return witness
