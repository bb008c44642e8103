"""Right modules over a presented algebra, given as quiver representations.

A representation assigns a row-vector space to every vertex and a matrix to
every arrow; arrows act on the right (x at source(a) maps to x @ mat(a) at
target(a)).  Homomorphisms are per-vertex matrices subject to commuting
squares, composed left-to-right like paths.  Everything here is exact.
The internal helpers pass vectors as sparse rows, the sorted nonzero
(column, value) pairs that linalg.Matrix stores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import QuivalgError
from .linalg import (
    Matrix,
    ONE,
    _iadd,
    _row_times,
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
    if a._projectives is not None:
        return list(a._projectives)
    out = []
    for i in range(a.num_vertices):
        positions = [a.endpoint_basis(i, v) for v in range(a.num_vertices)]
        local: Dict[int, Tuple[int, int]] = {}
        for v, plist in enumerate(positions):
            for k, pos in enumerate(plist):
                local[pos] = (v, k)
        dims = [len(plist) for plist in positions]
        mats = []
        for ar in a.quiver.arrows:
            rows = []
            for pos in positions[ar.source]:
                row = []
                for pos2, c in a.apply_arrow({pos: ONE}, ar.index).items():
                    v2, k2 = local[pos2]
                    assert v2 == ar.target
                    if c:
                        row.append((k2, c))
                rows.append(sorted(row))
            mats.append(Matrix._from_pairs(dims[ar.source], dims[ar.target], rows))
        out.append(Representation(a, dims, mats))
    a._projectives = out
    return list(out)


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
        nv = algebra.num_vertices
        self.offsets: List[List[int]] = []
        running = [0] * nv
        for part in parts:
            self.offsets.append(list(running))
            for v in range(nv):
                running[v] += part.dims[v]
        dims = list(running)
        mats = [
            block_diagonal_rect([p.matrices[ar.index] for p in parts])
            for ar in algebra.quiver.arrows
        ]
        self.rep = Representation(algebra, dims, mats)

    @property
    def num_summands(self) -> int:
        return len(self.vertices)

    def generator_row(self, s: int) -> Tuple[int, int]:
        """(vertex, row index) of the s-th summand's generator."""
        v = self.vertices[s]
        return v, self.offsets[s][v]

    def block_slice(self, s: int, at_vertex: int) -> Tuple[int, int]:
        """Row range of summand s inside the vertex space."""
        start = self.offsets[s][at_vertex]
        width = len(self.algebra.endpoint_basis(self.vertices[s], at_vertex))
        return start, start + width


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


def _fold_basis_paths(row: List, n: Representation, positions: Sequence[int]) -> Dict[int, List]:
    """A sparse row of n, at some vertex v, times each basis path out of v
    at positions, by position.  positions lists every path after its
    prefix, the path one arrow shorter, as _paths_out_of gives them; each
    nontrivial path is folded from its prefix's row."""
    a = n.algebra
    by_arrows: Dict[Tuple[int, ...], List] = {}
    out: Dict[int, List] = {}
    for pos in positions:
        arrows = a.basis[pos].arrows
        folded = _row_times(by_arrows[arrows[:-1]], n.matrices[arrows[-1]]) if arrows else row
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
    rows: List[List[List]] = [[] for _ in range(a.num_vertices)]
    for s, v_s in enumerate(psum.vertices):
        folded = _fold_basis_paths(images[s], n, positions[s])
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
    """Subrepresentation on given row bases (must be arrow-stable)."""
    a = m.algebra
    dims = [rm.nrows for rm in rows_list]
    mats = []
    for ar in a.quiver.arrows:
        prod = rows_list[ar.source] @ m.matrices[ar.index]
        sol = solve_left(rows_list[ar.target], prod)
        if sol is None:
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
    lifts = []
    projs = []
    for v in range(a.num_vertices):
        lift, proj = _quotient_data(sub_rows[v], m.dims[v])
        lifts.append(lift)
        projs.append(proj)
    dims = [lift.nrows for lift in lifts]
    mats = []
    for ar in a.quiver.arrows:
        mats.append(lifts[ar.source] @ m.matrices[ar.index] @ projs[ar.target])
    quot = Representation(a, dims, mats)
    return quot, ModuleHom(m, quot, projs)


def kernel(h: ModuleHom) -> Tuple[Representation, ModuleHom]:
    """Kernel with its inclusion into the source."""
    rows_list = [left_kernel_basis(f) for f in h.vertex_maps]
    return _sub_rep(h.source, rows_list)


def cokernel(h: ModuleHom) -> Tuple[Representation, ModuleHom]:
    """Cokernel with the projection from the target."""
    image_rows = [row_space_basis(f) for f in h.vertex_maps]
    return _quotient_rep(h.target, image_rows)


def _radical_rows(m: Representation) -> List[Matrix]:
    a = m.algebra
    rows = []
    for v in range(a.num_vertices):
        incoming = [m.matrices[ar.index] for ar in a.quiver.in_arrows[v]]
        if incoming:
            rows.append(row_space_basis(vstack(incoming)))
        else:
            rows.append(Matrix.zero(0, m.dims[v]))
    return rows


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
    """Lazily extended minimal projective resolution with cover data.

    psums[k] is the k-th term as a _ProjSum, epis[k] is the cover of the
    k-th syzygy by psums[k]; epis[0] is the augmentation onto the resolved
    module.  The differential psums[k+1].rep -> psums[k].rep is read only
    at the generators, through generator_rows(k).  Tops, covers and
    kernels are taken once each, and only as far as asked.
    """

    def __init__(self, m: Representation):
        self.module = m
        self.psums: List[_ProjSum] = []
        self.epis: List[ModuleHom] = []
        self._syzygies: List[Representation] = [m]
        self._incls: List[ModuleHom] = []
        self._tops: List[List[Tuple[int, int]]] = []

    def syzygy(self, k: int) -> Representation:
        while len(self._syzygies) <= k:
            s = len(self._syzygies) - 1
            if _is_projective_top(self._syzygies[s], self.top(s)):  # the next is zero: no cover
                term = _ProjSum(self.module.algebra, [v for v, _ in self.top(s)]).rep
                ker, incl = _sub_rep(term, [Matrix.zero(0, d) for d in term.dims])
            else:
                self.extend_to(s)
                ker, incl = kernel(self.epis[s])
            self._syzygies.append(ker)
            self._incls.append(incl)
        return self._syzygies[k]

    def top(self, k: int) -> List[Tuple[int, int]]:
        """_top of the k-th syzygy, found once."""
        while len(self._tops) <= k:
            self._tops.append(_top(self.syzygy(len(self._tops))))
        return self._tops[k]

    def extend_to(self, k: int) -> None:
        """Terms psums[0..k] with their covers."""
        while len(self.psums) <= k:
            s = len(self.psums)
            psum, epi = _cover_data(self.syzygy(s), self.top(s))
            self.psums.append(psum)
            self.epis.append(epi)

    def generator_rows(self, k: int) -> List[List]:
        """Image of each generator of psums[k+1] under the differential, a
        sparse row of psums[k] at the generator's vertex.  The cover sends
        a generator to a unit vector of the syzygy, so its image is that
        row of the kernel inclusion."""
        self.extend_to(k + 1)
        hi, epi, incl = self.psums[k + 1], self.epis[k + 1], self._incls[k]
        rows = []
        for t in range(hi.num_summands):
            v, i = hi.generator_row(t)
            rows.append(_row_times(epi.vertex_maps[v].pairs[i], incl.vertex_maps[v]))
        return rows


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


def _is_projective_top(m: Representation, top: Sequence[Tuple[int, int]]) -> bool:
    """The projective cover, one P(v) per vector (v, j) of top, which is
    _top(m), maps onto m, so m is projective exactly when the two
    dimensions agree."""
    projs = indec_projectives(m.algebra)
    return sum(projs[v].total_dim for v, _ in top) == m.total_dim


def is_projective(m: Representation) -> bool:
    return _is_projective_top(m, _top(m))


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
    psum0, epi = res.psums[0], res.epis[0]
    solutions = left_kernel_basis(system)
    # sections of the cover epi, one per vertex, to factor homs through m
    sections = []
    for v in range(a.num_vertices):
        sec = solve_left(epi.vertex_maps[v], Matrix.identity(m.dims[v]))
        assert sec is not None
        sections.append(sec)
    # fold only the rows of P0 that the sections read, and their prefixes
    read = [{j for r in sec.pairs for j, _ in r} for sec in sections]
    positions = []
    for s, v_s in enumerate(psum0.vertices):
        wanted = set()
        for w in range(a.num_vertices):
            start = psum0.offsets[s][w]
            block = a.endpoint_basis(v_s, w)
            wanted.update(p for i, p in enumerate(block, start) if i in read[w])
        positions.append(_paths_out_of(a, v_s, wanted))
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


def _presentation_components(res: _Resolution, k: int) -> List[List[Tuple[List, List[int]]]]:
    """comp[t][s] = (coefficients, basis positions) of the element of
    e_{v_s} A e_{v_t} carried by the (t, s) component of the differential
    res.psums[k+1] -> res.psums[k]; the coefficients are sparse, (index
    into the positions, value) pairs."""
    gen_rows = res.generator_rows(k)
    psum_hi, psum_lo = res.psums[k + 1], res.psums[k]
    a = psum_lo.algebra
    comp = []
    for t, gen_row in enumerate(gen_rows):
        v_t = psum_hi.vertices[t]
        per_s = []
        for s in range(psum_lo.num_summands):
            lo_start, lo_stop = psum_lo.block_slice(s, v_t)
            coeffs = [(j - lo_start, c) for j, c in gen_row if lo_start <= j < lo_stop]
            positions = a.endpoint_basis(psum_lo.vertices[s], v_t)
            per_s.append((coeffs, positions))
        comp.append(per_s)
    return comp


def _induced_hom_matrix(res: _Resolution, k: int, n: Representation) -> Matrix:
    """Matrix of precomposition with the differential d of res from
    degree k+1 to k: Hom(psums[k], n) -> Hom(psums[k+1], n).

    Both hom spaces are taken in generator coordinates: a hom out of a
    projective sum is the list of generator images, one row of n per
    summand.  Row index = source coordinate, column index = target one.
    Each generator coordinate is folded through the basis paths that the
    components name, each path from its prefix's row.
    """
    comp = _presentation_components(res, k)
    psum_hi, psum_lo = res.psums[k + 1], res.psums[k]
    a = psum_lo.algebra
    col_offsets = []
    ncols = 0
    for t in range(psum_hi.num_summands):
        col_offsets.append(ncols)
        ncols += n.dims[psum_hi.vertices[t]]
    rows: List[List] = []
    for s, v_s in enumerate(psum_lo.vertices):
        terms = []  # (column offset, coefficient, basis path position)
        for t, base in enumerate(col_offsets):
            coeffs, positions = comp[t][s]
            terms.extend((base, c, positions[i]) for i, c in coeffs)
        paths = _paths_out_of(a, v_s, {pos for _, _, pos in terms})
        for beta in range(n.dims[v_s]):
            folded = _fold_basis_paths([(beta, ONE)], n, paths)
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
