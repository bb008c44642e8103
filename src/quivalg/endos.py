"""Endomorphism algebras of representations: radical, idempotents,
direct sum decomposition.

The endomorphism algebra acts on the module it belongs to, and that
action is faithful, so the radical can be read off a trace form of the
action matrices (characteristic zero makes the trace-radical equal the
Jacobson radical for any faithful representation).  Idempotents are
found exactly: split in the semisimple quotient by minimal polynomial
factorization, then lifted through the nilpotent radical.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DecompositionInconclusiveError
from .linalg import (
    QQ,
    ONE,
    ZERO,
    Matrix,
    SpanSolver,
    _nonzeros,
    hstack,
    left_kernel_basis,
    invert,
    rat,
    row_space_basis,
    rref,
    solve_left,
    vstack,
)
from .modules import ModuleHom, Representation, _sub_rep, hom_basis


def _hom_flat(h: ModuleHom) -> List:
    out = []
    for mat in h.vertex_maps:
        out.extend(mat.flatten())
    return out


class EndStructure:
    """Basis and radical data for End(m).

    basis holds ModuleHom objects; coords expresses an arbitrary
    endomorphism in that basis.  The Gram matrix of the trace form of
    the action on m has the radical as its left kernel.
    """

    def __init__(self, m: Representation, basis: Optional[Sequence[ModuleHom]] = None):
        if m.is_zero():
            raise ValueError("endomorphism structure needs a nonzero module")
        self.module = m
        self.basis: List[ModuleHom] = list(basis) if basis is not None else hom_basis(m, m)
        self.dim = len(self.basis)
        ncoord = sum(d * d for d in m.dims)
        self._solver = SpanSolver(ncoord)
        for h in self.basis:
            self._solver.insert(_hom_flat(h))
        if self._solver.rank != self.dim:
            raise ValueError("endomorphism basis is not linearly independent")
        self._gram: Optional[Matrix] = None
        self._radical_coords: Optional[Matrix] = None
        self._radical_homs: Optional[List[ModuleHom]] = None
        self._identity_coords: Optional[List] = None
        self.summands: Optional[List["Summand"]] = None

    # -- coordinates ----------------------------------------------------

    def coords(self, h: ModuleHom) -> List:
        c = self._solver.coords(_hom_flat(h))
        if c is None:
            raise ValueError("endomorphism lies outside the recorded basis span")
        return c

    def hom_from_coords(self, coords: Sequence) -> ModuleHom:
        m = self.module
        maps = [Matrix.zero(d, d) for d in m.dims]
        for c, h in zip(coords, self.basis):
            if c:
                c = rat(c)
                for acc, hv in zip(maps, h.vertex_maps):
                    for arow, hrow in zip(acc.rows, hv.rows):
                        for j, x in enumerate(hrow):
                            if x:
                                arow[j] += c * x
        return ModuleHom(m, m, maps)

    @property
    def identity_coords(self) -> List:
        if self._identity_coords is None:
            self._identity_coords = self.coords(ModuleHom.identity(self.module))
        return self._identity_coords

    # -- radical --------------------------------------------------------

    @property
    def gram(self) -> Matrix:
        if self._gram is None:
            n = self.dim
            pairs = []
            tdicts = []
            for h in self.basis:
                flat = _hom_flat(h)
                pairs.append([(i, x) for i, x in enumerate(flat) if x])
                flat_t = []
                for mat in h.vertex_maps:
                    flat_t.extend(mat.transpose().flatten())
                tdicts.append({i: x for i, x in enumerate(flat_t) if x})
            rows = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                pi = pairs[i]
                for j in range(i, n):
                    td = tdicts[j]
                    acc = ZERO
                    for k, x in pi:
                        y = td.get(k)
                        if y is not None:
                            acc += x * y
                    rows[i][j] = acc
                    rows[j][i] = acc
            self._gram = Matrix(n, n, rows)
        return self._gram

    @property
    def radical_coords(self) -> Matrix:
        """Coefficient rows (over basis) spanning the radical."""
        if self._radical_coords is None:
            self._radical_coords = left_kernel_basis(self.gram)
        return self._radical_coords

    @property
    def radical_dim(self) -> int:
        return self.radical_coords.nrows

    def radical_homs(self) -> List[ModuleHom]:
        if self._radical_homs is None:
            self._radical_homs = [
                self.hom_from_coords(row) for row in self.radical_coords.rows
            ]
        return self._radical_homs

    # -- powers of the radical ------------------------------------------

    def radical_square(self, summands: Optional[List["Summand"]] = None) -> List[ModuleHom]:
        """Basis of rad^2 as endomorphisms.

        Products are taken blockwise in coordinates adapted to the
        summand decomposition (computed when not given), which avoids
        quadratically many full-size compositions.
        """
        view = BlockView(self.module, summands or decompose(self.module, structure=self))
        blocks = view.radical_block_spans(self)
        sq = view.block_span_products(blocks, blocks)
        out = []
        for (bu, bv), mat in sorted(sq.items()):
            for row in mat.rows:
                out.append(view.hom_from_block_flat(bu, bv, row))
        return out

    def radical_nilpotency_index(
        self, summands: Optional[List["Summand"]] = None, max_power: int = 64
    ) -> int:
        """Least k with rad^k = 0 (k = 1 for a semisimple algebra)."""
        view = BlockView(self.module, summands or decompose(self.module, structure=self))
        first = view.radical_block_spans(self)
        cur = first
        k = 1
        while cur:
            cur = view.block_span_products(cur, first)
            k += 1
            if k > max_power:
                raise RuntimeError("radical power chain did not terminate")
        return k


# -- summands -----------------------------------------------------------


@dataclass
class Summand:
    """Direct summand cut out by an idempotent endomorphism."""

    rep: Representation
    idempotent: ModuleHom
    inclusion: ModuleHom
    projection: ModuleHom


class BlockView:
    """Coordinates on m adapted to a summand decomposition.

    Stacked inclusion rows (C) and side-by-side projection columns (D)
    are mutually inverse, so conjugation by them turns every summand
    idempotent into a coordinate projection and endomorphisms into
    block matrices indexed by summand pairs.
    """

    def __init__(self, m: Representation, summands: Sequence[Summand]):
        self.module = m
        self.summands = list(summands)
        nv = m.algebra.num_vertices
        self.C = []
        self.D = []
        self.offsets: List[List[int]] = []
        for v in range(nv):
            running = 0
            offs = []
            for s in self.summands:
                offs.append(running)
                running += s.rep.dims[v]
            assert running == m.dims[v]
            self.offsets.append(offs)
            self.C.append(vstack([s.inclusion.vertex_maps[v] for s in self.summands]))
            self.D.append(hstack([s.projection.vertex_maps[v] for s in self.summands]))

    def conjugate(self, h: ModuleHom) -> List[Matrix]:
        return [
            c @ hv @ d for c, hv, d in zip(self.C, h.vertex_maps, self.D)
        ]

    def block_flat(self, mats: Sequence[Matrix], bu: int, bv: int) -> List:
        """Entries of the (bu, bv) summand block, all vertices, one row."""
        out = []
        for v, mat in enumerate(mats):
            r0 = self.offsets[v][bu]
            c0 = self.offsets[v][bv]
            for r in range(r0, r0 + self.summands[bu].rep.dims[v]):
                row = mat.rows[r]
                out.extend(row[c0 : c0 + self.summands[bv].rep.dims[v]])
        return out

    def _block_mats(self, bu: int, bv: int, flat: Sequence) -> List[Matrix]:
        mats = []
        pos = 0
        for v in range(len(self.C)):
            ru = self.summands[bu].rep.dims[v]
            cv = self.summands[bv].rep.dims[v]
            rows = []
            for _ in range(ru):
                rows.append(list(flat[pos : pos + cv]))
                pos += cv
            mats.append(Matrix(ru, cv, rows))
        return mats

    def hom_from_block_flat(self, bu: int, bv: int, flat: Sequence) -> ModuleHom:
        """Endomorphism of m supported on one summand block."""
        m = self.module
        blocks = self._block_mats(bu, bv, flat)
        maps = []
        for v in range(len(self.C)):
            full = Matrix.zero(m.dims[v], m.dims[v])
            r0 = self.offsets[v][bu]
            c0 = self.offsets[v][bv]
            blk = blocks[v]
            for r in range(blk.nrows):
                row = full.rows[r0 + r]
                for c in range(blk.ncols):
                    row[c0 + c] = blk.rows[r][c]
            maps.append(self.D[v] @ full @ self.C[v])
        return ModuleHom(m, m, maps)

    def radical_block_spans(self, structure: EndStructure) -> Dict[Tuple[int, int], Matrix]:
        """Per-(block, block) row spaces of the conjugated radical."""
        spans: Dict[Tuple[int, int], List[List]] = {}
        nb = len(self.summands)
        for h in structure.radical_homs():
            mats = self.conjugate(h)
            for bu in range(nb):
                for bv in range(nb):
                    flat = self.block_flat(mats, bu, bv)
                    if any(flat):
                        spans.setdefault((bu, bv), []).append(flat)
        out = {}
        for key, rows in spans.items():
            mat = row_space_basis(Matrix(len(rows), len(rows[0]), rows))
            if mat.nrows:
                out[key] = mat
        return out

    def block_span_products(
        self,
        left: Dict[Tuple[int, int], Matrix],
        right: Dict[Tuple[int, int], Matrix],
    ) -> Dict[Tuple[int, int], Matrix]:
        """Spans of all products left * right, blockwise.

        Every span row is cut into its per-vertex block matrices once.
        """
        nb = len(self.summands)

        def cut(spans: Dict[Tuple[int, int], Matrix]) -> Dict[Tuple[int, int], List[List[Matrix]]]:
            return {key: [self._block_mats(*key, f) for f in m.rows] for key, m in spans.items()}

        lblocks = cut(left)
        rblocks = lblocks if right is left else cut(right)
        out = {}
        for bu in range(nb):
            for bv in range(nb):
                rows = []
                for bw in range(nb):
                    lrows = lblocks.get((bu, bw))
                    rrows = rblocks.get((bw, bv))
                    if lrows is None or rrows is None:
                        continue
                    for lms in lrows:
                        for rms in rrows:
                            prod = [a @ b for a, b in zip(lms, rms)]
                            flat = []
                            for p in prod:
                                flat.extend(p.flatten())
                            if any(flat):
                                rows.append(flat)
                if rows:
                    mat = row_space_basis(Matrix(len(rows), len(rows[0]), rows))
                    if mat.nrows:
                        out[(bu, bv)] = mat
        return out


# -- semisimple quotient arithmetic -------------------------------------


class _Quotient:
    """End(m) / rad in coordinates, with multiplication table."""

    def __init__(self, structure: EndStructure):
        self.structure = structure
        ech, pivots = rref(structure.radical_coords)
        # the nonzero rows of the echelon form, as (lead, nonzero pairs)
        self._ech = [(lead, _nonzeros(row)) for lead, row in zip(pivots, ech.rows)]
        pivot_set = set(pivots)
        self.nonpivot = [c for c in range(structure.dim) if c not in pivot_set]
        self.dim = len(self.nonpivot)
        self.unit = self.project(structure.identity_coords)
        self.table: List[List[List]] = []
        for i in self.nonpivot:
            row = []
            for j in self.nonpivot:
                prod = structure.basis[i] * structure.basis[j]
                row.append(self.project(structure.coords(prod)))
            self.table.append(row)

    def project(self, coords: Sequence) -> List:
        residue = list(coords)
        for lead, pairs in self._ech:
            c = residue[lead]
            if c:
                for i, x in pairs:
                    residue[i] -= c * x
        return [residue[c] for c in self.nonpivot]

    def lift(self, s_coords: Sequence) -> List:
        full = [ZERO] * self.structure.dim
        for c, pos in zip(s_coords, self.nonpivot):
            full[pos] = c
        return full

    def mult(self, x: Sequence, y: Sequence) -> List:
        out = [ZERO] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                ab = a * b
                for k, t in enumerate(self.table[i][j]):
                    if t:
                        out[k] += ab * t
        return out

    def sub(self, x: Sequence, y: Sequence) -> List:
        return [a - b for a, b in zip(x, y)]

    def scale(self, x: Sequence, c) -> List:
        return [c * a for a in x]

    def is_zero(self, x: Sequence) -> bool:
        return not any(x)


def _minimal_polynomial(q: _Quotient, x: List, unit: List) -> List:
    """Ascending coefficients of the monic minimal polynomial of x in
    the corner algebra with the given unit."""
    solver = SpanSolver(q.dim)
    powers = [unit]
    solver.insert(unit)
    cur = x
    while True:
        c = solver.coords_or_insert(cur)
        if c is not None:
            return [-v for v in c] + [ONE]
        powers.append(cur)
        cur = q.mult(cur, x)
        if len(powers) > q.dim:
            raise RuntimeError("minimal polynomial search exceeded dimension")


def _poly_eval(q: _Quotient, coeffs: Sequence, x: List, unit: List) -> List:
    """Evaluate ascending-coefficient poly at x, constant term times unit."""
    acc = q.scale(unit, coeffs[-1])
    for c in reversed(list(coeffs[:-1])):
        acc = q.mult(acc, x)
        if c:
            acc = [a + c * u for a, u in zip(acc, unit)]
    return acc


def _factor_minpoly(coeffs: Sequence):
    """sympy factorization of an ascending-coefficient rational poly."""
    import sympy

    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(int(c.numerator), int(c.denominator)) * t**i
        for i, c in enumerate(coeffs)
    )
    poly = sympy.Poly(expr, t)
    _, factors = poly.factor_list()
    return poly, factors


def _sympy_poly_coeffs(poly) -> List:
    out = []
    for c in reversed(poly.all_coeffs()):
        r = c
        out.append(QQ(int(r.p), int(r.q)))
    return out


def _split_idempotent(
    q: _Quotient, u: List, rng: random.Random, max_attempts: int
) -> Optional[Tuple[List, List]]:
    """Split u into two orthogonal idempotents of the semisimple
    quotient, or return None when u is certified primitive.  Raises
    DecompositionInconclusiveError when neither happens in budget."""
    import sympy

    # corner basis: row space of u * e_i * u over the quotient basis
    units = [[ONE if i == j else ZERO for j in range(q.dim)] for i in range(q.dim)]
    corner_rows = []
    for e in units:
        w = q.mult(q.mult(u, e), u)
        if any(w):
            corner_rows.append(w)
    corner = row_space_basis(Matrix(len(corner_rows), q.dim, corner_rows))
    cdim = corner.nrows
    if cdim <= 1:
        return None

    commutative = all(
        q.mult(corner.rows[i], corner.rows[j]) == q.mult(corner.rows[j], corner.rows[i])
        for i in range(cdim)
        for j in range(i + 1, cdim)
    )

    def try_element(x: List) -> Optional[Tuple[Optional[Tuple[List, List]], bool]]:
        coeffs = _minimal_polynomial(q, x, u)
        poly, factors = _factor_minpoly(coeffs)
        if len(factors) >= 2:
            t = poly.gen
            g = factors[0][0] ** factors[0][1]
            h = sympy.Poly(1, t)
            for fac, mult in factors[1:]:
                h = h * fac**mult
            s, tt, gcd = g.gcdex(h)
            assert gcd.is_one
            part = tt * h
            u1 = _poly_eval(q, _sympy_poly_coeffs(part), x, u)
            assert q.mult(u1, u1) == u1
            u2 = q.sub(u, u1)
            if q.is_zero(u1) or q.is_zero(u2):
                return None
            return (u1, u2), False
        # single irreducible factor of full corner degree in a
        # commutative corner: the corner is a field, u is primitive
        if (
            commutative
            and factors[0][1] == 1
            and factors[0][0].degree() == cdim
        ):
            return None, True
        return None

    for i in range(cdim):
        res = try_element(list(corner.rows[i]))
        if res is not None:
            split, primitive = res
            if primitive:
                return None
            return split
    for _ in range(max_attempts):
        x = [ZERO] * q.dim
        for row in corner.rows:
            c = QQ(rng.randint(-4, 4))
            if c:
                x = [a + c * b for a, b in zip(x, row)]
        if not any(x):
            continue
        res = try_element(x)
        if res is not None:
            split, primitive = res
            if primitive:
                return None
            return split
    raise DecompositionInconclusiveError(
        "could not split a corner of dimension %d after %d attempts"
        % (cdim, max_attempts)
    )


def _primitive_idempotents(
    q: _Quotient, rng: random.Random, max_attempts: int
) -> List[List]:
    """Primitive orthogonal idempotents of the semisimple quotient
    summing to the unit, in a deterministic refinement order."""
    queue = [q.unit]
    final = []
    while queue:
        u = queue.pop(0)
        split = _split_idempotent(q, u, rng, max_attempts)
        if split is None:
            final.append(u)
        else:
            queue[0:0] = [split[0], split[1]]
    return final


# -- idempotent lifting -------------------------------------------------


def _lift_to_idempotent(h: ModuleHom, max_iter: int = 64) -> ModuleHom:
    """Iterate f -> 3f^2 - 2f^3 until exactly idempotent.  Converges
    because f^2 - f lies in the nilpotent radical."""
    f = h
    for _ in range(max_iter):
        sq = f * f
        if sq == f:
            return f
        f = (sq * f).scale(QQ(-2)) + sq.scale(QQ(3))
    raise RuntimeError("idempotent lifting did not converge")


def decompose(
    m: Representation,
    seed: int = 0,
    structure: Optional[EndStructure] = None,
    max_attempts: int = 64,
) -> List[Summand]:
    """Direct sum decomposition of m into indecomposable summands.

    Exact at every step: idempotents of End(m)/rad come from minimal
    polynomial factorization, lifting and orthogonalization stay inside
    polynomial identities, and the returned inclusions stack to an
    invertible change of basis.  Raises DecompositionInconclusiveError
    when a corner of the semisimple quotient cannot be split or
    certified primitive within the attempt budget.
    """
    if m.is_zero():
        return []
    E = structure if structure is not None else EndStructure(m)
    if E.summands is not None:
        return E.summands
    rng = random.Random(seed)
    q = _Quotient(E)
    prim = _primitive_idempotents(q, rng, max_attempts)

    idems: List[ModuleHom] = []
    partial: Optional[ModuleHom] = None
    ident = ModuleHom.identity(m)
    for sbar in prim[:-1]:
        f = E.hom_from_coords(q.lift(sbar))
        f = _lift_to_idempotent(f)
        if partial is not None:
            co = ident + partial.scale(QQ(-1))
            f = co * f * co
            f = _lift_to_idempotent(f)
        idems.append(f)
        partial = f if partial is None else partial + f
    last = ident if partial is None else ident + partial.scale(QQ(-1))
    assert last * last == last
    idems.append(last)
    for f, sbar in zip(idems, prim):
        assert q.project(E.coords(f)) == sbar

    summands = []
    for e in idems:
        rows = [row_space_basis(mat) for mat in e.vertex_maps]
        sub, incl = _sub_rep(m, rows)
        projs = []
        for v in range(m.algebra.num_vertices):
            p = solve_left(incl.vertex_maps[v], e.vertex_maps[v])
            assert p is not None
            projs.append(p)
        proj = ModuleHom(m, sub, projs)
        summands.append(Summand(rep=sub, idempotent=e, inclusion=incl, projection=proj))

    for v in range(m.algebra.num_vertices):
        stacked = vstack([s.inclusion.vertex_maps[v] for s in summands])
        assert stacked.nrows == m.dims[v]
        assert invert(stacked) is not None
    E.summands = summands
    return summands
