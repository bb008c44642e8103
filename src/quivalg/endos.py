"""Endomorphism algebras of representations: radical, idempotents,
direct sum decomposition, and End of a direct sum in summand blocks.

The endomorphism algebra acts on the module it belongs to, and that
action is faithful, so the radical can be read off a trace form of the
action matrices (characteristic zero makes the trace-radical equal the
Jacobson radical for any faithful representation).  Idempotents are
found exactly: split in the semisimple quotient by minimal polynomial
factorization, then lifted through the nilpotent radical.

The factorization is exact integer arithmetic: a quadratic is decided by
its discriminant, and Kronecker's search finds the factors of degree 1
and 2 of the others, so it decides every minimal polynomial of degree
<= 5 within its bounds (TRIAL_BOUND, MAX_CANDIDATES).  One of
degree >= 6 with no factor of degree <= 2, or one past the bounds, is
left undecided, and that element neither splits its corner nor
certifies it primitive.  A split evaluates the extended-gcd idempotent,
1 mod g^k and 0 mod f / g^k, for the first irreducible factor g of f
(von zur Gathen and Gerhard, Modern Computer Algebra, ch. 15-16).
"""

from dataclasses import dataclass
from itertools import chain, islice
from math import gcd, isqrt, lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DecompositionInconclusiveError
from .linalg import (
    QQ,
    ONE,
    ZERO,
    Matrix,
    SpanSolver,
    _echelon_add,
    _echelon_rows,
    _iadd,
    _reduce,
    div,
    left_kernel_basis,
    invert,
    rat,
    row_space_basis,
    solve_left,
    vstack,
)
from .modules import ModuleHom, Representation, _sub_rep, hom_basis

# combinations of a corner's basis tried after the basis itself before
# the corner of the semisimple quotient is reported neither split nor
# certified primitive
MAX_SPLIT_ATTEMPTS = 64
# factor search bounds: trial division stops at TRIAL_BOUND, and no search
# lists more than MAX_CANDIDATES divisors or candidate factors
TRIAL_BOUND = 10**4
MAX_CANDIDATES = 10**5
# steps of f -> 3f^2 - 2f^3 before lifting an idempotent is given up
MAX_LIFT_ITERATIONS = 64


def _flat(mats: Sequence[Matrix]) -> List:
    """The matrices flattened row-major and concatenated, as the sorted
    (position, value) pairs of their nonzero entries."""
    out: List = []
    base = 0
    for mat in mats:
        for r in mat.pairs:
            if r:  # most rows of a product of radical blocks are zero
                out += [(base + j, x) for j, x in r]
            base += mat.ncols
    return out


def _unflat(flat: Sequence, shapes: Sequence[Tuple[int, int]]) -> List[Matrix]:
    """Inverse of _flat: cut sorted (position, value) pairs into matrices
    of the given (nrows, ncols) shapes."""
    mats = []
    k = 0
    base = 0
    for nr, nc in shapes:
        rows: List[List] = [[] for _ in range(nr)]
        stop = base + nr * nc
        while k < len(flat) and flat[k][0] < stop:
            pos, x = flat[k]
            r, j = divmod(pos - base, nc)
            rows[r].append((j, x))
            k += 1
        mats.append(Matrix._from_pairs(nr, nc, rows))
        base = stop
    return mats


class EndStructure:
    """Basis and radical data for End(m).

    basis holds ModuleHom objects; coords expresses an arbitrary
    endomorphism in that basis.  Construction also computes gram, the
    Gram matrix of the trace form of the action on m, and radical_coords,
    coefficient rows over the basis spanning its left kernel, the radical.

    basis defaults to hom_basis(m, m).  end_of_summands passes each
    summand's End, cut from the homs out of it that it holds already.
    """

    def __init__(self, m: Representation, basis: Optional[Sequence[ModuleHom]] = None):
        if m.is_zero():
            raise ValueError("endomorphism structure needs a nonzero module")
        self.module = m
        self.basis: List[ModuleHom] = list(basis) if basis is not None else hom_basis(m, m)
        self.dim = len(self.basis)
        ncoord = sum(d * d for d in m.dims)
        self._solver = SpanSolver(ncoord)
        self._flats = Matrix._from_pairs(
            self.dim, ncoord, [_flat(h.vertex_maps) for h in self.basis]
        )
        for flat in self._flats.pairs:
            self._solver.insert(dict(flat))
        if self._solver.rank != self.dim:
            raise ValueError("endomorphism basis is not linearly independent")
        # entry (i, j) is trace(h_i h_j), the flat of h_i dotted with the
        # flat of the transpose of h_j
        flats_t = [_flat([mat.transpose() for mat in h.vertex_maps]) for h in self.basis]
        t = Matrix._from_pairs(self.dim, ncoord, flats_t)
        self.gram = self._flats @ t.transpose()
        self.radical_coords = left_kernel_basis(self.gram)

    # -- coordinates ----------------------------------------------------

    def coords(self, h: ModuleHom) -> List:
        c = self._solver.coords(dict(_flat(h.vertex_maps)))
        if c is None:
            raise ValueError("endomorphism lies outside the recorded basis span")
        return c

    def hom_from_coords(self, coords: Sequence) -> ModuleHom:
        m = self.module
        acc: Dict[int, "QQ"] = {}
        for c, flat in zip(coords, self._flats.pairs):
            if c:
                _iadd(acc, flat, rat(c))
        return ModuleHom(m, m, _unflat(sorted(acc.items()), [(d, d) for d in m.dims]))

    def radical_homs(self) -> List[ModuleHom]:
        """The endomorphisms whose coordinates radical_coords lists."""
        return [self.hom_from_coords(row) for row in self.radical_coords.rows]


# -- summands -----------------------------------------------------------


@dataclass
class Summand:
    """Direct summand cut out by an idempotent endomorphism."""

    rep: Representation
    idempotent: ModuleHom
    inclusion: ModuleHom
    projection: ModuleHom


class BlockView:
    """End(m), m = direct_sum(summands), in summand-block coordinates.

    The (bu, bv) block of an endomorphism of m is the hom it induces from
    summands[bu] to summands[bv]: rows offsets[v][bu] onwards and columns
    offsets[v][bv] onwards at every vertex v.
    """

    def __init__(self, m: Representation, summands: Sequence[Representation]):
        self.module = m
        self.summands = list(summands)
        self.offsets: List[List[int]] = []
        # coordinate at each vertex -> (its summand, index inside it)
        self._owner: List[List[Tuple[int, int]]] = []
        # where block_flats starts the (bu, bv) block at each vertex
        self._flat_base: List[List[List[int]]] = []
        base = [[0] * len(self.summands) for _ in self.summands]
        for v in range(m.algebra.num_vertices):
            ds = [x.dims[v] for x in self.summands]
            running = 0
            offs = []
            owner = []
            for b, d in enumerate(ds):
                offs.append(running)
                running += d
                owner.extend((b, k) for k in range(d))
            assert running == m.dims[v]
            self.offsets.append(offs)
            self._owner.append(owner)
            self._flat_base.append(base)
            base = [[x + du * dv for x, dv in zip(row, ds)] for row, du in zip(base, ds)]

    def _block_shapes(self, bu: int, bv: int) -> List[Tuple[int, int]]:
        """Shape of the (bu, bv) summand block at every vertex."""
        return list(zip(self.summands[bu].dims, self.summands[bv].dims))

    def block_flats(self, bu: int, mats: Sequence[Matrix]) -> Dict[Tuple[int, int], List]:
        """Every nonzero (bu, bv) block of the hom from summands[bu] to m
        with the given matrices, its matrices at all vertices flattened
        like _flat into sorted (position, value) pairs, in one pass over
        the entries."""
        dims = [x.dims for x in self.summands]
        out: Dict[Tuple[int, int], List] = {}
        for v, mat in enumerate(mats):
            owner, base = self._owner[v], self._flat_base[v][bu]
            for ri, r in enumerate(mat.pairs):
                for j, x in r:
                    bv, cj = owner[j]
                    out.setdefault((bu, bv), []).append((base[bv] + ri * dims[bv][v] + cj, x))
        return out

    def _block_width(self, bu: int, bv: int) -> int:
        return sum(ru * cv for ru, cv in self._block_shapes(bu, bv))

    def _block_mats(self, bu: int, bv: int, flat: Sequence) -> List[Matrix]:
        return _unflat(flat, self._block_shapes(bu, bv))

    def hom_from_block_flat(self, bu: int, bv: int, flat: Sequence) -> ModuleHom:
        """Endomorphism of m supported on one summand block."""
        m = self.module
        maps = []
        for v, blk in enumerate(self._block_mats(bu, bv, flat)):
            r0, c0 = self.offsets[v][bu], self.offsets[v][bv]
            rows: List[List] = [[] for _ in range(m.dims[v])]
            rows[r0 : r0 + blk.nrows] = [[(c0 + c, x) for c, x in r] for r in blk.pairs]
            maps.append(Matrix._from_pairs(m.dims[v], m.dims[v], rows))
        return ModuleHom(m, m, maps)

    def block_span_products(
        self,
        left: Dict[Tuple[int, int], Matrix],
        right: Dict[Tuple[int, int], Matrix],
    ) -> Dict[Tuple[int, int], Matrix]:
        """Canonical bases (row_space_basis) of the spans of all products
        left * right, blockwise.

        span(right) must be closed under multiplication, as rad is; both
        callers pass right = rad.  Then a left row x = sum c_i l_i r_i in
        the span of products formed so far needs none of its own, since
        x r = sum c_i l_i (r_i r) is a sum of l_i's products; so each left
        row is taken in order and skipped when it lies in the span formed
        so far in its block.  Every span row is cut into blocks once.
        """
        nb = len(self.summands)

        def cut(spans: Dict[Tuple[int, int], Matrix]) -> Dict[Tuple[int, int], List[List[Matrix]]]:
            return {key: [self._block_mats(*key, f) for f in m.pairs] for key, m in spans.items()}

        lblocks = cut(left)
        rblocks = lblocks if right is left else cut(right)
        out = {}
        for bu in range(nb):
            # Gauss-Jordan echelon of the products in block (bu, bv)
            spans: List[Dict[int, Dict]] = [{} for _ in range(nb)]
            for bw in range(nb):
                if (bu, bw) not in left:
                    continue
                for flat, lms in zip(left[(bu, bw)].pairs, lblocks[(bu, bw)]):
                    if not _reduce(spans[bw], dict(flat)):
                        continue
                    for bv in range(nb):
                        for rms in rblocks.get((bw, bv), ()):
                            _echelon_add(spans[bv], dict(_flat([a @ b for a, b in zip(lms, rms)])))
            for bv, ech in enumerate(spans):
                if ech:
                    width = self._block_width(bu, bv)
                    out[(bu, bv)] = Matrix._from_pairs(len(ech), width, _echelon_rows(ech))
        return out


# -- semisimple quotient arithmetic -------------------------------------


class _Quotient:
    """End(m) / rad in coordinates, with multiplication table."""

    def __init__(self, structure: EndStructure):
        self.structure = structure
        # Gauss-Jordan echelon of the radical coordinates (linalg._reduce)
        self._ech: Dict[int, Dict] = {}
        for r in structure.radical_coords.pairs:
            _echelon_add(self._ech, dict(r))
        self.nonpivot = [c for c in range(structure.dim) if c not in self._ech]
        self.dim = len(self.nonpivot)
        self.unit = self.project(structure.coords(ModuleHom.identity(structure.module)))
        self.table: List[List[List]] = []
        for i in self.nonpivot:
            row = []
            for j in self.nonpivot:
                prod = structure.basis[i] * structure.basis[j]
                row.append(self.project(structure.coords(prod)))
            self.table.append(row)

    def project(self, coords: Sequence) -> List:
        residue = _reduce(self._ech, {i: x for i, x in enumerate(coords) if x})
        return [residue.get(c, ZERO) for c in self.nonpivot]

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


def _minimal_polynomial(q: _Quotient, x: List, unit: List) -> List:
    """Ascending coefficients of the monic minimal polynomial of x in
    the corner algebra with the given unit."""
    solver = SpanSolver(q.dim)
    solver.insert(unit)
    cur = x
    while True:
        c = solver.coords_or_insert(cur)
        if c is not None:
            return [-v for v in c] + [ONE]
        cur = q.mult(cur, x)
        if solver.nrows > q.dim:
            raise RuntimeError("minimal polynomial search exceeded dimension")


def _poly_eval(q: _Quotient, coeffs: Sequence, x: List, unit: List) -> List:
    """Evaluate ascending-coefficient poly at x, constant term times unit."""
    acc = [coeffs[-1] * u for u in unit]
    for c in reversed(list(coeffs[:-1])):
        acc = q.mult(acc, x)
        if c:
            acc = [a + c * u for a, u in zip(acc, unit)]
    return acc


def _primitive(coeffs: Sequence) -> List[int]:
    """The primitive integer multiple of a monic rational polynomial."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = gcd(*ints)
    return [c // content for c in ints]


def _pmul(f: Sequence, g: Sequence) -> List:
    out = [ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _pdivmod(f: Sequence, g: Sequence) -> Tuple[List, List]:
    """Quotient and remainder of ascending-coefficient polynomials over
    Q; whole coefficients stay ints, as div keeps them."""
    r = list(f)
    quo = [ZERO] * max(len(f) - len(g) + 1, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = div(r[i + len(g) - 1], g[-1])
        for j, x in enumerate(g):
            r[i + j] -= c * x
    r = r[: len(g) - 1]
    while r and not r[-1]:
        r.pop()
    return quo, r


def _idempotent(g: Sequence, h: Sequence) -> List:
    """The e of degree below deg g + deg h with e = 1 mod g and e = 0
    mod h, for coprime g and h: the extended Euclidean algorithm gives
    s with s h = 1 mod g and deg s < deg g, and e = s h."""
    r0, r1 = list(g), _pdivmod(h, g)[1]
    s0, s1 = [ZERO], [ONE]
    while len(r1) > 1:
        quo, rem = _pdivmod(r0, r1)
        s = [-c for c in _pmul(quo, s1)]  # longer than s0
        for i, c in enumerate(s0):
            s[i] += c
        r0, r1, s0, s1 = r1, rem, s1, s
    return _pmul([div(c, r1[0]) for c in s1], h)


def _divisors(n: int) -> Optional[List[int]]:
    """The divisors, of both signs, of the nonzero integer n by trial
    division, or None past TRIAL_BOUND or MAX_CANDIDATES."""
    n, p, out = abs(n), 2, [1]
    while p * p <= n:
        if p > TRIAL_BOUND or len(out) > MAX_CANDIDATES:
            return None
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        if k:
            out = [d * p**i for d in out for i in range(k + 1)]
        p += 1 if p == 2 else 2
    out += [d * n for d in out] if n > 1 else []
    return out + [-d for d in out]


def _kronecker(f: List[int], d: int):
    """Kronecker's candidates for a primitive factor of degree d (1 or 2),
    leading coefficient positive, of the integer polynomial f with f(0) !=
    0 and, for d = 2, no rational root: its leading and constant terms
    divide f's, a linear one has a root of f, and a quadratic one's values
    at 1, -1 and 2 divide f's.  None when the divisors cannot be listed or
    the candidates number more than MAX_CANDIDATES."""
    lists = [_divisors(f[-1]), _divisors(f[0])] + [_divisors(sum(f))] * (d - 1)
    if None in lists or prod(map(len, lists)) > MAX_CANDIDATES:
        return None
    leads, consts = [l for l in lists[0] if l > 0], lists[1]
    if d == 1:  # l t + n with f(-n / l) = 0
        root = lambda n, l: sum(c * (-n) ** i * l ** (len(f) - 1 - i) for i, c in enumerate(f))
        return ([n, l] for l in leads for n in consts if gcd(l, n) == 1 and not root(n, l))
    # g = l t^2 + (v - l - n) t + n has g(1) = v, g(-1) = 2(l + n) - v and
    # g(2) = 2(l + v) - n; f(-1) and f(2) are nonzero, f having no root
    f_minus_one = sum(c * (-1) ** i for i, c in enumerate(f))
    f_two = sum(c << i for i, c in enumerate(f))
    return ([n, v - l - n, l] for l in leads for n in consts for v in lists[2]
            if 2 * (l + n) != v and f_minus_one % (2 * (l + n) - v) == 0 and gcd(l, n, v) == 1
            and 2 * (l + v) != n and f_two % (2 * (l + v) - n) == 0)


def _factor(f: List[int]) -> Tuple[List[Tuple[List[int], int]], str]:
    """Irreducible factors over Q of the primitive integer polynomial f,
    as primitive integer polynomials with multiplicities, in the order of
    sympy's factor_list: by degree, multiplicity, then coefficients from
    the leading one down.  A quadratic cofactor is decided by its
    discriminant; other factors of degree 1 and 2 come from _kronecker,
    and a cofactor of degree <= 5 without them is irreducible.  A cofactor
    left undecided, of degree >= 6 or past the search's bounds, is not
    listed, and the second value says why ('' when there is none)."""
    found, why = [], ""
    k = next(i for i, c in enumerate(f) if c)
    if k:
        found.append(([0, 1], k))
        f = f[k:]
    for d in (1, 2):
        if len(f) == 3:  # rational roots exactly when b^2 - 4ac is a square
            c, b, a = f
            s = isqrt(max(disc := b * b - 4 * a * c, 0))
            if s * s == disc:  # roots (r - b) / 2a for r = -s, s, one double root if s = 0
                for r in {-s, s}:
                    g = gcd(r - b, 2 * a)
                    found.append(([(b - r) // g, 2 * a // g], 2 - bool(s)))
                f = [1]
            break
        cands = _kronecker(f, d) if len(f) > 2 * d and not why else ()
        if cands is None:
            why, cands = f"of degree {len(f) - 1} past the search's bounds", ()
        for g in cands:
            k = 0
            while not (quo_rem := _pdivmod(f, g))[1]:
                f, k = quo_rem[0], k + 1
            if k:
                found.append((g, k))
    if len(f) > 6 and not why:
        why = f"of degree {len(f) - 1} with no factor of degree <= 2"
    elif len(f) > 1 and not why:
        found.append((f, 1))
    found.sort(key=lambda fk: (len(fk[0]), fk[1], fk[0][::-1]))
    return found, why


def _split_idempotent(q: _Quotient, u: List) -> Optional[Tuple[List, List]]:
    """Split u into two orthogonal idempotents of the semisimple
    quotient, or return None when u is certified primitive.  Raises
    DecompositionInconclusiveError when neither happens with the corner
    basis and MAX_SPLIT_ATTEMPTS combinations of it."""
    # corner basis: row space of u * e_i * u over the quotient basis
    units = [[ONE if i == j else ZERO for j in range(q.dim)] for i in range(q.dim)]
    corner = row_space_basis(Matrix(q.dim, q.dim, [q.mult(q.mult(u, e), u) for e in units]))
    cdim = corner.nrows
    if cdim <= 1:
        return None
    basis = [list(row) for row in corner.rows]

    def candidates():
        """The corner basis, then up to MAX_SPLIT_ATTEMPTS nonzero
        combinations of it in a fixed order, each formed only as it is
        tried: the products b_i b_j, then b_i + k b_j for i != j and
        k = 1, -1, 2, -2."""
        yield from basis
        products = (q.mult(a, b) for a in basis for b in basis)
        sums = ([x + k * y for x, y in zip(a, b)] for k in (1, -1, 2, -2)
                for i, a in enumerate(basis) for j, b in enumerate(basis) if i != j)
        yield from islice((x for x in chain(products, sums) if any(x)), MAX_SPLIT_ATTEMPTS)

    undecided = set()  # why _factor left minimal polynomials open
    for tried, x in enumerate(candidates(), 1):
        f = _primitive(_minimal_polynomial(q, x, u))
        factors, why = _factor(f)
        if len(factors) + bool(why) >= 2:
            # split off the primary component of the first factor
            g = [ONE]
            for _ in range(factors[0][1]):
                g = _pmul(g, factors[0][0])
            u1 = _poly_eval(q, _idempotent(g, _pdivmod(f, g)[0]), x, u)
            assert q.mult(u1, u1) == u1
            u2 = [a - b for a, b in zip(u, u1)]
            if any(u1) and any(u2):
                return u1, u2
        elif not factors:
            undecided.add(why)
        elif factors[0][1] == 1 and len(factors[0][0]) - 1 == cdim:
            # Q[x] = Q[t]/(f) lies in the corner and has dimension deg f
            # = cdim, so it is the corner, a field: u is primitive
            return None
    budget = f"its basis and {tried - cdim} combinations, MAX_SPLIT_ATTEMPTS = {MAX_SPLIT_ATTEMPTS}"
    reason = f"could not split a corner of dimension {cdim} after {budget}"
    if undecided:
        reason += f"; minimal polynomials {', '.join(sorted(undecided))} are left undecided"
    raise DecompositionInconclusiveError(reason)


def _primitive_idempotents(q: _Quotient) -> List[List]:
    """Primitive orthogonal idempotents of the semisimple quotient
    summing to the unit, in a deterministic refinement order."""
    queue = [q.unit]
    final = []
    while queue:
        u = queue.pop(0)
        split = _split_idempotent(q, u)
        if split is None:
            final.append(u)
        else:
            queue[0:0] = [split[0], split[1]]
    return final


# -- idempotent lifting -------------------------------------------------


def _lift_to_idempotent(h: ModuleHom) -> ModuleHom:
    """Iterate f -> 3f^2 - 2f^3 until exactly idempotent.  Converges
    because f^2 - f lies in the nilpotent radical."""
    f = h
    for _ in range(MAX_LIFT_ITERATIONS):
        sq = f * f
        if sq == f:
            return f
        f = (sq * f).scale(-2) + sq.scale(3)
    raise RuntimeError("idempotent lifting did not converge")


def decompose(m: Representation) -> List[Summand]:
    """Direct sum decomposition of m into indecomposable summands.

    Exact at every step: idempotents of End(m)/rad come from minimal
    polynomial factorization, lifting and orthogonalization stay inside
    polynomial identities, and the returned inclusions stack to an
    invertible change of basis.  Raises DecompositionInconclusiveError
    when a corner of the semisimple quotient cannot be split or
    certified primitive by its basis and MAX_SPLIT_ATTEMPTS combinations.
    """
    if m.is_zero():
        return []
    E = EndStructure(m)
    q = _Quotient(E)
    prim = _primitive_idempotents(q)

    # each lifted idempotent is cut down to the complement of those before
    idems: List[ModuleHom] = []
    rest = ModuleHom.identity(m)
    for sbar in prim[:-1]:
        f = _lift_to_idempotent(E.hom_from_coords(q.lift(sbar)))
        if idems:  # before the first cut rest is the identity
            f = _lift_to_idempotent(rest * f * rest)
        idems.append(f)
        rest = rest + f.scale(-1)
    assert rest * rest == rest
    idems.append(rest)
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
    # the inclusions stack to an invertible change of basis
    for v in range(m.algebra.num_vertices):
        stacked = vstack([s.inclusion.vertex_maps[v] for s in summands])
        assert stacked.nrows == m.dims[v]
        assert invert(stacked) is not None
    return summands
