"""Finite-dimensional quotients of path algebras.

build_algebra presents KQ/I for the two-sided ideal I generated by the
given relations, which must be vertex-homogeneous with every term of
length at least two (so I sits inside the square of the arrow ideal J).

Paths are ordered by length, then lex by arrow index.  The engine sweeps
one length level at a time and keeps, for every stored path, its class
modulo the span of ideal rows whose leading path has already occurred: a
path is either basis (pivot free) or carries a row over smaller paths.
Each class lives in one place: a basis path is its own class until a row
kills it and stores its residue, and every other stored path keeps the
class it was given.  A level imposes three kinds of rows: folds of
parent classes under right extension, one left-consistency row per path
whose suffix is not basis, and the relations whose longest term sits at
this level.  Rows echelonize against the level's undecided paths; a
surviving row led by an older basis path kills it, and translate rows of
the dead path are injected until the collapse settles.  A path whose
parent is killed during the path's own level needs no row of its own:
the dead parent's translate row along the path's last arrow is the path
less the parent's residue times that arrow, so it is led by the path,
which is then no longer undecided.  Once the level's rows are in, one
loop in path order settles every path as basis or as its class; a class
names only basis paths and smaller paths of the level, whose classes are
settled by then, so one substitution frees it of the level's non-basis
paths.  The span imposed through level L equals the span of all ideal
rows with lead length <= L, so basis and residues agree with direct
echelonization of the whole ideal span under the path order.

Only a frontier of paths is stored.  Level L holds the paths a*m*b whose
middle m (the path without its first and last arrow) is a live basis
path when the level starts: the right children of the basis paths of
level L-1 and their left extensions.  A basis path times an arrow is the
stored class of the child path, found through the path store, so no
table of products is kept.  The parent and the suffix of a frontier path
are frontier paths of level L-1.  A path whose middle is not basis
imposes nothing new: its middle is congruent to smaller paths already,
so its two folds agree by induction on the lower levels (the overlap
argument of Bergman's diamond lemma, as in noncommutative Groebner
bases).  The store therefore holds at most vertices + arrows + the sum
of indeg(source m) * outdeg(target m) over the basis paths m found so
far, whatever the length cap.

Acceptance is checked on the extracted multiplication table: once a
level creates no new basis paths (after which no later level can
either), the certificate builds the PresentedAlgebra from the table and
checks, through that algebra's own multiplication, (a) the radical span
iteration reaching zero, which bounds the nilpotency degree of the arrow
image, and (b) the ideal I of the relations folding to zero.  Check (a)
first asks that every nontrivial basis path be the unit row of its
parent times its last arrow, as the sweep's table always has it.  A
basis path of length >= k is then a product of k arrows, so the basis
paths of length >= k span part of J^k, and only the rest of J^k, its
projection onto the shorter basis paths, is carried as echelon vectors,
multiplied only by the arrows leaving the targets of their support.
That rest is seeded by the table rows p * arrow that are not a basis
path, read off the table; for a table whose relations are homogeneous
it stays empty and check (a) multiplies nothing.  Check (b) uses the
diamond lemma once more.  The kernel K of folding from the idempotents
is the right ideal generated by the table relations p*a - row(p, a).
For every arrow b and every such p starting at b's target, e_b folded
along p*a must equal e_b folded along row(p, a); every row must start
where its basis path does, so that b * (p*a - row(p, a)) is zero for
the other p.  Then b * K lies in K, and K is a two-sided ideal.  So
each relation need only fold to zero from its source idempotent, not
from every basis element, for I to lie in K.  The sweep's rows lie in
I, so K = I: (a) and (b) prove the table presents exactly KQ/I and
multiplies associatively, the sweep can stop even while longer paths
still carry nonzero classes, and the certified algebra is the one
build_algebra returns.  If no level certifies before the length cap,
NotFiniteDimensionalError is raised.

The opposite algebra carries a table of its own: row k, arrow a is the
product a * basis[k], left multiplication by the arrow in the original
algebra.

The sweep is plain Python over integers.  Each class it stores, of a
path or as the residue of a killed one, is an int dict over one positive
denominator, their gcd 1; most denominators are 1, and only the other
classes pay for an lcm when they are added.  Ideal rows, defined up to
a scalar, carry no denominator and are eliminated fraction-free as in
Bareiss's method: a lead of class v/d is replaced by scaling the row by
d, never by dividing, so every zero test and lead is that of the row
over the rationals.  A relation enters as the sum of its terms'
classes, each term folded arrow by arrow through the stored classes;
scaling a relation changes nothing.  A residue that names a path killed
since is rewritten over live paths once, when next read, and stored
back.  _table_of reads the table off the stored classes and turns it
into the package's scalars with div.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import chain
from math import gcd
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import MalformedRelationError, NotFiniteDimensionalError
from .linalg import ONE, QQ, _echelon_add, _iadd, div
from .quiver import Path, PathAlgElement, Quiver

# there is no compiled sweep kernel; perfbench/worker.py reads this flag
# for the environment block of every benchmark run
_HAVE_C = False

Vec = Dict[int, QQ]


class _Paths:
    """The stored paths of every level, as parallel lists indexed by id.

    Ids follow the path order.  right maps (pid, arrow) to the id of
    pid*arrow and left maps (arrow, pid) to the id of arrow*pid, for the
    stored paths.
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        n = quiver.num_vertices
        # level 0 is the trivial path at each vertex
        self.parent = [-1] * n
        self.last = [-1] * n
        self.first = [-1] * n
        self.suffix = list(range(n))
        self.src = list(range(n))
        self.tgt = list(range(n))
        self.level = [0] * n
        self.right: Dict[Tuple[int, int], int] = {}
        self.left: Dict[Tuple[int, int], int] = {}
        self.level_start: List[int] = [0, n]

    def add_level(self, extend: Callable[[int], bool]) -> Tuple[int, int]:
        """Store the children x*b of the last level's paths x whose suffix
        passes extend, and return the id range of the new level.

        Children follow their parent's order, then arrow index, so the
        new ids follow the path order too.
        """
        lo, hi = self.level_start[-2], self.level_start[-1]
        lvl = len(self.level_start) - 1
        for x in range(lo, hi):
            if not extend(self.suffix[x]):
                continue
            for b in self.quiver.out_arrows[self.tgt[x]]:
                ai = b.index
                if lvl == 1:
                    first, suffix = ai, b.target
                else:
                    first, suffix = self.first[x], self.right[self.suffix[x], ai]
                pid = len(self.parent)
                self.parent.append(x)
                self.last.append(ai)
                self.first.append(first)
                self.suffix.append(suffix)
                self.src.append(self.src[x])
                self.tgt.append(b.target)
                self.level.append(lvl)
                self.right[x, ai] = pid
                self.left[first, suffix] = pid
        self.level_start.append(len(self.parent))
        return hi, len(self.parent)

    def child(self, pid: int, ai: int, side: int) -> int:
        """Id of pid*arrow (side 0) or arrow*pid (side 1), which must
        compose and be stored."""
        cid = self.left.get((ai, pid)) if side else self.right.get((pid, ai))
        if cid is None:
            raise RuntimeError(f"path {pid} extended by arrow {ai} is not stored")
        return cid

    def path_of(self, pid: int) -> Path:
        src, tgt = self.src[pid], self.tgt[pid]
        out: List[int] = []
        while self.level[pid] > 0:
            out.append(self.last[pid])
            pid = self.parent[pid]
        return Path(src, tuple(reversed(out)), tgt)


# -- level sweep ------------------------------------------------------------


# the table row of a basis path and an arrow not leaving its target,
# shared by every table, and read-only so that no write can reach it
_ZERO_ROW: "Vec" = MappingProxyType({})

# a sweep class: int numerators over one positive denominator, their gcd 1
Cls = Tuple[Dict[int, int], int]


def _canon(v: Dict[int, int], d: int) -> Cls:
    """v/d with the common factor of the entries and d divided out."""
    if d == ONE:
        return v, d
    g = d
    for x in v.values():
        g = gcd(g, x)
        if g == 1:
            return v, d
    return {p: x // g for p, x in v.items()}, d // g


def _addq(acc: Dict[int, int], den: int, row, e: int, c: int) -> int:
    """acc/den += c * row/e for int pairs row; returns acc's new
    denominator, lcm(den, e), rescaling acc when e does not divide den."""
    if e == den:
        _iadd(acc, row, c)
        return den
    if den % e:
        m = e // gcd(den, e)
        for p in acc:
            acc[p] *= m
        den *= m
    _iadd(acc, row, c * (den // e))
    return den


class _Sweep:
    """Level-by-level sweep state over integer rows.

    basis holds, in the order they were found, the ids of every path
    that was ever basis; side holds the residue of each of them killed
    since, and cls the class of every other stored path.
    """

    def __init__(self, paths: _Paths):
        self.paths = paths
        self.basis: Dict[int, None] = {}
        self.cls: Dict[int, Cls] = {}
        self.side: Dict[int, Cls] = {}
        # input indices of the relations whose rows survived pass 2b
        self.kept: List[int] = []
        self.kills: List[int] = []
        n = paths.quiver.num_vertices
        for pid in range(n):
            self._basis_add(pid)
        # level 1, the arrows, is all basis
        for pid in range(*paths.add_level(self.is_live)):
            self._basis_add(pid)

    def _basis_add(self, pid: int) -> None:
        self.basis[pid] = None

    def is_live(self, pid: int) -> bool:
        return pid in self.basis and pid not in self.side

    def _stored(self, pid: int) -> Cls:
        """The class stored for a path: the path itself when it is or was
        basis, its fold or candidate class otherwise."""
        return self.cls.get(pid) or ({pid: ONE}, ONE)

    def _class_of(self, pid: int) -> Cls:
        return self._residue(pid) if pid in self.side else self._stored(pid)

    def _residue(self, pid: int) -> Cls:
        """side[pid] over live paths.  A residue naming a path killed since
        is rewritten once, into a new dict, and stored back, after the
        residues it names (all of smaller paths), by an explicit stack."""
        side = self.side
        todo = [pid]
        while todo:
            res = side[todo[-1]][0]
            stale = [p for p in res if p in side]
            deeper = [p for p in stale if any(q in side for q in side[p][0])]
            if deeper:
                todo += deeper
                continue
            x = todo.pop()
            if stale:
                side[x] = self._over_live(side[x])
        return side[pid]

    def _over_live(self, row: Cls) -> Cls:
        """row with each killed path replaced by its residue: a new class,
        or row itself when it names no killed path."""
        side = self.side
        v, d = row
        out = {p: c for p, c in v.items() if p not in side}
        if len(out) == len(v):
            return row
        den = ONE
        for p, c in v.items():
            if p in side:
                w, e = self._residue(p)
                den = _addq(out, den, w.items(), e, c)
        return _canon(out, den * d)

    def _ext_add(self, acc: Dict[int, int], den: int, bpid: int, ai: int, side: int, c: int) -> int:
        """acc/den += c * class of bpid extended by an arrow; returns den."""
        w, e = self._stored(self.paths.child(bpid, ai, side))
        return _addq(acc, den, w.items(), e, c)

    def _ext_row(self, cls: Cls, res: Cls, ai: int, side: int) -> Dict[int, int]:
        """The ideal row d * (cls - res extended by an arrow), res = v/d."""
        w, den = cls
        v, d = res
        acc = {p: d * x for p, x in w.items()} if d != ONE else dict(w)
        for b, c in v.items():
            den = self._ext_add(acc, den, b, ai, side, -c)
        return acc

    def _times_arrow(self, cls: Cls, ai: int) -> Cls:
        """Class of cls * arrow, by right extension of its basis paths."""
        v, d = cls
        acc: Dict[int, int] = {}
        den = ONE
        for b, c in v.items():
            den = self._ext_add(acc, den, b, ai, 0, c)
        return _canon(acc, den * d)

    def _fold(self, p: Path) -> Cls:
        """Class of a path, its arrows folded one by one through the
        stored classes of the basis paths' children."""
        cls: Cls = ({p.source: ONE}, ONE)
        for ai in p.arrows:
            cls = self._times_arrow(cls, ai)
        return cls

    def _row_insert(self, row: Dict[int, int]) -> bool:
        """Echelonize an integer row, known up to a scalar, against the
        imposed span.  A lead with a class v/d is replaced fraction-free:
        the row is scaled by d instead of dividing.  A surviving row is
        stored as the class of its lead, -rest / lead coefficient.

        True when the row survives, as a new candidate or by killing a
        basis path; False when it reduces to zero.
        """
        while row:
            lead = max(row)
            if lead in self.side:
                res = self._residue(lead)
            elif lead in self.basis:
                self.side[lead] = _solved(row, lead)
                self.kills.append(lead)
                return True
            else:
                res = self.cls.get(lead)
                if res is None:
                    self.cls[lead] = _solved(row, lead)
                    return True
            c = row.pop(lead)
            v, d = res
            if d != ONE:
                for p in row:
                    row[p] *= d
            _iadd(row, v.items(), c)
        return False

    def _inject_translates(self, xpid: int) -> None:
        t = self.paths
        # the (arrow, side) pairs that compose with xpid, in that order
        ends = (t.tgt[xpid], t.src[xpid])
        for ai, a in enumerate(t.quiver.arrows):
            for side in (0, 1):
                if (a.target if side else a.source) != ends[side]:
                    continue
                child = self._stored(t.child(xpid, ai, side))
                # residues are replaced, never changed in place
                self._row_insert(self._ext_row(child, self._residue(xpid), ai, side))

    def _drain(self) -> None:
        while self.kills:
            self._inject_translates(self.kills.pop())

    def run_level(
        self, lo: int, hi: int, seeds: Sequence[Tuple[int, PathAlgElement]]
    ) -> None:
        t = self.paths
        cls = self.cls

        # pass 1: fold classes from parents; children of live basis wait
        for pid in range(lo, hi):
            par = t.parent[pid]
            if not self.is_live(par):
                cls[pid] = self._times_arrow(self._class_of(par), t.last[pid])

        # pass 2a: left-consistency rows
        for pid in range(lo, hi):
            s = t.suffix[pid]
            if self.is_live(s):
                continue
            self._row_insert(self._ext_row(self._class_of(pid), self._class_of(s), t.first[pid], 1))
            self._drain()

        # pass 2b: relations topping out at this level; every row imposed
        # so far lies in the ideal of the relations fed so far, so a row
        # that reduces to zero is a relation already in that ideal
        for idx, rel in seeds:
            acc = {}
            den = ONE
            for p, c in rel.terms.items():
                w, e = self._fold(p)
                den = _addq(acc, den, w.items(), e * c.denominator, c.numerator)
            if self._row_insert(acc):
                self.kept.append(idx)
            self._drain()

        # settle classes in path order: a class names only basis paths
        # and smaller paths of this level, whose classes are final by
        # now, so one substitution frees it of this level's non-basis paths
        nb = len(self.basis)
        for pid in range(lo, hi):
            row = cls.get(pid)
            if row is None:
                self._basis_add(pid)
            elif any(p in cls for p in row[0]):
                v, d = row
                acc = {}
                den = ONE
                for p, c in v.items():
                    w, e = self._stored(p)
                    den = _addq(acc, den, w.items(), e, c)
                cls[pid] = _canon(acc, den * d)
        self.nlast = len(self.basis) - nb

    def action_row(self, pid: int, ai: int) -> Vec:
        """Class of basis path pid times an arrow, over live paths, in the
        package's scalars."""
        v, d = self._over_live(self._stored(self.paths.child(pid, ai, 0)))
        return v if d == ONE else {p: div(c, d) for p, c in v.items()}


def _solved(row: Dict[int, int], lead: int) -> Cls:
    """The class of lead that the row c * lead + rest imposes, -rest/c;
    the row, which is the caller's, is reused."""
    c = row.pop(lead)
    return _canon({p: -x for p, x in row.items()} if c > 0 else row, abs(c))


def _radical_dims(alg: "PresentedAlgebra") -> Optional[List[int]]:
    """Dimensions of the nonzero powers J^1, J^2, ... of the arrow ideal's
    image, one fewer than the Loewy length; None when the table fails
    the unit check or J is not nilpotent.

    J^1 is spanned by the nontrivial basis elements and J^(k+1) is the
    sum of J^k * arrow over the arrows.  The unit check asks that every
    nontrivial basis path p be the unit row of its parent times its last
    arrow.  Then a basis path of length >= k is a product of k arrows
    and lies in J^k, so J^k = span{e_p : |p| >= k} + pi_k(J^k), where
    pi_k drops the coordinates at the basis paths of length >= k.
    pi_(k+1)(J^(k+1)) is spanned by pi_(k+1) of the table rows p * arrow
    for |p| >= k, which are looked up rather than multiplied, and of
    e * arrow for the rows e of a Gauss-Jordan echelon of pi_k(J^k)
    (linalg._echelon_add; any basis gives the same span) and the arrows
    leaving the targets of e's support; the table row of a path and an
    arrow not leaving its target is zero.  A row that is the basis path
    p*arrow itself projects to zero, and so does a row whose support has
    no path of length <= k, so only the rows of a nonhomogeneous table
    and the few echelon rows do any work.
    """
    basis, action = alg.basis, alg._action
    out_arrows = alg.quiver.out_arrows
    length = [p.length for p in basis]
    pos = alg._pos
    # rows_at[k] lists the table rows whose projection joins pi_(k+1)(J^(k+1))
    rows_at: Dict[int, List[Vec]] = {}
    for k, p in enumerate(basis):
        if p.length:
            par = pos.get((p.source, p.arrows[:-1]))
            if par is None or action[par][p.arrows[-1]] != {k: ONE}:
                return None
        for a in out_arrows[p.target]:
            row = action[k][a.index]
            if row and (p.source, p.arrows + (a.index,)) not in pos:
                for power in range(max(min(length[i] for i in row), 1), p.length + 1):
                    rows_at.setdefault(power, []).append(row)

    per_length = Counter(length)
    long_paths = alg.dim - per_length[0]  # basis paths of length >= power
    layer: List[Vec] = []  # echelon rows of pi_power(J^power)
    dims: List[int] = []
    power = 1
    while long_paths or layer:
        if power > alg.dim + 1:
            return None  # not nilpotent: the table cannot be a quotient by J^2-ideals
        dims.append(long_paths + len(layer))
        # e * arrow is zero unless the arrow leaves the target of a path in e
        products = (
            alg.apply_arrow(e, ai)
            for e in layer
            for ai in sorted({a.index for i in e for a in out_arrows[basis[i].target]})
        )
        echelon: Dict[int, Vec] = {}
        for row in chain(rows_at.get(power, ()), products):
            _echelon_add(echelon, {i: c for i, c in row.items() if length[i] <= power})
        for lead, rest in echelon.items():
            rest[lead] = ONE
        layer = list(echelon.values())
        long_paths -= per_length[power]
        power += 1
    return dims


def _ideal_vanishes(alg: "PresentedAlgebra", relations: Sequence[PathAlgElement]) -> bool:
    """True when folding from the idempotents kills the two-sided ideal
    of the relations, for a table that passed the unit check of
    _radical_dims and whose entries for an arrow not leaving a basis
    path's target are zero, as every table built here has them.

    Folding maps a path x from vertex u to e_u * x.  Its kernel K is the
    right ideal generated by the table relations p*a - row(p, a), for a
    basis path p and an arrow a with p*a off the basis.  For every arrow
    b and every such p starting at b's target, e_b is folded along p*a
    and along the basis paths of row(p, a): b * (p*a - row(p, a)) lies
    in K exactly when the two agree.  Each p is checked, also where
    e_b * p folds to zero, since e_b * row(p, a) need not.  For p
    starting elsewhere, b * (p*a - row(p, a)) is zero once every row
    starts where its basis path does (checked here); a path from b's
    target in such a row would escape the check.  K is then closed
    under left multiplication by arrows, so the two-sided ideal of the
    vertex-homogeneous relations lies in K as soon as each relation
    does, which its fold from its source idempotent decides.
    """
    basis, action = alg.basis, alg._action
    out_arrows = alg.quiver.out_arrows
    pos = alg._pos
    starting: Dict[int, List[int]] = {}  # basis positions by source, in basis order
    off_basis: Dict[int, List[Tuple[int, int]]] = {}  # (p, a) with p*a off the basis
    for k, p in enumerate(basis):
        starting.setdefault(p.source, []).append(k)
        for a in out_arrows[p.target]:
            if (p.source, p.arrows + (a.index,)) not in pos:
                if any(basis[i].source != p.source for i in action[k][a.index]):
                    return False
                off_basis.setdefault(p.source, []).append((k, a.index))
    for b in alg.quiver.arrows:
        fold: Dict[int, Vec] = {}  # e_b folded along the basis paths from b's target
        for k in starting.get(b.target, ()):
            p = basis[k]
            bp = pos.get((b.source, (b.index,) + p.arrows))
            if bp is not None:
                fold[k] = {bp: ONE}
            else:
                prefix = fold[pos[p.source, p.arrows[:-1]]]
                fold[k] = alg.apply_arrow(prefix, p.arrows[-1]) if prefix else {}
        for k, ai in off_basis.get(b.target, ()):
            acc = alg.apply_arrow(fold[k], ai) if fold[k] else {}
            for i, c in action[k][ai].items():
                if fold.get(i):
                    _iadd(acc, fold[i].items(), -c)
            if acc:
                return False
    return not any(alg.element_vec(r) for r in relations)


def _table_of(eng: _Sweep) -> "PresentedAlgebra":
    """The sweep's live basis and table as an algebra, not yet checked;
    a basis path times an arrow not leaving its target is _ZERO_ROW."""
    live = [pid for pid in eng.basis if pid not in eng.side]
    pos_of = {pid: k for k, pid in enumerate(live)}
    paths = eng.paths
    quiver = paths.quiver
    action = []
    for pid in live:
        rows: List[Vec] = [_ZERO_ROW] * len(quiver.arrows)
        for b in quiver.out_arrows[paths.tgt[pid]]:
            rows[b.index] = {pos_of[p]: c for p, c in eng.action_row(pid, b.index).items()}
        action.append(rows)
    return PresentedAlgebra(quiver, [paths.path_of(pid) for pid in live], action)


def _certify(eng: _Sweep, relations: Sequence[PathAlgElement]) -> Optional["PresentedAlgebra"]:
    """Prove the extracted table presents KQ/I and return it as an
    algebra, or return None.

    _radical_dims checks that every nontrivial basis path is the unit
    row of its parent times its last arrow, which the sweep's table
    always satisfies, and that the radical span iteration dies out, so
    long paths fold to zero; its length is the Loewy length less one.
    _ideal_vanishes then proves that the kernel of folding contains the
    ideal I of the relations, by resolving the ambiguities b * (p*a) of
    the table on arrow generators b and folding each relation from its
    source idempotent, not from every basis element.  So the table's
    span is a quotient of KQ/I.  The sweep's table rows lie in the ideal
    span, so the kernel lies in I: it is I, the table presents KQ/I,
    and its product is associative.
    """
    alg = _table_of(eng)
    dims = _radical_dims(alg)
    if dims is None or not _ideal_vanishes(alg, relations):
        return None
    alg.loewy_length = len(dims) + 1
    return alg


def _validate_relations(
    quiver: Quiver, relations: Sequence[PathAlgElement]
) -> List[PathAlgElement]:
    kept = []
    for idx, rel in enumerate(relations):
        if not isinstance(rel, PathAlgElement):
            raise MalformedRelationError(f"relation {idx} is not a PathAlgElement")
        if rel.is_zero():
            continue
        if rel.uniform_endpoints() is None:
            raise MalformedRelationError(
                f"relation {idx} mixes source or target vertices: {rel!r}"
            )
        if rel.min_length() < 2:
            raise MalformedRelationError(
                f"relation {idx} has a term of length < 2: {rel!r}"
            )
        for p in rel.terms:
            v = p.source
            for ai in p.arrows:
                if not 0 <= ai < len(quiver.arrows) or quiver.arrows[ai].source != v:
                    raise MalformedRelationError(
                        f"relation path {p!r} does not live on this quiver"
                    )
                v = quiver.arrows[ai].target
        kept.append(rel)
    return kept


def _stabilize(
    quiver: Quiver, relations: Sequence[PathAlgElement], length_cap: int
) -> Tuple[_Sweep, "PresentedAlgebra"]:
    """Sweep levels until the quotient is certified; return the sweep
    and the certified algebra.

    Relations enter at the level of their longest term, tagged with
    their index in relations.  The sweep's kept lists the indices of the
    relations whose rows survived; the others, and any relation never
    fed because the sweep certified first, lie in the ideal of the kept
    ones; the algebra lists them, in input order, as kept_relations.
    """
    paths = _Paths(quiver)
    eng = _Sweep(paths)
    seeds_by_level: Dict[int, List[Tuple[int, PathAlgElement]]] = {}
    for idx, rel in enumerate(relations):
        seeds_by_level.setdefault(rel.max_length(), []).append((idx, rel))
    last_seed = max(seeds_by_level, default=0)
    level = 1
    while level < length_cap:
        level += 1
        lo, hi = paths.add_level(eng.is_live)
        eng.run_level(lo, hi, seeds_by_level.get(level, ()))
        if eng.nlast == 0:
            alg = _certify(eng, relations)
            if alg is not None:
                alg.kept_relations = [relations[i] for i in sorted(eng.kept)]
                return eng, alg
        if hi == lo and level >= last_seed:
            break  # no stored path extends and no relation is left to feed
    nalive = len(eng.basis) - len(eng.side)
    # the error's traceback holds this frame: drop the sweep, so that an
    # error kept by the caller does not keep every stored path alive
    del eng, paths
    raise NotFiniteDimensionalError(
        f"dimension did not stabilize up to path length {length_cap} "
        f"({nalive} basis paths so far and not certified)"
    )


class PresentedAlgebra:
    """Quotient of a path algebra by relations, with a monomial basis.

    The basis starts with the trivial paths in vertex order, then the
    arrows, then longer residue paths; basis paths are closed under
    taking subpaths.  Multiplication is carried by one table, the
    right-multiplication-by-arrow rows over the basis; products of longer
    paths fold through them, which stays exact because reduction to the
    basis is a canonical linear projection.

    build_algebra returns the algebra the quotient certificate built and
    checked; its kept_relations, the relations whose rows survived the
    sweep, in input order, generate the same ideal.  The opposite carries
    a table of its own, read off left multiplication by arrows in the
    original algebra, and the reversed relations.
    """

    def __init__(self, quiver: Quiver, basis: Sequence[Path], action: Sequence[List[Vec]]):
        # the quiver, basis and table of the quotient certificate, the path
        # search of endquiver or the opposite constructor
        self.quiver = quiver
        self.relations: List[PathAlgElement] = []
        self.kept_relations: List[PathAlgElement] = []
        self.basis: List[Path] = list(basis)
        self.dim: int = len(self.basis)
        self.loewy_length: int = 0
        self._action: List[List[Vec]] = list(action)
        self._by_endpoints: Dict[Tuple[int, int], List[int]] = {}
        for i, p in enumerate(self.basis):
            self._by_endpoints.setdefault((p.source, p.target), []).append(i)
        # basis position of each basis path, keyed by source and arrows
        self._pos = {(p.source, p.arrows): i for i, p in enumerate(self.basis)}
        # the opposite this algebra built, or a weak link back to the
        # algebra that built this one, so the pair forms no cycle
        self._opposite: Union["PresentedAlgebra", weakref.ref, None] = None
        # indecomposable projectives, filled by modules.indec_projectives
        self._projectives: Optional[list] = None

    # -- structure ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.quiver.num_vertices

    def endpoint_basis(self, u: int, v: int) -> List[int]:
        """Basis positions of paths from vertex u to vertex v."""
        return self._by_endpoints.get((u, v), [])

    # -- multiplication -------------------------------------------------

    def apply_arrow(self, vec: Vec, ai: int) -> Vec:
        """Right-multiply a coefficient vector by an arrow."""
        out: Vec = {}
        action = self._action
        for k, c in vec.items():
            _iadd(out, action[k][ai].items(), c)
        return out

    def mult_basis(self, i: int, j: int) -> Vec:
        """Product of basis elements i and j as a sparse coefficient vector."""
        p, q = self.basis[i], self.basis[j]
        if p.target != q.source:
            return {}
        out: Vec = {i: ONE}
        for ai in q.arrows:
            if not out:
                break
            out = self.apply_arrow(out, ai)
        return out

    def multiply_vec(self, xs: Vec, ys: Vec) -> Vec:
        out: Vec = {}
        for i, a in xs.items():
            for j, b in ys.items():
                prod = self.mult_basis(i, j)
                if prod:
                    _iadd(out, prod.items(), a * b)
        return out

    def element_vec(self, el: PathAlgElement) -> Vec:
        """Normal-form coordinates of a free path-algebra element.

        A basis path is its own normal form, the unit row of its
        position, so each path is folded on from its longest prefix in
        the basis."""
        out: Vec = {}
        pos = self._pos
        for p, c in el.terms.items():
            n = len(p.arrows)
            while (p.source, p.arrows[:n]) not in pos:
                n -= 1
            vec: Vec = {pos[p.source, p.arrows[:n]]: ONE}
            for ai in p.arrows[n:]:
                if not vec:
                    break
                vec = self.apply_arrow(vec, ai)
            _iadd(out, vec.items(), c)
        return out

    # -- opposite -------------------------------------------------------

    @property
    def opposite(self) -> "PresentedAlgebra":
        """Opposite algebra with reversed arrows; an involution on the nose.

        Its basis is the reversed basis paths, in the same positions, and
        its table row k, arrow a is the product a * basis[k] in this
        algebra.  An opposite links back weakly, so a.opposite.opposite
        is a while a is alive, and is built afresh otherwise.
        """
        op = self._opposite
        if isinstance(op, weakref.ref):
            op = op()
        if op is None:
            op = self._opposite = _make_opposite(self)
        return op

    def __repr__(self) -> str:
        return (
            f"PresentedAlgebra(dim {self.dim}, {self.num_vertices} vertices, "
            f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations)"
        )


def _reverse_element(el: PathAlgElement, target_quiver: Quiver) -> PathAlgElement:
    terms = {
        Path(p.target, tuple(reversed(p.arrows)), p.source): c
        for p, c in el.terms.items()
    }
    return PathAlgElement(target_quiver, terms)


def _make_opposite(a: PresentedAlgebra) -> PresentedAlgebra:
    # arrows are basis paths since relations lie in J^2; read their
    # positions off the basis, which orders them by source vertex first.
    # An arrow not ending where basis[k] starts gives a zero row, and for
    # basis[k] = p * c, x * basis[k] = (x * p) * c is folded from the row
    # of its parent p, which the basis lists earlier.
    arrow_pos = {p.arrows[0]: i for i, p in enumerate(a.basis) if p.length == 1}
    action: List[List[Vec]] = []
    for p in a.basis:
        if p.length:
            parent = action[a._pos[p.source, p.arrows[:-1]]]
            action.append([a.apply_arrow(row, p.arrows[-1]) if row else _ZERO_ROW for row in parent])
        else:
            arrows = enumerate(a.quiver.arrows)
            action.append([{arrow_pos[i]: ONE} if x.target == p.source else _ZERO_ROW for i, x in arrows])
    reversed_basis = [Path(p.target, p.arrows[::-1], p.source) for p in a.basis]
    op = PresentedAlgebra(a.quiver.reverse(), reversed_basis, action)
    op.relations = [_reverse_element(r, op.quiver) for r in a.relations]
    op.kept_relations = [_reverse_element(r, op.quiver) for r in a.kept_relations]
    op.loewy_length = a.loewy_length
    op._opposite = weakref.ref(a)
    return op


def build_algebra(
    quiver: Quiver,
    relations: Sequence[PathAlgElement] = (),
    length_cap: int = 20,
) -> PresentedAlgebra:
    """Build the quotient algebra, raising NotFiniteDimensionalError when the
    dimension has not stabilized by the length cap."""
    relations = _validate_relations(quiver, relations)
    alg = _stabilize(quiver, relations, length_cap)[1]
    alg.relations = list(relations)
    return alg


def build_dimension_only(
    quiver: Quiver,
    relations: Sequence[PathAlgElement] = (),
    length_cap: int = 20,
) -> int:
    """The certified dimension of build_algebra's quotient, without
    keeping the algebra."""
    relations = _validate_relations(quiver, relations)
    return _stabilize(quiver, relations, length_cap)[1].dim
