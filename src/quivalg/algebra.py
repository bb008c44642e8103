"""Finite-dimensional quotients of path algebras.

build_algebra presents KQ/I for the two-sided ideal I generated by the
given relations, which must be vertex-homogeneous with every term of
length at least two (so I sits inside the square of the arrow ideal J).

Paths are ordered by length, then lex by arrow index.  The engine sweeps
one length level at a time and keeps, for every stored path, its class
modulo the span of ideal rows whose leading path has already occurred: a
path is either basis (pivot free) or carries a residue row over smaller
basis paths.  A level imposes three kinds of rows: folds of parent
classes under right extension, one left-consistency row per path whose
suffix is not basis, and the relations whose longest term sits at this
level.  Rows echelonize against the level's undecided paths; a surviving
row led by an older basis path kills it, and translate rows of the dead
path are injected until the collapse settles.  The span imposed through
level L equals the span of all ideal rows with lead length <= L, so
basis and residues agree with direct echelonization of the whole ideal
span under the path order.

Only a frontier of paths is stored.  Level L holds the paths a*m*b whose
middle m (the path without its first and last arrow) is a live basis
path when the level starts: the right children of the basis paths of
level L-1, which fill the right-extension table, and their left
extensions, which fill the left one.  The parent and the suffix of a
frontier path are frontier paths of level L-1.  A path whose middle is
not basis imposes nothing new: its middle is congruent to smaller paths
already, so its two folds agree by induction on the lower levels (the
overlap argument of Bergman's diamond lemma, as in noncommutative
Groebner bases).  The store therefore holds at most vertices + arrows +
the sum of indeg(source m) * outdeg(target m) over the basis paths m
found so far, whatever the length cap.

Acceptance is checked on the extracted multiplication table: once a
level creates no new basis paths (after which no later level can
either), the certificate builds the PresentedAlgebra from the table and
checks, through that algebra's own multiplication, (a) the radical span
iteration reaching zero, which bounds the nilpotency degree of the arrow
image, and (b) every relation folding to zero from every basis element.
Check (a) first asks that every nontrivial basis path be the unit row of
its parent times its last arrow, as the sweep's table always has it.  A
basis path of length >= k is then a product of k arrows, so the basis
paths of length >= k span part of J^k, and only the rest of J^k, its
projection onto the shorter basis paths, is carried as echelon vectors.
That rest is seeded by the table rows p * arrow that are not a basis
path, read off the table, and grows by its own products with the arrows;
for a table whose relations are homogeneous it stays empty and check (a)
multiplies nothing.  Check (b) puts the terms of all relations that
start at one vertex into one prefix tree keyed by arrow index and folds
each basis element once down the tree, one apply_arrow per edge, pruning
the subtree of a prefix that folds to zero; the per-relation sums, and
so the verdict, are those of folding every term separately.  Together
(a) and (b) prove the table presents exactly KQ/I, so the sweep can stop
even while longer paths still carry nonzero classes, and the certified
algebra is the one build_algebra returns.  If no level certifies before
the length cap, NotFiniteDimensionalError is raised.

The opposite algebra carries a table of its own: row k, arrow a is the
product a * basis[k], left multiplication by the arrow in the original
algebra.

The sweep is plain Python over exact rationals.  A relation enters as
the sum of its terms' classes, each term folded arrow by arrow through
the tables; every stored residue is normalized by its leading
coefficient, so scaling a relation changes nothing.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import MalformedRelationError, NotFiniteDimensionalError
from .linalg import ONE, QQ, ZERO
from .quiver import Path, PathAlgElement, Quiver

# there is no compiled sweep kernel; perfbench/worker.py reads this flag
# for the environment block of every benchmark run
_HAVE_C = False

Vec = Dict[int, "QQ"]


def _iadd(acc: Vec, row: Vec, c: "QQ") -> None:
    """acc += c * row, dropping entries that cancel."""
    for p, v in row.items():
        s = acc.get(p, ZERO) + c * v
        if s:
            acc[p] = s
        else:
            acc.pop(p, None)


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
        """Id of pid*arrow (side 0) or arrow*pid (side 1); -1 when the
        two do not compose."""
        cid = self.left.get((ai, pid)) if side else self.right.get((pid, ai))
        if cid is not None:
            return cid
        a = self.quiver.arrows[ai]
        if (a.target == self.src[pid]) if side else (a.source == self.tgt[pid]):
            raise RuntimeError(f"path {pid} extended by arrow {ai} is not stored")
        return -1

    def path_of(self, pid: int) -> Path:
        src, tgt = self.src[pid], self.tgt[pid]
        out: List[int] = []
        while self.level[pid] > 0:
            out.append(self.last[pid])
            pid = self.parent[pid]
        return Path(src, tuple(reversed(out)), tgt)


# -- level sweep ------------------------------------------------------------


_BASIS = object()  # window marker for paths kept as basis


class _Sweep:
    """Level-by-level sweep state over exact rationals."""

    def __init__(self, paths: _Paths):
        self.paths = paths
        self.nA = len(paths.quiver.arrows)
        self.bpos: Dict[int, int] = {}
        self.pid_of: List[int] = []
        self.dead: List[bool] = []
        self.tabR: List[List[Optional[Vec]]] = []
        self.tabL: List[List[Optional[Vec]]] = []
        self.side: Dict[int, Vec] = {}
        self.nalive = 0
        self.nlast = 0
        # input indices of the relations whose rows survived pass 2b
        self.kept: List[int] = []
        n = paths.quiver.num_vertices
        for pid in range(n):
            self._basis_add(pid)
        _, lvl1 = paths.add_level(self.is_live)
        for pid in range(n, lvl1):
            self._basis_add(pid)
            ai = paths.last[pid]
            self.tabR[self.bpos[paths.src[pid]]][ai] = {pid: ONE}
            self.tabL[self.bpos[paths.tgt[pid]]][ai] = {pid: ONE}
        self.win: List[Tuple[int, int, Dict[int, object]]] = [
            (0, n, {pid: _BASIS for pid in range(n)}),
            (n, lvl1, {pid: _BASIS for pid in range(n, lvl1)}),
        ]
        self.nlast = lvl1 - n
        self.lo = self.hi = 0
        self.cand: Dict[int, Vec] = {}
        self.kills: List[int] = []

    def _basis_add(self, pid: int) -> None:
        self.bpos[pid] = len(self.pid_of)
        self.pid_of.append(pid)
        self.dead.append(False)
        self.tabR.append([None] * self.nA)
        self.tabL.append([None] * self.nA)
        self.nalive += 1

    def is_live(self, pid: int) -> bool:
        pos = self.bpos.get(pid)
        return pos is not None and not self.dead[pos]

    def _class_of(self, pid: int) -> Vec:
        for lo, hi, d in self.win:
            if lo <= pid < hi:
                v = d.get(pid)
                if v is None:
                    return {pid: ONE}
                if v is _BASIS:
                    pos = self.bpos.get(pid)
                    if pos is not None and self.dead[pos]:
                        return self.side[pid]
                    return {pid: ONE}
                return v  # type: ignore[return-value]
        pos = self.bpos.get(pid)
        if pos is None:
            raise RuntimeError(f"class of path {pid} is out of reach")
        if self.dead[pos]:
            return self.side[pid]
        return {pid: ONE}

    def _ext_iadd(self, acc: Vec, bpid: int, ai: int, side: int, c: "QQ") -> None:
        pos = self.bpos[bpid]
        tab = (self.tabL if side else self.tabR)[pos][ai]
        if tab is not None:
            _iadd(acc, tab, c)
            return
        cid = self.paths.child(bpid, ai, side)
        if cid < 0:
            return
        _iadd(acc, self._class_of(cid), c)

    def _times_arrow(self, cls: Vec, ai: int) -> Vec:
        """Class of cls * arrow, by right extension of its basis paths."""
        acc: Vec = {}
        for b, c in cls.items():
            self._ext_iadd(acc, b, ai, 0, c)
        return acc

    def _fold(self, p: Path) -> Vec:
        """Class of a path, its arrows folded one by one through the tables."""
        cls: Vec = {p.source: ONE}
        for ai in p.arrows:
            cls = self._times_arrow(cls, ai)
        return cls

    def _is_live_unit(self, cls: Vec, pid: int) -> bool:
        return len(cls) == 1 and cls.get(pid) == ONE and self.is_live(pid)

    def _row_insert(self, row: Vec) -> bool:
        """Echelonize row against the imposed span.

        True when the row survives, as a new candidate or by killing a
        basis path; False when it reduces to zero.
        """
        lo, hi = self.lo, self.hi
        while row:
            lead = max(row)
            if lo <= lead < hi and lead not in self.bpos and lead not in self.side:
                res = self.cand.get(lead)
                if res is None:
                    c = row.pop(lead)
                    self.cand[lead] = {p: -v / c for p, v in row.items()}
                    return True
                _iadd(row, res, row.pop(lead))
                continue
            if lead in self.side:
                _iadd(row, self.side[lead], row.pop(lead))
                continue
            pos = self.bpos[lead]
            assert not self.dead[pos]
            c = row.pop(lead)
            self.side[lead] = {p: -v / c for p, v in row.items()}
            self.dead[pos] = True
            self.nalive -= 1
            self.kills.append(pos)
            return True
        return False

    def _inject_translates(self, pos: int) -> None:
        xpid = self.pid_of[pos]
        for ai in range(self.nA):
            for side in (0, 1):
                tab = (self.tabL if side else self.tabR)[pos][ai]
                if tab is not None:
                    acc = dict(tab)
                else:
                    cid = self.paths.child(xpid, ai, side)
                    if cid < 0:
                        continue
                    acc = dict(self._class_of(cid))
                res = self.side[xpid]
                for b, c in list(res.items()):
                    self._ext_iadd(acc, b, ai, side, -c)
                self._row_insert(acc)

    def _drain(self) -> None:
        while self.kills:
            self._inject_translates(self.kills.pop())

    def run_level(
        self, lo: int, hi: int, seeds: Sequence[Tuple[int, PathAlgElement]]
    ) -> None:
        t = self.paths
        self.lo, self.hi = lo, hi
        self.cand = {}
        self.kills = []
        cur: Dict[int, object] = {}
        self.win = [self.win[-1], (lo, hi, cur)]
        patch: List[int] = []

        # pass 1: fold classes from parents; children of live basis wait
        for pid in range(lo, hi):
            par = t.parent[pid]
            cls = self._class_of(par)
            if self._is_live_unit(cls, par):
                continue
            acc = self._times_arrow(cls, t.last[pid])
            cur[pid] = acc
            if any(lo <= p < hi for p in acc):
                patch.append(pid)

        # pass 2a: left-consistency rows
        for pid in range(lo, hi):
            s = t.suffix[pid]
            scls = self._class_of(s)
            if self._is_live_unit(scls, s):
                continue
            a = t.first[pid]
            acc = dict(self._class_of(pid))
            for b, c in scls.items():
                self._ext_iadd(acc, b, a, 1, -c)
            self._row_insert(acc)
            self._drain()

        # pass 2b: relations topping out at this level; every row imposed
        # so far lies in the ideal of the relations fed so far, so a row
        # that reduces to zero is a relation already in that ideal
        for idx, rel in seeds:
            acc = {}
            for p, c in rel.terms.items():
                _iadd(acc, self._fold(p), c)
            if self._row_insert(acc):
                self.kept.append(idx)
            self._drain()

        # candidates orphaned by a parent killed during this level
        winserted: set = set()
        while True:
            changed = False
            for pid in range(lo, hi):
                if pid in cur or pid in winserted:
                    continue
                par = t.parent[pid]
                if self.is_live(par):
                    continue
                winserted.add(pid)
                changed = True
                acc = {pid: ONE}
                ai = t.last[pid]
                for b, c in self._class_of(par).items():
                    self._ext_iadd(acc, b, ai, 0, -c)
                self._row_insert(acc)
                self._drain()
            if not changed:
                break

        # assign classes
        nb = 0
        for pid in range(lo, hi):
            if pid in cur:
                continue
            if pid in self.cand:
                cur[pid] = dict(self.cand[pid])
                patch.append(pid)
            elif pid not in winserted:
                self._basis_add(pid)
                cur[pid] = _BASIS
                nb += 1
            else:
                cur[pid] = self._times_arrow(self._class_of(t.parent[pid]), t.last[pid])
                patch.append(pid)

        # patch stored rows free of killed candidates; killed candidates
        # reference only smaller pids, so substitution terminates
        for ppid in patch:
            while True:
                row = cur[ppid]
                assert isinstance(row, dict)
                if not any(
                    lo <= p < hi and isinstance(cur[p], dict) for p in row
                ):
                    break
                acc = {}
                for p, c in row.items():
                    sub = cur[p] if lo <= p < hi else None
                    if isinstance(sub, dict):
                        _iadd(acc, sub, c)
                    else:
                        _iadd(acc, {p: ONE}, c)
                cur[ppid] = acc

        # persist tables
        for pid in range(lo, hi):
            v = cur[pid]
            row: Vec = {pid: ONE} if v is _BASIS else v  # type: ignore[assignment]
            bp = self.bpos.get(t.parent[pid])
            if bp is not None:
                self.tabR[bp][t.last[pid]] = row
            bs = self.bpos.get(t.suffix[pid])
            if bs is not None:
                self.tabL[bs][t.first[pid]] = row

        self.nlast = nb

    def live_positions(self) -> List[int]:
        return [pos for pos, dead in enumerate(self.dead) if not dead]

    def action_row(self, pos: int, ai: int) -> Vec:
        """Class of basis path pid_of[pos] times an arrow, over live paths."""
        row = self.tabR[pos][ai]
        if row is None:
            return {}
        out = dict(row)
        while True:
            hit = next((p for p in out if p in self.side), None)
            if hit is None:
                return out
            _iadd(out, self.side[hit], out.pop(hit))


# a prefix-tree node: children keyed by arrow index, and the
# (relation index, coefficient) pairs of the terms that end at the node
_Node = Tuple[Dict[int, "_Node"], List[Tuple[int, "QQ"]]]


def _relations_vanish(alg: "PresentedAlgebra", relations: Sequence[PathAlgElement]) -> bool:
    """True when every relation folds to zero from every basis element.

    The terms of all relations starting at one vertex share one prefix
    tree.  Each basis element ending at that vertex is folded once along
    every edge of the tree, by one apply_arrow call, and c * vec is added
    into the relation's accumulator at each term (c, path) ending there.
    A prefix that folds to zero prunes its subtree: every term through it
    folds to zero too.  The accumulators are the sums the terms give when
    each is folded on its own, so the verdict is the same.  A basis
    element not ending at a relation's source has no table entry for the
    first arrow of any term, so it folds every term to zero.
    """
    trees: Dict[int, _Node] = {}
    for idx, r in enumerate(relations):
        root = trees.setdefault(r.uniform_endpoints()[0], ({}, []))
        for p, c in r.terms.items():
            node = root
            for ai in p.arrows:
                node = node[0].setdefault(ai, ({}, []))
            node[1].append((idx, c))
    for source, root in trees.items():
        for u in range(alg.num_vertices):
            for k in alg.endpoint_basis(u, source):
                acc: Dict[int, Vec] = {}
                stack: List[Tuple[_Node, Vec]] = [(root, {k: ONE})]
                while stack:
                    (children, ends), vec = stack.pop()
                    for idx, c in ends:
                        _iadd(acc.setdefault(idx, {}), vec, c)
                    for ai, child in children.items():
                        out = alg.apply_arrow(vec, ai)
                        if out:
                            stack.append((child, out))
                if any(acc.values()):
                    return False
    return True


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
    e * arrow for the echelon vectors e of pi_k(J^k).  A row that is the
    basis path p*arrow itself projects to zero, and so does a row whose
    support has no path of length <= k, so only the rows of a
    nonhomogeneous table and the few echelon vectors do any work.
    """
    basis, action = alg.basis, alg._action
    nA = len(alg.quiver.arrows)
    length = [p.length for p in basis]
    pos = {(p.source, p.arrows): k for k, p in enumerate(basis)}
    # rows_at[k] lists the table rows whose projection joins pi_(k+1)(J^(k+1))
    rows_at: Dict[int, List[Vec]] = {}
    for k, p in enumerate(basis):
        if p.length:
            par = pos.get((p.source, p.arrows[:-1]))
            if par is None or action[par][p.arrows[-1]] != {k: ONE}:
                return None
        for a in alg.quiver.out_arrows[p.target]:
            row = action[k][a.index]
            if row and (p.source, p.arrows + (a.index,)) not in pos:
                for power in range(max(min(length[i] for i in row), 1), p.length + 1):
                    rows_at.setdefault(power, []).append(row)

    echelon: Dict[int, Vec] = {}

    def span_insert(vec: Vec) -> Optional[Vec]:
        while vec:
            lead = max(vec)
            piv = echelon.get(lead)
            if piv is None:
                c = vec[lead]
                if c != ONE:
                    inv = ONE / c
                    vec = {p: x * inv for p, x in vec.items()}
                echelon[lead] = vec
                return vec
            # piv[lead] is one, so this cancels the lead
            _iadd(vec, piv, -vec[lead])
        return None

    per_length = Counter(length)
    long_paths = alg.dim - per_length[0]  # basis paths of length >= power
    layer: List[Vec] = []  # echelon vectors of pi_power(J^power)
    dims: List[int] = []
    power = 1
    while long_paths or layer:
        if power > alg.dim + 1:
            return None  # not nilpotent: the table cannot be a quotient by J^2-ideals
        dims.append(long_paths + len(layer))
        echelon.clear()
        products = (alg.apply_arrow(e, ai) for e in layer for ai in range(nA))
        nxt: List[Vec] = []
        for row in chain(rows_at.get(power, ()), products):
            stored = span_insert({i: c for i, c in row.items() if length[i] <= power})
            if stored is not None:
                nxt.append(stored)
        layer = nxt
        long_paths -= per_length[power]
        power += 1
    return dims


def _certify(eng: _Sweep, relations: Sequence[PathAlgElement]) -> Optional["PresentedAlgebra"]:
    """Prove the extracted table presents KQ/I and return it as an
    algebra, or return None.

    Checks, through the algebra's own apply_arrow, that every relation
    folds to zero starting from every basis element (so folding kills
    the whole two-sided ideal) and that the radical span iteration dies
    out (so long paths fold to zero and every path's fold telescopes back
    to its class).  Together with the table rows lying in the ideal span
    this identifies the table with KQ/I and yields the nilpotency degree
    of the arrow image as a byproduct.

    The relation check (_relations_vanish) folds each basis element once
    through a prefix tree of the terms of all relations sharing a source
    vertex, and prunes the subtree of every prefix that folds to zero.
    Its verdict is the one folding every term on its own would give.
    The radical span iteration (_radical_dims) first checks that every
    nontrivial basis path is the unit row of its parent times its last
    arrow, which the sweep's table always satisfies; then the basis paths
    of length >= k span most of J^k, and only the rest is multiplied.

    The table is read only where it can be nonzero: a basis path times
    an arrow not leaving its target is zero.
    """
    live = eng.live_positions()
    pos_of = {eng.pid_of[pos]: k for k, pos in enumerate(live)}
    paths = eng.paths
    out_arrows = paths.quiver.out_arrows
    alg = PresentedAlgebra()
    alg.quiver = paths.quiver
    alg._set_basis([paths.path_of(eng.pid_of[pos]) for pos in live])
    alg._action = []
    for pos in live:
        rows: List[Vec] = [{} for _ in range(eng.nA)]
        for b in out_arrows[paths.tgt[eng.pid_of[pos]]]:
            rows[b.index] = {pos_of[p]: c for p, c in eng.action_row(pos, b.index).items()}
        alg._action.append(rows)

    if not _relations_vanish(alg, relations):
        return None
    dims = _radical_dims(alg)
    if dims is None:
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
    ones.
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
                return eng, alg
        if hi == lo and level >= last_seed:
            break  # no stored path extends and no relation is left to feed
    raise NotFiniteDimensionalError(
        f"dimension did not stabilize up to path length {length_cap} "
        f"({eng.nalive} basis paths so far and not certified)"
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
    checked.  The opposite carries a table of its own, read off left
    multiplication by arrows in the original algebra.
    """

    def __init__(self):
        # populated by the quotient certificate or the opposite constructor
        self.quiver: Quiver = None  # type: ignore[assignment]
        self.relations: List[PathAlgElement] = []
        self.length_cap: int = 0
        self.basis: List[Path] = []
        self.dim: int = 0
        self.loewy_length: int = 0
        self._action: List[List[Vec]] = []
        self._by_endpoints: Dict[Tuple[int, int], List[int]] = {}
        self._mult_cache: Dict[Tuple[int, int], Vec] = {}
        self._opposite: Optional["PresentedAlgebra"] = None
        # indecomposable projectives, filled by modules.indec_projectives
        self._projectives: Optional[list] = None

    def _set_basis(self, basis: List[Path]) -> None:
        self.basis = basis
        self.dim = len(basis)
        for i, p in enumerate(basis):
            self._by_endpoints.setdefault((p.source, p.target), []).append(i)

    # -- structure ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.quiver.num_vertices

    def idempotent_position(self, v: int) -> int:
        # trivial paths are never pivots, so they head the basis in vertex order
        return v

    def endpoint_basis(self, u: int, v: int) -> List[int]:
        """Basis positions of paths from vertex u to vertex v."""
        return self._by_endpoints.get((u, v), [])

    def basis_element(self, i: int) -> PathAlgElement:
        return PathAlgElement.from_path(self.quiver, self.basis[i])

    def identity_vec(self) -> Vec:
        return {self.idempotent_position(v): ONE for v in range(self.num_vertices)}

    # -- multiplication -------------------------------------------------

    def apply_arrow(self, vec: Vec, ai: int) -> Vec:
        """Right-multiply a coefficient vector by an arrow."""
        out: Vec = {}
        action = self._action
        for k, c in vec.items():
            _iadd(out, action[k][ai], c)
        return out

    def mult_basis(self, i: int, j: int) -> Vec:
        """Product of basis elements i and j as a sparse coefficient vector."""
        key = (i, j)
        cached = self._mult_cache.get(key)
        if cached is not None:
            return cached
        p, q = self.basis[i], self.basis[j]
        if p.target != q.source:
            out: Vec = {}
        else:
            out = {i: ONE}
            for ai in q.arrows:
                if not out:
                    break
                out = self.apply_arrow(out, ai)
        self._mult_cache[key] = out
        return out

    def multiply_vec(self, xs: Vec, ys: Vec) -> Vec:
        out: Vec = {}
        for i, a in xs.items():
            for j, b in ys.items():
                prod = self.mult_basis(i, j)
                if prod:
                    _iadd(out, prod, a * b)
        return out

    def element_vec(self, el: PathAlgElement) -> Vec:
        """Normal-form coordinates of a free path-algebra element."""
        out: Vec = {}
        for p, c in el.terms.items():
            vec: Vec = {self.idempotent_position(p.source): ONE}
            for ai in p.arrows:
                if not vec:
                    break
                vec = self.apply_arrow(vec, ai)
            _iadd(out, vec, c)
        return out

    def vec_to_element(self, vec: Vec) -> PathAlgElement:
        return PathAlgElement(self.quiver, {self.basis[i]: c for i, c in vec.items()})

    def normal_form(self, el: PathAlgElement) -> PathAlgElement:
        """Canonical representative over the monomial basis."""
        return self.vec_to_element(self.element_vec(el))

    # -- opposite -------------------------------------------------------

    @property
    def opposite(self) -> "PresentedAlgebra":
        """Opposite algebra with reversed arrows; an involution on the nose.

        Its basis is the reversed basis paths, in the same positions, and
        its table row k, arrow a is the product a * basis[k] in this
        algebra.
        """
        if self._opposite is None:
            self._opposite = _make_opposite(self)
        return self._opposite

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
    op = PresentedAlgebra()
    op.quiver = a.quiver.reverse()
    op.relations = [_reverse_element(r, op.quiver) for r in a.relations]
    op.length_cap = a.length_cap
    op._set_basis([Path(p.target, tuple(reversed(p.arrows)), p.source) for p in a.basis])
    op.loewy_length = a.loewy_length
    # arrows are basis paths since relations lie in J^2; read their
    # positions off the basis, which orders them by source vertex first.
    # An arrow not ending where basis[k] starts gives a zero row, which
    # is not worth a cache entry in a.
    arrow_pos = {p.arrows[0]: i for i, p in enumerate(a.basis) if p.length == 1}
    op._action = [
        [
            a.mult_basis(arrow_pos[ai], k) if arrow.target == p.source else {}
            for ai, arrow in enumerate(a.quiver.arrows)
        ]
        for k, p in enumerate(a.basis)
    ]
    op._opposite = a
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
    alg.length_cap = length_cap
    for r in relations:
        if alg.element_vec(r):
            raise MalformedRelationError(
                f"relation {r!r} does not vanish in the constructed quotient"
            )
    return alg


def build_dimension_only(
    quiver: Quiver,
    relations: Sequence[PathAlgElement] = (),
    length_cap: int = 20,
) -> int:
    """Certified dimension only, skipping the relation post-check."""
    relations = _validate_relations(quiver, relations)
    return _stabilize(quiver, relations, length_cap)[1].dim
