"""Finite-dimensional quotients of path algebras.

build_algebra presents KQ/I for the two-sided ideal I generated by the
given relations, which must be vertex-homogeneous with every term of
length at least two (so I sits inside the square of the arrow ideal J).

Paths are enumerated level by level in a trie, in length-then-lex order
by arrow index.  The engine sweeps one length level at a time and keeps,
for every path seen so far, its class modulo the span of ideal rows
whose leading path has already occurred: a path is either basis (pivot
free) or carries a residue row over smaller basis paths.  A level
imposes three kinds of rows: folds of parent classes under right
extension, one left-consistency row per path whose suffix is not basis,
and the relations whose longest term sits at this level.  Rows
echelonize against the level's undecided paths; a surviving row led by
an older basis path kills it, and translate rows of the dead path are
injected until the collapse settles.  The span imposed through level L
equals the span of all ideal rows with lead length <= L, so basis and
residues agree with direct echelonization of the whole ideal span under
the path order.

Acceptance is checked on the extracted multiplication table: once a
level creates no new basis paths (after which no later level can
either), the table is certified by (a) the radical span iteration
reaching zero, which bounds the nilpotency degree of the arrow image,
and (b) every relation folding to zero from every basis element.
Together these prove the table presents exactly KQ/I, so the sweep can
stop even while longer paths still carry nonzero classes.  If no level
certifies before the length cap, NotFiniteDimensionalError is raised.

The sweep is plain Python over exact rationals.  Relations enter as
rational rows over trie path ids; every stored residue is normalized by
its leading coefficient, so scaling a relation changes nothing.  The
trie alone uses numpy, to generate whole levels of paths at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import MalformedRelationError, NotFiniteDimensionalError
from .linalg import ONE, QQ, ZERO
from .quiver import Path, PathAlgElement, Quiver

# there is no compiled sweep kernel; perfbench/worker.py reads this flag
# for the environment block of every benchmark run
_HAVE_C = False

Vec = Dict[int, "QQ"]


def _excl_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.empty(len(a), dtype=np.int64)
    if len(a):
        np.cumsum(a[:-1], out=out[1:])
        out[0] = 0
    return out


class _Trie:
    """All paths up to a length cap, as parallel arrays indexed by path id.

    Ids follow the global path order (length, then lex by arrow index).
    Children of one path are contiguous, so right extension is arithmetic;
    left extension is a flat lookup filled via suffix links.  Levels are
    generated wholesale with numpy; path counts grow geometrically, so the
    per-level concatenation stays linear overall.
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        n = quiver.num_vertices
        nA = len(quiver.arrows)
        self.n_arrows = nA
        self.out_rank = np.full(n * nA, -1, dtype=np.int32)
        self.in_rank = np.full(n * nA, -1, dtype=np.int32)
        for v in range(n):
            for r, a in enumerate(quiver.out_arrows[v]):
                self.out_rank[v * nA + a.index] = r
            for r, a in enumerate(quiver.in_arrows[v]):
                self.in_rank[v * nA + a.index] = r
        self.arrow_tgt = np.array([a.target for a in quiver.arrows] or [0], dtype=np.int32)
        self.out_deg = np.array([len(quiver.out_arrows[v]) for v in range(n)], dtype=np.int32)
        self.in_deg = np.array([len(quiver.in_arrows[v]) for v in range(n)], dtype=np.int32)
        self.out_arrows_idx = [
            np.array([a.index for a in quiver.out_arrows[v]] or [0], dtype=np.int32)
            for v in range(n)
        ]
        # per-path arrays; level 0 is the trivial path at each vertex
        vid = np.arange(n, dtype=np.int32)
        neg = np.full(n, -1, dtype=np.int32)
        self.parent = neg.copy()
        self.last = neg.copy()
        self.first = neg.copy()
        self.suffix = vid.copy()
        self.src = vid.copy()
        self.tgt = vid.copy()
        self.level = np.zeros(n, dtype=np.int32)
        self.child_start = neg.copy()
        self.left_start = _excl_cumsum(self.in_deg).astype(np.int32)
        self.left_ext = np.full(int(self.in_deg.sum()), -1, dtype=np.int32)
        self.level_start: List[int] = [0, n]
        self.max_level = 0

    def extend_to(self, maxlen: int) -> None:
        while self.max_level < maxlen:
            self._add_level()

    def _add_level(self) -> None:
        lvl = self.max_level + 1
        nA = self.n_arrows
        lo, hi = self.level_start[lvl - 1], self.level_start[lvl]
        base = self.level_start[-1]
        ptgt = self.tgt[lo:hi]
        has = self.out_deg[ptgt] > 0
        parents = (np.arange(lo, hi, dtype=np.int64))[has]
        counts = self.out_deg[ptgt[has]].astype(np.int64)
        total = int(counts.sum())
        starts = base + _excl_cumsum(counts)
        self.child_start[parents] = starts.astype(np.int32)

        child_parent = np.repeat(parents, counts).astype(np.int32)
        child_last = np.empty(total, dtype=np.int32)
        pt = ptgt[has]
        for v in range(self.quiver.num_vertices):
            deg = int(self.out_deg[v])
            if not deg:
                continue
            sel = pt == v
            nv = int(sel.sum())
            if not nv:
                continue
            # children of one parent are contiguous in arrow-rank order
            idx = ((starts[sel] - base)[:, None] + np.arange(deg, dtype=np.int64)[None, :]).ravel()
            child_last[idx] = np.tile(self.out_arrows_idx[v], nv)

        child_src = self.src[child_parent]
        child_tgt = self.arrow_tgt[child_last]
        child_first = child_last if lvl == 1 else self.first[child_parent]
        if lvl == 1:
            child_suffix = child_tgt.copy()
        else:
            sp = self.suffix[child_parent]
            child_suffix = (
                self.child_start[sp]
                + self.out_rank[self.tgt[sp].astype(np.int64) * nA + child_last]
            ).astype(np.int32)
        ideg = self.in_deg[child_src].astype(np.int64)
        child_left_start = (len(self.left_ext) + _excl_cumsum(ideg)).astype(np.int32)

        self.parent = np.concatenate([self.parent, child_parent])
        self.last = np.concatenate([self.last, child_last])
        self.first = np.concatenate([self.first, child_first])
        self.suffix = np.concatenate([self.suffix, child_suffix])
        self.src = np.concatenate([self.src, child_src])
        self.tgt = np.concatenate([self.tgt, child_tgt])
        self.level = np.concatenate([self.level, np.full(total, lvl, dtype=np.int32)])
        self.child_start = np.concatenate([self.child_start, np.full(total, -1, dtype=np.int32)])
        self.left_start = np.concatenate([self.left_start, child_left_start])
        self.left_ext = np.concatenate(
            [self.left_ext, np.full(int(ideg.sum()), -1, dtype=np.int32)]
        )
        # register each child as the left extension first(child) * suffix(child)
        slots = (
            self.left_start[child_suffix].astype(np.int64)
            + self.in_rank[self.src[child_suffix].astype(np.int64) * nA + child_first]
        )
        self.left_ext[slots] = np.arange(base, base + total, dtype=np.int32)

        self.level_start.append(base + total)
        self.max_level = lvl

    def right_child(self, pid: int, ai: int) -> int:
        """Id of path*arrow, or -1 if incomposable or not generated."""
        r = self.out_rank[self.tgt[pid] * self.n_arrows + ai]
        if r < 0:
            return -1
        cs = self.child_start[pid]
        if cs < 0:
            return -1
        return int(cs + r)

    def left_child(self, ai: int, pid: int) -> int:
        """Id of arrow*path, or -1 if incomposable or not generated."""
        r = self.in_rank[self.src[pid] * self.n_arrows + ai]
        if r < 0:
            return -1
        return int(self.left_ext[self.left_start[pid] + r])

    def walk(self, vertex: int, arrows: Sequence[int]) -> int:
        """Id of the path with the given source and arrow list, or -1."""
        pid = vertex
        for ai in arrows:
            pid = self.right_child(pid, ai)
            if pid < 0:
                return -1
        return pid

    def arrows_of(self, pid: int) -> Tuple[int, ...]:
        out: List[int] = []
        while self.level[pid] > 0:
            out.append(int(self.last[pid]))
            pid = int(self.parent[pid])
        return tuple(reversed(out))

    def path_of(self, pid: int) -> Path:
        return Path(int(self.src[pid]), self.arrows_of(pid), int(self.tgt[pid]))


# -- level sweep ------------------------------------------------------------


_BASIS = object()  # window marker for paths kept as basis


class _Sweep:
    """Level-by-level sweep state over exact rationals."""

    def __init__(self, trie: _Trie):
        self.trie = trie
        self.nA = trie.n_arrows
        self.bpos: Dict[int, int] = {}
        self.pid_of: List[int] = []
        self.dead: List[bool] = []
        self.tabR: List[List[Optional[Vec]]] = []
        self.tabL: List[List[Optional[Vec]]] = []
        self.side: Dict[int, Vec] = {}
        self.pins: Dict[int, Optional[Vec]] = {}
        self.nalive = 0
        self.nlast = 0
        # input indices of the relations whose rows survived pass 2b
        self.kept: List[int] = []
        trie.extend_to(1)
        n = trie.quiver.num_vertices
        lvl1 = trie.level_start[2]
        for pid in range(lvl1):
            self._basis_add(pid)
        for pid in range(n, lvl1):
            ai = int(trie.last[pid])
            self.tabR[self.bpos[int(trie.src[pid])]][ai] = {pid: ONE}
            self.tabL[self.bpos[int(trie.tgt[pid])]][ai] = {pid: ONE}
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

    def add_pin(self, pid: int) -> None:
        self.pins.setdefault(pid, None)

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
        if pos is not None:
            if self.dead[pos]:
                return self.side[pid]
            return {pid: ONE}
        row = self.pins.get(pid)
        if row is None:
            raise RuntimeError(f"class of path {pid} is out of reach")
        return row

    @staticmethod
    def _iadd(acc: Vec, row: Vec, c: "QQ") -> None:
        for p, v in row.items():
            s = acc.get(p, ZERO) + c * v
            if s:
                acc[p] = s
            else:
                acc.pop(p, None)

    def _ext_iadd(self, acc: Vec, bpid: int, ai: int, side: int, c: "QQ") -> None:
        pos = self.bpos[bpid]
        tab = (self.tabL if side else self.tabR)[pos][ai]
        if tab is not None:
            self._iadd(acc, tab, c)
            return
        t = self.trie
        cid = t.left_child(ai, bpid) if side else t.right_child(bpid, ai)
        if cid < 0:
            return
        self._iadd(acc, self._class_of(cid), c)

    def _is_live_unit(self, cls: Vec, pid: int) -> bool:
        if len(cls) != 1 or cls.get(pid) != ONE:
            return False
        pos = self.bpos.get(pid)
        return pos is not None and not self.dead[pos]

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
                self._iadd(row, res, row.pop(lead))
                continue
            if lead in self.side:
                self._iadd(row, self.side[lead], row.pop(lead))
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
        t = self.trie
        xpid = self.pid_of[pos]
        for ai in range(self.nA):
            for side in (0, 1):
                tab = (self.tabL if side else self.tabR)[pos][ai]
                if tab is not None:
                    acc = dict(tab)
                else:
                    cid = t.left_child(ai, xpid) if side else t.right_child(xpid, ai)
                    if cid < 0 or cid >= self.hi:
                        continue
                    acc = dict(self._class_of(cid))
                res = self.side[xpid]
                for b, c in list(res.items()):
                    self._ext_iadd(acc, b, ai, side, -c)
                self._row_insert(acc)

    def _drain(self) -> None:
        while self.kills:
            self._inject_translates(self.kills.pop())

    def run_level(self, lo: int, hi: int, seeds: Sequence[Tuple[int, Vec]]) -> None:
        t = self.trie
        self.lo, self.hi = lo, hi
        self.cand = {}
        self.kills = []
        cur: Dict[int, object] = {}
        self.win = [self.win[-1], (lo, hi, cur)]
        patch: List[int] = []

        # pass 1: fold classes from parents; children of live basis wait
        for pid in range(lo, hi):
            par = int(t.parent[pid])
            cls = self._class_of(par)
            if self._is_live_unit(cls, par):
                continue
            acc: Vec = {}
            ai = int(t.last[pid])
            for b, c in cls.items():
                self._ext_iadd(acc, b, ai, 0, c)
            cur[pid] = acc
            if any(lo <= p < hi for p in acc):
                patch.append(pid)

        # pass 2a: left-consistency rows
        for pid in range(lo, hi):
            s = int(t.suffix[pid])
            scls = self._class_of(s)
            if self._is_live_unit(scls, s):
                continue
            a = int(t.first[pid])
            acc = dict(self._class_of(pid))
            for b, c in scls.items():
                self._ext_iadd(acc, b, a, 1, -c)
            self._row_insert(acc)
            self._drain()

        # pass 2b: relations topping out at this level; every row imposed
        # so far lies in the ideal of the relations fed so far, so a row
        # that reduces to zero is a relation already in that ideal
        for idx, seed in seeds:
            acc = {}
            for p, c in seed.items():
                self._iadd(acc, self._class_of(p), c)
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
                par = int(t.parent[pid])
                pos = self.bpos.get(par)
                if pos is not None and not self.dead[pos]:
                    continue
                winserted.add(pid)
                changed = True
                acc = {pid: ONE}
                ai = int(t.last[pid])
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
                acc = {}
                ai = int(t.last[pid])
                for b, c in self._class_of(int(t.parent[pid])).items():
                    self._ext_iadd(acc, b, ai, 0, c)
                cur[pid] = acc
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
                        self._iadd(acc, sub, c)
                    else:
                        self._iadd(acc, {p: ONE}, c)
                cur[ppid] = acc

        # persist tables and pins
        for pid in range(lo, hi):
            v = cur[pid]
            row: Vec = {pid: ONE} if v is _BASIS else v  # type: ignore[assignment]
            bp = self.bpos.get(int(t.parent[pid]))
            if bp is not None:
                self.tabR[bp][int(t.last[pid])] = row
            bs = self.bpos.get(int(t.suffix[pid]))
            if bs is not None:
                self.tabL[bs][int(t.first[pid])] = row
            if pid in self.pins and self.pins[pid] is None:
                self.pins[pid] = row

        self.nlast = nb

    def basis_pids(self) -> List[int]:
        return [p for i, p in enumerate(self.pid_of) if not self.dead[i]]

    def action_row(self, bi: int, ai: int) -> Vec:
        alive = [i for i in range(len(self.pid_of)) if not self.dead[i]]
        row = self.tabR[alive[bi]][ai]
        if row is None:
            return {}
        out = dict(row)
        while True:
            hit = next((p for p in out if p in self.side), None)
            if hit is None:
                return out
            self._iadd(out, self.side[hit], out.pop(hit))


class _Acceptance:
    """A certified table; kept lists, in input order, the relations whose
    rows survived the sweep, and the others lie in their ideal."""

    __slots__ = ("basis_pids", "action", "loewy", "dim", "kept")

    def __init__(self, basis_pids, action, loewy, kept):
        self.basis_pids = basis_pids
        self.action = action
        self.loewy = loewy
        self.dim = len(basis_pids)
        self.kept = kept


def _certify(
    eng: _Sweep, trie: _Trie, relations: Sequence[PathAlgElement]
) -> Optional[_Acceptance]:
    """Prove the extracted table presents KQ/I, or return None.

    Checks that every relation folds to zero starting from every basis
    element (so folding kills the whole two-sided ideal) and that the
    radical span iteration dies out (so long paths fold to zero and every
    path's fold telescopes back to its class).  Together with the table
    rows lying in the ideal span this identifies the table with KQ/I and
    yields the nilpotency degree of the arrow image as a byproduct.
    """
    basis_pids = eng.basis_pids()
    pos_of = {pid: k for k, pid in enumerate(basis_pids)}
    nA = trie.n_arrows
    dim = len(basis_pids)
    action: List[List[Vec]] = [
        [
            {pos_of[p]: c for p, c in eng.action_row(k, ai).items()}
            for ai in range(nA)
        ]
        for k in range(dim)
    ]

    def apply(vec: Vec, ai: int) -> Vec:
        out: Vec = {}
        for k, c in vec.items():
            for k2, d in action[k][ai].items():
                s = out.get(k2, ZERO) + c * d
                if s:
                    out[k2] = s
                else:
                    out.pop(k2, None)
        return out

    for r in relations:
        for k in range(dim):
            out: Vec = {}
            for p, c in r.terms.items():
                vec: Vec = {k: ONE}
                for ai in p.arrows:
                    if not vec:
                        break
                    vec = apply(vec, ai)
                for j, d in vec.items():
                    s = out.get(j, ZERO) + c * d
                    if s:
                        out[j] = s
                    else:
                        out.pop(j, None)
            if out:
                return None

    # radical span iteration: J^1 is spanned by the nontrivial basis
    # elements; J^(k+1) = sum of J^k * arrow
    echelon: Dict[int, Vec] = {}

    def span_insert(vec: Vec) -> Optional[Vec]:
        vec = dict(vec)
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
            c = vec.pop(lead)
            for p, d in piv.items():
                if p == lead:
                    continue
                s = vec.get(p, ZERO) - c * d
                if s:
                    vec[p] = s
                else:
                    vec.pop(p, None)
        return None

    current: List[Vec] = [
        {k: ONE} for k, pid in enumerate(basis_pids) if trie.level[pid] > 0
    ]
    power = 1
    while current:
        if power > dim + 1:
            return None  # not nilpotent: the table cannot be a quotient by J^2-ideals
        echelon.clear()
        nxt: List[Vec] = []
        for vec in current:
            for ai in range(nA):
                out = apply(vec, ai)
                if out:
                    stored = span_insert(out)
                    if stored is not None:
                        nxt.append(stored)
        current = nxt
        power += 1
    return _Acceptance(basis_pids, action, power, sorted(eng.kept))


def _relation_vecs(relations: Sequence[PathAlgElement], trie: _Trie) -> List[Vec]:
    """Each relation as a sparse rational row over trie path ids."""
    out = []
    for r in relations:
        trie.extend_to(r.max_length())
        vec: Vec = {}
        for p, c in r.terms.items():
            pid = trie.walk(p.source, p.arrows)
            if pid < 0:
                raise MalformedRelationError(
                    f"relation path {p!r} does not live on this quiver"
                )
            vec[pid] = c
        out.append(vec)
    return out


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
        kept.append(rel)
    return kept


def _stabilize(
    quiver: Quiver, relations: Sequence[PathAlgElement], length_cap: int
) -> Tuple[_Trie, _Acceptance]:
    """Sweep levels until the quotient is certified.

    Relations enter at the level of their longest term, tagged with
    their index in relations; a relation never fed because the sweep
    certified first lies in the ideal of the fed ones.
    """
    trie = _Trie(quiver)
    eng = _Sweep(trie)
    seeds_by_level: Dict[int, List[Tuple[int, Vec]]] = {}
    for idx, vec in enumerate(_relation_vecs(relations, trie)):
        top = max(int(trie.level[p]) for p in vec)
        seeds_by_level.setdefault(top, []).append((idx, vec))
        for p in vec:
            eng.add_pin(p)
    level = 1
    while level < length_cap:
        level += 1
        trie.extend_to(level)
        lo, hi = trie.level_start[level], trie.level_start[level + 1]
        eng.run_level(lo, hi, seeds_by_level.get(level, ()))
        if eng.nlast == 0:
            acc = _certify(eng, trie, relations)
            if acc is not None:
                return trie, acc
        if hi == lo:
            break  # the quiver has no longer paths, nothing can change
    raise NotFiniteDimensionalError(
        f"dimension did not stabilize up to path length {length_cap} "
        f"({eng.nalive} basis paths so far and not certified)"
    )


class PresentedAlgebra:
    """Quotient of a path algebra by relations, with a monomial basis.

    The basis starts with the trivial paths in vertex order, then the
    arrows, then longer residue paths in length-then-lex order; basis paths
    are closed under taking subpaths.  Multiplication is carried by the
    right-multiplication-by-arrow rows over the basis; products of longer
    paths fold through them, which stays exact because reduction to the
    basis is a canonical linear projection.
    """

    def __init__(self):
        # populated by build_algebra or the opposite constructor
        self.quiver: Quiver = None  # type: ignore[assignment]
        self.relations: List[PathAlgElement] = []
        self.length_cap: int = 0
        self.basis: List[Path] = []
        self.dim: int = 0
        self.loewy_length: int = 0
        self._action: List[List[Vec]] = []
        self._by_endpoints: Dict[Tuple[int, int], List[int]] = {}
        self._mult_cache: Dict[Tuple[int, int], Vec] = {}
        self._mirror: Optional["PresentedAlgebra"] = None
        self._opposite: Optional["PresentedAlgebra"] = None

    # -- structure ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.quiver.num_vertices

    @property
    def zero_length_bound(self) -> int:
        """Products of total path length >= this bound vanish (J^Z = 0)."""
        return self.loewy_length

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
        if self._mirror is not None:
            # arrows sit right after the trivial paths, at position nv + ai
            arrow_pos = self.num_vertices + ai
            for k, c in vec.items():
                for k2, d in self.mult_basis(k, arrow_pos).items():
                    s = out.get(k2, ZERO) + c * d
                    if s:
                        out[k2] = s
                    else:
                        out.pop(k2, None)
            return out
        action = self._action
        for k, c in vec.items():
            for k2, d in action[k][ai].items():
                s = out.get(k2, ZERO) + c * d
                if s:
                    out[k2] = s
                else:
                    out.pop(k2, None)
        return out

    def mult_basis(self, i: int, j: int) -> Vec:
        """Product of basis elements i and j as a sparse coefficient vector."""
        if self._mirror is not None:
            return self._mirror.mult_basis(j, i)
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
                    ab = a * b
                    for k, c in prod.items():
                        s = out.get(k, ZERO) + ab * c
                        if s:
                            out[k] = s
                        else:
                            out.pop(k, None)
        return out

    def element_vec(self, el: PathAlgElement) -> Vec:
        """Normal-form coordinates of a free path-algebra element."""
        if self._mirror is not None:
            rev = _reverse_element(el, self._mirror.quiver)
            return self._mirror.element_vec(rev)
        out: Vec = {}
        for p, c in el.terms.items():
            vec: Vec = {self.idempotent_position(p.source): ONE}
            for ai in p.arrows:
                if not vec:
                    break
                vec = self.apply_arrow(vec, ai)
            for k, d in vec.items():
                s = out.get(k, ZERO) + c * d
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return out

    def vec_to_element(self, vec: Vec) -> PathAlgElement:
        return PathAlgElement(self.quiver, {self.basis[i]: c for i, c in vec.items()})

    def normal_form(self, el: PathAlgElement) -> PathAlgElement:
        """Canonical representative over the monomial basis."""
        return self.vec_to_element(self.element_vec(el))

    # -- opposite -------------------------------------------------------

    @property
    def opposite(self) -> "PresentedAlgebra":
        """Opposite algebra with reversed arrows; an involution on the nose."""
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
    op.basis = [Path(p.target, tuple(reversed(p.arrows)), p.source) for p in a.basis]
    op.dim = a.dim
    op.loewy_length = a.loewy_length
    for i, p in enumerate(op.basis):
        op._by_endpoints.setdefault((p.source, p.target), []).append(i)
    op._mirror = a
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
    trie, acc = _stabilize(quiver, relations, length_cap)
    alg = PresentedAlgebra()
    alg.quiver = quiver
    alg.relations = list(relations)
    alg.length_cap = length_cap
    alg.basis = [trie.path_of(pid) for pid in acc.basis_pids]
    alg.dim = acc.dim
    alg.loewy_length = acc.loewy
    alg._action = acc.action
    for i, p in enumerate(alg.basis):
        alg._by_endpoints.setdefault((p.source, p.target), []).append(i)
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
    """Stabilized dimension only, skipping algebra construction."""
    relations = _validate_relations(quiver, relations)
    return _stabilize(quiver, relations, length_cap)[1].dim
