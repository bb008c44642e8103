"""Quivers, paths and elements of the free path algebra.

Paths compose left to right: compose_paths(p, q) is "p then q", so p must
end where q starts.  The induced total order on paths is by length first,
then lexicographically by arrow index; this order fixes every basis and
every echelon computation in the package.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import IncomposableError
from .linalg import QQ, ZERO, rat


class Arrow:
    __slots__ = ("index", "label", "source", "target")

    def __init__(self, index: int, label: str, source: int, target: int):
        self.index = index
        self.label = label
        self.source = source
        self.target = target

    def __repr__(self) -> str:
        return f"Arrow({self.label}: {self.source}->{self.target})"


class Quiver:
    """Finite quiver with labelled vertices and arrows.

    Vertex and arrow labels must each be unique.  Vertices and arrows are
    addressed by their position; labels are for input and display.
    """

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Tuple[str, str, str]]):
        self.vertex_labels: List[str] = [str(v) for v in vertices]
        if len(set(self.vertex_labels)) != len(self.vertex_labels):
            raise ValueError("duplicate vertex label")
        vertex_index = {v: i for i, v in enumerate(self.vertex_labels)}
        self.arrows: List[Arrow] = []
        seen = set()
        for label, src, tgt in arrows:
            label = str(label)
            if label in seen:
                raise ValueError(f"duplicate arrow label {label!r}")
            seen.add(label)
            if src not in vertex_index:
                raise ValueError(f"arrow {label!r}: unknown source vertex {src!r}")
            if tgt not in vertex_index:
                raise ValueError(f"arrow {label!r}: unknown target vertex {tgt!r}")
            self.arrows.append(
                Arrow(len(self.arrows), label, vertex_index[src], vertex_index[tgt])
            )
        self._arrow_index: Dict[str, int] = {a.label: a.index for a in self.arrows}
        self.out_arrows: List[List[Arrow]] = [[] for _ in self.vertex_labels]
        self.in_arrows: List[List[Arrow]] = [[] for _ in self.vertex_labels]
        for a in self.arrows:
            self.out_arrows[a.source].append(a)
            self.in_arrows[a.target].append(a)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    def arrow(self, label: str) -> Arrow:
        try:
            return self.arrows[self._arrow_index[label]]
        except KeyError:
            raise ValueError(f"unknown arrow {label!r}") from None

    def trivial_path(self, vertex: int) -> "Path":
        return Path(vertex, (), vertex)

    def arrow_path(self, label: str) -> "Path":
        a = self.arrow(label)
        return Path(a.source, (a.index,), a.target)

    def path(self, labels: Sequence[str]) -> "Path":
        """Path from a nonempty list of arrow labels, validating composability."""
        if not labels:
            raise ValueError("path() needs at least one arrow label; use trivial_path")
        p = self.arrow_path(labels[0])
        for lab in labels[1:]:
            p = compose_paths(p, self.arrow_path(lab))
        return p

    def format_path(self, p: "Path") -> str:
        if p.length == 0:
            return f"e_{self.vertex_labels[p.source]}"
        return "*".join(self.arrows[i].label for i in p.arrows)

    def reverse(self) -> "Quiver":
        """Opposite quiver: same labels, every arrow reversed, order kept."""
        return Quiver(
            self.vertex_labels,
            [
                (a.label, self.vertex_labels[a.target], self.vertex_labels[a.source])
                for a in self.arrows
            ],
        )

    def __repr__(self) -> str:
        return (
            f"Quiver({len(self.vertex_labels)} vertices, {len(self.arrows)} arrows)"
        )


class Path:
    """Immutable path: source vertex, tuple of arrow indices, target vertex.

    Trivial paths have an empty arrow tuple and source == target.
    """

    __slots__ = ("source", "arrows", "target")

    def __init__(self, source: int, arrows: Tuple[int, ...], target: int):
        self.source = source
        self.arrows = arrows
        self.target = target

    @property
    def length(self) -> int:
        return len(self.arrows)

    def sort_key(self) -> Tuple[int, int, Tuple[int, ...]]:
        # length first, then source (only meaningful for trivial paths),
        # then the arrow indices lexicographically
        return (len(self.arrows), self.source, self.arrows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return (
            self.source == other.source
            and self.arrows == other.arrows
            and self.target == other.target
        )

    def __hash__(self):
        return hash((self.source, self.arrows))

    def __lt__(self, other: "Path") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Path({self.source}-{list(self.arrows)}->{self.target})"


def compose_paths(p: Path, q: Path) -> Path:
    """The path "p then q".  Raises IncomposableError when p ends away from
    where q starts."""
    if p.target != q.source:
        raise IncomposableError(
            f"cannot compose: first path ends at vertex {p.target}, "
            f"second starts at vertex {q.source}"
        )
    return Path(p.source, p.arrows + q.arrows, q.target)


class PathAlgElement:
    """Finite rational combination of paths of one quiver.

    Supports the free path algebra operations; the product of two paths is
    their composition when composable and zero otherwise.
    """

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms: Optional[Dict[Path, "QQ"]] = None):
        self.quiver = quiver
        self.terms: Dict[Path, "QQ"] = {}
        if terms:
            for p, c in terms.items():
                c = rat(c)
                if c:
                    self.terms[p] = c

    @staticmethod
    def from_path(quiver: Quiver, p: Path, coeff=1) -> "PathAlgElement":
        return PathAlgElement(quiver, {p: rat(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PathAlgElement") -> "PathAlgElement":
        terms = dict(self.terms)
        for p, c in other.terms.items():
            s = terms.get(p, ZERO) + c
            if s:
                terms[p] = s
            else:
                terms.pop(p, None)
        return PathAlgElement(self.quiver, terms)

    def __sub__(self, other: "PathAlgElement") -> "PathAlgElement":
        return self + (-other)

    def __neg__(self) -> "PathAlgElement":
        return PathAlgElement(self.quiver, {p: -c for p, c in self.terms.items()})

    def scale(self, c) -> "PathAlgElement":
        c = rat(c)
        return PathAlgElement(self.quiver, {p: c * x for p, x in self.terms.items()})

    def __mul__(self, other: "PathAlgElement") -> "PathAlgElement":
        out: Dict[Path, "QQ"] = {}
        for p, a in self.terms.items():
            for q, b in other.terms.items():
                if p.target != q.source:
                    continue
                r = Path(p.source, p.arrows + q.arrows, q.target)
                s = out.get(r, ZERO) + a * b
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return PathAlgElement(self.quiver, out)

    def uniform_endpoints(self) -> Optional[Tuple[int, int]]:
        """(source, target) shared by every term, or None if mixed/zero."""
        endpoints = {(p.source, p.target) for p in self.terms}
        if len(endpoints) == 1:
            return endpoints.pop()
        return None

    def min_length(self) -> int:
        return min((p.length for p in self.terms), default=0)

    def max_length(self) -> int:
        return max((p.length for p in self.terms), default=0)

    def sorted_terms(self) -> List[Tuple[Path, "QQ"]]:
        return sorted(self.terms.items(), key=lambda pc: pc[0].sort_key())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathAlgElement):
            return NotImplemented
        return self.quiver is other.quiver and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for p, c in self.sorted_terms():
            word = self.quiver.format_path(p)
            if c == 1:
                bits.append(word)
            elif c == -1:
                bits.append(f"-{word}")
            else:
                bits.append(f"({c})*{word}")
        return " + ".join(bits).replace("+ -", "- ")
