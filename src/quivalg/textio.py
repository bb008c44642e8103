"""Text formats for algebras and representations.

Algebra files: a `vertices` line, `arrow label: src -> tgt` lines, and
`relation` lines whose right-hand side is a signed sum of rational
multiples of paths written `a*b*c`.  Module files: an `algebra`
reference line, `vertex label dim` lines, and `arrow label` blocks
followed by a dense matrix of `p/q` entries (one row per line); arrows
without a block act by zero.  `#` starts a comment anywhere; blank
lines are ignored.
"""

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import PresentedAlgebra
from .errors import IncomposableError, ParseError
from .linalg import Matrix, div
from .modules import Representation
from .quiver import Path, PathAlgElement, Quiver

# a number glued to a name ("1v", "2a", "1/2a") is one token, rejected whole
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|(\d+/)?\d+([A-Za-z_][A-Za-z0-9_]*)?|->|[-+*:]")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER = re.compile(r"(\d+)(/(\d+))?\Z")


class _Line:
    """Tokenized line with positions for error reporting.

    Tokenization is lazy so directives that take a raw tail (the module
    format's `algebra <reference>`, where the reference may be a file
    path) can be read without tripping over characters outside the
    token alphabet.
    """

    def __init__(self, text: str, number: int):
        self.number = number
        self.body = text.split("#", 1)[0]
        self._tokens: Optional[List[str]] = None
        self._columns: Optional[List[int]] = None

    def _scan(self) -> None:
        if self._tokens is not None:
            return
        tokens: List[str] = []
        columns: List[int] = []
        pos = 0
        while pos < len(self.body):
            ch = self.body[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _TOKEN.match(self.body, pos)
            if m is None:
                raise ParseError(
                    f"unexpected character {ch!r}", self.number, pos + 1
                )
            tokens.append(m.group())
            columns.append(pos + 1)
            pos = m.end()
        self._tokens = tokens
        self._columns = columns

    @property
    def tokens(self) -> List[str]:
        self._scan()
        assert self._tokens is not None
        return self._tokens

    @property
    def columns(self) -> List[int]:
        self._scan()
        assert self._columns is not None
        return self._columns

    def raw_tail(self) -> str:
        parts = self.body.split(None, 1)
        return parts[1].strip() if len(parts) > 1 else ""

    def error(self, message: str, index: int) -> ParseError:
        col = self.columns[index] if index < len(self.columns) else (
            self.columns[-1] + len(self.tokens[-1]) if self.tokens else 1
        )
        return ParseError(message, self.number, col)


def _content_lines(text: str) -> List[_Line]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, i)
        if line.body.strip():
            out.append(line)
    return out


def _parse_rational(token: str):
    m = _NUMBER.match(token)
    if m is None:
        return None
    num = int(m.group(1))
    den = int(m.group(3)) if m.group(3) else 1
    if den == 0:
        raise ValueError("zero denominator")
    return div(num, den)


def _rational_token(line: _Line, index: int):
    """_parse_rational with ValueError turned into a positioned error."""
    try:
        return _parse_rational(line.tokens[index])
    except ValueError as exc:
        raise line.error(str(exc), index) from exc


# -- algebra files ------------------------------------------------------


def _parse_relation_terms(line: _Line, quiver: Quiver) -> PathAlgElement:
    tokens = line.tokens[1:]
    offset = 1
    if not tokens:
        raise line.error("relation line has no terms", 1)
    element = PathAlgElement(quiver)
    i = 0
    first = True
    while i < len(tokens):
        start = i
        sign = 1
        if tokens[i] in ("+", "-"):
            if tokens[i] == "-":
                sign = -1
            i += 1
        elif not first:
            raise line.error("expected + or - between terms", offset + i)
        first = False
        if i >= len(tokens):
            raise line.error("dangling sign", offset + i - 1)
        coeff = sign
        num = _rational_token(line, offset + i)
        if num is not None:
            coeff = sign * num
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
        labels = []
        while i < len(tokens) and _NAME.match(tokens[i]):
            labels.append(tokens[i])
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                if i >= len(tokens) or not _NAME.match(tokens[i]):
                    raise line.error("expected arrow label after *", offset + i - 1)
            else:
                break
        if not labels:
            got = f", got {tokens[i]!r}" if i < len(tokens) else ""
            raise line.error("expected a path term" + got, offset + i)
        known = {a.label for a in quiver.arrows}
        for lab in labels:
            if lab not in known:
                idx = offset + tokens.index(lab)
                raise line.error(f"unknown arrow label {lab!r}", idx)
        try:
            path = quiver.path(labels)
        except IncomposableError as exc:
            raise line.error(str(exc), offset + start) from exc
        element = element + PathAlgElement.from_path(quiver, path, coeff)
    return element


def parse_algebra(text: str) -> Tuple[Quiver, List[PathAlgElement]]:
    """Quiver and relation list from algebra-format text."""
    vertices: Optional[List[str]] = None
    arrows: List[Tuple[str, str, str]] = []
    arrow_lines: List[_Line] = []
    relation_lines: List[_Line] = []
    for line in _content_lines(text):
        head = line.tokens[0]
        if head == "vertices":
            if vertices is not None:
                raise line.error("duplicate vertices line", 0)
            if len(line.tokens) < 2:
                raise line.error("vertices line needs at least one label", 0)
            vertices = []
            for i, tok in enumerate(line.tokens[1:], start=1):
                if not _NAME.match(tok):
                    raise line.error(f"bad vertex label {tok!r}", i)
                if tok in vertices:
                    raise line.error(f"duplicate vertex label {tok!r}", i)
                vertices.append(tok)
        elif head == "arrow":
            # arrow label : src -> tgt
            t = line.tokens
            if (
                len(t) != 6
                or t[2] != ":"
                or t[4] != "->"
                or not _NAME.match(t[1])
                or not _NAME.match(t[3])
                or not _NAME.match(t[5])
            ):
                raise line.error("expected: arrow label: source -> target", 0)
            arrows.append((t[1], t[3], t[5]))
            arrow_lines.append(line)
        elif head == "relation":
            relation_lines.append(line)
        else:
            raise line.error(f"unknown directive {head!r}", 0)
    if vertices is None:
        raise ParseError("missing vertices line", 1, 1)
    seen = set()
    for (lab, src, tgt), line in zip(arrows, arrow_lines):
        if lab in seen:
            raise line.error(f"duplicate arrow label {lab!r}", 1)
        seen.add(lab)
        for pos, v in ((3, src), (5, tgt)):
            if v not in vertices:
                raise line.error(f"arrow endpoint {v!r} is not a vertex", pos)
    quiver = Quiver(vertices, arrows)
    relations = [_parse_relation_terms(line, quiver) for line in relation_lines]
    return quiver, relations


def _format_coeff_path(quiver: Quiver, path: Path, coeff) -> Tuple[bool, str]:
    """(negative, body) for one term."""
    neg = coeff < 0
    mag = -coeff if neg else coeff
    body = quiver.format_path(path)
    if mag != 1:
        body = f"{mag}*{body}"
    return neg, body


def format_element(quiver: Quiver, element: PathAlgElement) -> str:
    """Signed-sum rendering used by relation lines; deterministic order."""
    parts = []
    for path, coeff in element.sorted_terms():
        neg, body = _format_coeff_path(quiver, path, coeff)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts) if parts else "0"


def format_algebra(quiver: Quiver, relations: Sequence[PathAlgElement] = ()) -> str:
    lines = ["vertices " + " ".join(quiver.vertex_labels)]
    for a in quiver.arrows:
        lines.append(
            f"arrow {a.label}: {quiver.vertex_labels[a.source]} -> "
            f"{quiver.vertex_labels[a.target]}"
        )
    for r in relations:
        lines.append("relation " + format_element(quiver, r))
    return "\n".join(lines) + "\n"


# -- module files -------------------------------------------------------


def parse_module(
    text: str,
    algebra: Optional[PresentedAlgebra] = None,
    algebra_loader: Optional[Callable[[str], PresentedAlgebra]] = None,
) -> Representation:
    """Representation from module-format text.

    The algebra comes either from the `algebra` argument or by passing
    the file's `algebra <reference>` line to algebra_loader.  Matrix
    shape errors are reported with positions; whether the result
    respects the relations is the caller's check (modules.validate).
    """
    lines = _content_lines(text)
    dims_by_label: Dict[str, int] = {}
    arrow_rows: Dict[str, List[Tuple[_Line, List]]] = {}
    vertex_lines: Dict[str, _Line] = {}
    arrow_decl_lines: Dict[str, _Line] = {}
    current_arrow: Optional[str] = None
    algebra_ref: Optional[str] = None
    for line in lines:
        head = line.body.split(None, 1)[0]
        if head == "algebra":
            # raw tail, not tokens: the reference may be a file path
            if not line.raw_tail():
                raise ParseError(
                    "algebra line needs a reference", line.number, 1
                )
            if algebra_ref is not None:
                raise ParseError("duplicate algebra line", line.number, 1)
            algebra_ref = line.raw_tail()
            current_arrow = None
        elif head == "vertex":
            t = line.tokens
            if len(t) != 3 or not _NAME.match(t[1]):
                raise line.error("expected: vertex label dim", 0)
            if t[1] in dims_by_label:
                raise line.error(f"duplicate vertex {t[1]!r}", 1)
            if "/" in t[2] or _parse_rational(t[2]) is None:
                raise line.error("vertex dimension must be a nonnegative integer", 2)
            dims_by_label[t[1]] = int(t[2])
            vertex_lines[t[1]] = line
            current_arrow = None
        elif head == "arrow":
            t = line.tokens
            if len(t) != 2 or not _NAME.match(t[1]):
                raise line.error("expected: arrow label", 0)
            if t[1] in arrow_rows:
                raise line.error(f"duplicate arrow block {t[1]!r}", 1)
            arrow_rows[t[1]] = []
            arrow_decl_lines[t[1]] = line
            current_arrow = t[1]
        else:
            if current_arrow is None:
                raise line.error(f"unknown directive {line.tokens[0]!r}", 0)
            row = []
            i = 0
            while i < len(line.tokens):
                sign = 1
                if line.tokens[i] == "-":
                    sign = -1
                    i += 1
                    if i >= len(line.tokens):
                        raise line.error("dangling sign", i - 1)
                val = _rational_token(line, i)
                if val is None:
                    raise line.error(
                        f"expected a rational entry, got {line.tokens[i]!r}", i
                    )
                row.append(sign * val)
                i += 1
            arrow_rows[current_arrow].append((line, row))

    if algebra is None:
        if algebra_ref is None:
            raise ParseError("missing algebra line", 1, 1)
        if algebra_loader is None:
            raise ValueError("parse_module needs an algebra or an algebra_loader")
        algebra = algebra_loader(algebra_ref)

    quiver = algebra.quiver
    label_to_idx = {lab: i for i, lab in enumerate(quiver.vertex_labels)}
    for lab in dims_by_label:
        if lab not in label_to_idx:
            raise vertex_lines[lab].error(f"unknown vertex {lab!r}", 1)
    dims = [dims_by_label.get(lab, 0) for lab in quiver.vertex_labels]

    mats = []
    for a in quiver.arrows:
        nr, nc = dims[a.source], dims[a.target]
        block = arrow_rows.get(a.label)
        if block is None:
            mats.append(Matrix.zero(nr, nc))
            continue
        if len(block) != nr:
            where = block[0][0] if block else lines[-1]
            raise where.error(
                f"arrow {a.label!r} needs {nr} rows, got {len(block)}", 0
            )
        pairs = []
        for line, row in block:
            if len(row) != nc:
                raise line.error(
                    f"arrow {a.label!r} rows need {nc} entries, got {len(row)}", 0
                )
            # _parse_rational made each entry a canonical scalar already
            pairs.append([(j, x) for j, x in enumerate(row) if x])
        mats.append(Matrix._from_pairs(nr, nc, pairs))
    unknown = set(arrow_rows) - {a.label for a in quiver.arrows}
    if unknown:
        lab = sorted(unknown)[0]
        raise arrow_decl_lines[lab].error(f"unknown arrow {lab!r}", 1)
    return Representation(algebra, dims, mats)


def format_module(rep: Representation, algebra_ref: str) -> str:
    quiver = rep.algebra.quiver
    lines = [f"algebra {algebra_ref}"]
    for v, lab in enumerate(quiver.vertex_labels):
        lines.append(f"vertex {lab} {rep.dims[v]}")
    for a in quiver.arrows:
        mat = rep.matrices[a.index]
        if mat.is_zero():
            continue
        lines.append(f"arrow {a.label}")
        for row in mat.rows:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
