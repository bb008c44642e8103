"""Exact rational linear algebra over sparse row vectors.

Every matrix entry is an exact rational from Python's own number types:
an int when the value is a whole number, a fractions.Fraction when it is
not.  Most entries are whole, and int arithmetic costs far less than
Fraction arithmetic.  The two mix freely: a sum or product of Fractions
can be a whole Fraction (1/2 + 1/2), which compares and hashes equal to
the int, so no result depends on which of the two it is.  The one true
division is div(), which returns an int when the quotient is whole and
a Fraction otherwise; no floats enter at any point.  Vectors are rows
throughout the package and maps act on the right, so the matrix of
"f then g" is mat(f) @ mat(g).

A Matrix stores each row as its nonzero (column, value) pairs, sorted by
column, and no stored value is zero: module-hom matrices are a few
percent nonzero, so products and elimination touch nonzero entries
only.  Inside the package a sparse vector is such a sorted pair list, or
a dict {column: value} while it is accumulated.  The dense view
Matrix.rows is built on access for the callers that read a matrix
whole.  rat() returns an int or a non-whole Fraction unchanged, so
coercing a row of scalars builds no new rationals (they are immutable,
so sharing them is safe).

Every span, rank, coordinate and determinant computation in the package
runs on one Gauss-Jordan core: a reduced echelon kept as a dict from
pivot column to the rest of its row, _reduce to reduce a row against it
and _pivot to make a reduced row its next echelon row.  SpanSolver
keeps its coefficient bookkeeping in the same echelon, as tag columns.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ZERO = 0
ONE = 1

Pairs = List[Tuple[int, "QQ"]]


def rat(x) -> "QQ":
    """Coerce an int, string like '-3/7' or Fraction to a scalar: an int
    when the value is whole, a Fraction otherwise.

    An int, or a Fraction that is not whole, is returned as it is, not
    copied.
    """
    if type(x) is int:
        return x
    if type(x) is not QQ:
        if isinstance(x, float):
            raise TypeError("floats are not allowed; use exact rationals")
        x = QQ(x)
    return x.numerator if x.denominator == 1 else x


def div(a, b) -> "QQ":
    """a / b for scalars a and b: an int when the quotient is whole, a
    Fraction otherwise, never a float.  The package's one division."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return QQ(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _iadd(acc: Dict[int, "QQ"], row: Iterable[Tuple[int, "QQ"]], c: "QQ") -> None:
    """acc += c * row, dropping entries that cancel; acc is a sparse dict
    and row its (column, value) pairs, such as a dict's items().  The
    package's one sparse axpy: a column new to acc is stored without a
    zero test, so c must be nonzero and row zero-free, as every caller's
    is (stored rows hold no zero; PathAlgElement drops zero terms)."""
    for j, x in row:
        y = acc.get(j)
        if y is None:
            acc[j] = c * x
        else:
            y += c * x
            if y:
                acc[j] = y
            else:
                del acc[j]


def _row_times(row: Pairs, m: "Matrix") -> Pairs:
    """row @ m for a sparse row: the sorted nonzero pairs of the product."""
    mrows = m.pairs
    if len(row) == 1:
        k, a = row[0]
        if a is ONE or a == ONE:
            return mrows[k]
        return [(j, a * b) for j, b in mrows[k]]
    acc: Dict[int, "QQ"] = {}
    for k, a in row:
        for j, b in mrows[k]:
            y = acc.get(j)
            acc[j] = a * b if y is None else y + a * b
    return [(j, x) for j, x in sorted(acc.items()) if x]


class Matrix:
    """Exact-rational matrix stored as sparse rows.  Zero row or column
    counts are legal.

    pairs[i] lists the nonzero entries of row i as (column, value) pairs
    in increasing column order, and no stored value is zero.  Matrices
    are immutable: every operation returns a new one, and matrices share
    row lists, so a row list is never changed in place.  The constructor
    and from_rows take dense rows and coerce each entry through rat.
    rows is a dense view built on every access, a new list holding one
    tuple per row, so writing through it raises TypeError and cannot
    change the matrix.
    """

    __slots__ = ("nrows", "ncols", "pairs")

    def __init__(self, nrows: int, ncols: int, rows: Optional[Sequence[Sequence]] = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.pairs = [[] for _ in range(nrows)]
            return
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        self.pairs = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("column count mismatch")
            self.pairs.append([(j, x) for j, x in enumerate(map(rat, r)) if x])

    @staticmethod
    def _from_pairs(nrows: int, ncols: int, pairs: List[Pairs]) -> "Matrix":
        """The matrix with sparse rows pairs, taken as they are: each must
        be sorted by column, free of zeros and never changed afterwards."""
        m = Matrix.__new__(Matrix)
        m.nrows = nrows
        m.ncols = ncols
        m.pairs = pairs
        return m

    @property
    def rows(self) -> List[Tuple]:
        """Dense view: a new list of one tuple per row."""
        out = []
        for prow in self.pairs:
            row = [ZERO] * self.ncols
            for j, x in prow:
                row[j] = x
            out.append(tuple(row))
        return out

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ncols: Optional[int] = None) -> "Matrix":
        """Matrix of dense rows.  ncols is read only when rows is empty:
        it is the one way to build a 0 x n matrix from rows."""
        width = len(rows[0]) if rows else ncols or 0
        return Matrix(len(rows), width, rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._from_pairs(n, n, [[(i, ONE)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix(nrows, ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.pairs)))

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, ONE)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -ONE)

    def _plus(self, other: "Matrix", c: "QQ") -> "Matrix":
        """self + c * other."""
        self._same_shape(other)
        rows = []
        for p, q in zip(self.pairs, other.pairs):
            if q:
                acc = dict(p)
                _iadd(acc, q, c)
                p = sorted(acc.items())
            rows.append(p)
        return Matrix._from_pairs(self.nrows, self.ncols, rows)

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        if not c:
            return Matrix(self.nrows, self.ncols)
        rows = [[(j, c * x) for j, x in r] for r in self.pairs]
        return Matrix._from_pairs(self.nrows, self.ncols, rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        rows = [_row_times(r, other) if r else [] for r in self.pairs]
        return Matrix._from_pairs(self.nrows, other.ncols, rows)

    def transpose(self) -> "Matrix":
        cols: List[Pairs] = [[] for _ in range(self.ncols)]
        for i, r in enumerate(self.pairs):
            for j, x in r:
                cols[j].append((i, x))
        return Matrix._from_pairs(self.ncols, self.nrows, cols)

    def is_zero(self) -> bool:
        return not any(self.pairs)

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((x for i, r in enumerate(self.pairs) for j, x in r if j == i), ZERO)

    def take_rows(self, indices: Iterable[int]) -> "Matrix":
        rows = [self.pairs[i] for i in indices]
        return Matrix._from_pairs(len(rows), self.ncols, rows)

    def _same_shape(self, other: "Matrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")


def _shifted(r: Pairs, offset: int) -> Pairs:
    return [(j + offset, x) for j, x in r] if offset else r


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        return Matrix(0, 0)
    ncols = mats[0].ncols
    rows: List[Pairs] = []
    for m in mats:
        if m.ncols != ncols:
            raise ValueError("vstack: column counts differ")
        rows.extend(m.pairs)
    return Matrix._from_pairs(len(rows), ncols, rows)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        return Matrix(0, 0)
    nrows = mats[0].nrows
    for m in mats:
        if m.nrows != nrows:
            raise ValueError("hstack: row counts differ")
    rows = []
    for i in range(nrows):
        row: Pairs = []
        offset = 0
        for m in mats:
            row.extend(_shifted(m.pairs[i], offset))
            offset += m.ncols
        rows.append(row)
    return Matrix._from_pairs(nrows, sum(m.ncols for m in mats), rows)


def _reduce(ech: Dict[int, Dict[int, "QQ"]], row: Dict[int, "QQ"]) -> Dict[int, "QQ"]:
    """Reduce the sparse dict row in place against ech, which maps each
    pivot column to the rest of its row, zero in the other pivot columns
    (Gauss-Jordan); the residue is empty exactly when row is in the span."""
    for lead in [j for j in row if j in ech]:
        _iadd(row, ech[lead].items(), -row.pop(lead))
    return row


def _pivot(ech: Dict[int, Dict[int, "QQ"]], row: Dict[int, "QQ"]) -> None:
    """Make the nonzero row, reduced against ech, the echelon row of its
    leading column: scale its lead to 1 and clear that column from the
    other rows.  The package's one elimination division."""
    lead = min(row)
    pivot = row.pop(lead)
    if pivot != ONE:
        row = {j: div(x, pivot) for j, x in row.items()}
    for rest in ech.values():
        if lead in rest:
            _iadd(rest, row.items(), -rest.pop(lead))
    ech[lead] = row


def _echelon_add(ech: Dict[int, Dict[int, "QQ"]], row: Dict[int, "QQ"]) -> bool:
    """Add the sparse dict row to ech (see _reduce); True when it grew."""
    row = _reduce(ech, row)
    if not row:
        return False
    _pivot(ech, row)
    return True


def _echelon_rows(ech: Dict[int, Dict[int, "QQ"]]) -> List[Pairs]:
    """The nonzero rows of the rref of ech's span, in pivot order."""
    return [[(lead, ONE)] + sorted(ech[lead].items()) for lead in sorted(ech)]


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form.

    Returns (echelon matrix of the same shape, list of pivot column indices
    in increasing order).  Pivot entries are 1 and clear their column; zero
    rows are moved to the bottom.  rref is idempotent.
    """
    ech: Dict[int, Dict[int, "QQ"]] = {}
    for r in m.pairs:
        if _echelon_add(ech, dict(r)) and len(ech) == m.ncols:
            break
    rows = _echelon_rows(ech) + [[] for _ in range(m.nrows - len(ech))]
    return Matrix._from_pairs(m.nrows, m.ncols, rows), sorted(ech)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def row_space_basis(m: Matrix) -> Matrix:
    """Canonical basis of the row space: the nonzero rows of rref(m)."""
    ech, pivots = rref(m)
    return ech.take_rows(range(len(pivots)))


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right null space {v : m @ v^T = 0}, one vector per row:
    left_kernel_basis of the transpose."""
    return left_kernel_basis(m.transpose())


def left_kernel_basis(m: Matrix) -> Matrix:
    """Basis of {v : v @ m = 0}, one vector per row: the canonical
    free-variable vectors of the rref of m's transpose, found by
    _tagged_kernel; for a zero or empty matrix, the standard basis."""
    vecs = _tagged_kernel(enumerate(m.pairs), m.ncols)
    return Matrix._from_pairs(len(vecs), m.nrows, vecs)


def _tagged_kernel(rows: Iterable[Tuple[int, Pairs]], tag: int) -> List[Pairs]:
    """The left kernel, over the tag columns, of sparse rows given as (tag
    column, row) pairs, every row column below tag.  Each row, with 1 at
    tag + its tag column, is reduced against the echelon of the rows
    before it; one reduced to its tags is a kernel vector whose last
    column is its own tag, where no other kernel vector is nonzero."""
    ech: Dict[int, Dict[int, "QQ"]] = {}
    out = []
    for col, row in rows:
        r = dict(row)
        r[tag + col] = ONE
        if min(_reduce(ech, r)) < tag:
            _pivot(ech, r)
        else:
            out.append(sorted((j - tag, x) for j, x in r.items()))
    return out


def coefficients_in_span(basis: Matrix, target: Sequence) -> Optional[List]:
    """Express target as a linear combination of the rows of basis.

    Returns the coefficient list, or None when the target is not in the row
    span.  The zero target always yields the all-zero list, even over an
    empty basis.  Raises ValueError on a length mismatch.  One fresh rref
    per query: the reference the tests hold SpanSolver and solve_left to;
    the pipeline itself calls those two.
    """
    target = [rat(x) for x in target]
    if len(target) != basis.ncols:
        raise ValueError(
            f"target length {len(target)} does not match basis width {basis.ncols}"
        )
    if basis.nrows == 0:
        if any(target):
            return None
        return []
    # Solve x @ basis = target by eliminating [basis^T | target^T].
    aug = hstack([basis.transpose(), Matrix(len(target), 1, [[t] for t in target])])
    ech, pivots = rref(aug)
    last = basis.nrows
    if last in pivots:
        return None
    coeffs = [ZERO] * basis.nrows
    for pc, r in zip(pivots, ech.pairs):
        j, x = r[-1]
        if j == last:
            coeffs[pc] = x
    return coeffs


def solve_left(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve x @ a = b row by row; None when some row of b is outside the span.

    One SpanSolver over the rows of a answers every row of b.  It
    expresses each row over the independent rows of a and gives the
    dependent rows coefficient 0, as the tests' reference,
    coefficients_in_span, does.
    """
    if a.ncols != b.ncols:
        raise ValueError("solve_left: width mismatch")
    span = SpanSolver(a.ncols)
    for r in a.pairs:
        span.insert(dict(r))
    out = []
    for r in b.pairs:
        coords = span.coords(dict(r))
        if coords is None:
            return None
        out.append([(i, w) for i, w in enumerate(coords) if w])
    return Matrix._from_pairs(b.nrows, a.nrows, out)


def block_diagonal_rect(blocks: Sequence[Matrix]) -> Matrix:
    """Diagonal sum of rectangular blocks (row and column offsets both advance)."""
    rows: List[Pairs] = []
    c0 = 0
    for b in blocks:
        rows.extend(_shifted(r, c0) for r in b.pairs)
        c0 += b.ncols
    return Matrix._from_pairs(len(rows), c0, rows)


def determinant(m: Matrix):
    """Determinant by Gauss-Jordan elimination of the rows in order.

    Each row, reduced against the echelon of the rows before it, is zero
    in their leading columns, so with the columns put in the order of
    the leads the reduced rows are upper triangular: the determinant is
    the product of the pivots, signed by that permutation of the columns.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    ech: Dict[int, Dict[int, "QQ"]] = {}
    det = ONE
    for r in m.pairs:
        row = _reduce(ech, dict(r))
        if not row:
            return ZERO
        lead = min(row)
        # each earlier lead right of this one is an inversion
        det *= -row[lead] if sum(p > lead for p in ech) % 2 else row[lead]
        _pivot(ech, row)
    return det


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse matrix, or None when singular."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    return solve_left(m, Matrix.identity(m.nrows))


class SpanSolver:
    """Incremental row-span tracker with coefficient recovery.

    The tests' reference, coefficients_in_span, runs a fresh elimination
    per query; this keeps the Gauss-Jordan echelon of the span between
    calls (see _reduce).  A row is handed over dense, as a sequence of
    ncols scalars, or sparse, as a dict {column: value} with every
    column in range(ncols).  Inserted row i carries a 1 in the tag
    column ncols + i, so the tag columns of an echelon row say which
    combination of inserted rows it is, and a row in the span reduces to
    minus its coefficients in the tag columns ("augment with the
    identity").  coords() answers are coefficient lists over the
    inserted rows in insertion order; a row that did not enlarge the
    span gets coefficient 0.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.nrows = 0
        self._ech: Dict[int, Dict[int, "QQ"]] = {}

    @property
    def rank(self) -> int:
        return len(self._ech)

    def _sparse(self, row) -> Dict[int, "QQ"]:
        """A new dict of the nonzero entries of a dense or sparse row;
        ValueError when the row does not fit ncols."""
        if isinstance(row, dict):
            if row and not (0 <= min(row) and max(row) < self.ncols):
                raise ValueError(f"row has a column outside range({self.ncols})")
            return {j: x for j, x in row.items() if x}
        if len(row) != self.ncols:
            raise ValueError(
                f"row length {len(row)} does not match solver width {self.ncols}"
            )
        return {j: x for j, x in enumerate(map(rat, row)) if x}

    def _eliminate(self, row) -> Dict[int, "QQ"]:
        """Reduce the row, tagged as the next inserted one, against the
        echelon; the residue always keeps that tag."""
        row = self._sparse(row)
        row[self.ncols + self.nrows] = ONE
        return _reduce(self._ech, row)

    def coords(self, row) -> Optional[List]:
        """Coefficients over the inserted rows, or None when not in the span."""
        return self._coords(self._eliminate(row))

    def coords_or_insert(self, row) -> Optional[List]:
        """Coefficients over the inserted rows when row is in the span;
        otherwise insert it and return None.  One elimination either way."""
        residue = self._eliminate(row)
        coords = self._coords(residue)
        if coords is None:
            self._add(residue)
        return coords

    def insert(self, row) -> bool:
        """Add a row; True when it enlarged the span."""
        return self._add(self._eliminate(row))

    def _coords(self, residue: Dict[int, "QQ"]) -> Optional[List]:
        """Minus the tags of a residue, over the inserted rows; None when
        it keeps a column below ncols (its row is outside the span)."""
        if min(residue) < self.ncols:
            return None
        del residue[self.ncols + self.nrows]
        out = [ZERO] * self.nrows
        for j, x in residue.items():
            out[j - self.ncols] = -x
        return out

    def _add(self, residue: Dict[int, "QQ"]) -> bool:
        """Record an eliminated row as the next inserted one; True when
        its residue enlarged the span."""
        self.nrows += 1
        if min(residue) >= self.ncols:
            return False
        _pivot(self._ech, residue)
        return True


def extend_independent(base: Matrix, candidates: Matrix) -> List[int]:
    """Indices of candidate rows that successively extend base to a larger
    independent set.  Scans candidates in order; deterministic."""
    if base.nrows and base.ncols != candidates.ncols:
        raise ValueError("extend_independent: width mismatch")
    ech: Dict[int, Dict[int, "QQ"]] = {}
    for r in base.pairs:
        _echelon_add(ech, dict(r))
    return [i for i, r in enumerate(candidates.pairs) if _echelon_add(ech, dict(r))]
