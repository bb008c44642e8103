"""Exact rational linear algebra over row vectors.

Every matrix entry is an exact rational, a fractions.Fraction; no floats
enter at any point.  Vectors are rows throughout the package and maps act
on the right, so the matrix of "f then g" is mat(f) @ mat(g).

The hot loops touch nonzero entries only: products, elimination and the
span solver first split a row into its nonzero (column, value) pairs.
rat() returns a value that already is the scalar type unchanged, so
coercing a row of scalars builds no new rationals (they are immutable,
so sharing them is safe).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction as QQ
from typing import Iterable, List, Optional, Sequence, Tuple

ZERO = QQ(0)
ONE = QQ(1)


def rat(x) -> "QQ":
    """Coerce an int, string like '-3/7' or Fraction to the scalar type.

    A value of the scalar type itself is returned as it is, not copied.
    """
    if type(x) is QQ:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; use exact rationals")
    return QQ(x)


def _nonzeros(row: Sequence) -> List[Tuple[int, "QQ"]]:
    """The (column, value) pairs of the nonzero entries of row."""
    return [(j, x) for j, x in enumerate(row) if x]


class Matrix:
    """Dense exact-rational matrix.  Zero row or column counts are legal.

    Rows are stored as lists but instances are treated as read-only; all
    operations return new matrices.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Optional[List[List]] = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [[ZERO] * ncols for _ in range(nrows)]
        else:
            if len(rows) != nrows:
                raise ValueError("row count mismatch")
            for r in rows:
                if len(r) != ncols:
                    raise ValueError("column count mismatch")
            self.rows = rows

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ncols: Optional[int] = None) -> "Matrix":
        rows = [[rat(x) for x in r] for r in rows]
        if rows:
            width = len(rows[0])
        elif ncols is not None:
            width = ncols
        else:
            width = 0
        return Matrix(len(rows), width, rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        return Matrix(n, n, rows)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix(nrows, ncols)

    def copy(self) -> "Matrix":
        return Matrix(self.nrows, self.ncols, [row[:] for row in self.rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        rows = [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ]
        return Matrix(self.nrows, self.ncols, rows)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        rows = [
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ]
        return Matrix(self.nrows, self.ncols, rows)

    def __neg__(self) -> "Matrix":
        return Matrix(self.nrows, self.ncols, [[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(self.nrows, self.ncols, [[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        ocols = other.ncols
        orows = other.rows
        # nonzero pairs of each row of other, split on first use
        opairs: List[Optional[List]] = [None] * other.nrows
        out = []
        for row in self.rows:
            acc = [ZERO] * ocols
            for k, a in enumerate(row):
                if a:
                    pairs = opairs[k]
                    if pairs is None:
                        pairs = opairs[k] = _nonzeros(orows[k])
                    for j, b in pairs:
                        acc[j] += a * b
            out.append(acc)
        return Matrix(self.nrows, ocols, out)

    def transpose(self) -> "Matrix":
        rows = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return Matrix(self.ncols, self.nrows, rows)

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def take_rows(self, indices: Iterable[int]) -> "Matrix":
        rows = [self.rows[i][:] for i in indices]
        return Matrix(len(rows), self.ncols, rows)

    def flatten(self) -> List:
        """Concatenate the rows into a single list, row-major."""
        out: List = []
        for r in self.rows:
            out.extend(r)
        return out

    def _same_shape(self, other: "Matrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        return Matrix(0, 0)
    ncols = mats[0].ncols
    rows: List[List] = []
    for m in mats:
        if m.ncols != ncols:
            raise ValueError("vstack: column counts differ")
        rows.extend(r[:] for r in m.rows)
    return Matrix(len(rows), ncols, rows)


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
        row: List = []
        for m in mats:
            row.extend(m.rows[i])
        rows.append(row)
    return Matrix(nrows, sum(m.ncols for m in mats), rows)


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form.

    Returns (echelon matrix of the same shape, list of pivot column indices
    in increasing order).  Pivot entries are 1 and clear their column; zero
    rows are moved to the bottom.  rref is idempotent.
    """
    rows = [r[:] for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots: List[int] = []
    lead = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(lead, nrows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        prow = rows[lead]
        inv = ONE / prow[col]
        if inv != ONE:
            for j in range(col, ncols):
                if prow[j]:
                    prow[j] = prow[j] * inv
        # entries left of col are zero in every row from lead on
        ppairs = _nonzeros(prow)
        for i in range(nrows):
            target = rows[i]
            c = target[col]
            if c and i != lead:
                for j, x in ppairs:
                    target[j] -= c * x
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return Matrix(nrows, ncols, rows), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def row_space_basis(m: Matrix) -> Matrix:
    """Canonical basis of the row space: the nonzero rows of rref(m)."""
    ech, pivots = rref(m)
    return ech.take_rows(range(len(pivots)))


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right null space {v : m @ v^T = 0}, one vector per row.

    The rows returned are the canonical free-variable vectors read off the
    rref; for a zero or empty matrix they are the standard basis.
    """
    ech, pivots = rref(m)
    ncols = m.ncols
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    rows = []
    for f in free_cols:
        v = [ZERO] * ncols
        v[f] = ONE
        # pivot row r has its pivot in column pivots[r]; solve for it
        for r, pc in enumerate(pivots):
            coeff = ech.rows[r][f]
            if coeff:
                v[pc] = -coeff
        rows.append(v)
    return Matrix(len(rows), ncols, rows)


def left_kernel_basis(m: Matrix) -> Matrix:
    """Basis of {v : v @ m = 0}, one vector per row."""
    return kernel_basis(m.transpose())


def coefficients_in_span(basis: Matrix, target: Sequence) -> Optional[List]:
    """Express target as a linear combination of the rows of basis.

    Returns the coefficient list, or None when the target is not in the row
    span.  The zero target always yields the all-zero list, even over an
    empty basis.  Raises ValueError on a length mismatch.
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
    for r, pc in enumerate(pivots):
        coeffs[pc] = ech.rows[r][last]
    return coeffs


def solve_left(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve x @ a = b row by row; None when some row of b is outside the span.

    One SpanSolver over the rows of a answers every row of b.  Like
    coefficients_in_span, it expresses each row over the first independent
    rows of a and gives the dependent rows coefficient 0.
    """
    if a.ncols != b.ncols:
        raise ValueError("solve_left: width mismatch")
    span = SpanSolver(a.ncols)
    for row in a.rows:
        span.insert(row)
    out = []
    for row in b.rows:
        coeffs = span.coords(row)
        if coeffs is None:
            return None
        out.append(coeffs)
    return Matrix(b.nrows, a.nrows, out)


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """Square-block diagonal sum; the empty list gives the 0x0 matrix."""
    blocks = list(blocks)
    for b in blocks:
        if b.nrows != b.ncols:
            raise ValueError("block_diagonal requires square blocks")
    return block_diagonal_rect(blocks)


def block_diagonal_rect(blocks: Sequence[Matrix]) -> Matrix:
    """Diagonal sum of rectangular blocks (row and column offsets both advance)."""
    blocks = list(blocks)
    total_r = sum(b.nrows for b in blocks)
    total_c = sum(b.ncols for b in blocks)
    out = [[ZERO] * total_c for _ in range(total_r)]
    r0 = 0
    c0 = 0
    for b in blocks:
        for i in range(b.nrows):
            out[r0 + i][c0 : c0 + b.ncols] = [x for x in b.rows[i]]
        r0 += b.nrows
        c0 += b.ncols
    return Matrix(total_r, total_c, out)


def determinant(m: Matrix):
    """Determinant by Gaussian elimination with exact pivots."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return ONE
    rows = [r[:] for r in m.rows]
    det = ONE
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        inv = ONE / p
        ppairs = _nonzeros(rows[col])
        for i in range(col + 1, n):
            target = rows[i]
            c = target[col]
            if c:
                c *= inv
                for j, x in ppairs:
                    target[j] -= c * x
    return det


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse matrix, or None when singular."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    return solve_left(m, Matrix.identity(m.nrows))


class SpanSolver:
    """Incremental row-span tracker with coefficient recovery.

    coefficients_in_span runs a fresh elimination per query; this keeps the
    echelonized span between calls, so inserting d rows and answering q
    membership queries costs O((d + q) * d * nnz) total, where nnz is the
    number of nonzeros of an echelon row, instead of a full rref per
    query.  The echelon rows are sparse: each is stored as its nonzero
    (column, value) pairs, leading 1 first.  Rows inserted must keep their
    order: coords() answers are coefficient lists over the inserted rows in
    insertion order.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.nrows = 0
        self._ech: List[List[Tuple[int, "QQ"]]] = []
        self._lead: List[int] = []
        # expression of each echelon row over the inserted rows, sparse
        self._expr: List[dict] = []

    @property
    def rank(self) -> int:
        return len(self._ech)

    def _eliminate(self, row: Sequence) -> Tuple[List, dict]:
        """Reduce row against the echelon rows, tracking the combination."""
        row = [rat(x) for x in row]
        if len(row) != self.ncols:
            raise ValueError(
                f"row length {len(row)} does not match solver width {self.ncols}"
            )
        used: dict = {}
        for lead, pairs, expr in zip(self._lead, self._ech, self._expr):
            c = row[lead]
            if c:
                for j, x in pairs:
                    row[j] -= c * x
                for idx, w in expr.items():
                    s = used.get(idx, ZERO) + c * w
                    if s:
                        used[idx] = s
                    else:
                        used.pop(idx, None)
        return row, used

    def coords(self, row: Sequence) -> Optional[List]:
        """Coefficients over the inserted rows, or None when not in the span."""
        residue, used = self._eliminate(row)
        if any(residue):
            return None
        return self._over_rows(used)

    def coords_or_insert(self, row: Sequence) -> Optional[List]:
        """Coefficients over the inserted rows when row is in the span;
        otherwise insert it and return None.  One elimination either way."""
        residue, used = self._eliminate(row)
        if any(residue):
            self._add(residue, used)
            return None
        return self._over_rows(used)

    def insert(self, row: Sequence) -> bool:
        """Add a row; True when it enlarged the span."""
        return self._add(*self._eliminate(row))

    def _over_rows(self, used: dict) -> List:
        out = [ZERO] * self.nrows
        for idx, w in used.items():
            out[idx] = w
        return out

    def _add(self, residue: List, used: dict) -> bool:
        """Record an eliminated row as the next inserted one; True when
        its residue enlarged the span."""
        index = self.nrows
        self.nrows += 1
        pairs = _nonzeros(residue)
        if not pairs:
            return False
        lead, pivot = pairs[0]
        inv = ONE / pivot
        if inv != ONE:
            pairs = [(j, x * inv) for j, x in pairs]
        # row = sum(used) + residue/inv, so residue = inv*(row - sum(used))
        expr = {idx: -inv * w for idx, w in used.items()}
        expr[index] = inv
        # keep echelon rows sorted by leading column for ordered elimination
        pos = bisect_left(self._lead, lead)
        self._ech.insert(pos, pairs)
        self._lead.insert(pos, lead)
        self._expr.insert(pos, expr)
        return True


def extend_independent(base: Matrix, candidates: Matrix) -> List[int]:
    """Indices of candidate rows that successively extend base to a larger
    independent set.  Scans candidates in order; deterministic."""
    if base.nrows and base.ncols != candidates.ncols:
        raise ValueError("extend_independent: width mismatch")
    span = SpanSolver(candidates.ncols)
    for row in base.rows:
        span.insert(row)
    return [i for i, row in enumerate(candidates.rows) if span.insert(row)]
