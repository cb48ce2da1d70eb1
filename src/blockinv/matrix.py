"""Dense exact matrix algebra over a FieldSpec.

Matrices are immutable values: every operation returns a fresh Matrix and
any matrix can be read concurrently. Entries are stored row-major, each
row as the field's stored row, a compact array of codes whose type the
field picks: one or two bytes per entry where a tuple of ints takes
about 36. Rows come from the field: `FieldSpec.row` validates the
constructor's input (and the few rows built here from plain codes), and
a result computed on packed rows is stored with `FieldSpec.store`. No
method hands a row object out: entries, `to_lists` and `str` give plain
int codes, equality compares the rows, and the hash reads their bytes.
A block is a slice of each of its rows, and `from_blocks` and `kron`
join stored rows with `FieldSpec.join`, so none of them unboxes an
entry.

Arithmetic on rows runs on the field's packed rows: an operation packs
its operand rows with `pack`, works on them with `scale(row, a) = a*row`
and with operations on whole lists of rows, `column(rows, j)`, which
reads column j, the row update `sub_rows(rows, fs, other)`, which
returns each row minus its factor times `other`, and `drop_rows`, the
same update with column 0 shifted out; it stores its result with `store`
(see field.py for each field's packed form). This module never branches
on the field kind, and each operation forms its products one way: over
GF(2^k), `drop_rows` reads them from product tables that all its rows
share, and `sub_rows` forms each one bit by bit. A product makes one
`sub_rows` call per row of its right factor, with the negated matching
left column as the factors, and stores each output row once. The
Kronecker product scales rows, and addition adds codes with the scalar
`add`.

Elimination is one forward pass, `_echelon`, on the trailing submatrix:
the rows that hold no pivot yet, from the column being read on. Each
such row is kept shifted so that this column is its entry 0; the pivot
row is normalised with scale and leaves those rows, and one `drop_rows`
call clears the column in the others and shifts it out, so each entry
is read and updated only while it is not yet cleared. A row is shifted
back into place (`FieldSpec.shift`) as it takes its pivot, or at the
end if it takes none. `rank()` runs that
pass alone. `_gauss_jordan` owns the one reduction of [A | I] to
[E | P], with P @ A = E: `_row_reduce` adds a back-substitution pass
clearing above each pivot, and the reduced row-echelon form is unique,
so this gives the same integers as a Gauss-Jordan sweep. Inversion reads
P off the right half; the rank decomposition (decompose.py) reads both
of its factors off [E | P] without a second elimination. Pivoting
picks the first nonzero entry scanning down each column, columns left
to right; exact arithmetic needs no magnitude-based pivot strategy, and
the fixed scan order makes every result bit-reproducible.
"""

from __future__ import annotations

from .field import FieldSpec, _clip

#: The decimal spelling of each code below 256: `str` of a matrix over a
#: field of order <= 256 spells its codes by indexing this table, and
#: the text loader (matrixfile.py) reads them back through its inverse.
_SPELLINGS = tuple(map(str, range(256)))


class FieldMismatchError(ValueError):
    """Operands live in different fields."""


class SingularMatrixError(ValueError):
    """Square matrix has no inverse."""


def _echelon(rows: list, field: FieldSpec, width: int) -> list[int]:
    """Bring packed `rows` to row-echelon form in place (forward pass).

    Pivots are sought in the first `width` columns, left to right, in the
    live rows, those holding no pivot yet, each kept shifted so that the
    column being read is its entry 0. The first nonzero entry there is
    the pivot. Its row is scaled so that the pivot is 1, which also
    leaves it in canonical codes, and leaves the live rows, the first
    live row taking its place; the column's entries are the factors of
    one `drop_rows` update that clears the column in the other live rows
    and shifts it out. A pivot row has zeros left of its pivot column,
    and a row left live has zeros in all `width` columns, so shifting
    each back by that many entries, a pivot row as soon as it is found,
    gives the echelon form, pivot rows first.

    Returns the pivot columns; their count is the rank of that part.
    """
    column, drop_rows, shift = field.column, field.drop_rows, field.shift
    scale, inv = field.scale, field.inv
    live, rows[:], pivots = rows[:], (), []
    for c in range(width):
        col = column(live, 0)
        x = next(filter(None, col), 0)
        prow = 0
        if x:
            i = col.index(x)
            prow = scale(live[i], inv(x))
            live[i], col[i] = live[0], col[0]
            del live[0], col[0]
            rows.append(shift(prow, c))
            pivots.append(c)
            if not live:
                break
        live = drop_rows(live, col, prow)
    rows += [shift(row, width) for row in live]
    return pivots


def _row_reduce(rows: list, field: FieldSpec, width: int) -> list[int]:
    """Bring packed `rows` to reduced row-echelon form in place.

    The forward pass `_echelon`, then back-substitution: from the last
    pivot up, each pivot row (brought to canonical codes first) clears
    its column in the rows above. Reducing [A | I] with width = ncols(A)
    leaves the left transform in the right half.

    Returns the pivot columns, as `_echelon` does.
    """
    pivots = _echelon(rows, field, width)
    for k in range(len(pivots) - 1, 0, -1):
        prow = rows[k] = field.scale(rows[k], 1)
        above = rows[:k]
        rows[:k] = field.sub_rows(above, field.column(above, pivots[k]),
                                  prow)
    return pivots


def _gauss_jordan(m: "Matrix") -> tuple[list, list[int]]:
    """Reduce [M | I] for a square M to [E | P], with P @ M = E.

    E is the reduced row-echelon form of M, so P = M^-1 when M is
    invertible. Returns the rows of [E | P] as stored rows of 2n codes,
    and E's pivot columns.
    """
    f, n = m.field, m.nrows
    rows = [f.pack(row + unit) for row, unit in
            zip(m._rows, Matrix.identity(f, n)._rows)]
    pivots = _row_reduce(rows, f, n)
    return [f.store(row, 2 * n) for row in rows], pivots


class Matrix:
    """Immutable dense matrix of field element codes."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: FieldSpec, rows):
        rows = [row if isinstance(row, (list, tuple)) else tuple(row)
                for row in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        w = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != w:
                raise ValueError("rows have inconsistent lengths")
            rows[i] = field.row(row)
        self.field = field
        self.nrows = len(rows)
        self.ncols = w
        self._rows = tuple(rows)

    @classmethod
    def _new(cls, field, rows_tuple):
        # Internal fast path: trusts that the rows are stored rows of
        # `field` (see `FieldSpec.row`) of one length.
        m = object.__new__(cls)
        m.field = field
        m._rows = rows_tuple
        m.nrows = len(rows_tuple)
        m.ncols = len(rows_tuple[0])
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        if n < 1:
            raise ValueError("size must be positive")
        return cls._new(field, tuple(
            field.row([1 if i == j else 0 for j in range(n)])
            for i in range(n)))

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def to_lists(self) -> list[list[int]]:
        return [row.tolist() for row in self._rows]

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.field == other.field
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.nrows, b"".join(self._rows)))

    def __repr__(self):
        return f"<Matrix {self.nrows}x{self.ncols} over {self.field}>"

    def __str__(self):
        if self.field.order > len(_SPELLINGS):
            return "\n".join(" ".join(map(str, row)) for row in self._rows)
        return "\n".join([" ".join([_SPELLINGS[code] for code in row])
                          for row in self._rows])

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _require_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"operands over {self.field} and {other.field}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"cannot add {self.nrows}x{self.ncols} and "
                f"{other.nrows}x{other.ncols}")
        f = self.field
        return Matrix._new(f, tuple(
            f.row([*map(f.add, ra, rb)])
            for ra, rb in zip(self._rows, other._rows)))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_field(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        f, n = self.field, other.ncols
        # row i of the product is the sum over k of self[i, k] times row k
        # of other, so each row k of other updates every row i at once,
        # subtracting it times the negated column k; a zero entry adds
        # nothing
        neg, pack, sub_rows = f.neg, f.pack, f.sub_rows
        acc = [pack((0,) * n)] * self.nrows
        for brow, col in zip(other._rows, zip(*self._rows)):
            acc = sub_rows(acc, list(map(neg, col)), pack(brow))
        return Matrix._new(f, tuple(f.store(x, n) for x in acc))

    def rank(self) -> int:
        rows = [self.field.pack(row) for row in self._rows]
        return len(_echelon(rows, self.field, self.ncols))

    def inverse(self) -> "Matrix":
        """Gauss-Jordan inverse; raises SingularMatrixError if none exists."""
        if not self.is_square:
            raise ValueError(f"cannot invert {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        rows, pivots = _gauss_jordan(self)
        if len(pivots) != n:
            raise SingularMatrixError(
                f"{n}x{n} matrix over {self.field} is singular")
        return Matrix._new(self.field, tuple(row[n:] for row in rows))

    def is_invertible(self) -> bool:
        return self.is_square and self.rank() == self.nrows

    # ------------------------------------------------------------------
    # Kronecker product and blocking
    # ------------------------------------------------------------------
    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) of the result is self[i,j] * other."""
        self._require_same_field(other)
        f, n = self.field, other.ncols
        brows = [f.pack(row) for row in other._rows]
        out = []
        for arow in self._rows:
            for brow in brows:
                out.append(f.join([f.store(f.scale(brow, a), n)
                                   for a in arow]))
        return Matrix._new(f, tuple(out))

    def _check_block_size(self, p: int):
        if p < 1:
            raise ValueError("block size must be positive")
        if self.nrows % p or self.ncols % p:
            raise ValueError(f"block size {_clip(str(p))} does not divide "
                             f"{self.nrows}x{self.ncols}")

    def block(self, p: int, i: int, j: int) -> "Matrix":
        """The p x p block in block-row i, block-column j (0-based)."""
        self._check_block_size(p)
        if not (0 <= i < self.nrows // p and 0 <= j < self.ncols // p):
            raise IndexError(f"block index ({i}, {j}) out of range")
        return Matrix._new(self.field, tuple(
            row[j * p:(j + 1) * p] for row in self._rows[i * p:(i + 1) * p]))

    @classmethod
    def from_blocks(cls, grid) -> "Matrix":
        """Assemble a matrix from a rectangular grid of matrices.

        Blocks in one grid row must share a height, blocks in one grid
        column must share a width, and all must share one field.
        """
        grid = [list(row) for row in grid]
        if not grid or not grid[0]:
            raise ValueError("block grid must be non-empty")
        field = grid[0][0].field
        widths = [b.ncols for b in grid[0]]
        rows = []
        for grow in grid:
            if len(grow) != len(widths):
                raise ValueError("block grid rows have inconsistent lengths")
            h = grow[0].nrows
            for b, w in zip(grow, widths):
                if b.field is not field and b.field != field:
                    raise FieldMismatchError("blocks over different fields")
                if b.nrows != h or b.ncols != w:
                    raise ValueError("block dimensions are inconsistent")
            rows += map(field.join, zip(*(b._rows for b in grow)))
        return cls._new(field, tuple(rows))
