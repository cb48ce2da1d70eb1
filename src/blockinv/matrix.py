"""Dense exact matrix algebra over a FieldSpec.

Matrices are immutable values: every operation returns a fresh Matrix and
any matrix can be read concurrently. Entries are stored row-major as
tuples of int codes of the attached field, so blocks, files and hashes
see plain codes.

Arithmetic on rows runs on the field's packed rows: an operation packs
its operand rows with `pack`, works on them with `scale(row, a) = a*row`
and the one row update, `add = adder(other, uses)` with
`add(row, a) = row + a*other`, reads entries with `entry` and unpacks
its result with `unpack` (see field.py for each field's packed form).
This module never branches on the field kind. An update is made once
per fixed operand, told how many rows it may update, and applied to all
of them, so over GF(2^k) it builds product tables only when enough rows
share them. Elimination makes one per pivot row, at the first row it
clears, for the rows left from there on. A product makes one per row of
its right factor, for the nonzero entries of the matching left column,
and unpacks once per output row. The Kronecker product scales rows, and
addition adds codes with the scalar `add`.

Elimination is one forward pass, `_echelon`: it normalises each pivot
row with scale and eliminates below the pivot only. `rank()` runs that
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


class FieldMismatchError(ValueError):
    """Operands live in different fields."""


class SingularMatrixError(ValueError):
    """Square matrix has no inverse."""


def _clear(rows: list, targets: range, c: int, prow: int,
           field: FieldSpec) -> None:
    """Subtract from each target row its entry in column c times the
    canonical pivot row `prow`, whose entry in column c is 1, so that
    column c of every target becomes zero.

    One update serves them all. It is made at the first target with a
    nonzero entry, for the targets from there on, so a column that is
    already clear builds nothing.
    """
    entry, neg = field.entry, field.neg
    add = None
    for i in targets:
        f = entry(rows[i], c)
        if f:
            if add is None:
                add = field.adder(prow, targets.stop - i)
            rows[i] = add(rows[i], neg(f))


def _echelon(rows: list, field: FieldSpec, width: int) -> list[int]:
    """Bring packed `rows` to row-echelon form in place (forward pass).

    Pivots are sought in the first `width` columns. Each pivot row is
    scaled so that its pivot is 1, which also leaves it in canonical
    codes, and is then eliminated from the rows below it only. Entries
    left of a pivot column are already zero in the pivot row, so an
    update leaves those columns as they are.

    Returns the pivot columns; their count is the rank of that part.
    """
    scale, inv, entry = field.scale, field.inv, field.entry
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, nrows) if entry(rows[i], c)), -1)
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r] = scale(rows[r], inv(entry(rows[r], c)))
        _clear(rows, range(r + 1, nrows), c, prow, field)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
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
        _clear(rows, range(k), pivots[k], prow, field)
    return pivots


def _gauss_jordan(m: "Matrix") -> tuple[list[tuple], list[int]]:
    """Reduce [M | I] for a square M to [E | P], with P @ M = E.

    E is the reduced row-echelon form of M, so P = M^-1 when M is
    invertible. Returns the rows of [E | P] as tuples of 2n codes, and
    E's pivot columns.
    """
    f, n = m.field, m.nrows
    rows = [f.pack(row + unit) for row, unit in
            zip(m._rows, Matrix.identity(f, n)._rows)]
    pivots = _row_reduce(rows, f, n)
    return [tuple(f.unpack(row, 2 * n)) for row in rows], pivots


class Matrix:
    """Immutable dense matrix of field element codes."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: FieldSpec, rows):
        data = tuple(tuple(row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        w = len(data[0])
        for row in data:
            if len(row) != w:
                raise ValueError("rows have inconsistent lengths")
            field.validate_codes(row)
        self.field = field
        self.nrows = len(data)
        self.ncols = w
        self._rows = data

    @classmethod
    def _new(cls, field, rows_tuple):
        # Internal fast path: trusts that codes are already canonical.
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
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._rows]

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.field == other.field
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self._rows))

    def __repr__(self):
        return f"<Matrix {self.nrows}x{self.ncols} over {self.field}>"

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self._rows)

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
        add = self.field.add
        return Matrix._new(self.field, tuple(
            tuple(map(add, ra, rb))
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
        # of other, so each row of other makes one update for every row
        # i; a zero entry adds nothing
        acc = [f.pack((0,) * n)] * self.nrows
        for brow, col in zip(other._rows, zip(*self._rows)):
            add = f.adder(f.pack(brow), self.nrows - col.count(0))
            acc = list(map(add, acc, col))
        return Matrix._new(f, tuple(tuple(f.unpack(x, n)) for x in acc))

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
                out.append(tuple(x for a in arow
                                 for x in f.unpack(f.scale(brow, a), n)))
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
                if b.field != field:
                    raise FieldMismatchError("blocks over different fields")
                if b.nrows != h or b.ncols != w:
                    raise ValueError("block dimensions are inconsistent")
            for i in range(h):
                merged = []
                for b in grow:
                    merged.extend(b._rows[i])
                rows.append(tuple(merged))
        return cls._new(field, tuple(rows))
