"""Dense exact linear algebra over Q or F_p.

Matrices are immutable row-major tuples of field scalars. The only
operations the rest of the package needs are the canonical reduced row
echelon form and ranks of spanning sets; both are implemented with plain
Gauss-Jordan elimination in exact field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class Matrix:
    """An nrows x ncols matrix with entries in a fixed field."""

    field: object
    nrows: int
    ncols: int
    rows: tuple = dc_field(default=())

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(self.rows) != self.nrows:
            raise ShapeError(f"expected {self.nrows} rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != self.ncols:
                raise ShapeError(f"ragged row of length {len(row)}")

    @classmethod
    def from_rows(cls, field, rows) -> "Matrix":
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        ncols = len(coerced[0]) if coerced else 0
        return cls(field, len(coerced), ncols, coerced)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Canonical reduced row echelon form of ``m`` and its rank.

    Pivot selection is deterministic: leftmost candidate column first, and
    within a column the not-yet-used row of lowest index. Pivots are
    normalized to 1 and cleared above and below, so the result is the
    unique RREF of the row space.
    """
    f = m.field
    rows = [list(r) for r in m.rows]
    pivot_row = 0
    for col in range(m.ncols):
        src = None
        for i in range(pivot_row, m.nrows):
            if not f.is_zero(rows[i][col]):
                src = i
                break
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        inv = f.div(f.one, rows[pivot_row][col])
        rows[pivot_row] = [f.mul(inv, x) for x in rows[pivot_row]]
        for i in range(m.nrows):
            if i == pivot_row:
                continue
            c = rows[i][col]
            if f.is_zero(c):
                continue
            prow = rows[pivot_row]
            rows[i] = [f.sub(x, f.mul(c, px)) for x, px in zip(rows[i], prow)]
        pivot_row += 1
        if pivot_row == m.nrows:
            break
    out = Matrix(f, m.nrows, m.ncols, tuple(tuple(r) for r in rows))
    return out, pivot_row


def rank(m: Matrix) -> int:
    return rref(m)[1]


def subspace_dim(rows, field, ncols=None) -> int:
    """Dimension of the span of ``rows`` (iterable of scalar sequences).

    Incremental forward elimination: each row is reduced against the
    pivots found so far and kept if anything survives. Returns the same
    number as ``rank(Matrix.from_rows(...))`` but skips the back
    substitution, which is the common hot path for the span engines.
    """
    f = field
    pivots: dict[int, list] = {}
    dim = 0
    for raw in rows:
        row = [f.coerce(x) for x in raw]
        if ncols is not None and len(row) != ncols:
            raise ShapeError(f"row of length {len(row)}, expected {ncols}")
        for col in sorted(pivots):
            c = row[col]
            if f.is_zero(c):
                continue
            prow = pivots[col]
            row = [f.sub(x, f.mul(c, px)) for x, px in zip(row, prow)]
        lead = None
        for j, x in enumerate(row):
            if not f.is_zero(x):
                lead = j
                break
        if lead is None:
            continue
        inv = f.div(f.one, row[lead])
        pivots[lead] = [f.mul(inv, x) for x in row]
        dim += 1
    return dim
