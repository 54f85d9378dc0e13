"""Dense reference linear algebra the tests compare the library against.

``rref`` is plain Gauss-Jordan elimination on dense rows in exact field
arithmetic, and ``piece_subspace`` materializes every spanning vector of
a bidegree piece as a dense row. Both are slow and independent of the
sparse rank kernel in ``brmult.linalg``, which is why they live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from brmult.linalg import ShapeError
from brmult.modules import (
    ModulePresentation,
    SliceSpan,
    _piece_index,
    _validated_items,
    piece_basis,
)
from brmult.rings import monomial_basis


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


@dataclass(frozen=True)
class PieceSubspace:
    """A bidegree piece of a spanning subspace, in canonical RREF form."""

    bidegree: tuple
    basis: tuple  # ordered (generator index, monomial) pairs
    matrix: Matrix  # RREF of the dense spanning matrix
    dim: int


def piece_subspace(
    pres: ModulePresentation, deg, items: Sequence[SliceSpan] = ()
) -> PieceSubspace:
    """Dense route to the same subspace ``span_dim`` measures.

    Materializes every spanning vector (relation multiples and slice
    spans) as a dense row and row reduces with the canonical pivot rule.
    Slower than ``span_dim`` but returns the actual reduced basis; the two
    agree on dimension.
    """
    a, nn = deg
    free = pres.free
    ring = free.ring
    basis, _ = piece_basis(free, deg)
    index = _piece_index(free, deg)
    field = ring.field
    rows = []

    def dense_from(row_dict):
        row = [field.zero] * len(basis)
        for p, c in row_dict.items():
            row[p] = c
        return row

    for g, n_src, gb in _validated_items(items, nn):
        for i, (ai, ni) in enumerate(free.shifts):
            for fm in monomial_basis(ring, (a - gb - ai, n_src - ni)):
                row = {}
                for gm, c in g.terms:
                    prod = tuple(x + y for x, y in zip(gm, fm))
                    row[index[(i, prod)]] = c
                rows.append(dense_from(row))
    for rel, (tb, tf) in zip(pres.relations, pres.relation_targets()):
        for mu in monomial_basis(ring, (a - tb, nn - tf)):
            row = {}
            for i, entry in enumerate(rel):
                for pm, c in entry.terms:
                    prod = tuple(x + y for x, y in zip(pm, mu))
                    row[index[(i, prod)]] = c
            rows.append(dense_from(row))

    m = Matrix.from_rows(field, rows) if rows else Matrix(field, 0, len(basis), ())
    reduced, rk = rref(m)
    return PieceSubspace((a, nn), basis, reduced, rk)
