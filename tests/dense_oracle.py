"""Reference routes the tests compare the library against.

``rref`` is plain Gauss-Jordan elimination on dense rows in exact field
arithmetic, and ``piece_subspace`` materializes every spanning vector of
a bidegree piece as a dense row. Both are slow and independent of the
sparse rank kernel in ``brmult.linalg``. ``scan_span_dim`` measures the
same span as ``brmult.modules.span_dim`` by testing every basis monomial
of the piece for divisibility and ranking the rest with ``rank``,
independent of the Hilbert numerators and the rank kernel the library
counts with. ``piece_subspace`` and ``scan_span_dim`` derive each slice
generator's source fiber on their own (``slice_generators``), and
``dense_slice_dims`` counts a slice quotient piece by piece with
``piece_subspace``.
``multiset_power_generators`` and
``pairwise_product_generators`` multiply out every product of generators,
with no echelon step; ``rref_by_bidegree`` compares generator sets by the
spaces they span in each bidegree. ``samuel_function`` sums dense pieces
against such multiplied-out powers, so it shares neither the slice walk
nor the power generators with the local pipeline it checks.

The oracles take slice generators as lists of polynomials; ``as_span``
groups such a list into the span shape the library takes, a tuple of
SubmoduleSpecs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement
from typing import Sequence

from brmult.modules import ModulePresentation, piece_basis
from brmult.rings import Polynomial, SubmoduleSpec, monomial_basis


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


def as_span(polys, labels=None) -> tuple:
    """The slice generators ``polys`` as a span: one SubmoduleSpec per
    fiber degree, in order of first appearance, with zeros dropped.
    ``labels``, one per poly, split a fiber degree into one part per label.
    """
    groups = {}
    for g, label in zip(polys, labels or [0] * len(polys)):
        if not g.is_zero():
            groups.setdefault((g.fiber_degree(), label), []).append(g)
    return tuple(
        SubmoduleSpec(gens[0].ring, d, tuple(gens)) for (d, _), gens in groups.items()
    )


def slice_generators(items: Sequence[Polynomial], fiber: int):
    """(g, source fiber, base degree) of each nonzero slice generator g.

    g spans g M_j with j = ``fiber`` minus g's fiber degree; one with
    j < 0 acts on the zero module and is left out.
    """
    for g in items:
        if g.is_zero():
            continue
        lead, nbase = g.terms[0][0], len(g.ring.base)
        gb, gf = sum(lead[:nbase]), sum(lead[nbase:])
        if gf <= fiber:
            yield g, fiber - gf, gb


def piece_subspace(
    pres: ModulePresentation, deg, items: Sequence[Polynomial] = ()
) -> PieceSubspace:
    """Dense route to the same subspace ``span_dim`` measures.

    Materializes every spanning vector (relation multiples and slice
    generator multiples) as a dense row and row reduces with the
    canonical pivot rule. Slower than ``span_dim`` but returns the actual reduced basis; the two
    agree on dimension.
    """
    a, nn = deg
    free = pres.free
    ring = free.ring
    basis, index = piece_basis(free, deg)
    field = ring.field
    rows = []

    def dense_from(row_dict):
        row = [field.zero] * len(basis)
        for p, c in row_dict.items():
            row[p] = c
        return row

    for g, n_src, gb in slice_generators(items, nn):
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


def dense_piece_dim(pres: ModulePresentation, deg, top_items, bottom_items) -> int:
    """dim (T / B) at ``deg`` from dense ``piece_subspace``s: T is F when
    ``top_items`` is None, else K plus the span of ``top_items``; B is K
    plus the span of ``bottom_items``."""
    if top_items is None:
        top = len(piece_basis(pres.free, deg)[0])
    else:
        top = piece_subspace(pres, deg, top_items).dim
    return top - piece_subspace(pres, deg, bottom_items).dim


def dense_slice_dims(
    pres: ModulePresentation, fiber: int, top_items, bottom_items, max_degree: int
) -> tuple:
    """``dense_piece_dim`` at base degrees 0..``max_degree`` of ``fiber``."""
    return tuple(
        dense_piece_dim(pres, (a, fiber), top_items, bottom_items)
        for a in range(max_degree + 1)
    )


def quadratic_prune(monos):
    """Keep only divisibility-minimal monomials, testing every kept pair."""
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    kept = []
    for m in monos:
        if not any(all(a >= b for a, b in zip(m, k)) for k in kept):
            kept.append(m)
    return kept


def _divides(g, m) -> bool:
    return all(a >= b for a, b in zip(m, g))


def scan_span_dim(
    pres: ModulePresentation, deg, items: Sequence[Polynomial] = ()
) -> int:
    """Dimension of (K + span of items) inside F at ``deg``, by a full scan.

    Single-monomial spanning vectors are counted by testing every basis
    monomial of the piece against every such generator; the remaining
    vectors, with those coordinates cleared, go through the dense ``rank``.
    """
    basis, index = piece_basis(pres.free, deg)
    if not basis:
        return 0
    a, nn = deg
    free = pres.free
    ring = free.ring
    ring_monos = []
    comp_monos = {}
    poly_rows = []
    for g, n_src, gb in slice_generators(items, nn):
        if g.is_monomial():
            ring_monos.append(g.terms[0][0])
            continue
        for i, (ai, ni) in enumerate(free.shifts):
            for fm in monomial_basis(ring, (a - gb - ai, n_src - ni)):
                row = {}
                for gm, c in g.terms:
                    prod = tuple(x + y for x, y in zip(gm, fm))
                    row[index[(i, prod)]] = c
                poly_rows.append(row)
    for rel, (tb, tf) in zip(pres.relations, pres.relation_targets()):
        mult_basis = monomial_basis(ring, (a - tb, nn - tf))
        if not mult_basis:
            continue
        nonzero = [(i, entry) for i, entry in enumerate(rel) if not entry.is_zero()]
        if len(nonzero) == 1 and nonzero[0][1].is_monomial():
            comp_monos.setdefault(nonzero[0][0], []).append(
                nonzero[0][1].terms[0][0]
            )
            continue
        for mu in mult_basis:
            row = {}
            for i, entry in nonzero:
                for pm, c in entry.terms:
                    prod = tuple(x + y for x, y in zip(pm, mu))
                    row[index[(i, prod)]] = c
            poly_rows.append(row)
    ring_monos = quadratic_prune(ring_monos)
    comp_monos = {i: quadratic_prune(ms) for i, ms in comp_monos.items()}

    if any(sum(g) == 0 for g in ring_monos):
        return len(basis)
    unit = set()
    for flat, (i, mono) in enumerate(basis):
        if any(_divides(g, mono) for g in ring_monos):
            unit.add(flat)
        elif any(_divides(g, mono) for g in comp_monos.get(i, ())):
            unit.add(flat)

    columns = sorted({p for row in poly_rows for p in row} - unit)
    dense = [[row.get(p, 0) for p in columns] for row in poly_rows]
    return len(unit) + rank(Matrix.from_rows(ring.field, dense))


def _monic_set(polys) -> tuple:
    """Nonzero polys made monic, without repeats, by descending terms."""
    seen = {g.monic().terms: g.monic() for g in polys if not g.is_zero()}
    return tuple(seen[terms] for terms in sorted(seen, reverse=True))


def multiset_power_generators(h, p: int) -> tuple:
    """Generators of H^p: every p-fold product of H's generators, monic."""
    if p == 0:
        return (h.ring.one,)
    products = []
    for combo in combinations_with_replacement(h.gens, p):
        prod = combo[0]
        for g in combo[1:]:
            prod = prod * g
        products.append(prod)
    return _monic_set(products)


def pairwise_product_generators(h1, h2) -> tuple:
    """Generators of H1*H2: every product of a pair of generators, monic."""
    return _monic_set(g1 * g2 for g1 in h1.gens for g2 in h2.gens)


def rref_by_bidegree(ring, polys) -> dict:
    """{bidegree: nonzero rows of the RREF} of the span of ``polys``.

    Columns are the bidegree's monomial basis, so two generator sets span
    the same space in every bidegree exactly when their results are equal.
    """
    groups = {}
    for g in polys:
        groups.setdefault(g.bidegree(), []).append(g)
    out = {}
    for deg, group in groups.items():
        columns = monomial_basis(ring, deg)
        rows = [[dict(g.terms).get(m, 0) for m in columns] for g in group]
        reduced, rk = rref(Matrix.from_rows(ring.field, rows))
        out[deg] = reduced.rows[:rk]
    return out


def samuel_function(pres: ModulePresentation, ideal, n: int, cutoff: int = 32) -> int:
    """length(M / I^(n+1) M), the classical Samuel function of a base ideal.

    Sums ``dense_piece_dim`` against every (n+1)-fold product of I's
    generators. The quotient is generated in base degrees up to the
    largest shift, so its first zero piece from there on ends the sum. A
    piece still nonzero at ``cutoff``, as for an ideal that is not
    m-primary, raises ValueError.
    """
    gens = multiset_power_generators(ideal, n + 1)
    start = max(a for a, _ in pres.free.shifts)
    total = 0
    for a in range(cutoff + 1):
        dim = dense_piece_dim(pres, (a, 0), None, gens)
        if dim == 0 and a >= start:
            return total
        total += dim
    raise ValueError(f"M / I^{n + 1} M is nonzero in base degree {cutoff}")
