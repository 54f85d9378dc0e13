"""Exact polynomial fitting of integer length tables by finite differences.

A LengthTable holds exact integer values of a length function on a
rectangular lattice grid. For a function that is eventually polynomial of
total degree r, every difference of total order r + 1 is eventually zero,
so every iterated mixed difference of order (i, j, k) with i + j + k = r
is eventually the constant e^{i,j,k} (the coefficient of
p^i q^j n^k / i!j!k!). The fitter takes the first base point from which
every order-(r+1) difference vanishes on the whole tail up to the grid's
far corner, at least WINDOW = 2 points per axis, and reads the e-values
off there. The certificate reaches only as far as the grid: a table that
leaves its polynomial beyond the grid fools it, so the multiplicity
pipelines retry once on a grid enlarged by 2 per axis before giving up.

No floating point is used anywhere: a LengthTable rejects any value that
is not a Python int, so every difference and e-value is an exact integer
and nothing is rounded.
"""

from __future__ import annotations

import itertools
import operator
from contextlib import suppress
from math import prod

from .fields import Value

__all__ = [
    "LengthTable",
    "LeadingForm",
    "GridTooSmallError",
    "StabilizationError",
    "DegreeExceedsError",
    "finite_difference",
    "leading_form",
    "total_degree_estimate",
    "WINDOW",
]

# The fewest lattice points per axis of a tail where the differences vanish.
WINDOW = 2


class GridTooSmallError(ValueError):
    pass


class StabilizationError(RuntimeError):
    pass


class DegreeExceedsError(RuntimeError):
    """A table whose degree exceeds r, raised on ``table`` at ``r``."""

    def __init__(self, message: str, table: LengthTable, r: int):
        super().__init__(message)
        self.table = table
        self.r = r


class LengthTable(Value):
    """Integer values of a length function on a lattice box.

    ``axes`` names the axes (one to three of them), ``origin`` is the
    lattice point of the first entry, ``extents`` the number of points per
    axis, and ``values`` the row-major flat value tuple. The table keeps
    its row-major strides and the mixed differences ``differences`` builds
    outside its fields, as ``Value`` keeps its hash.
    """

    axes: tuple
    origin: tuple
    extents: tuple
    values: tuple

    def __post_init__(self):
        axes = tuple(self.axes)
        origin = tuple(int(v) for v in self.origin)
        extents = tuple(int(v) for v in self.extents)
        if not 1 <= len(axes) <= 3:
            raise GridTooSmallError(f"need 1 to 3 axes, got {len(axes)}")
        if len(origin) != len(axes) or len(extents) != len(axes):
            raise GridTooSmallError("axes, origin and extents disagree in arity")
        if any(e < 1 for e in extents):
            raise GridTooSmallError(f"empty extent in {extents}")
        values = tuple(self.values)
        if len(values) != prod(extents):
            raise GridTooSmallError(
                f"got {len(values)} values for a grid of {prod(extents)} points"
            )
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise GridTooSmallError(f"non-integer table value {v!r}")
        LengthTable._unchecked(axes, origin, extents, values, self)

    @classmethod
    def _unchecked(cls, axes, origin, extents, values, table=None) -> LengthTable:
        """The table of these fields, as ``__post_init__`` leaves them, and
        their row-major strides, with no check: a new table or ``table``."""
        table = object.__new__(cls) if table is None else table
        strides = [1]
        for e in reversed(extents[1:]):
            strides.insert(0, strides[0] * e)
        fields = (axes, origin, extents, values, tuple(strides))
        for name, value in zip(cls._fields + ("_strides",), fields):
            object.__setattr__(table, name, value)
        return table

    @property
    def arity(self) -> int:
        return len(self.axes)

    def value(self, idx) -> int:
        flat = 0
        for j, e, s in zip(idx, self.extents, self._strides):
            if not 0 <= j < e:
                raise IndexError(f"index {idx} outside extents {self.extents}")
            flat += j * s
        return self.values[flat]

    def point(self, flat: int) -> tuple:
        """The lattice point of the flat value index ``flat``."""
        coords = []
        for stride in self._strides:
            coords.append(flat // stride)
            flat %= stride
        return tuple(o + c for o, c in zip(self.origin, coords))

    def axis_index(self, axis) -> int:
        if isinstance(axis, str):
            return self.axes.index(axis)
        return int(axis)

    def differences(self, max_order: int) -> dict:
        """The table's mixed differences of every total order up to
        ``max_order``, keyed by order alpha (the table itself at order
        zero). Each order is built once per table."""
        built = getattr(self, "_differences", None)
        if built is None:
            built = {}
            object.__setattr__(self, "_differences", built)
        for total in range(1, max_order + 1):
            for alpha in _alphas(self.arity, total):
                if alpha not in built:
                    ax = next(i for i, a in enumerate(alpha) if a > 0)
                    prev = tuple(a - 1 if i == ax else a for i, a in enumerate(alpha))
                    source = self if total == 1 else built[prev]
                    built[alpha] = finite_difference(source, ax)
        return {(0,) * self.arity: self, **built}


def finite_difference(t: LengthTable, axis) -> LengthTable:
    """Forward difference along one axis; the extent there shrinks by 1.
    Differences of ints are ints, so the result skips the table's checks."""
    ax = t.axis_index(axis)
    if t.extents[ax] < 2:
        raise GridTooSmallError(
            f"cannot difference axis {t.axes[ax]!r} of extent {t.extents[ax]}"
        )
    new_extents = tuple(
        e - 1 if i == ax else e for i, e in enumerate(t.extents)
    )
    # The values with one fixed index before the axis form a contiguous
    # block: difference it against itself shifted one step along the axis.
    step = t._strides[ax]
    block = step * t.extents[ax]
    values = []
    for start in range(0, len(t.values), block):
        chunk = t.values[start : start + block]
        values += map(operator.sub, chunk[step:], chunk[:-step])
    return LengthTable._unchecked(t.axes, t.origin, new_extents, tuple(values))


class LeadingForm(Value):
    """Total-degree-r leading form of an eventually polynomial table.

    ``entries`` maps each exponent tuple alpha with |alpha| = r to the
    integer e-value, i.e. the coefficient of prod(axis^alpha) divided by
    prod(alpha!). ``base_point`` is the lattice point (original
    coordinates) from which the order-(r+1) differences vanish up to the
    grid's far corner.
    """

    r: int
    axes: tuple
    entries: tuple  # ((alpha, e), ...) sorted by descending alpha
    base_point: tuple

    def as_dict(self) -> dict:
        return dict(self.entries)

    def __getitem__(self, alpha) -> int:
        return self.as_dict()[tuple(alpha)]


def _alphas(arity: int, total: int):
    alphas = itertools.product(range(total + 1), repeat=arity)
    return sorted((alpha for alpha in alphas if sum(alpha) == total), reverse=True)


def _tail_base(t: LengthTable, order: int):
    """The first base point, in row-major order, from which every
    difference of total order ``order`` is zero on the whole box up to the
    grid's far corner, or None. The box must have at least WINDOW points
    per axis; GridTooSmallError when none fits."""
    tops = [e - order - WINDOW + 1 for e in t.extents]
    if min(tops) <= 0:
        raise GridTooSmallError(
            f"extents {t.extents} too small for degree {order - 1} with window {WINDOW}"
        )
    diffs = t.differences(order)
    tables = [diffs[alpha] for alpha in _alphas(t.arity, order)]
    # The far corner lies in every tail, so a nonzero there rules out all.
    if any(tab.values[-1] for tab in tables):
        return None
    nonzero = [tab.point(i) for tab in tables for i, v in enumerate(tab.values) if v]
    bases = itertools.product(*(range(o, o + n) for o, n in zip(t.origin, tops)))
    for base in bases:
        if not any(all(map(operator.ge, p, base)) for p in nonzero):
            return base
    return None


def leading_form(t: LengthTable, r: int) -> LeadingForm:
    """Extract all order-r e-values at the first vanishing tail.

    The tail is the box from ``_tail_base(t, r + 1)`` to the grid's far
    corner, on which every order-(r+1) mixed difference vanishes, so every
    order-r difference is constant there. One rule classifies every
    failed fit: GridTooSmallError when no box of WINDOW points per axis
    fits, DegreeExceedsError when total_degree_estimate exceeds r, and
    StabilizationError otherwise: the table is not yet polynomial there.
    """
    if r < 0:
        raise ValueError("negative degree")
    base = _tail_base(t, r + 1)
    if base is not None:
        tables = t.differences(r)
        idx = tuple(map(operator.sub, base, t.origin))
        entries = tuple(
            (alpha, tables[alpha].value(idx)) for alpha in _alphas(t.arity, r)
        )
        return LeadingForm(r, t.axes, entries, base)
    # The grid fits order r + 1, so the estimate raises only when no tail vanishes.
    with suppress(StabilizationError):
        estimate = total_degree_estimate(t)
        if estimate > r:
            raise DegreeExceedsError(
                f"table degree estimate {estimate} exceeds r = {r}", t, r
            )
    raise StabilizationError(
        f"no stabilization window of size {WINDOW} or more reaches the far corner"
        f" of extents {t.extents} for degree {r}: the table is not yet polynomial there"
    )


def total_degree_estimate(t: LengthTable) -> int:
    """Smallest D whose order-(D+1) differences vanish on a tail of the grid."""
    max_d = min(t.extents) - WINDOW - 1
    if max_d < 0:
        raise GridTooSmallError(
            f"extents {t.extents} too small for any degree estimate with"
            f" window {WINDOW}"
        )
    for degree in range(max_d + 1):
        if _tail_base(t, degree + 1) is not None:
            return degree
    raise StabilizationError(
        f"no vanishing difference tail up to degree {max_d} within"
        f" extents {t.extents}"
    )
