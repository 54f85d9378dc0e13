"""Exact polynomial fitting of integer length tables by finite differences.

A LengthTable holds exact integer values of a length function on a
rectangular lattice grid. For a function that is eventually polynomial of
total degree r, every iterated mixed difference of order (i, j, k) with
i + j + k = r is eventually the constant e^{i,j,k} (the coefficient of
p^i q^j n^k / i!j!k!), and every difference of total order r + 1 is
eventually zero. The fitter looks for a window of WINDOW = 2
consecutive lattice points per axis on which both facts hold and reads
the e-values off at the window's base point.

The window test is a heuristic certificate: a table that merely imitates
a polynomial on the probed region will fool it. The remedy is a larger
grid, and the multiplicity pipelines retry once with a grid enlarged by
2 per axis before giving up.

No floating point is used anywhere: a LengthTable rejects any value that
is not a Python int, so every difference and e-value is an exact integer
and nothing is rounded.
"""

from __future__ import annotations

import itertools
import operator
from contextlib import suppress

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

# Lattice points per axis on which the fit's differences must settle.
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
        strides, size = [], 1
        for e in reversed(extents):
            strides.insert(0, size)
            size *= e
        values = tuple(self.values)
        if len(values) != size:
            raise GridTooSmallError(
                f"got {len(values)} values for a grid of {size} points"
            )
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise GridTooSmallError(f"non-integer table value {v!r}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_strides", tuple(strides))

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
    """Forward difference along one axis; the extent there shrinks by 1."""
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
    return LengthTable(t.axes, t.origin, new_extents, tuple(values))


class LeadingForm(Value):
    """Total-degree-r leading form of an eventually polynomial table.

    ``entries`` maps each exponent tuple alpha with |alpha| = r to the
    integer e-value, i.e. the coefficient of prod(axis^alpha) divided by
    prod(alpha!). ``base_point`` is the lattice point (original
    coordinates) where the differences stabilized.
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


def _window_block(base):
    return itertools.product(*(range(b, b + WINDOW) for b in base))


def _feasible_bases(t: LengthTable, order: int):
    """Base points whose window fits every difference table up to order."""
    ranges = []
    for e in t.extents:
        top = e - WINDOW - order + 1
        if top <= 0:
            return None
        ranges.append(range(top))
    return itertools.product(*ranges)


def leading_form(t: LengthTable, r: int) -> LeadingForm:
    """Extract all order-r e-values at the first stabilization window.

    Scans base points in row-major order for a window of WINDOW points
    per axis where every order-r mixed difference is constant and every
    order-(r+1) difference vanishes. This one rule classifies every failed
    fit: GridTooSmallError when no window fits, DegreeExceedsError when
    the order-r differences go constant but the order-(r+1) ones refuse
    to vanish, or when total_degree_estimate exceeds r, and
    StabilizationError otherwise: the table is not yet polynomial there.
    """
    if r < 0:
        raise ValueError("negative degree")
    bases = _feasible_bases(t, r + 1)
    if bases is None:
        raise GridTooSmallError(
            f"extents {t.extents} too small for degree {r} with window {WINDOW}"
        )
    tables = t.differences(r + 1)
    order_r = [tables[a] for a in _alphas(t.arity, r)]
    order_r1 = [tables[a] for a in _alphas(t.arity, r + 1)]
    constant_seen = False
    for base in bases:
        block = list(_window_block(base))
        if all(
            len({tab.value(p) for p in block}) == 1 for tab in order_r
        ):
            if all(tab.value(p) == 0 for tab in order_r1 for p in block):
                entries = tuple(
                    (alpha, tables[alpha].value(base))
                    for alpha in _alphas(t.arity, r)
                )
                point = tuple(o + b for o, b in zip(t.origin, base))
                return LeadingForm(r, t.axes, entries, point)
            constant_seen = True
    if constant_seen:
        raise DegreeExceedsError(
            f"order-{r} differences stabilize but order-{r + 1} differences"
            " do not vanish: the table's degree exceeds the requested r",
            t,
            r,
        )
    # The grid fits order r + 1, so the estimate raises only when no window vanishes.
    with suppress(StabilizationError):
        estimate = total_degree_estimate(t)
        if estimate > r:
            raise DegreeExceedsError(
                f"table degree estimate {estimate} exceeds r = {r}", t, r
            )
    raise StabilizationError(
        f"no stabilization window of size {WINDOW} for degree {r} within"
        f" extents {t.extents}: the table is not yet polynomial there"
    )


def total_degree_estimate(t: LengthTable) -> int:
    """Smallest D whose order-(D+1) differences vanish on some window."""
    max_d = min(t.extents) - WINDOW - 1
    if max_d < 0:
        raise GridTooSmallError(
            f"extents {t.extents} too small for any degree estimate with"
            f" window {WINDOW}"
        )
    for degree in range(max_d + 1):
        tables = t.differences(degree + 1)
        order_d1 = [tables[a] for a in _alphas(t.arity, degree + 1)]
        for base in _feasible_bases(t, degree + 1):
            block = list(_window_block(base))
            if all(tab.value(p) == 0 for tab in order_d1 for p in block):
                return degree
    raise StabilizationError(
        f"no vanishing difference window up to degree {max_d} within"
        f" extents {t.extents}"
    )
