"""Finitely presented bigraded modules and exact lengths of graded slices.

A module M = F/K is given by a free module F with bidegree shifts and a
tuple of bihomogeneous relation vectors spanning K. Everything downstream
reduces to one primitive: the dimension of a spanning subspace of a single
bidegree piece of F. Spanning sets come in two flavors,

* the relation multiples (always included), and
* "slice spans" (g, n_src): a ring element g applied to the whole
  fiber-degree-n_src slice of the module, the shape every power H^p M_n
  and mixed product H1^p H2^q M_n takes.

Single-monomial spanning vectors are counted by a divisibility scan and
only genuinely polynomial vectors go through field elimination; the rank
of a union of distinct unit vectors U and other rows V is |U| plus the
rank of V with the U coordinates cleared, so this is exact.

Fiber-slice lengths carry a finiteness certificate: the quotient being
measured is generated in base degrees <= D, so the first zero summand at
or past D proves all later summands vanish. If no such degree appears
below the cutoff, the support condition fails and we raise instead of
silently truncating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .linalg import subspace_dim
from .rings import GradingError, Polynomial, RingSpec, monomial_basis

__all__ = [
    "FreeModuleSpec",
    "ModulePresentation",
    "SliceSpan",
    "LengthResult",
    "CutoffExceeded",
    "ZeroModuleError",
    "HilbertProbeError",
    "piece_dimension",
    "span_dim",
    "quotient_fiber_length",
    "graded_slice_length",
    "slice_dims_up_to",
    "krull_dimension",
]

DEFAULT_CUTOFF = 64


class CutoffExceeded(RuntimeError):
    """A fiber slice kept contributing length past the base-degree cutoff.

    For a valid query this means the support condition is violated: the
    quotient is not finite length, so no cutoff makes the answer right.
    """

    def __init__(self, fiber_degree: int, cutoff: int):
        self.fiber_degree = fiber_degree
        self.cutoff = cutoff
        super().__init__(
            f"slice at fiber degree {fiber_degree} still has positive length at"
            f" base degree {cutoff}; the quotient looks infinite (support"
            " condition violated) or the cutoff is too small"
        )


class ZeroModuleError(ValueError):
    pass


class HilbertProbeError(RuntimeError):
    pass


@dataclass(frozen=True)
class FreeModuleSpec:
    """Free bigraded module with one generator per shift (a_i, n_i)."""

    ring: RingSpec
    shifts: tuple

    def __post_init__(self):
        shifts = tuple((int(a), int(n)) for a, n in self.shifts)
        for a, n in shifts:
            if a < 0 or n < 0:
                raise GradingError(f"negative shift {(a, n)}")
        object.__setattr__(self, "shifts", shifts)

    @property
    def rank(self) -> int:
        return len(self.shifts)


@dataclass(frozen=True)
class ModulePresentation:
    """M = F/K with K spanned by bihomogeneous relation vectors.

    Each relation is a tuple of polynomials, one entry per free generator;
    a nonzero entry in slot i must have bidegree (target - shift_i) for a
    single target bidegree shared by the whole vector.
    """

    free: FreeModuleSpec
    relations: tuple = ()

    def __post_init__(self):
        kept = []
        targets = []
        for rel in self.relations:
            rel = tuple(rel)
            if len(rel) != self.free.rank:
                raise GradingError(
                    f"relation vector of length {len(rel)}, rank is {self.free.rank}"
                )
            target = None
            for i, entry in enumerate(rel):
                if entry.ring != self.free.ring:
                    raise GradingError("relation entry from a different ring")
                if entry.is_zero():
                    continue
                a, n = entry.bidegree()
                ai, ni = self.free.shifts[i]
                t = (a + ai, n + ni)
                if target is None:
                    target = t
                elif target != t:
                    raise GradingError(
                        f"relation vector not bihomogeneous: entry {i} lands in"
                        f" {t}, earlier entries in {target}"
                    )
            if target is None:
                continue  # zero vector adds nothing to K
            kept.append(rel)
            targets.append(target)
        object.__setattr__(self, "relations", tuple(kept))
        object.__setattr__(self, "_targets", tuple(targets))

    @property
    def ring(self) -> RingSpec:
        return self.free.ring

    def relation_targets(self) -> tuple:
        return self._targets


class SliceSpan(NamedTuple):
    """A ring element applied to the fiber-degree-source_fiber slice."""

    gen: Polynomial
    source_fiber: int


@lru_cache(maxsize=None)
def piece_basis(free: FreeModuleSpec, deg) -> tuple:
    """Ordered basis ((i, monomial), ...) of F at ``deg`` plus flat offsets."""
    a, nn = deg
    basis = []
    offsets = []
    for i, (ai, ni) in enumerate(free.shifts):
        offsets.append(len(basis))
        for mono in monomial_basis(free.ring, (a - ai, nn - ni)):
            basis.append((i, mono))
    return tuple(basis), tuple(offsets)


@lru_cache(maxsize=None)
def _piece_index(free: FreeModuleSpec, deg) -> dict:
    basis, _ = piece_basis(free, deg)
    return {key: flat for flat, key in enumerate(basis)}


def free_piece_dim(free: FreeModuleSpec, deg) -> int:
    return len(piece_basis(free, deg)[0])


def _validated_items(items, fiber_deg: int):
    """Normalize SliceSpan items; drop those hitting M_j with j < 0."""
    out = []
    for g, n_src in items:
        if g.is_zero():
            continue
        gb, gf = g.bidegree()
        if gf + n_src != fiber_deg:
            raise GradingError(
                f"slice span {g} from fiber degree {n_src} lands in"
                f" {gf + n_src}, expected {fiber_deg}"
            )
        if n_src < 0:
            continue
        out.append((g, n_src, gb))
    return out


def _prune_dominated(monos):
    """Keep only divisibility-minimal monomials (same span, fewer tests)."""
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    kept = []
    for m in monos:
        if not any(all(a >= b for a, b in zip(m, k)) for k in kept):
            kept.append(m)
    return kept


def _split_spanning_set(pres: ModulePresentation, deg, items):
    """Classify the spanning set of K + items at ``deg``.

    Returns (ring_monos, comp_monos, poly_rows): divisibility monomials
    acting on every component, per-component divisibility monomials from
    single-entry monomial relations, and the remaining spanning vectors as
    {flat position: coefficient} dictionaries.
    """
    a, nn = deg
    free = pres.free
    ring = free.ring
    index = _piece_index(free, deg)
    ring_monos = []
    comp_monos = {}
    poly_rows = []

    for g, n_src, gb in items:
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

    return _prune_dominated(ring_monos), {
        i: _prune_dominated(ms) for i, ms in comp_monos.items()
    }, poly_rows


def _divides(g, m) -> bool:
    return all(a >= b for a, b in zip(m, g))


def span_dim(pres: ModulePresentation, deg, items: Sequence[SliceSpan] = ()) -> int:
    """Dimension of (K + span of items) inside F at bidegree ``deg``."""
    basis, _ = piece_basis(pres.free, deg)
    if not basis:
        return 0
    a, nn = deg
    fiber_items = _validated_items(items, nn) if items else []
    ring_monos, comp_monos, poly_rows = _split_spanning_set(pres, deg, fiber_items)

    if any(sum(g) == 0 for g in ring_monos):
        return len(basis)  # the unit is a spanning generator

    unit = set()
    for flat, (i, mono) in enumerate(basis):
        if any(_divides(g, mono) for g in ring_monos):
            unit.add(flat)
            continue
        extra = comp_monos.get(i)
        if extra and any(_divides(g, mono) for g in extra):
            unit.add(flat)

    if not poly_rows:
        return len(unit)

    field = pres.ring.field
    seen = {}
    for row in poly_rows:
        stripped = {p: c for p, c in row.items() if p not in unit}
        if not stripped:
            continue
        lead = min(stripped)
        inv = field.div(field.one, stripped[lead])
        normalized = tuple(
            sorted((p, field.mul(inv, c)) for p, c in stripped.items())
        )
        seen[normalized] = True
    if not seen:
        return len(unit)

    columns = sorted({p for key in seen for p, _ in key})
    colmap = {p: j for j, p in enumerate(columns)}
    dense = []
    for key in seen:
        row = [field.zero] * len(columns)
        for p, c in key:
            row[colmap[p]] = c
        dense.append(row)
    return len(unit) + subspace_dim(dense, field, len(columns))


def piece_dimension(pres: ModulePresentation, deg) -> int:
    """dim_k of the bidegree piece M_deg = (F/K)_deg."""
    return free_piece_dim(pres.free, deg) - span_dim(pres, deg)


@dataclass(frozen=True)
class LengthResult:
    """Total length of a graded slice plus its per-base-degree summands.

    ``stop_degree`` is the base degree at which the finiteness certificate
    fired: the summand there is zero and the quotient is generated in
    lower base degrees, so everything beyond is zero too.
    """

    total: int
    per_degree: tuple
    stop_degree: int


def _slice_dims(pres: ModulePresentation, fiber_deg: int, top, bottom):
    """Dims of (T / B) at base degrees 0, 1, 2, ... of one fiber degree.

    ``top`` and ``bottom`` are validated items; ``top`` None is the full
    free slice. T must contain B; a negative dimension trips an assertion
    rather than lying.
    """
    top_items = None if top is None else [SliceSpan(g, n) for g, n, _ in top]
    bottom_items = [SliceSpan(g, n) for g, n, _ in bottom]
    for a in itertools.count():
        deg = (a, fiber_deg)
        if top is None:
            top_dim = free_piece_dim(pres.free, deg)
        else:
            top_dim = span_dim(pres, deg, top_items)
        bottom_dim = span_dim(pres, deg, bottom_items)
        if top_dim < bottom_dim:
            raise AssertionError(
                f"spanning sets not nested at bidegree {deg}:"
                f" {top_dim} < {bottom_dim}"
            )
        yield top_dim - bottom_dim


def graded_slice_length(
    pres: ModulePresentation,
    fiber_deg: int,
    top_items: Optional[Sequence[SliceSpan]] = None,
    bottom_items: Sequence[SliceSpan] = (),
    cutoff: int = DEFAULT_CUTOFF,
) -> LengthResult:
    """Length of (T / B) summed over base degrees at one fiber degree.

    B is K plus the span of ``bottom_items``. T is the full free slice
    when ``top_items`` is None, otherwise K plus the span of
    ``top_items`` (which must contain B).
    """
    top = None if top_items is None else _validated_items(top_items, fiber_deg)
    bottom = _validated_items(bottom_items, fiber_deg)
    max_shift = max((a for a, _ in pres.free.shifts), default=0)
    if top is None:
        certificate = max_shift
    elif top:
        certificate = max(gb for _, _, gb in top) + max_shift
    else:
        certificate = 0

    per_degree = []
    for a, summand in enumerate(_slice_dims(pres, fiber_deg, top, bottom)):
        per_degree.append(summand)
        if summand == 0 and a >= certificate:
            return LengthResult(sum(per_degree), tuple(per_degree), a)
        if a >= cutoff:
            raise CutoffExceeded(fiber_deg, cutoff)


def slice_dims_up_to(
    pres: ModulePresentation,
    fiber_deg: int,
    top_items: Optional[Sequence[SliceSpan]],
    bottom_items: Sequence[SliceSpan],
    max_degree: int,
) -> tuple:
    """Per-base-degree dims of (T / B) for base degrees 0..max_degree.

    Unlike ``graded_slice_length`` this neither certifies finiteness nor
    raises on infinite quotients: it just reports the dimension of each
    bidegree piece, which is finite regardless. Identity checks that must
    hold piece by piece compare these vectors.
    """
    top = None if top_items is None else _validated_items(top_items, fiber_deg)
    bottom = _validated_items(bottom_items, fiber_deg)
    walk = _slice_dims(pres, fiber_deg, top, bottom)
    return tuple(dim for _, dim in zip(range(max_degree + 1), walk))


def quotient_fiber_length(
    pres: ModulePresentation,
    extra: Sequence[SliceSpan],
    fiber_deg: int,
    cutoff: int = DEFAULT_CUTOFF,
) -> LengthResult:
    """Length of the fiber-degree slice of M modulo the extra spans.

    ``extra`` items are (g, n_src) pairs: the span of g applied to the
    whole fiber-n_src slice, which is closed under base-variable
    multiplication by construction, so the zero-summand certificate in
    ``graded_slice_length`` applies.
    """
    return graded_slice_length(pres, fiber_deg, None, extra, cutoff)


def _iterated_diff(values, order):
    out = list(values)
    for _ in range(order):
        out = [b - a for a, b in zip(out, out[1:])]
    return out


def krull_dimension(
    pres: ModulePresentation,
    probe: Optional[int] = None,
    window: int = 2,
) -> int:
    """Krull dimension of M over the total grading.

    Computed as 1 + (degree of the eventual polynomial of the total-degree
    Hilbert function), with an eventually zero function meaning dimension
    0. The probe range is a heuristic: generation and relation degrees
    plus headroom; not stabilizing inside it raises.
    """
    free = pres.free
    if free.rank == 0:
        raise ZeroModuleError("zero module has no Krull dimension here")
    shift_totals = [a + n for a, n in free.shifts]
    relation_totals = [tb + tf for tb, tf in pres.relation_targets()]
    if probe is None:
        probe = max(shift_totals) + max(relation_totals, default=0) + pres.ring.nvars + 8
    h = [
        sum(piece_dimension(pres, (a, n - a)) for a in range(n + 1))
        for n in range(probe + 1)
    ]
    if all(h[t] == 0 for t in shift_totals):
        raise ZeroModuleError("presentation defines the zero module")
    tail = window + 2
    if len(h) >= tail and all(v == 0 for v in h[-tail:]):
        return 0
    for degree in range(0, len(h) - tail):
        diffs = _iterated_diff(h, degree + 1)
        if len(diffs) >= tail and all(v == 0 for v in diffs[-tail:]):
            return degree + 1
    raise HilbertProbeError(
        f"Hilbert function not polynomial within total degree {probe};"
        " raise the probe bound"
    )
