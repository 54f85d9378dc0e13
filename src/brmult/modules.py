"""Finitely presented bigraded modules and exact lengths of graded slices.

A module M = F/K is given by a free module F with bidegree shifts and a
tuple of bihomogeneous relation vectors spanning K. Everything downstream
reduces to one primitive: the dimension of a spanning subspace of a single
bidegree piece of F. Spanning sets come in two flavors,

* the relation multiples (always included), and
* "slice spans" (g, n_src): a ring element g applied to the whole
  fiber-degree-n_src slice of the module, the shape every power H^p M_n
  and mixed product H1^p H2^q M_n takes.

Slice-span items that share a source slice and a bidegree are first
interreduced: their generators are replaced by the reduced row-echelon
basis of the space they span (``rings._echelon_basis``, which also builds
the power and product generators), as in the first step of Faugere's F4
(J. Pure Appl. Algebra 139, 1999). That is exact, because every spanning
vector g e_i m is linear in g, so both generator sets span the same
vectors at every bidegree. Echelon generators that are monomials join
the monomial ideals below.

Single-monomial spanning vectors generate a monomial ideal J_i on each
free component i, and the basis monomials they span in a piece are
counted from the bigraded Hilbert numerator of S/J_i (Bayer-Stillman,
"Computation of Hilbert functions", J. Symb. Comp. 1992; Bigatti,
"Computation of Hilbert-Poincare series", JPAA 119, 1997), computed once
per ideal. Only genuinely polynomial vectors go through field
elimination, as the sparse ``{position: coefficient}`` rows that
``linalg.subspace_dim`` takes; the rank of a union of distinct unit
vectors U and other rows V is |U| plus the rank of V with the U
coordinates cleared, so this is exact.

Fiber-slice lengths carry a finiteness certificate: the quotient being
measured is generated in base degrees <= D, so the first zero summand at
or past D proves all later summands vanish. If no such degree appears
below the cutoff, the support condition fails and we raise instead of
silently truncating. A cutoff below D, or below the base degree where
the spans divided by first act, cannot tell and is reported as too small.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple, Optional, Sequence

from .fields import Value
from .linalg import subspace_dim
from .polyfit import LengthTable, finite_difference
from .rings import GradingError, Polynomial, RingSpec, _echelon_basis, monomial_basis

__all__ = [
    "FreeModuleSpec",
    "ModulePresentation",
    "SliceSpan",
    "LengthResult",
    "CutoffExceeded",
    "CutoffTooSmall",
    "ZeroModuleError",
    "HilbertProbeError",
    "piece_dimension",
    "span_dim",
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


class CutoffTooSmall(ValueError):
    """The cutoff ended a slice walk before the walk could test finiteness.

    Raised up front when the cutoff lies below the walk's certificate
    degree, and when the walk reaches the cutoff before any span it
    divides by acts. Neither case says anything about the support
    condition: the setting is too small.
    """

    def __init__(self, fiber_degree: int, cutoff: int, needed: int, where: str):
        self.fiber_degree = fiber_degree
        self.cutoff = cutoff
        self.needed = needed
        super().__init__(
            f"cutoff {cutoff} ends the slice at fiber degree {fiber_degree}"
            f" below base degree {needed}, {where}; raise the cutoff"
        )


class ZeroModuleError(ValueError):
    pass


class HilbertProbeError(RuntimeError):
    pass


class FreeModuleSpec(Value):
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


class ModulePresentation(Value):
    """M = F/K with K spanned by bihomogeneous relation vectors.

    Each relation is a tuple of polynomials, one entry per free generator;
    a nonzero entry in slot i must have bidegree (target - shift_i) for a
    single target bidegree shared by the whole vector.

    Relations with a single monomial entry are kept per component as
    monomial ideal generators (``_comp_monos``); the others, as
    (nonzero entries, target) pairs, in ``_poly_relations``.
    """

    free: FreeModuleSpec
    relations: tuple = ()

    def __post_init__(self):
        kept = []
        targets = []
        comp_monos = [()] * self.free.rank
        poly_relations = []
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
            nonzero = tuple((i, e) for i, e in enumerate(rel) if not e.is_zero())
            if len(nonzero) == 1 and nonzero[0][1].is_monomial():
                i, entry = nonzero[0]
                comp_monos[i] += (entry.terms[0][0],)
            else:
                poly_relations.append((nonzero, target))
        object.__setattr__(self, "relations", tuple(kept))
        object.__setattr__(self, "_targets", tuple(targets))
        object.__setattr__(self, "_comp_monos", tuple(comp_monos))
        object.__setattr__(self, "_poly_relations", tuple(poly_relations))

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
    """Ordered basis ((i, monomial), ...) of F at ``deg`` and its index.

    The index maps each (i, monomial) to its flat position in the basis.
    """
    a, nn = deg
    basis = tuple(
        (i, mono)
        for i, (ai, ni) in enumerate(free.shifts)
        for mono in monomial_basis(free.ring, (a - ai, nn - ni))
    )
    return basis, {key: flat for flat, key in enumerate(basis)}


def _monomial_count(degree: int, nvars: int) -> int:
    """Number of monomials of ``degree`` in ``nvars`` variables."""
    if degree < 0:
        return 0
    if nvars == 0:
        return 1 if degree == 0 else 0
    return comb(degree + nvars - 1, nvars - 1)


def free_piece_dim(free: FreeModuleSpec, deg) -> int:
    a, nn = deg
    s, t = len(free.ring.base), len(free.ring.fiber)
    return sum(
        _monomial_count(a - ai, s) * _monomial_count(nn - ni, t)
        for ai, ni in free.shifts
    )


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


def _prune_dominated(monos) -> tuple:
    """The divisibility-minimal monomials, sorted by (degree, exponents).

    Distinct monomials of equal total degree cannot divide each other, so
    each candidate is tested only against kept ones of lower degree.
    """
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    kept, lower, degree = [], (), None
    for m in monos:
        if sum(m) != degree:
            degree, lower = sum(m), tuple(kept)
        if not any(all(a >= b for a, b in zip(m, k)) for k in lower):
            kept.append(m)
    return tuple(kept)


@lru_cache(maxsize=512)
def _minimal_generators(monos: tuple) -> tuple:
    """``_prune_dominated`` of the raw monomial generators of one span."""
    return _prune_dominated(monos)


def _shifted_sum(p: dict, q: dict, b: int, f: int, sign: int) -> dict:
    """p + sign * X^b Y^f * q for polynomials stored as {(b, f): c}."""
    out = dict(p)
    for (qb, qf), c in q.items():
        key = (qb + b, qf + f)
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=2048)
def _hilbert_numerator(gens: tuple, nbase: int) -> tuple:
    """Bigraded Hilbert numerator of S/J, J minimally generated by ``gens``.

    ``gens`` is a ``_prune_dominated`` result; the first ``nbase``
    exponents belong to base variables. Returns terms (b, f, c) with
    sum_{a, n} dim (S/J)_{a, n} X^a Y^n = sum c X^b Y^f / ((1-X)^s (1-Y)^t).

    Pairwise coprime generators give the product of the factors
    (1 - X^b Y^f). Otherwise the pivot P = x_j^e splits the series by
    N(J) = N(J + P) + X^e N(J : P), with Y^e for a fiber variable x_j.
    x_j is the variable in the most generators that are not pure powers
    and e its least positive exponent among them. A minimal generator
    x_j^e' with e' <= e would divide one of those, so P is not in J, and
    both J + P and J : P have a smaller total degree of generators that
    are not pure powers: the recursion ends.
    """
    nvars = len(gens[0]) if gens else 0
    occurs = [0] * nvars
    mixed = [0] * nvars
    for m in gens:
        support = [j for j, e in enumerate(m) if e]
        for j in support:
            occurs[j] += 1
            mixed[j] += len(support) > 1
    if max(occurs, default=0) <= 1:
        poly = {(0, 0): 1}
        for m in gens:
            poly = _shifted_sum(poly, poly, sum(m[:nbase]), sum(m[nbase:]), -1)
        return tuple((b, f, c) for (b, f), c in sorted(poly.items()))

    j = max(range(nvars), key=mixed.__getitem__)
    e = min(m[j] for m in gens if m[j] and sum(map(bool, m)) > 1)
    pivot = tuple(e if v == j else 0 for v in range(nvars))
    with_pivot = tuple(
        sorted(
            [m for m in gens if m[j] < e] + [pivot], key=lambda m: (sum(m), m)
        )
    )
    colon = _prune_dominated(
        m[:j] + (max(m[j] - e, 0),) + m[j + 1 :] for m in gens
    )
    poly = _shifted_sum(
        {(b, f): c for b, f, c in _hilbert_numerator(with_pivot, nbase)},
        {(b, f): c for b, f, c in _hilbert_numerator(colon, nbase)},
        e if j < nbase else 0,
        0 if j < nbase else e,
        1,
    )
    return tuple((b, f, c) for (b, f), c in sorted(poly.items()))


def _standard_count(ring: RingSpec, gens: tuple, deg) -> int:
    """Monomials of bidegree ``deg`` outside the monomial ideal (``gens``)."""
    a, n = deg
    s, t = len(ring.base), len(ring.fiber)
    return sum(
        c * _monomial_count(a - b, s) * _monomial_count(n - f, t)
        for b, f, c in _hilbert_numerator(gens, s)
    )


def _span_plan(pres: ModulePresentation, items) -> tuple:
    """What ``_span_dim`` needs of validated items at any bidegree.

    Returns (unit, ideals, poly_items): whether the unit is a monomial
    item, the minimal generators of the monomial ideal J_i spanned on
    each component i (the monomial items and the component's monomial
    relations), and the items that are not monomials.

    Items that share (n_src, gb) and include a polynomial are replaced by
    the ``_echelon_basis`` of their generators. That is exact, because
    each row g e_i m is linear in g; echelon rows that are monomials join
    the monomial ideal.
    """
    if all(g.is_monomial() for g, _, _ in items):
        monos = tuple(g.terms[0][0] for g, _, _ in items)
        poly_items = ()
    else:
        groups = {}
        for g, n_src, gb in items:
            groups.setdefault((n_src, gb), []).append(g)
        monos = []
        poly_items = []
        for (n_src, gb), gens in groups.items():
            if not all(g.is_monomial() for g in gens):
                gens = _echelon_basis(pres.ring, tuple(gens))
            for g in gens:
                if g.is_monomial():
                    monos.append(g.terms[0][0])
                else:
                    poly_items.append((g, n_src, gb))
        monos = tuple(monos)
    ring_monos = _minimal_generators(monos)
    unit = bool(ring_monos) and not any(ring_monos[0])
    ideals = tuple(
        _minimal_generators(ring_monos + extra) if extra else ring_monos
        for extra in pres._comp_monos
    )
    return unit, ideals, tuple(poly_items)


def _polynomial_rows(pres: ModulePresentation, deg, poly_items) -> list:
    """Spanning vectors of K + items at ``deg`` that are not monomials.

    Each is a {flat position: coefficient} dictionary: the multiples of
    polynomial items and of relations that are not a single monomial.
    """
    if not poly_items and not pres._poly_relations:
        return []
    a, nn = deg
    free = pres.free
    ring = free.ring
    _, index = piece_basis(free, deg)
    rows = []
    for g, n_src, gb in poly_items:
        for i, (ai, ni) in enumerate(free.shifts):
            for fm in monomial_basis(ring, (a - gb - ai, n_src - ni)):
                row = {}
                for gm, c in g.terms:
                    prod = tuple(x + y for x, y in zip(gm, fm))
                    row[index[(i, prod)]] = c
                rows.append(row)
    for nonzero, (tb, tf) in pres._poly_relations:
        for mu in monomial_basis(ring, (a - tb, nn - tf)):
            row = {}
            for i, entry in nonzero:
                for pm, c in entry.terms:
                    prod = tuple(x + y for x, y in zip(pm, mu))
                    row[index[(i, prod)]] = c
            rows.append(row)
    return rows


def _divides(g, m) -> bool:
    return all(a >= b for a, b in zip(m, g))


def span_dim(pres: ModulePresentation, deg, items: Sequence[SliceSpan] = ()) -> int:
    """Dimension of (K + span of items) inside F at bidegree ``deg``."""
    validated = _validated_items(items, deg[1]) if items else ()
    return _span_dim(pres, deg, _span_plan(pres, validated))


def _span_dim(pres: ModulePresentation, deg, plan) -> int:
    """``span_dim`` of the items a ``_span_plan`` describes."""
    free = pres.free
    total = free_piece_dim(free, deg)
    if not total:
        return 0
    unit, ideals, poly_items = plan
    if unit:
        return total  # the unit is a spanning generator
    a, nn = deg
    spanned = total - sum(
        _standard_count(free.ring, gens, (a - ai, nn - ni))
        for gens, (ai, ni) in zip(ideals, free.shifts)
    )
    poly_rows = _polynomial_rows(pres, deg, poly_items)
    if not poly_rows:
        return spanned

    basis, _ = piece_basis(free, deg)
    unit_columns = set()
    for p in {p for row in poly_rows for p in row}:
        i, mono = basis[p]
        if any(_divides(g, mono) for g in ideals[i]):
            unit_columns.add(p)
    stripped = (
        {p: c for p, c in row.items() if p not in unit_columns} for row in poly_rows
    )
    return spanned + subspace_dim([row for row in stripped if row], pres.ring.field)


def piece_dimension(pres: ModulePresentation, deg) -> int:
    """dim_k of the bidegree piece M_deg = (F/K)_deg."""
    return free_piece_dim(pres.free, deg) - span_dim(pres, deg)


class LengthResult(Value):
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
    top_plan = None if top is None else _span_plan(pres, top)
    bottom_plan = _span_plan(pres, bottom)
    for a in itertools.count():
        deg = (a, fiber_deg)
        if top is None:
            top_dim = free_piece_dim(pres.free, deg)
        else:
            top_dim = _span_dim(pres, deg, top_plan)
        bottom_dim = _span_dim(pres, deg, bottom_plan)
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

    A walk that reaches ``cutoff`` raises CutoffExceeded, or CutoffTooSmall
    when the cutoff lies below the certificate degree (checked up front)
    or below the base degree where the ``bottom_items`` first act.
    """
    top = None if top_items is None else _validated_items(top_items, fiber_deg)
    bottom = _validated_items(bottom_items, fiber_deg)
    shifts = [a for a, _ in pres.free.shifts]
    max_shift = max(shifts, default=0)
    if top is None:
        certificate = max_shift
    elif top:
        certificate = max(gb for _, _, gb in top) + max_shift
    else:
        certificate = 0
    if cutoff < certificate:
        raise CutoffTooSmall(
            fiber_deg, cutoff, certificate, "where its finiteness certificate starts"
        )
    # Below this base degree no bottom item spans anything, so a walk cut
    # off there has not tested the quotient by them at all.
    reach = min(gb for _, _, gb in bottom) + min(shifts, default=0) if bottom else 0

    per_degree = []
    for a, summand in enumerate(_slice_dims(pres, fiber_deg, top, bottom)):
        per_degree.append(summand)
        if summand == 0 and a >= certificate:
            return LengthResult(sum(per_degree), tuple(per_degree), a)
        if a >= cutoff:
            if cutoff < reach:
                raise CutoffTooSmall(
                    fiber_deg, cutoff, reach, "where the spans it divides by first act"
                )
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


def krull_dimension(pres: ModulePresentation) -> int:
    """Krull dimension of M over the total grading.

    Computed as 1 + (degree of the eventual polynomial of the total-degree
    Hilbert function), with an eventually zero function meaning dimension
    0. The probe range is a heuristic: generation and relation degrees
    plus headroom. A function that has not settled by then, on its last
    four values, to zero or to a polynomial with a positive leading
    coefficient raises.
    """
    free = pres.free
    if free.rank == 0:
        raise ZeroModuleError("zero module has no Krull dimension here")
    shift_totals = [a + n for a, n in free.shifts]
    relation_totals = [tb + tf for tb, tf in pres.relation_targets()]
    probe = max(shift_totals) + max(relation_totals, default=0) + pres.ring.nvars + 8
    h = [
        sum(piece_dimension(pres, (a, n - a)) for a in range(n + 1))
        for n in range(probe + 1)
    ]
    if all(h[t] == 0 for t in shift_totals):
        raise ZeroModuleError("presentation defines the zero module")
    tail = 4
    if all(v == 0 for v in h[-tail:]):
        return 0
    table = LengthTable(("t",), (0,), (len(h),), tuple(h))
    for degree in range(len(h) - tail):
        lead = table.values[-1]
        table = finite_difference(table, "t")
        if all(v == 0 for v in table.values[-tail:]):
            if lead > 0:  # a Hilbert polynomial's leading coefficient
                return degree + 1
            break
    raise HilbertProbeError(f"Hilbert function not polynomial by total degree {probe}")
