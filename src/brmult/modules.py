"""Finitely presented bigraded modules and exact lengths of graded slices.

A module M = F/K is given by a free module F with bidegree shifts and a
tuple of bihomogeneous relation vectors spanning K. Everything downstream
reduces to one primitive: dim F / (K + span) on a single bidegree piece
of F, for the span of slice generators g. Each is a ring element applied
to the whole slice M_j, with j the target fiber degree minus g's (nothing
when j < 0, as M_j = 0), the shape every power H^p M_n and mixed product
H1^p H2^q M_n takes. A span has one shape: a tuple of SubmoduleSpecs, its
parts, such as (H^p,), (I^(i+1), J I^i), the products H1^i H2^j of a
mixed level, or () for no span.

K's relations and the slice generators are alike spanning vectors of F,
and one rule splits them (``_span_plan``). Generators of one bidegree are
first interreduced (``rings._interreduce``, which also builds the power
and product generators): replaced by the reduced row-echelon basis of
their span, as in the first step of Faugere's F4 (J. Pure Appl. Algebra
139, 1999). That is exact, because every spanning vector g e_i m is
linear in g. A monomial generator spans a monomial on every component,
and a polynomial one g is the vector g e_i on each component i. A
relation whose only nonzero entry is a monomial is a monomial of its
component; any other relation is a vector as it stands. Only parts of
fiber degree at most the walk's act, so the split is planned once per
span and largest acting fiber degree (the cap), read off the parts, and
shared by the walks with that cap.

Single-monomial spanning vectors generate a monomial ideal J_i on each
free component i, and the basis monomials they span are counted from the
bigraded Hilbert numerator of S/J_i (Bayer-Stillman, "Computation of
Hilbert functions", J. Symb. Comp. 1992; Bigatti, "Computation of
Hilbert-Poincare series", JPAA 119, 1997), computed once per ideal. A
walk of T / B over one fiber degree folds the components' numerators
into P_B - P_T, a polynomial in X, and divides it by (1 - X)^s with s
running sums. Every pass ends at 0 exactly when T / B is finite, and a
walk whose stop lies within its cutoff is read off the quotient; any
other series is expanded degree by degree. Other vectors go through
field elimination, degree by degree, as the sparse
``{position: coefficient}`` rows that ``linalg.subspace_dim`` takes, and
only where the monomial part leaves monomials: the rank of a union of
distinct unit vectors U and other rows V is |U| plus the rank of V with
the U coordinates cleared.

Fiber-slice lengths carry a finiteness certificate: the quotient being
measured is generated in base degrees <= D, so the first zero summand at
or past D proves all later summands vanish. If no such degree appears
below the cutoff, the support condition fails and we raise instead of
silently truncating. A cutoff below D, or below the base degree where
the spans divided by first act, cannot tell and is reported as too small.
Series coefficients are exact dims, and the stop rule reads only them, D
and the cutoff: a read-off stops where the walk degree by degree would,
and only that walk raises.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from operator import add, ge, sub
from typing import Optional

from .fields import Value
from .linalg import subspace_dim
from .rings import GradingError, RingSpec, SubmoduleSpec, monomial_basis
from .rings import _interreduce

__all__ = [
    "FreeModuleSpec",
    "ModulePresentation",
    "LengthResult",
    "CutoffExceeded",
    "CutoffTooSmall",
    "ZeroModuleError",
    "HilbertProbeError",
    "span_dim",
    "graded_slice_length",
    "slice_dims_up_to",
    "krull_dimension",
    "DEFAULT_CUTOFF",
]

# None reads a quotient the division proves finite to its stop; others stop at 64.
DEFAULT_CUTOFF = None


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

    Each kept relation is also stored in ``_vectors`` as the spanning
    vector ``_span_plan`` takes: (its nonzero (i, entry) pairs, target).
    """

    free: FreeModuleSpec
    relations: tuple = ()

    def __post_init__(self):
        kept, vectors = [], []
        for rel in self.relations:
            rel = tuple(rel)
            if len(rel) != self.free.rank:
                raise GradingError(
                    f"relation vector of length {len(rel)}, rank is {self.free.rank}"
                )
            target, nonzero = None, []
            for i, entry in enumerate(rel):
                if entry.ring != self.free.ring:
                    raise GradingError("relation entry from a different ring")
                if entry.is_zero():
                    continue
                nonzero.append((i, entry))
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
            vectors.append((tuple(nonzero), target))
        object.__setattr__(self, "relations", tuple(kept))
        object.__setattr__(self, "_vectors", tuple(vectors))

    @property
    def ring(self) -> RingSpec:
        return self.free.ring

    def relation_targets(self) -> tuple:
        return tuple(target for _, target in self._vectors)


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


@lru_cache(maxsize=1024)
def _monomial_count(degree: int, nvars: int) -> int:
    """Number of monomials of ``degree`` in ``nvars`` variables."""
    if degree < 0:
        return 0
    if nvars == 0:
        return 1 if degree == 0 else 0
    return comb(degree + nvars - 1, nvars - 1)


def _by_degree(monos) -> tuple:
    """``monos`` by (degree, exponents), with no key written in Python."""
    return tuple(sorted(sorted(monos), key=sum))


def _prune_dominated(monos) -> tuple:
    """The divisibility-minimal monomials, ``_by_degree``. Only kept ones of
    lower degree can divide one, so the least degree's are kept untested."""
    kept = []
    for _, group in itertools.groupby(_by_degree(set(monos)), key=sum):
        if kept:
            lower = tuple(kept)
            group = [m for m in group if not any(all(map(ge, m, k)) for k in lower)]
        kept += group
    return tuple(kept)


def _undivided(monos: list, divisors: list) -> list:
    """The ``monos`` none of ``divisors`` divides, testing each only against
    the divisors bucketed under a support inside its own, as one must be."""
    bits = [1 << v for v in range(len(divisors[0]))]
    buckets = {}
    for g in divisors:
        buckets.setdefault(sum(itertools.compress(bits, g)), []).append(g)
    kept = []
    for m in monos:
        support = sum(itertools.compress(bits, m))
        for mask, group in buckets.items():
            if mask | support == support and any(all(map(ge, m, g)) for g in group):
                break
        else:
            kept.append(m)
    return kept


def _shifted_sum(p: dict, q: dict, b: int, f: int, sign: int) -> dict:
    """p + sign * X^b Y^f * q for polynomials stored as {(b, f): c != 0}."""
    out = dict(p)
    for (qb, qf), c in q.items():
        key = (qb + b, qf + f)
        c = out.get(key, 0) + sign * c
        if c:
            out[key] = c
        else:
            del out[key]
    return out


@lru_cache(maxsize=2048)
def _hilbert_numerator(gens: tuple, nbase: int) -> dict:
    """Bigraded Hilbert numerator of S/J, J minimally generated by ``gens``.

    ``gens`` is a ``_prune_dominated`` result; the first ``nbase``
    exponents belong to base variables. Returns {(b, f): c}, read only, with
    sum_{a, n} dim (S/J)_{a, n} X^a Y^n = sum c X^b Y^f / ((1-X)^s (1-Y)^t).

    Pairwise coprime generators give the product of the factors
    (1 - X^b Y^f). Otherwise the pivot P = x_j^e splits the series by
    N(J) = N(J + P) + X^e N(J : P), with Y^e for a fiber variable x_j.
    x_j is the variable in the most generators that are not pure powers
    and e its least positive exponent among them. A minimal generator
    x_j^e' with e' <= e would divide one of those, so P is not in J, and
    both J + P and J : P have a smaller total degree of generators that
    are not pure powers: the recursion ends. e is the least positive
    exponent in x_j's column, as x_j's pure power, if any, has the largest.

    Both come minimal from J's generators, with no prune: every generator
    with x_j has m_j >= e, as P is not in J. J + P is the ones free of x_j
    plus P. J : P shifts the others down by e, which keeps them minimal,
    and drops the free ones a shifted generator free of x_j now divides
    (``_undivided``). Both are sorted as ``_prune_dominated`` sorts.
    """
    columns = tuple(zip(*gens))
    if max([len(gens) - column.count(0) for column in columns], default=0) <= 1:
        poly = {(0, 0): 1}
        for m in gens:
            poly = _shifted_sum(poly, poly, sum(m[:nbase]), sum(m[nbase:]), -1)
        return poly

    nvars = len(columns)
    mixed = [m for m in gens if m.count(0) < nvars - 1]  # not pure powers
    mixed = [len(mixed) - column.count(0) for column in zip(*mixed)]
    j = mixed.index(max(mixed))
    e = min(filter(None, columns[j]))
    pivot = (0,) * j + (e,) + (0,) * (nvars - j - 1)
    free = [m for m in gens if not m[j]]
    shifted = [m[:j] + (m[j] - e,) + m[j + 1 :] for m in gens if m[j]]
    cut = [s for s in shifted if not s[j]]
    left = _undivided(free, cut) if cut else free
    with_pivot = _hilbert_numerator(_by_degree(free + [pivot]), nbase)
    colon = _hilbert_numerator(_by_degree(shifted + left), nbase)
    b, f = (e, 0) if j < nbase else (0, e)
    return _shifted_sum(with_pivot, colon, b, f, 1)


def _numerator_terms(pres: ModulePresentation, ideals) -> list:
    """The terms (b, f, c), by ascending b, of sum_i X^{a_i} Y^{n_i} N(J_i),
    the numerator of F / (J_1 e_1 + ... + J_r e_r), J_i minimal ``ideals[i]``."""
    s = len(pres.ring.base)
    return sorted(
        (ai + b, ni + f, c)
        for gens, (ai, ni) in zip(ideals, pres.free.shifts)
        for (b, f), c in _hilbert_numerator(gens, s).items()
    )


def _fold(terms: list, fiber_deg: int, t: int) -> list:
    """P(X) = sum c m_t(n - f) X^b over ``terms``, at fiber degree n: the dims
    at n have the series P(X) / (1 - X)^s. The list holds P's coefficients."""
    numerator = [0] * (terms[-1][0] + 1) if terms else []
    for b, f, c in terms:
        numerator[b] += c * _monomial_count(fiber_deg - f, t)
    return numerator


def _series(numerator: list, s: int) -> tuple:
    """``numerator`` / (1 - X)^s as a power series, and as a list if it is a
    polynomial, else None: a running sum divides by 1 - X iff it ends at 0."""
    quotient = numerator
    for _ in range(s):
        quotient = list(itertools.accumulate(quotient))
        if quotient and quotient.pop():
            dims = itertools.chain(numerator, itertools.repeat(0))
            for _ in range(s):
                dims = itertools.accumulate(dims)
            return dims, None
    return itertools.chain(quotient, itertools.repeat(0)), quotient


def _plan(pres: ModulePresentation, span: tuple, fiber_deg: int) -> tuple:
    """The ``_span_plan`` of the parts of ``span`` at ``fiber_deg``: only
    parts of fiber degree at most ``fiber_deg`` act, so the plan is keyed on
    the largest such degree (the cap) and shared by walks at fiber degrees
    with one cap."""
    cap = max((h.fiber_degree for h in span if h.fiber_degree <= fiber_deg), default=-1)
    return _span_plan(pres, span, cap)


@lru_cache(maxsize=1024)
def _span_plan(pres: ModulePresentation, span: tuple, cap: int) -> tuple:
    """What a walk needs of K and the parts of ``span`` of fiber degree at
    most ``cap``, at any bidegree: (ideals, vectors, certificate, reach,
    terms). These are the minimal generators of the monomial ideal J_i
    spanned on each component i; the other spanning vectors as (nonzero
    (i, entry) pairs, target), the acting parts' before the relations'; the
    largest and smallest base degree of the vectors g e_i of the acting
    generators g (0 when none act), from which a walk to the span can stop
    and one by it is divided; and the ideals' ``_numerator_terms``. The
    split follows the one rule of the module docstring: all-monomial parts
    give their exponents as they are, with no generator built; otherwise
    the generators of every acting part are ``_interreduce``d together, so
    parts of one bidegree reduce as one."""
    acting = [h for h in span if h.fiber_degree <= cap]
    shifts = list(enumerate(pres.free.shifts))
    vectors, bases = [], []
    if all(h._monomials is not None for h in acting):
        monos = [m for h in acting for m in h._monomials]
    else:
        monos = []
        for g in _interreduce(pres.ring, [g for h in acting for g in h.gens]):
            if g.is_monomial():
                monos.append(g.terms[0][0])
            else:
                gb, gf = g.bidegree()
                bases.append(gb)
                vectors += [(((i, g),), (gb + ai, gf + ni)) for i, (ai, ni) in shifts]
    nbase = len(pres.ring.base)
    bases += [sum(m[:nbase]) for m in monos]
    comp_monos = [list(monos) for _ in shifts]
    for nonzero, target in pres._vectors:
        (i, entry), *rest = nonzero
        if not rest and entry.is_monomial():
            comp_monos[i].append(entry.terms[0][0])
        else:
            vectors.append((nonzero, target))
    ideals = tuple(map(_prune_dominated, comp_monos))
    shift = [a for a, _ in pres.free.shifts] or [0]
    high, low = (max(bases) + max(shift), min(bases) + min(shift)) if bases else (0, 0)
    return ideals, tuple(vectors), high, low, tuple(_numerator_terms(pres, ideals))


def _polynomial_rows(pres: ModulePresentation, deg, vectors) -> list:
    """The rows at ``deg`` of a ``_span_plan``'s ``vectors``: for each vector
    and each monomial mu of the ring at (deg - its target), the
    {flat position: coefficient} dictionary of mu times the vector."""
    a, nn = deg
    _, index = piece_basis(pres.free, deg)
    rows = []
    for nonzero, (tb, tf) in vectors:
        for mu in monomial_basis(pres.ring, (a - tb, nn - tf)):
            row = {}
            for i, entry in nonzero:
                for pm, c in entry.terms:
                    row[index[(i, tuple(map(add, pm, mu)))]] = c
            rows.append(row)
    return rows


def _divides(g, m) -> bool:
    return all(map(ge, m, g))


def _quotient_dim(pres: ModulePresentation, deg, plan, standard: int) -> int:
    """dim F / (K + span) at ``deg`` for a ``_span_plan``: ``standard``,
    the monomials its monomial part leaves, less the rank of the polynomial
    rows on those columns, 0 when ``standard`` is (no column is left)."""
    ideals, vectors = plan[:2]
    rows = standard and _polynomial_rows(pres, deg, vectors)
    if not rows:
        return standard
    basis, _ = piece_basis(pres.free, deg)
    cleared = set()
    for p in {p for row in rows for p in row}:
        i, mono = basis[p]
        if any(_divides(g, mono) for g in ideals[i]):
            cleared.add(p)
    stripped = ({p: c for p, c in row.items() if p not in cleared} for row in rows)
    return standard - subspace_dim([row for row in stripped if row], pres.ring.field)


def _quotient_dims(pres: ModulePresentation, fiber_deg: int, plan):
    """``_quotient_dim`` at base degrees 0, 1, ... of ``fiber_deg``: the
    standard series itself when there are no polynomial rows."""
    numerator = _fold(plan[4], fiber_deg, len(pres.ring.fiber))
    dims, _ = _series(numerator, len(pres.ring.base))
    if not plan[1]:
        return dims
    return (_quotient_dim(pres, (a, fiber_deg), plan, s) for a, s in enumerate(dims))


def span_dim(pres: ModulePresentation, deg, span: tuple = ()) -> int:
    """Dimension of (K + ``span``) at ``deg``, ``span`` a tuple of
    SubmoduleSpecs whose generators are slice generators. No library code
    calls it: it stays as the tests' rank reference, through the same span
    plans as a slice walk, and as a layer the benchmark's tracer names."""
    a, n = deg
    plan = _plan(pres, span, n)
    free = len(piece_basis(pres.free, deg)[0])
    if a < 0:
        return free
    return free - next(itertools.islice(_quotient_dims(pres, n, plan), a, None))


class LengthResult(Value):
    """Total length of a graded slice plus its per-base-degree summands.

    ``stop_degree`` is the base degree at which the finiteness certificate
    fired: the summand there is zero and the quotient is generated in
    lower base degrees, so everything beyond is zero too.
    """

    total: int
    per_degree: tuple
    stop_degree: int


def _slice_dims(pres: ModulePresentation, fiber_deg: int, top, bottom) -> tuple:
    """Dims of (T / B) at base degrees 0, 1, 2, ... of one fiber degree,
    for the span plans ``top`` and ``bottom`` (T is F for ``top`` None), and
    their ``_series`` polynomial if the division proved one, else None."""
    if bottom[1] or top is not None and top[1]:
        bottoms = _quotient_dims(pres, fiber_deg, bottom)
        tops = _quotient_dims(pres, fiber_deg, top) if top else itertools.repeat(0)
        dims, quotient = map(sub, bottoms, tops), None
    else:
        terms = bottom[4]
        if top is not None:
            terms = sorted([*terms, *((b, f, -c) for b, f, c in top[4])])
        ring = pres.free.ring
        numerator = _fold(terms, fiber_deg, len(ring.fiber))
        dims, quotient = _series(numerator, len(ring.base))
    if top is None:  # F contains every B
        return dims, quotient
    return _nested(pres, fiber_deg, top, bottom, dims), quotient


def _nested(pres: ModulePresentation, fiber_deg: int, top, bottom, dims):
    """``dims``, refused at the first negative one: T does not contain B."""
    for a, dim in enumerate(dims):
        if dim < 0:
            bottom_q, top_q = (
                next(itertools.islice(_quotient_dims(pres, fiber_deg, plan), a, None))
                for plan in (bottom, top)
            )
            message = f"spanning sets not nested at bidegree {(a, fiber_deg)}:"
            raise AssertionError(f"{message} dim F/T {top_q} > dim F/B {bottom_q}")
        yield dim


def _read_off(quotient: list, certificate: int) -> LengthResult:
    """The LengthResult of the dims in ``quotient`` up to the first zero at or
    past ``certificate``, a negative one included (T does not contain B)."""
    padded = quotient + [0] * (certificate + 1)
    per_degree = tuple(padded[: padded.index(0, certificate) + 1])
    return LengthResult(sum(per_degree), per_degree, len(per_degree) - 1)


def _length(pres, fiber_deg: int, top, bottom, cutoff) -> LengthResult:
    """``graded_slice_length`` on the span plans ``top`` and ``bottom``. A
    finite quotient is read off up to its stop if that is within the cutoff
    (None: any stop) and no dim is negative; any other walk goes degree by
    degree to its stop or its error, cut off at 64 for None."""
    # a top of None is F, generated in the base degrees of its shifts
    certificate = top[2] if top else max(pres.free.shifts or [(0,)])[0]
    dims, quotient = _slice_dims(pres, fiber_deg, top, bottom)
    if quotient is not None:
        result = _read_off(quotient, certificate)
        cutoff = result.stop_degree if cutoff is None else cutoff
        if result.stop_degree <= cutoff and min(result.per_degree) >= 0:
            return result
    cutoff = 64 if cutoff is None else cutoff
    if cutoff < certificate:
        where = "where its finiteness certificate starts"
        raise CutoffTooSmall(fiber_deg, cutoff, certificate, where)
    per_degree = []
    for a, summand in enumerate(dims):
        per_degree.append(summand)
        if summand == 0 and a >= certificate:
            return LengthResult(sum(per_degree), tuple(per_degree), a)
        if a >= cutoff:
            # Below this base degree no bottom item spans anything, so a walk
            # cut off there has not tested the quotient by them at all.
            if cutoff < bottom[3]:
                where = "where the spans it divides by first act"
                raise CutoffTooSmall(fiber_deg, cutoff, bottom[3], where)
            raise CutoffExceeded(fiber_deg, cutoff)


def graded_slice_length(
    pres: ModulePresentation,
    fiber_deg: int,
    top_items: Optional[tuple] = None,
    bottom_items: tuple = (),
    cutoff: Optional[int] = DEFAULT_CUTOFF,
) -> LengthResult:
    """Length of (T / B) summed over base degrees at one fiber degree.

    Spans are tuples of SubmoduleSpecs, such as ``(H^p,)`` or a mixed
    level's products, and ``()`` spans nothing. B is K plus the span of
    ``bottom_items``: each generator g of a part spans g M_j with j =
    ``fiber_deg`` minus the part's fiber degree, and nothing when j < 0. T
    is the full free slice when ``top_items`` is None, otherwise K plus the
    span of ``top_items`` (which must contain B).

    A walk that reaches ``cutoff`` raises CutoffExceeded, or CutoffTooSmall
    when the cutoff lies below the certificate degree (checked up front)
    or below the base degree where the ``bottom_items`` first act. For
    ``cutoff`` None, see DEFAULT_CUTOFF.
    """
    top = None if top_items is None else _plan(pres, top_items, fiber_deg)
    return _length(pres, fiber_deg, top, _plan(pres, bottom_items, fiber_deg), cutoff)


def generated_lengths(pres, gens: SubmoduleSpec, ns: range, cutoff=DEFAULT_CUTOFF):
    """``graded_slice_length(pres, d + n, None, (gens,), cutoff)`` for n in ``ns``,
    d the fiber degree of ``gens``, on one span plan."""
    d = gens.fiber_degree
    plan = _plan(pres, (gens,), d)
    return tuple([_length(pres, d + n, None, plan, cutoff) for n in ns])


def slice_dims_up_to(
    pres: ModulePresentation,
    fiber_deg: int,
    top_items: Optional[tuple],
    bottom_items: tuple,
    max_degree: int,
) -> tuple:
    """Per-base-degree dims of (T / B), as in ``graded_slice_length``, for
    base degrees 0..max_degree; both spans are tuples of SubmoduleSpecs.

    Unlike ``graded_slice_length`` this neither certifies finiteness nor
    raises on infinite quotients: it just reports the dimension of each
    bidegree piece, which is finite regardless. Identity checks that must
    hold piece by piece compare these vectors.
    """
    top = None if top_items is None else _plan(pres, top_items, fiber_deg)
    dims, _ = _slice_dims(pres, fiber_deg, top, _plan(pres, bottom_items, fiber_deg))
    return tuple(itertools.islice(dims, max_degree + 1))


def krull_dimension(pres: ModulePresentation) -> int:
    """Krull dimension of M over the total grading.

    With no polynomial relation, M is the sum of the S/J_i shifted to
    (a_i, n_i), and this is s + t - k, k the order of the zero at T = 1 of
    sum_i T^{a_i + n_i} N(J_i)(T, T), read off its derivatives there; k <=
    s + t, as M's series has no negative coefficient. Otherwise 1 + the
    degree of the eventual total-degree Hilbert polynomial (0 if the
    function ends at 0), probed to a heuristic degree: a function not
    settled by then, on its last four values, raises."""
    free, nvars = pres.free, pres.ring.nvars
    if free.rank == 0:
        raise ZeroModuleError("zero module has no Krull dimension here")
    plan = _span_plan(pres, (), -1)
    if not plan[1]:
        terms = [(b + f, c) for b, f, c in plan[4]]
        for k in range(nvars + 1):
            if sum(c * comb(d, k) for d, c in terms):
                return nvars - k
        raise ZeroModuleError("presentation defines the zero module")
    shift_totals = [a + n for a, n in free.shifts]
    relation_totals = [tb + tf for tb, tf in pres.relation_targets()]
    probe = max(shift_totals) + max(relation_totals, default=0) + nvars + 8
    h = [0] * (probe + 1)
    for n in range(probe + 1):
        for a, dim in enumerate(slice_dims_up_to(pres, n, None, (), probe - n)):
            h[a + n] += dim
    if all(h[t] == 0 for t in shift_totals):
        raise ZeroModuleError("presentation defines the zero module")
    tail = 4
    if all(v == 0 for v in h[-tail:]):
        return 0
    for degree in range(len(h) - tail):
        lead = h[-1]
        h = [after - before for before, after in zip(h, h[1:])]
        if all(v == 0 for v in h[-tail:]):
            if lead > 0:  # a Hilbert polynomial's leading coefficient
                return degree + 1
            break
    raise HilbertProbeError(f"Hilbert function not polynomial by total degree {probe}")
