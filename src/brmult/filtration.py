"""Power and mixed-power filtrations and their graded factor lengths.

One submodule H of fiber degree d filters the slice M_{pd+n} through

    nu-th factor = H^nu M_{d(p-nu)+n} / H^(nu+1) M_{d(p-nu-1)+n},

for nu = 0..p, with M_j = 0 for j < 0. The factor lengths telescope: their
sum is the length of M_{pd+n} / H^(p+1) M_{n-d}. Each factor is given by
the spans (H^nu,) and (H^(nu+1),) of its two powers, tuples of
SubmoduleSpecs as ``modules`` takes them.

Two submodules H1, H2 give the mixed filtration level

    level(p, q, nu) = sum of H1^i H2^j over i <= p, j <= q, i+j >= p+q-nu,

which is H1^p H2^q at nu = 0 and the unit ideal once nu >= p+q. A level
is that sum as a span: the tuple of its distinct products. The levels
nest, multiplying by H1 H2 drops a level back down, and dropping both p
and q by one absorbs a level. The factor lengths of the induced slice
filtration sum to the mixed quotient length at (p+1, q+1, n-d1-d2).

The local associated graded pieces live here too: for a base-only ring,
``assoc_graded_piece_dims`` measures I^i M / (I^(i+1) M + J I^i M) per
base degree, where J is the modulus ideal (typically I + m^(k+1)).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Optional

from .fields import Value
from .modules import (
    DEFAULT_CUTOFF,
    LengthResult,
    ModulePresentation,
    _divides,
    _prune_dominated,
    graded_slice_length,
)
from .rings import GradingError, SubmoduleSpec, _echelon, _reduce, monomial_basis
from .rings import power_generators, product_generators

__all__ = [
    "InclusionWitness",
    "mixed_level",
    "check_filtration_inclusions",
    "assoc_graded_piece_dims",
    "filtration_factor_lengths",
    "mixed_factor_lengths",
]


@lru_cache(maxsize=None)
def mixed_level(
    h1: SubmoduleSpec, h2: SubmoduleSpec, p: int, q: int, nu: int
) -> tuple:
    """The nu-th mixed level between H1^p H2^q and the unit: the span of
    the distinct products H1^i H2^j in it, a tuple of SubmoduleSpecs."""
    if h1.ring != h2.ring:
        raise GradingError("mixed level of submodules over different rings")
    if p < 0 or q < 0 or nu < 0:
        raise GradingError("mixed level indices must be nonnegative")
    products = (
        product_generators(power_generators(h1, i), power_generators(h2, j))
        for i in range(p + 1)
        for j in range(q + 1)
        if i + j >= p + q - nu
    )
    return tuple(dict.fromkeys(products))


def _span_basis(span: tuple, deg) -> dict:
    """The reduced echelon basis of the span ``span``'s piece at bidegree
    ``deg``: each generator times the ring's monomials of the bidegree it
    lacks, by shifting exponent tuples, until they fill the ring's piece."""
    ring, (a, n) = span[0].ring, deg
    rows = (
        {tuple(map(add, m, mu)): c for m, c in g.terms}
        for h in span
        for g in h.gens
        for mu in monomial_basis(ring, (a - g.bidegree()[0], n - h.fiber_degree))
    )
    return _echelon(ring.field, rows, len(monomial_basis(ring, deg)))


class InclusionWitness(Value):
    """Outcome of one generator-level inclusion test."""

    part: str  # "a" or "b"
    nu: int
    passed: bool
    generator: Optional[str] = None
    bidegree: Optional[tuple] = None


def _first_escape(part, nu, gens, span, memo) -> InclusionWitness:
    """Test the distinct generators of the parts ``gens`` in order against
    the span ``span``; the first not in it is the witness. A monomial one
    goes by divisibility when every part of ``span`` is monomial. Any
    other lies in the span exactly when it reduces to 0 by the
    ``_span_basis`` at its bidegree, which ``memo`` keeps by (span,
    bidegree)."""
    minimal = None
    if all(h._monomials is not None for h in span):
        minimal = _prune_dominated(m for h in span for m in h._monomials)
    for g in dict.fromkeys(g for h in gens for g in h.gens):
        if minimal is not None and g.is_monomial():
            inside = any(_divides(h, g.terms[0][0]) for h in minimal)
        else:
            if (basis := memo.get(key := (span, g.bidegree()))) is None:
                basis = memo[key] = _span_basis(*key)
            inside = not _reduce(g.ring.field, dict(g.terms), basis)
        if not inside:
            return InclusionWitness(part, nu, False, str(g), g.bidegree())
    return InclusionWitness(part, nu, True)


def check_filtration_inclusions(
    h1: SubmoduleSpec, h2: SubmoduleSpec, p: int, q: int, memo=None
) -> list:
    """Check the nesting laws of the mixed filtration at (p, q).

    For every nu in 1..p+q, (a) each generator of H1 H2 * level(nu), that
    is of the products of H1 H2 with the level's parts, must lie in
    level(nu-1), and (b) each generator of level(nu) must lie in the
    (p-1, q-1) filtration's level nu-1; (b) is only meaningful when p and
    q are both positive and is skipped otherwise. A monomial lies in a
    span of monomials when one of their minimal generators divides it.
    Any other generator lies in the target exactly when it reduces to 0 by
    the target piece's echelon basis at its bidegree, enough as the target
    spans are ideal pieces. A caller checking several (p, q) of the same
    H1, H2 passes one ``memo`` dict to all of them, so that a basis that
    recurs is built once.
    """
    memo = {} if memo is None else memo
    h1h2 = product_generators(h1, h2)
    results = []
    for nu in range(1, p + q + 1):
        level_nu = mixed_level(h1, h2, p, q, nu)
        products = tuple(product_generators(h1h2, h) for h in level_nu)
        lower = mixed_level(h1, h2, p, q, nu - 1)
        results.append(_first_escape("a", nu, products, lower, memo))
        if p >= 1 and q >= 1:
            target = mixed_level(h1, h2, p - 1, q - 1, nu - 1)
            results.append(_first_escape("b", nu, level_nu, target, memo))
    return results


def assoc_graded_piece_dims(
    ideal: SubmoduleSpec,
    pres: ModulePresentation,
    modulus: SubmoduleSpec,
    i_index: int,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
) -> LengthResult:
    """Per-base-degree dims of I^i M / (I^(i+1) M + modulus * I^i M).

    Base-only setting: the ring must have no fiber variables and both
    ideals fiber degree 0. The result carries the usual finiteness
    certificate.
    """
    ring = pres.ring
    if ring.fiber:
        raise GradingError(
            "associated graded dims need a base-only ring (no fiber variables)"
        )
    if ideal.fiber_degree != 0 or modulus.fiber_degree != 0:
        raise GradingError("local queries need ideals of fiber degree 0")
    if i_index < 0:
        raise GradingError("negative filtration index")
    power_i = power_generators(ideal, i_index)
    power_i1 = power_generators(ideal, i_index + 1)
    mixed = product_generators(modulus, power_i)
    return graded_slice_length(pres, 0, (power_i,), (power_i1, mixed), cutoff)


def _power_factors(h: SubmoduleSpec, p: int, n: int) -> tuple:
    """The power filtration's factor chain in the slice at fiber pd+n.

    Returns (fiber, factors, quotient), with d the fiber degree of H:
    ``factors`` holds the (top, bottom) spans (H^nu,) and (H^(nu+1),) of
    the p+1 factors, factor nu being H^nu M_{d(p-nu)+n} /
    H^(nu+1) M_{d(p-nu-1)+n}, and ``quotient`` the bottom span of
    M_{pd+n} / H^(p+1) M_{n-d}, the module the factors telescope to.
    """
    powers = [(power_generators(h, nu),) for nu in range(p + 2)]
    factors = tuple(zip(powers, powers[1:]))
    return h.fiber_degree * p + n, factors, factors[-1][1]


def _mixed_factors(
    h1: SubmoduleSpec, h2: SubmoduleSpec, p: int, q: int, n: int
) -> tuple:
    """The mixed filtration's factor chain in the slice at (p, q, n).

    Returns (fiber, factors, quotient) as ``_power_factors`` does, at
    fiber d1 p + d2 q + n. Factor 0 is level(0) M / H1^(p+1) H2^(q+1)
    M_{n-d1-d2} and factor nu >= 1 is level(nu) M / level(nu-1) M; the
    quotient is M_{d1 p + d2 q + n} / H1^(p+1) H2^(q+1) M_{n-d1-d2}.
    Every span is a tuple of SubmoduleSpecs: a level its products, and
    H1^(p+1) H2^(q+1) the one part of its own.
    """
    fiber = h1.fiber_degree * p + h2.fiber_degree * q + n
    deep = (
        product_generators(power_generators(h1, p + 1), power_generators(h2, q + 1)),
    )
    levels = [mixed_level(h1, h2, p, q, nu) for nu in range(p + q + 1)]
    return fiber, tuple(zip(levels, [deep] + levels[:-1])), deep


def filtration_factor_lengths(
    pres: ModulePresentation,
    h: SubmoduleSpec,
    p: int,
    n: int,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
) -> tuple:
    """Lengths of the p+1 filtration factors of the slice at fiber pd+n.

    With d the fiber degree of H, factor nu is H^nu M_{d(p-nu)+n} /
    H^(nu+1) M_{d(p-nu-1)+n}; a negative slice index means the zero
    module. The factor totals sum to the length of M_{pd+n} / H^(p+1)
    M_{n-d}.
    """
    fiber, factors, _ = _power_factors(h, p, n)
    return tuple(
        graded_slice_length(pres, fiber, top, bottom, cutoff)
        for top, bottom in factors
    )


def mixed_factor_lengths(
    pres: ModulePresentation,
    h1: SubmoduleSpec,
    h2: SubmoduleSpec,
    p: int,
    q: int,
    n: int,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
) -> tuple:
    """Lengths of the mixed filtration factors of the slice at (p, q, n).

    Factor 0 is level(0) M / H1^(p+1) H2^(q+1) M_{n-d1-d2} and factor nu
    (nu >= 1) is level(nu) M / level(nu-1) M, all inside the slice of
    fiber degree d1 p + d2 q + n. Their totals sum to the mixed quotient
    length at (p+1, q+1, n-d1-d2).
    """
    fiber, factors, _ = _mixed_factors(h1, h2, p, q, n)
    return tuple(
        graded_slice_length(pres, fiber, top, bottom, cutoff)
        for top, bottom in factors
    )
