"""End-to-end multiplicity pipelines.

Two length functions drive everything:

* lambda_product(p, q, n) = length of M_{d1 p + d2 q + n} / H1^p H2^q M_n,
                            or lambda_product(p, n) for H = H1 alone,
* lambda_local(n)         = length of (sum_{i<=n} I^i M / I^{i+1} M) cut
                            down by the modulus ideal I + m^(k+1).

Each is eventually a polynomial of total degree at most r; the pipelines
tabulate the function on an integer grid, extract the total-degree-r
leading form by exact finite differences, and report the integer e-values
(Buchsbaum-Rim, mixed Buchsbaum-Rim, and generalized Samuel
multiplicities). Grids default to [0, r+4] per axis and are enlarged once
by 2 per axis if the fit fails, after which the failure is raised. All
pipelines share one fit driver.

A ProductQuery holds one or two submodules. lambda_product(p, n) is the
q = 0 face of lambda_product(p, q, n) with H1 = H. Only n changes along a
row, so a row builds H_1^e_1 ... H_k^e_k and its span plan once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .fields import Value
from .filtration import assoc_graded_piece_dims
from .modules import (
    DEFAULT_CUTOFF,
    ModulePresentation,
    generated_lengths,
    krull_dimension,
    slice_dims_up_to,
)
from .polyfit import (
    DegreeExceedsError,
    GridTooSmallError,
    LeadingForm,
    LengthTable,
    StabilizationError,
    leading_form,
    total_degree_estimate,
)
from .rings import (
    GradingError,
    SubmoduleSpec,
    monomial_basis,
    power_generators,
    product_generators,
)

__all__ = [
    "ProductQuery",
    "LocalQuery",
    "MultiplicityReport",
    "LocalReport",
    "SupportConditionError",
    "KInstabilityError",
    "lambda_product",
    "pure_table",
    "br_multiplicities",
    "lambda_local",
    "local_table",
    "resolve_r",
    "grid_bounds",
    "generalized_samuel_report",
]


class SupportConditionError(RuntimeError):
    pass


class KInstabilityError(RuntimeError):
    pass


def resolve_r(module: ModulePresentation, explicit: Optional[int]) -> tuple:
    """The fitting degree r and which rule produced it.

    Explicit values win; otherwise Krull dimension minus one when fiber
    variables are present (the length polynomial lives on a projectivized
    fiber), plain Krull dimension for base-only local queries.
    """
    if explicit is not None:
        if explicit < 0:
            raise ValueError("r must be nonnegative")
        return explicit, "explicit"
    dim = krull_dimension(module)
    if module.ring.fiber:
        return dim - 1, "krull-1"
    return dim, "krull"


class ProductQuery(Value):
    """Everything needed for the length function of the submodules
    ``subs`` (one H, or a pair H1, H2) on M and its leading form."""

    module: ModulePresentation
    subs: tuple
    r: Optional[int] = None
    grid: Optional[int] = None
    cutoff: Optional[int] = DEFAULT_CUTOFF

    def __post_init__(self):
        if not 1 <= len(self.subs) <= 2:
            raise ValueError("a product query takes one or two submodules")
        for h in self.subs:
            if h.ring != self.module.ring:
                raise GradingError("H lives in a different ring than M")
        if self.r is not None and self.r < 0:
            raise ValueError("r must be nonnegative")
        if self.cutoff is not None and self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")


class LocalQuery(Value):
    """Generalized Samuel multiplicity of a base ideal at the origin."""

    module: ModulePresentation
    ideal: SubmoduleSpec
    k: Optional[int] = None
    r: Optional[int] = None
    grid: Optional[int] = None
    cutoff: Optional[int] = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.module.ring.fiber:
            raise GradingError("local queries need a base-only ring")
        if self.ideal.ring != self.module.ring:
            raise GradingError("I lives in a different ring than M")
        if self.ideal.fiber_degree != 0:
            raise GradingError("local queries need an ideal of fiber degree 0")
        if self.k is not None and self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.cutoff is not None and self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")


class MultiplicityReport(Value):
    """A populated length table with its fitted leading form."""

    table: LengthTable
    leading: LeadingForm
    r: int
    r_source: str
    degree_estimate: int
    stops: tuple  # finiteness certificate: stop base degree per cell
    enlarged: bool


class LocalReport(Value):
    """Generalized Samuel pipeline output, including the k-agreement."""

    table: LengthTable
    leading: LeadingForm
    e: int
    r: int
    r_source: str
    k: int
    e_next_k: int
    enlarged: bool


def _row(module: ModulePresentation, subs: tuple, powers: tuple, count: int, cutoff):
    """The lengths of M_{d_1 e_1 + ... + d_k e_k + n} / H_1^e_1 ... H_k^e_k M_n
    for the submodules ``subs``, the exponents ``powers`` and n < ``count``."""
    factors = tuple(zip(subs, powers, strict=True))
    starved = any(e >= 1 and not h.gens for h, e in factors)
    if starved and any(
        slice_dims_up_to(module, n, None, (), a)[a] for a, n in module.free.shifts
    ):
        raise SupportConditionError(
            "H has no generators but M is nonzero"
            if len(factors) == 1
            else "a power of a generatorless H acts on a nonzero M"
        )
    gens = _generators(factors)
    row = _generated_row(module, gens, cutoff)
    if len(row) < count:
        row += generated_lengths(module, gens, range(len(row), count), cutoff)
    return row[:count]


def _generators(factors: tuple) -> SubmoduleSpec:
    """The generators of H_1^e_1 ... H_k^e_k for the (H_i, e_i) ``factors``,
    by one factor at a time: the product with e_i lowered by 1 times H_i^1,
    as a row's neighbor times one H_i. H_i^0 = <1> changes no product."""
    gens = power_generators(*factors[0])
    for h, e in factors[1:]:
        for _ in range(e):
            gens = product_generators(gens, power_generators(h, 1))
    return gens


@lru_cache(maxsize=None)
def _generated_row(module, gens: SubmoduleSpec, cutoff) -> list:
    """The ``generated_lengths`` of the canonical ``gens`` walked so far."""
    return []


def lambda_product(query: ProductQuery, *point: int) -> int:
    """Exact length of M_{pd+n} / H^p M_n at point (p, n) for one
    submodule, or of M_{d1 p + d2 q + n} / H1^p H2^q M_n at (p, q, n)."""
    if len(point) != len(query.subs) + 1:
        raise ValueError(f"expected {len(query.subs) + 1} indices, got {len(point)}")
    if min(point) < 0:
        raise ValueError("indices must be nonnegative")
    *powers, n = point
    return _row(query.module, query.subs, tuple(powers), n + 1, query.cutoff)[n].total


_REFIT = (StabilizationError, GridTooSmallError, DegreeExceedsError)


def grid_bounds(r: int, grid: Optional[int]) -> tuple:
    """The grid bound a fit tries first (``grid``, by default r + 4), and
    the enlarged bound it retries at."""
    first = r + 4 if grid is None else grid
    return first, first + 2


def _fit(builds, r: int, grid: Optional[int]) -> tuple:
    """Build and fit tables at one grid bound, enlarging it once on failure.

    Each of ``builds`` maps a grid bound to (table, stops); its table is
    fitted before the next one is built. Any fit failure at the first of
    the ``grid_bounds`` rebuilds every table at the enlarged one, where a
    failure is raised as ``leading_form`` classified it. A successful fit
    keeps the first table's degree estimate at most r.

    Returns ([(table, stops, leading form), ...], estimate, enlarged).
    """
    gmax, enlarged_gmax = grid_bounds(r, grid)

    def attempt(bound):
        fits = []
        for build in builds:
            table, stops = build(bound)
            fits.append((table, stops, leading_form(table, r)))
        return fits

    try:
        fits, enlarged = attempt(gmax), False
    except _REFIT:
        fits, enlarged = attempt(enlarged_gmax), True
    return fits, total_degree_estimate(fits[0][0]), enlarged


def pure_table(query: ProductQuery, gmax: int) -> tuple:
    """The lambda(p, n) or lambda(p, q, n) table of ``query`` on
    [0, gmax]^axes with its finiteness stops."""
    module, subs, cutoff = query.module, query.subs, query.cutoff
    arity = len(subs) + 1
    results = [
        res
        for powers in itertools.product(range(gmax + 1), repeat=len(subs))
        for res in _row(module, subs, powers, gmax + 1, cutoff)
    ]
    totals = tuple(res.total for res in results)
    axes = ("p", "q")[: len(subs)] + ("n",)
    table = LengthTable(axes, (0,) * arity, (gmax + 1,) * arity, totals)
    return table, tuple(res.stop_degree for res in results)


def br_multiplicities(query: ProductQuery) -> MultiplicityReport:
    """All Buchsbaum-Rim multiplicities of ``query`` in total degree r:
    e^{i,k} for one submodule, the mixed e^{i,j,k} for a pair."""
    r, r_source = resolve_r(query.module, query.r)
    [(table, stops, lf)], estimate, enlarged = _fit(
        [lambda gmax: pure_table(query, gmax)], r, query.grid
    )
    return MultiplicityReport(table, lf, r, r_source, estimate, stops, enlarged)


# perfbench/tracer.py wraps these two names as layers, so they must resolve.
mixed_table = pure_table
mixed_br_multiplicities = br_multiplicities


def _modulus(ideal: SubmoduleSpec, k: int) -> SubmoduleSpec:
    """The ideal I + m^(k+1) cutting out the k-th infinitesimal neighborhood."""
    ring = ideal.ring
    socle = tuple(ring.monomial(mono) for mono in monomial_basis(ring, (k + 1, 0)))
    return SubmoduleSpec(ring, 0, ideal.gens + socle)


def lambda_local(query: LocalQuery, n: int, k: int) -> int:
    """Length of (sum_{i<=n} I^i M / I^{i+1} M) over the k-th neighborhood."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return local_table(query, k, n).values[-1]


def local_table(query: LocalQuery, k: int, gmax: int) -> LengthTable:
    """The lambda(n) table on [0, gmax] at neighborhood order k."""
    module, ideal, cutoff = query.module, query.ideal, query.cutoff
    modulus = _modulus(ideal, k)
    factors = (
        assoc_graded_piece_dims(ideal, module, modulus, i, cutoff=cutoff).total
        for i in range(gmax + 1)
    )
    return LengthTable(("n",), (0,), (gmax + 1,), tuple(itertools.accumulate(factors)))


def generalized_samuel_report(query: LocalQuery) -> LocalReport:
    """e(I, M) with the k versus k+1 stability check and the fitted table."""
    r, r_source = resolve_r(query.module, query.r)
    k = r + 2 if query.k is None else query.k
    builds = [
        lambda gmax, kk=kk: (local_table(query, kk, gmax), ())
        for kk in (k, k + 1)
    ]
    fits, _, enlarged = _fit(builds, r, query.grid)
    (table, _, lf), (_, _, lf_next) = fits
    e = lf.entries[0][1]
    e_next = lf_next.entries[0][1]
    if e != e_next:
        raise KInstabilityError(
            f"leading coefficient differs between k = {k} ({e}) and"
            f" k = {k + 1} ({e_next}); increase k"
        )
    return LocalReport(table, lf, e, r, r_source, k, e_next, enlarged)
