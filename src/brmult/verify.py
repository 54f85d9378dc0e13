"""Theorem-checking harness.

Each check computes the two sides of a provable identity along genuinely
independent code paths (direct quotient lengths versus filtration-factor
sums, product-submodule pure pipeline versus mixed pipeline) and demands
exact integer agreement. A failure carries a concrete witness: the grid
point, the degree, and both values.

The filtration identities are statements about bigraded pieces, so the
factor-sum checks compare the full per-base-degree dimension vectors of
both sides up to a stated bound. That keeps them meaningful even where
the total lengths are infinite (non-primary pairs, or slices of M below
the fiber shift, where the convention M_n = 0 for n < 0 turns a
denominator off entirely).
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Optional

from .fields import Value
from .filtration import _mixed_factors, _power_factors
from .modules import ModulePresentation, slice_dims_up_to
from .multiplicity import (
    MultiplicityReport,
    ProductQuery,
    br_multiplicities,
    grid_bounds,
    pure_table,
    resolve_r,
)
from .polyfit import (
    DegreeExceedsError,
    _alphas,
    _difference_tables,
    total_degree_estimate,
)
from .rings import SubmoduleSpec, product_generators

__all__ = [
    "VerificationReport",
    "check_mixed_operator_formula",
    "check_telescoping",
    "check_mixed_factor_sum",
    "check_degree_bound",
    "check_br_degree_bound",
    "check_symmetry",
]


class VerificationReport(Value):
    """Outcome of one identity check on one instance.

    ``left`` and ``right`` are parallel tuples of (label, integer) pairs;
    the check passes exactly when every pair of compared integers agrees.
    """

    check: str
    instance: str
    left: tuple
    right: tuple
    passed: bool
    witness: Optional[str] = None


def _verdict(check, instance, left, right):
    passed = len(left) == len(right) and all(
        a[1] == b[1] for a, b in zip(left, right)
    )
    witness = None
    if not passed:
        for a, b in zip(left, right):
            if a[1] != b[1]:
                witness = f"{a[0]}: left {a[1]} != right {b[1]}"
                break
    return VerificationReport(
        check, instance, tuple(left), tuple(right), passed, witness
    )


def _describe(module: ModulePresentation, subs) -> str:
    ring = module.ring
    ringpart = ",".join(ring.base)
    if ring.fiber:
        ringpart += ";" + ",".join(ring.fiber)
    gens = " vs ".join(
        "(" + ", ".join(str(g) for g in h.gens) + ")" for h in subs
    )
    return f"k[{ringpart}], rank {module.free.rank}, {gens}"


def _pair(query: ProductQuery) -> tuple:
    """The two submodules of a mixed check's query."""
    if len(query.subs) != 2:
        raise ValueError(f"this check needs two submodules, got {len(query.subs)}")
    return query.subs


def _with_subs(query: ProductQuery, subs: tuple) -> ProductQuery:
    """``query`` with its fit settings on other submodules."""
    return ProductQuery(
        query.module, subs, query.r, query.grid, query.cutoff, query.window
    )


def check_mixed_operator_formula(query: ProductQuery) -> VerificationReport:
    """e-values of the product submodule against binomial sums of mixed ones.

    For the pair (H1, H2) of ``query`` and every split n + k = r, the pure
    multiplicity of H1*H2 in slot (n, k) must equal sum over i+j=n of
    C(n, i) times the mixed multiplicity in slot (i, j, k).
    """
    h1, h2 = _pair(query)
    pure_q = _with_subs(query, (product_generators(h1, h2),))
    mixed_rep = br_multiplicities(query)
    pure_rep = br_multiplicities(pure_q)
    rr = pure_rep.r
    left = []
    right = []
    for n in range(rr + 1):
        k = rr - n
        lhs = pure_rep.leading[(n, k)]
        rhs = sum(
            comb(n, i) * mixed_rep.leading[(i, n - i, k)]
            for i in range(n + 1)
        )
        left.append((f"e[{n},{k}](H1*H2)", lhs))
        right.append((f"sum C({n},i)*e[i,{n}-i,{k}]", rhs))
    return _verdict(
        "mixed-operator-formula", _describe(query.module, (h1, h2)), left, right
    )


def _factor_sum_report(check, module, subs, axes, grid, chain) -> VerificationReport:
    """Compare factor sums with direct quotients at every grid point.

    ``chain`` maps a point of [0, grid]^len(axes) to its (fiber, factors,
    quotient) chain. At each point the per-base-degree dims of the factors
    are summed and compared with those of the direct quotient, up to the
    base degree fiber + the point's coordinates + 6.
    The report rows carry the per-point totals; the witness is the first
    base degree at which the two vectors differ. Points share slices, so
    each slice is walked once, to the longest bound a point needs, and
    truncated for the others.
    """
    points = {}
    walks = {}  # (fiber, top, bottom) -> the longest bound a point needs
    for point in itertools.product(range(grid + 1), repeat=len(axes)):
        fiber, factors, quotient = chain(*point)
        bound = fiber + sum(point) + 6
        keys = [(fiber, top, bottom) for top, bottom in factors]
        quotient_key = (fiber, None, quotient)
        points[point] = (bound, keys, quotient_key)
        for key in keys + [quotient_key]:
            walks[key] = max(walks.get(key, bound), bound)
    dims = {
        key: slice_dims_up_to(module, *key, bound) for key, bound in walks.items()
    }

    left = []
    right = []
    first_bad = None
    for point, (bound, keys, quotient_key) in points.items():
        lhs_vec = [0] * (bound + 1)
        for key in keys:
            lhs_vec = [x + y for x, y in zip(lhs_vec, dims[key])]
        rhs_vec = dims[quotient_key][: bound + 1]
        tag = f"({','.join(axes)})=({','.join(map(str, point))})"
        left.append((f"{tag} sum of factors", sum(lhs_vec)))
        right.append((f"{tag} direct quotient", sum(rhs_vec)))
        if first_bad is None:
            first_bad = next(
                (
                    f"{tag} base degree {a}: factors {lv} != quotient {rv}"
                    for a, (lv, rv) in enumerate(zip(lhs_vec, rhs_vec))
                    if lv != rv
                ),
                None,
            )
    return VerificationReport(
        check,
        _describe(module, subs),
        tuple(left),
        tuple(right),
        first_bad is None,
        first_bad,
    )


def check_telescoping(
    module: ModulePresentation,
    h: SubmoduleSpec,
    grid: int = 4,
) -> VerificationReport:
    """Filtration factors of H^p at fiber slice pd+n sum to a quotient.

    With d the fiber degree of H, the nu-th factor is H^nu M_{d(p-nu)+n}
    / H^(nu+1) M_{d(p-nu-1)+n} for nu = 0..p; their per-base-degree
    dimensions must sum to those of M_{pd+n} / H^(p+1) M_{n-d}, with
    M_m = 0 for m < 0. The identity is bigraded, so each base degree up
    to the bound is compared separately; the report rows carry the
    per-point sums over those degrees.
    """
    return _factor_sum_report(
        "telescoping-factor-sum",
        module,
        (h,),
        ("p", "n"),
        grid,
        lambda p, n: _power_factors(h, p, n),
    )


def check_mixed_factor_sum(
    module: ModulePresentation,
    h1: SubmoduleSpec,
    h2: SubmoduleSpec,
    grid: int = 3,
) -> VerificationReport:
    """Mixed filtration factors sum to the double-power quotient.

    At (p, q, n) the chain M = level_{p+q} >= ... >= level_0 =
    H1^p H2^q M followed by H1^(p+1) H2^(q+1) M_{n-d1-d2} telescopes, so
    the per-base-degree dimensions of the factors (level_nu / level_{nu-1}
    for nu = p+q..1, then level_0 / H1^(p+1) H2^(q+1)) must sum to those
    of M_{d1 p + d2 q + n} / H1^(p+1) H2^(q+1) M_{n-d1-d2}.
    """
    return _factor_sum_report(
        "mixed-factor-sum",
        module,
        (h1, h2),
        ("p", "q", "n"),
        grid,
        lambda p, q, n: _mixed_factors(h1, h2, p, q, n),
    )


def check_degree_bound(report: MultiplicityReport) -> VerificationReport:
    """The table must be eventually polynomial of total degree at most r.

    The estimate is recomputed from the table, so a tampered or
    hand-assembled report cannot pass by assertion alone. Transient
    nonpolynomial behavior near the origin is allowed; on failure the
    witness is the deepest nonvanishing difference of total order r+1,
    i.e. one from the region where the table should already be
    polynomial.
    """
    return _degree_bound(report.table, report.r, report.leading.window)


def check_br_degree_bound(query: ProductQuery) -> VerificationReport:
    """``check_degree_bound`` on the (mixed) Buchsbaum-Rim report of ``query``.

    When the fit itself fails with DegreeExceedsError there is no report,
    so the check runs on the table at the fit's enlarged grid bound, and
    fails with a difference witness rather than an error.
    """
    try:
        return check_degree_bound(br_multiplicities(query))
    except DegreeExceedsError:
        r, _ = resolve_r(query.module, query.r)
        _, gmax = grid_bounds(r, query.grid)
        return _degree_bound(pure_table(query, gmax)[0], r, query.window)


def _degree_bound(table, r: int, window: int) -> VerificationReport:
    estimate = total_degree_estimate(table, window)
    passed = estimate <= r
    witness = None
    if not passed:
        deepest = None
        diffs = _difference_tables(table, r + 1)
        for alpha in _alphas(table.arity, r + 1):
            diff = diffs[alpha]
            for idx in range(len(diff.values) - 1, -1, -1):
                if diff.values[idx] == 0:
                    continue
                if deepest is None or idx > deepest[0]:
                    deepest = (idx, alpha, diff.point(idx), diff.values[idx])
                break
        if deepest is not None:
            _, alpha, point, value = deepest
            witness = (
                f"difference of order {alpha} at {point} is {value}, not 0"
            )
        else:
            witness = f"degree estimate {estimate} exceeds r = {r}"
    return VerificationReport(
        "degree-bound",
        f"table over axes {table.axes}, r = {r}",
        (("degree estimate", estimate),),
        (("declared r", r),),
        passed,
        witness,
    )


def check_symmetry(query: ProductQuery) -> VerificationReport:
    """Swapping the two submodules of ``query`` transposes the mixed e-values."""
    h1, h2 = _pair(query)
    fwd = br_multiplicities(query)
    rev = br_multiplicities(_with_subs(query, (h2, h1)))
    left = []
    right = []
    for alpha, value in fwd.leading.entries:
        i, j, k = alpha
        left.append((f"e[{i},{j},{k}](H1,H2)", value))
        right.append((f"e[{j},{i},{k}](H2,H1)", rev.leading[(j, i, k)]))
    return _verdict(
        "mixed-symmetry", _describe(query.module, (h1, h2)), left, right
    )
