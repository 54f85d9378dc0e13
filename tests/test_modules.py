"""Graded modules: piece dimensions, slice lengths, Krull dimension."""

from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from brmult.fields import QQ, PrimeField
from brmult.filtration import mixed_level
from brmult.modules import (
    CutoffExceeded,
    CutoffTooSmall,
    FreeModuleSpec,
    HilbertProbeError,
    ModulePresentation,
    ZeroModuleError,
    _fold,
    _hilbert_numerator,
    _numerator_terms,
    _series,
    _prune_dominated,
    generated_lengths,
    graded_slice_length,
    krull_dimension,
    slice_dims_up_to,
    span_dim,
)
from brmult.rings import (
    GradingError,
    Polynomial,
    RingSpec,
    SubmoduleSpec,
    _echelon_basis,
    monomial_basis,
)
from dense_oracle import (
    Matrix,
    as_span,
    dense_piece_dim,
    dense_slice_dims,
    free_basis,
    piece_subspace,
    quadratic_prune,
    rref,
    scan_span_dim,
    slice_generators,
)

R2 = RingSpec(QQ, ("x", "y"), ("T",))
R22 = RingSpec(QQ, ("x", "y"), ("u", "v"))


def free_module(ring, shifts=((0, 0),)):
    return ModulePresentation(FreeModuleSpec(ring, shifts))


def piece_dimension(pres, deg):
    """dim M_deg, the last entry of a walk of deg's fiber degree up to its
    base degree; a walk up to a negative base degree has no entries."""
    a, n = deg
    dims = slice_dims_up_to(pres, n, None, (), a)
    return dims[-1] if dims else 0


def test_free_piece_dims():
    m = free_module(R22)
    # Segre-style count: (a+1)(n+1) monomials in bidegree (a, n)
    assert piece_dimension(m, (1, 1)) == 4
    assert piece_dimension(m, (2, 3)) == 12
    assert piece_dimension(m, (0, 0)) == 1
    assert piece_dimension(m, (-1, 0)) == 0


def test_shifted_free_piece_dims():
    m = free_module(R2, ((1, 0), (0, 1)))
    # generator shifted by (1,0) contributes monomials of bidegree (a-1, n)
    for a in range(4):
        for n in range(3):
            expected = len(monomial_basis(R2, (a - 1, n))) + len(
                monomial_basis(R2, (a, n - 1))
            )
            assert piece_dimension(m, (a, n)) == expected


def test_quotient_by_maximal_ideal():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    res = graded_slice_length(m, 0, None, as_span([x, y]))
    assert res.total == 1
    assert res.per_degree[0] == 1
    assert all(v == 0 for v in res.per_degree[1:])


def test_quotient_by_square_of_maximal_ideal():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    res = graded_slice_length(m, 0, None, as_span([x * x, x * y, y * y]))
    assert res.total == 3
    assert res.per_degree[:2] == (1, 2)


def test_infinite_quotient_hits_cutoff():
    m = free_module(R2)
    with pytest.raises(CutoffExceeded):
        graded_slice_length(m, 0, None, (), cutoff=12)
    # x spans from base degree 1 on, so a cutoff of 3 did test it
    with pytest.raises(CutoffExceeded):
        graded_slice_length(m, 0, None, as_span([R2.gen("x")]), cutoff=3)


def test_no_cutoff_binds_only_walks_the_division_cannot_finish():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    powers, binomial = as_span([x**40, y**40]), as_span([x**70 + y**70, x * y])
    # k[x,y]/(x^40, y^40) is finite and ends at base degree 79: with no
    # cutoff the division reads it whole, a cutoff of 64 still stops it
    res = graded_slice_length(m, 0, None, powers)
    assert (res.total, res.stop_degree) == (1600, 79)
    with pytest.raises(CutoffExceeded) as err:
        graded_slice_length(m, 0, None, powers, cutoff=64)
    assert (err.value.fiber_degree, err.value.cutoff) == (0, 64)
    # an infinite monomial quotient is still cut off at 64
    with pytest.raises(CutoffExceeded) as err:
        graded_slice_length(m, 0, None, as_span([x**40]))
    assert err.value.cutoff == 64
    # (x^70 + y^70, xy) is finite too, but a span with a polynomial is
    # counted degree by degree, which stops at 64 with no cutoff given
    with pytest.raises(CutoffExceeded) as err:
        graded_slice_length(m, 0, None, binomial)
    assert err.value.cutoff == 64
    res = graded_slice_length(m, 0, None, binomial, cutoff=80)
    assert res.total == 140


def test_cutoff_below_what_the_walk_needs_is_too_small():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    squares = as_span([x * x, y * y])
    # the finite quotient k[x,y]/(x^2, y^2) needs base degrees 0..3
    assert graded_slice_length(m, 0, None, squares, cutoff=3).total == 4
    # cutoff 1 ends the walk before the squares span anything
    with pytest.raises(CutoffTooSmall) as err:
        graded_slice_length(m, 0, None, squares, cutoff=1)
    assert err.value.needed == 2
    # a top generated in base degree 2 has certificate degree 2
    with pytest.raises(CutoffTooSmall) as err:
        graded_slice_length(m, 0, squares, (), cutoff=1)
    assert err.value.needed == 2


def test_explicit_cutoffs_read_finite_walks_off_the_division(monkeypatch):
    # a finite monomial walk whose stop lies within an explicit cutoff is
    # read off the division's quotient, as with no cutoff; one short of
    # the stop, the walk degree by degree raises what it raised before
    import brmult.modules as modules

    m, shifted = free_module(R2), free_module(R2, ((1, 0),))
    x, y = R2.gen("x"), R2.gen("y")
    squares, linear = as_span([x * x, y * y]), as_span([x, y])
    reads = []
    read_off = modules._read_off
    monkeypatch.setattr(
        modules, "_read_off", lambda *args: reads.append(args) or read_off(*args)
    )
    first_act = "where the spans it divides by first act"
    cases = [
        (m, None, as_span([x**40, y**40]), 79, CutoffExceeded(0, 78)),
        (m, None, linear, 1, CutoffTooSmall(0, 0, 1, first_act)),
        (m, squares, as_span([x**3, y**3]), 5, CutoffExceeded(0, 4)),
        # the shift raises the certificate and the reach by 1
        (shifted, None, linear, 2, CutoffTooSmall(0, 1, 2, first_act)),
    ]
    for pres, top, bottom, stop, error in cases:
        whole = graded_slice_length(pres, 0, top, bottom)
        assert whole.stop_degree == stop
        reads.clear()
        for cutoff in (stop, stop + 5):
            assert graded_slice_length(pres, 0, top, bottom, cutoff) == whole
        assert len(reads) == 2
        with pytest.raises(type(error)) as err:
            graded_slice_length(pres, 0, top, bottom, stop - 1)
        assert str(err.value) == str(error)


def test_length_certificate_really_stops():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    extra = as_span([x * x * x, x * y, y * y])
    res = graded_slice_length(m, 0, None, extra)
    # continue past stop_degree by hand: every later summand is zero
    for a in range(res.stop_degree + 1, res.stop_degree + 5):
        top = piece_dimension(m, (a, 0))  # m is free
        bottom = span_dim(m, (a, 0), extra)
        assert top == bottom


def test_relations_cut_dimensions():
    x = R2.gen("x")
    free = FreeModuleSpec(R2, ((0, 0),))
    m = ModulePresentation(free, ((x,),))
    # M = k[x,y;T]/(x): only pure-y monomials survive in fiber degree 0
    for a in range(5):
        assert piece_dimension(m, (a, 0)) == 1
    assert piece_dimension(m, (2, 3)) == 1


def test_relation_bihomogeneity_enforced():
    x, y = R2.gen("x"), R2.gen("y")
    free = FreeModuleSpec(R2, ((0, 0), (1, 0)))
    # entry 0 lands in (2,0); entry 1 is shifted so x lands in (2,0) too
    ModulePresentation(free, ((x * x, x),))
    with pytest.raises(GradingError):
        ModulePresentation(free, ((x * x, y * y),))
    with pytest.raises(GradingError):
        ModulePresentation(free, ((x,),))  # wrong vector length


def test_krull_dimensions():
    assert krull_dimension(free_module(R2)) == 3
    assert krull_dimension(free_module(R22)) == 4
    base_only = RingSpec(QQ, ("x", "y"), ())
    assert krull_dimension(free_module(base_only)) == 2
    x = R2.gen("x")
    killed = ModulePresentation(FreeModuleSpec(R2, ((0, 0),)), ((x,),))
    assert krull_dimension(killed) == 2


def test_krull_dimension_error_outcomes():
    base_only = RingSpec(QQ, ("x", "y"), ())
    x, y = base_only.gen("x"), base_only.gen("y")
    free = FreeModuleSpec(base_only, ((0, 0),))
    with pytest.raises(ZeroModuleError):
        krull_dimension(ModulePresentation(free, ((base_only.one,),)))
    with pytest.raises(ZeroModuleError):
        krull_dimension(ModulePresentation(FreeModuleSpec(base_only, ())))
    artinian = ModulePresentation(free, ((x * x,), (x * y,), (y * y,)))
    assert krull_dimension(artinian) == 0
    # k[x,y]/(x^9, y^9) has not reached its zero tail by the probe bound,
    # but its numerator (1 - T^9)^2 cancels the pole of 1/(1 - T)^2 whole;
    # the same ideal in the coordinates x + y, y keeps the probe and fails
    assert krull_dimension(ModulePresentation(free, ((x**9,), (y**9,)))) == 0
    with pytest.raises(HilbertProbeError):
        krull_dimension(ModulePresentation(free, (((x + y) ** 9,), (y**9,))))


def test_krull_dimension_rejects_a_falling_tail():
    # k[x,y]/(x^12, y^12) is Artinian: its dimension is the pole order of
    # (1 - T^12)^2 / (1 - T)^(2 + t), 0, or 1 with a fiber variable. At the
    # probe bound its Hilbert function still falls by 1 per degree, and a
    # negative slope is no Hilbert polynomial, so the probe, which a module
    # with a polynomial relation still takes, raises instead of reporting
    # dimension 2 (3 with the fiber variable).
    for ring in (RingSpec(QQ, ("x", "y"), ()), RingSpec(QQ, ("x", "y"), ("u",))):
        x, y = ring.gen("x"), ring.gen("y")
        free = FreeModuleSpec(ring, ((0, 0),))
        artinian = 1 if ring.fiber else 0
        twelve = krull_dimension(ModulePresentation(free, ((x**12,), (y**12,))))
        assert twelve == artinian
        with pytest.raises(HilbertProbeError):
            krull_dimension(ModulePresentation(free, (((x + y) ** 12,), (y**12,))))
        # (x^8, y^8) reaches its tail inside the probe range either way
        for rel in (x**8, (x + y) ** 8):
            eight = krull_dimension(ModulePresentation(free, ((rel,), (y**8,))))
            assert eight == artinian


def test_generators_above_the_fiber_act_on_the_zero_slice():
    # x^5*u in fiber degree 0 would act on M_(-1) = 0: it spans nothing,
    # and its base degree does not raise the certificate degree
    ring = RingSpec(QQ, ("x",), ("u",))
    x, u = ring.gen("x"), ring.gen("u")
    res = graded_slice_length(free_module(ring), 0, as_span([x**5 * u]), ())
    assert (res.total, res.stop_degree) == (0, 0)


def test_slice_dims_up_to_matches_piece_dims():
    m = free_module(R22)
    dims = slice_dims_up_to(m, 2, None, (), 5)
    assert dims == tuple(piece_dimension(m, (a, 2)) for a in range(6))
    # k[x,y,z;u]/(x^2+y^2+z^2): both routes rank the relation's multiples,
    # and (S/(f))_a has C(a+2, 2) - C(a, 2) = 2a + 1 monomials per power of u
    ring = RingSpec(QQ, ("x", "y", "z"), ("u",))
    x, y, z = (ring.gen(s) for s in "xyz")
    quadric = ModulePresentation(
        FreeModuleSpec(ring, ((0, 0),)), ((x * x + y * y + z * z,),)
    )
    for n in range(3):
        dims = slice_dims_up_to(quadric, n, None, (), 5)
        assert dims == tuple(piece_dimension(quadric, (a, n)) for a in range(6))
        assert dims == tuple(2 * a + 1 for a in range(6))


@st.composite
def monomial_spans(draw):
    a = draw(st.integers(min_value=0, max_value=2))
    basis = monomial_basis(R2, (a, 0))
    monos = draw(
        st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True)
    )
    return [R2.monomial(m) for m in monos]


@given(monomial_spans(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_span_dim_matches_subspace_basis(items, a):
    m = free_module(R2)
    sub = piece_subspace(m, (a, 0), items)
    assert span_dim(m, (a, 0), as_span(items)) == sub.dim


def test_span_dim_monotone_in_items():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    one_item = as_span([x])
    two_items = as_span([x, y])
    for a in range(5):
        assert span_dim(m, (a, 0), one_item) <= span_dim(m, (a, 0), two_items)


def test_cross_fiber_spans():
    # multiplication by a fiber-degree-1 element maps the n=0 slice into n=1
    m = free_module(R22)
    xu = R22.gen("x") * R22.gen("u")
    dims = slice_dims_up_to(m, 1, None, as_span([xu]), 4)
    # free dims are 2(a+1); the image of xu contributes a dims in degree a+1
    assert dims == (2, 3, 4, 5, 6)


def _brute_standard_count(ring, gens, deg):
    return sum(
        not any(all(a >= b for a, b in zip(m, g)) for g in gens)
        for m in monomial_basis(ring, deg)
    )


def _series_standard_counts(ring, gens, n, count):
    """Standard monomials of (gens) at base degrees 0..count-1 of fiber
    degree n, read off the expanded Hilbert series."""
    numerator = _fold(_numerator_terms(free_module(ring), (gens,)), n, len(ring.fiber))
    return list(islice(_series(numerator, len(ring.base))[0], count))


def test_hilbert_numerator_of_a_bigraded_monomial_ideal():
    # x base, y fiber: S/(x^2, xy, y^3) has the basis 1, x, y, y^2, so the
    # numerator is (1 + X + Y + Y^2)(1 - X)(1 - Y).
    ring = RingSpec(QQ, ("x",), ("y",))
    gens = _prune_dominated([(0, 3), (1, 1), (2, 0), (2, 1)])
    assert gens == ((1, 1), (2, 0), (0, 3))
    assert sorted(_hilbert_numerator(gens, 1).items()) == [
        ((0, 0), 1),
        ((0, 3), -1),
        ((1, 1), -1),
        ((1, 3), 1),
        ((2, 0), -1),
        ((2, 1), 1),
    ]
    # the same ideal with both variables in the base: 1 - 2t^2 + t^4
    assert sorted(_hilbert_numerator(gens, 2).items()) == [
        ((0, 0), 1),
        ((2, 0), -2),
        ((4, 0), 1),
    ]
    for n in range(5):
        assert _series_standard_counts(ring, gens, n, 5) == [
            _brute_standard_count(ring, gens, (a, n)) for a in range(5)
        ]


R3 = RingSpec(QQ, ("x", "y", "z"), ())


@pytest.mark.parametrize(
    "ring, gens",
    [
        # a pure power x^3 next to x*y and x^2*z: the pivot is x^1
        (R3, [(3, 0, 0), (1, 1, 0), (2, 0, 1)]),
        (R3, [(3, 0, 0), (2, 1, 0), (0, 2, 1), (0, 0, 2)]),
        (R22, [(2, 0, 1, 0), (1, 1, 0, 1), (0, 3, 0, 0), (0, 0, 2, 1)]),
        (R22, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]),
        (R22, [(0, 0, 0, 0)]),
        (R22, []),
    ],
)
def test_standard_count_matches_brute_force(ring, gens):
    gens = _prune_dominated(gens)
    for n in range(4):
        assert _series_standard_counts(ring, gens, n, 7) == [
            _brute_standard_count(ring, gens, (a, n)) for a in range(7)
        ]


@st.composite
def monomial_ideals(draw):
    """A ring and the minimal generators of a monomial ideal in it: mixed
    supports, pure powers next to them, and now and then the unit."""
    ring = draw(st.sampled_from((R22, R3)))
    nvars = ring.nvars
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=6))
    powers = st.tuples(st.integers(0, nvars - 1), st.integers(1, 4))
    for v, k in draw(st.lists(powers, max_size=3)):
        monos.append(tuple(k if i == v else 0 for i in range(nvars)))
    if draw(st.integers(0, 9)) == 0:
        monos.append((0,) * nvars)
    return ring, _prune_dominated(monos)


def _numerator_splits(gens, nbase) -> dict:
    """Each ideal the numerator recursion of ``gens`` splits, mapped to the
    (J + P, J : P) pair it recursed on, from an empty numerator cache."""
    import brmult.modules as modules

    real, stack, children = modules._hilbert_numerator, [gens], {}

    def spy(child, nbase):
        children.setdefault(stack[-1], []).append(child)
        stack.append(child)
        try:
            return real(child, nbase)
        finally:
            stack.pop()

    real.cache_clear()
    with patch.object(modules, "_hilbert_numerator", spy):
        real(gens, nbase)
    return children


@given(monomial_ideals())
@example((R22, ((0, 0, 0, 0),)))
@example((R22, ()))
@example((R3, ((3, 0, 0), (1, 1, 0), (2, 0, 1))))
# J : y shifts xy to the cut generator x, whose support lies inside that
# of the free x^2 and which divides it; the free u^2's support misses x
@example((R22, ((1, 1, 0, 0), (2, 0, 0, 0), (0, 2, 1, 0))))
@example((R22, ((0, 0, 2, 0), (1, 1, 0, 0), (0, 2, 0, 1))))
@settings(max_examples=150, deadline=None)
def test_colon_rule_keeps_the_numerator_and_its_splits(case):
    ring, gens = case
    for n in range(3):
        assert _series_standard_counts(ring, gens, n, 6) == [
            _brute_standard_count(ring, gens, (a, n)) for a in range(6)
        ]
    # each split is J + P and J : P pruned from the naive generator sets,
    # in the same order; P is the pure power of J + P that J lacks
    for ideal, (with_pivot, colon) in _numerator_splits(gens, len(ring.base)).items():
        [pivot] = set(with_pivot) - set(ideal)
        [(j, e)] = [(j, e) for j, e in enumerate(pivot) if e]
        assert with_pivot == _prune_dominated(ideal + (pivot,))
        assert colon == _prune_dominated(
            m[:j] + (max(m[j] - e, 0),) + m[j + 1 :] for m in ideal
        )


SPAN_RINGS = (
    R2,
    R22,
    RingSpec(QQ, ("x", "y", "z"), ()),  # empty fiber block
    RingSpec(QQ, (), ("u", "v")),  # empty base block
)


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=12))
@settings(max_examples=200, deadline=None)
def test_prune_dominated_matches_the_quadratic_prune(monos):
    assert _prune_dominated(monos) == tuple(quadratic_prune(monos))


def test_prune_dominated_ties_unit_and_empty():
    # distinct monomials of one degree never divide each other
    ties = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 1, 0), (0, 0, 2)]
    assert _prune_dominated(ties) == ((0, 0, 2), (0, 2, 0), (1, 1, 0), (2, 0, 0))
    lower = [(1, 1, 0), (1, 0, 0), (0, 1, 1), (2, 0, 0)]
    assert _prune_dominated(lower) == ((1, 0, 0), (0, 1, 1))
    assert _prune_dominated([(1, 2, 0), (0, 0, 0), (3, 0, 0)]) == ((0, 0, 0),)
    assert _prune_dominated([]) == ()


@st.composite
def polynomials(draw, ring, bidegree, max_terms):
    basis = monomial_basis(ring, bidegree)
    monos = draw(
        st.lists(st.sampled_from(basis), min_size=1, max_size=max_terms, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.integers(-3, 3).filter(bool), min_size=len(monos), max_size=len(monos)
        )
    )
    return Polynomial.from_dict(ring, dict(zip(monos, coeffs)))


@st.composite
def span_cases(draw, max_terms):
    """A presentation, a fiber degree and slice generators over it.

    Relations are single-entry (monomial ones feed the per-component
    ideals) or, with ``max_terms`` > 1, polynomial and spread over
    several components; items include the unit generator now and then,
    generators of fiber degree above the target, and dependent items of
    another item's bidegree.
    """
    ring = draw(st.sampled_from(SPAN_RINGS))
    max_b = 3 if ring.base else 0
    max_f = 2 if ring.fiber else 0
    bidegrees = st.tuples(st.integers(0, max_b), st.integers(0, max_f))
    rank = draw(st.integers(1, 3))
    shifts = tuple(
        (draw(st.integers(0, min(1, max_b))), draw(st.integers(0, min(1, max_f))))
        for _ in range(rank)
    )
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        slots = draw(
            st.lists(st.integers(0, rank - 1), min_size=1, max_size=rank, unique=True)
        )
        if max_terms == 1:
            slots = slots[:1]
        tb, tf = draw(bidegrees)
        tb += max(shifts[i][0] for i in slots)
        tf += max(shifts[i][1] for i in slots)
        rel = [ring.zero] * rank
        for i in slots:
            entry_deg = (tb - shifts[i][0], tf - shifts[i][1])
            rel[i] = draw(polynomials(ring, entry_deg, max_terms))
        relations.append(tuple(rel))
    fiber = draw(st.integers(0, max_f))
    items = []
    for _ in range(draw(st.integers(0, 4))):
        # a generator above ``fiber`` would act on a negative slice
        items.append(draw(polynomials(ring, draw(bidegrees), max_terms)))
    for _ in range(draw(st.integers(0, 3)) if items else 0):
        # an item of an earlier one's bidegree: a fresh polynomial or
        # monomial, or g + c*h, a multiple of g when h = g
        g = draw(st.sampled_from(items))
        if g.is_zero():
            continue
        if max_terms == 1 or draw(st.booleans()):
            extra = draw(polynomials(ring, g.bidegree(), max_terms))
        else:
            partners = [
                h for h in items if not h.is_zero() and h.bidegree() == g.bidegree()
            ]
            extra = g + draw(st.sampled_from(partners)) * draw(st.integers(-2, 2))
        items.append(extra)
    presentation = ModulePresentation(FreeModuleSpec(ring, shifts), tuple(relations))
    return presentation, fiber, items


@given(span_cases(max_terms=1))
@settings(max_examples=150, deadline=None)
def test_monomial_span_dim_matches_the_divisibility_scan(case):
    pres, fiber, items = case
    for a in range(6):
        deg = (a, fiber)
        assert span_dim(pres, deg, as_span(items)) == scan_span_dim(pres, deg, items)
        assert span_dim(pres, deg) == scan_span_dim(pres, deg)


@given(span_cases(max_terms=3))
@settings(max_examples=100, deadline=None)
def test_mixed_span_dim_matches_the_divisibility_scan(case):
    pres, fiber, items = case
    for a in range(5):
        deg = (a, fiber)
        assert span_dim(pres, deg, as_span(items)) == scan_span_dim(pres, deg, items)


def _cells(pres, gens, count, cutoff) -> list:
    """``graded_slice_length`` of each cell of a row up to the first error,
    which ends the list as its (kind, message)."""
    cells = []
    for n in range(count):
        try:
            cells.append(
                graded_slice_length(pres, gens.fiber_degree + n, None, (gens,), cutoff)
            )
        except (CutoffExceeded, CutoffTooSmall) as err:
            return cells + [(type(err), str(err))]
    return cells


@given(span_cases(max_terms=1), st.one_of(st.none(), st.integers(0, 6)))
@settings(max_examples=150, deadline=None)
def test_row_fold_matches_the_cell_walks(case, cutoff):
    # a row folds, divides and reads off each cell from numerators read
    # once; every cell, or the error that ends the row, is the cell walk's.
    # Modules of rank 1-3 with shifts and monomial relations, on rings
    # with empty fiber and base blocks too
    pres, fiber, items = case
    gens = [g for g in items if g.bidegree()[1] == fiber]
    gens = SubmoduleSpec(pres.ring, fiber, gens)
    cells = _cells(pres, gens, 4, cutoff)
    try:
        row = list(generated_lengths(pres, gens, range(4), cutoff))
    except (CutoffExceeded, CutoffTooSmall) as err:
        row = [*cells[:-1], (type(err), str(err))]
    assert row == cells


@st.composite
def walk_cases(draw):
    """A ``span_cases`` presentation and fiber degree with a top and a
    bottom span for one slice walk, and a cutoff.

    The unit joins the items now and then. The bottom items are a subset
    of the top ones, so T contains B, as in the factor-sum checks; a top
    of None is the free slice. Now and then, over monomial relations, the
    top and the bottom are two fresh lists of monomials instead, so T and
    B need not nest and a walk must refuse them where a dim turns
    negative. Each side's items are split into up to three parts per fiber
    degree, so two parts may share one. Cutoffs are small
    enough to stop walks on infinite quotients and to fall below
    certificate and reach degrees. Over monomial items and relations the
    cutoff may also be None, so that a walk the division proves finite
    reads its dims off the quotient; a polynomial walk at None is the walk
    at 64, whose eliminations up to there would dominate the test's time.
    """
    max_terms = draw(st.sampled_from((1, 2)))
    pres, fiber, items = draw(span_cases(max_terms=max_terms))
    if draw(st.booleans()):
        items.append(pres.ring.one)
    chosen = [draw(st.booleans()) for _ in items]
    bottom = [g for g, keep in zip(items, chosen) if keep]
    top = None if draw(st.booleans()) else items
    if max_terms == 1 and draw(st.booleans()):
        ring = pres.ring
        bidegrees = st.tuples(  # low enough to act on the walk's slice
            st.integers(0, 2 if ring.base else 0), st.integers(0, fiber)
        )
        monomial = bidegrees.flatmap(lambda deg: polynomials(ring, deg, 1))
        monomials = st.lists(monomial, min_size=1, max_size=3)
        top, bottom = draw(monomials), draw(monomials)

    def split(polys):
        labels = st.lists(st.integers(0, 2), min_size=len(polys), max_size=len(polys))
        return as_span(polys, draw(labels))

    top = None if top is None else split(top)
    cutoffs = st.integers(0, 5)
    if max_terms == 1:
        cutoffs = st.none() | cutoffs
    return pres, fiber, top, split(bottom), draw(cutoffs)


def _gens(span):
    """The generators of the parts of ``span``, as the dense oracles take
    them, or None for the free slice."""
    return None if span is None else [g for h in span for g in h.gens]


def _not_nested(pres, fiber, top, bottom, a):
    """The assertion a walk of T / B raises at base degree ``a``, with
    dim F/T and dim F/B counted densely."""
    deg = (a, fiber)
    top_q, bottom_q = (
        dense_piece_dim(pres, deg, None, _gens(s)) for s in (top, bottom)
    )
    message = f"spanning sets not nested at bidegree {deg}:"
    return AssertionError, f"{message} dim F/T {top_q} > dim F/B {bottom_q}"


def _expected_dims(pres, fiber, top, bottom, max_degree):
    """``slice_dims_up_to`` from dense dims, or the assertion it raises at
    the first negative one."""
    dims = dense_slice_dims(pres, fiber, _gens(top), _gens(bottom), max_degree)
    bad = [a for a, dim in enumerate(dims) if dim < 0]
    return _not_nested(pres, fiber, top, bottom, bad[0]) if bad else dims


def _dims_outcome(pres, fiber, top, bottom, max_degree):
    """``slice_dims_up_to`` in the shape ``_expected_dims`` returns."""
    try:
        return slice_dims_up_to(pres, fiber, top, bottom, max_degree)
    except AssertionError as err:
        return AssertionError, str(err)


# Monomial generators have exponents at most 4 in at most three base
# variables: past base degree 3 * 3 + 1 every piece of a finite quotient of
# them is 0, and the dims of an infinite one are polynomial.
FINITE_STOP = 12


def _scan_piece_dim(pres, deg, top_items, bottom_items) -> int:
    """``dense_piece_dim`` by the divisibility scan, quick over monomials."""
    if top_items is None:
        top = len(free_basis(pres.free, deg)[0])
    else:
        top = scan_span_dim(pres, deg, top_items)
    return top - scan_span_dim(pres, deg, bottom_items)


def _expected_walk(pres, fiber, top, bottom, cutoff):
    """The outcome of a slice walk from dense per-degree dims and the stop
    rule: the first zero summand at or past the certificate degree stops
    it, and a cutoff below that degree, or reached before a zero summand,
    raises. A negative summand on the way raises that T does not contain
    B. With no cutoff, which ``walk_cases`` draws only over monomials, the
    dims come from the divisibility scan: a finite quotient stops by the
    same rule and an infinite one raises at base degree 64. Past the
    certificate degree an infinite quotient's dims stay positive, and
    every finite one drawn here stops by base degree ``FINITE_STOP``: a
    walk that has not stopped by then is infinite."""
    shifts = [a for a, _ in pres.free.shifts]
    if top is None:
        certificate = max(shifts)
    else:
        degrees = [gb for _, _, gb in slice_generators(_gens(top), fiber)]
        certificate = max(degrees) + max(shifts) if degrees else 0
    if cutoff is not None and cutoff < certificate:
        return CutoffTooSmall, certificate
    dims = ()
    count = _scan_piece_dim if cutoff is None else dense_piece_dim
    for a in range(FINITE_STOP if cutoff is None else cutoff + 1):
        dim = count(pres, (a, fiber), _gens(top), _gens(bottom))
        dims += (dim,)
        if dim < 0:
            return _not_nested(pres, fiber, top, bottom, a)
        if dim == 0 and a >= certificate:
            return dims, a
    if cutoff is None:
        return CutoffExceeded, 64
    bottom_degrees = [gb for _, _, gb in slice_generators(_gens(bottom), fiber)]
    reach = min(bottom_degrees) + min(shifts) if bottom_degrees else 0
    return (CutoffTooSmall, reach) if cutoff < reach else (CutoffExceeded, cutoff)


def _walk_outcome(pres, fiber, top, bottom, cutoff):
    """``graded_slice_length`` in the shape ``_expected_walk`` returns."""
    try:
        res = graded_slice_length(pres, fiber, top, bottom, cutoff)
        assert res.total == sum(res.per_degree)
        return res.per_degree, res.stop_degree
    except CutoffTooSmall as err:
        return CutoffTooSmall, err.needed
    except CutoffExceeded as err:
        return CutoffExceeded, err.cutoff
    except AssertionError as err:
        return AssertionError, str(err)


def _unnested_walks():
    """Walks of T / B with B not in T: (x^2) over (x), by the division
    reader, and (x^2 + y^2) over (x, y), by elimination."""
    x, y, t = R2.gens()
    return [
        (free_module(R2), 0, as_span([x * x]), as_span([x]), 4),
        (free_module(R2), 1, as_span([(x * x + y * y) * t]), as_span([x * t, y]), 4),
    ]


def _check_walk(case):
    """A slice walk and its dims against the dense per-degree count."""
    pres, fiber, top, bottom, cutoff = case
    expected = _expected_walk(pres, fiber, top, bottom, cutoff)
    assert _walk_outcome(pres, fiber, top, bottom, cutoff) == expected
    degrees = 5 if cutoff is None else cutoff
    expected = _expected_dims(pres, fiber, top, bottom, degrees)
    assert _dims_outcome(pres, fiber, top, bottom, degrees) == expected


@example(_unnested_walks()[0])
@example(_unnested_walks()[1])
@given(walk_cases())
@settings(max_examples=100, deadline=None)
def test_slice_walks_match_the_dense_per_degree_count(case):
    _check_walk(case)


def _standard_index_walks(field):
    """Walks at the edges of the standard monomials a polynomial piece is
    ranked on, over ``field``: with shifts (0,0) and (1,0) and x killing
    component 0 only, x + y and x^2 + y^2 are ranked on component 1's whole
    basis and on component 0's cut one; with shifts (0,0) and (0,1),
    component 1's piece has negative bidegree next to component 0's at
    fiber degree 0, and both are ranked at fiber degree 1; and x and y
    fill every piece of base degree >= 1, which x^2 + xy has multiples in
    from base degree 2."""
    ring = RingSpec(field, ("x", "y"), ("T",))
    x, y, _ = ring.gens()
    killed = ModulePresentation(
        FreeModuleSpec(ring, ((0, 0), (1, 0))), ((x, ring.zero),)
    )
    lifted = free_module(ring, ((0, 0), (0, 1)))
    forms = as_span([x + y, x * x + y * y])
    return [
        (killed, 0, None, forms, 4),
        (killed, 1, None, forms, 4),
        (lifted, 0, None, forms, 4),
        (lifted, 1, None, forms, 4),
        (free_module(ring), 0, None, as_span([x, y, x * x + x * y]), 4),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_standard_index_edges_match_the_dense_per_degree_count(field):
    for case in _standard_index_walks(field):
        _check_walk(case)


def _mixed_level_walk():
    """A ``walk_cases`` draw from ``mixed_level``: level 2 over level 1 of
    the (2, 1) filtration of H1 = (xu, yu + xv, yv) and H2 = (x, y), whose
    products have fiber degrees 0, 1 and 2, and some are polynomials."""
    x, y, u, v = R22.gens()
    h1 = SubmoduleSpec(R22, 1, (x * u, y * u + x * v, y * v))
    h2 = SubmoduleSpec(R22, 0, (x, y))
    top, bottom = (mixed_level(h1, h2, 2, 1, nu) for nu in (2, 1))
    return free_module(R22), 0, top, bottom, 4


@example(_mixed_level_walk())
@given(walk_cases())
@settings(max_examples=50, deadline=None)
def test_walks_reuse_each_span_plan_from_either_side(case):
    # Only parts of fiber degree at most the walk's act, so walks at fiber
    # degrees with the same largest acting degree share one cached span
    # plan. Walking fiber degrees 0..3 upward builds each plan at the
    # lowest fiber degree that uses it, downward at the highest.
    import brmult.modules as modules

    pres, _, top, bottom, cutoff = case
    for fibers in (range(4), range(3, -1, -1)):
        modules._span_plan.cache_clear()
        for fiber in fibers:
            expected = _expected_walk(pres, fiber, top, bottom, cutoff)
            assert _walk_outcome(pres, fiber, top, bottom, cutoff) == expected
            degrees = 5 if cutoff is None else cutoff
            expected = _expected_dims(pres, fiber, top, bottom, degrees)
            assert _dims_outcome(pres, fiber, top, bottom, degrees) == expected


def test_parts_of_one_bidegree_reduce_together(monkeypatch):
    # the parts (x) and (x + y) are interreduced together, as the one part
    # (x, x + y) is: both spans plan the monomials x and y and no
    # polynomial vector, so a walk dividing by them ranks nothing
    import brmult.modules as modules

    ring = RingSpec(QQ, ("x", "y"), ("u",))
    x, y = ring.gen("x"), ring.gen("y")
    pres = free_module(ring)
    split = (SubmoduleSpec(ring, 0, (x,)), SubmoduleSpec(ring, 0, (x + y,)))
    joined = (SubmoduleSpec(ring, 0, (x, x + y)),)
    plan = modules._span_plan(pres, split, 0)
    assert plan == modules._span_plan(pres, joined, 0)
    assert plan[:2] == ((((0, 1, 0), (1, 0, 0)),), ())
    calls = []
    monkeypatch.setattr(modules, "subspace_dim", lambda rows, f: calls.append(rows))
    for fiber in range(3):
        assert graded_slice_length(pres, fiber, None, split).total == 1  # u^fiber
    assert calls == []


def test_polynomial_rows_are_cleared_by_their_own_component_ideal():
    # x kills x*e1 only, so (x+y)*e1 and (2x+y)*e1 both reduce to y*e1
    x, y = R2.gen("x"), R2.gen("y")
    free = FreeModuleSpec(R2, ((0, 0), (0, 0)))
    pres = ModulePresentation(free, ((R2.zero, x),))
    items = [x + y, 2 * x + y]
    for a in range(4):
        deg = (a, 0)
        assert span_dim(pres, deg, as_span(items)) == scan_span_dim(pres, deg, items)
    assert span_dim(pres, (1, 0), as_span(items)) == 4


def test_pieces_the_monomials_fill_make_no_elimination(monkeypatch):
    # x and y span every piece of base degree >= 1, which leaves no
    # standard monomial there, so x^2 + x*y's multiples are never ranked
    import brmult.modules as modules

    calls = []
    real = modules.subspace_dim
    monkeypatch.setattr(
        modules, "subspace_dim", lambda rows, field: calls.append(rows) or real(rows, field)
    )
    x, y = R2.gen("x"), R2.gen("y")
    pres = free_module(R2)
    items = [x, y, x * x + x * y]
    for deg in [(2, 0), (3, 0), (2, 1)]:
        assert span_dim(pres, deg, as_span(items)) == scan_span_dim(pres, deg, items)
    assert calls == []
    # a walk of F / (x, y, x^2 + xy) reaches the filled pieces too
    assert slice_dims_up_to(pres, 0, None, as_span(items), 4) == (1, 0, 0, 0, 0)
    assert calls == []
    assert span_dim(pres, (2, 0), as_span(items[2:])) == 1
    assert len(calls) == 1


def test_monomial_walks_still_rank_the_polynomial_relations():
    # K = (x e1 - y e2) is not monomial, so a walk whose items are all
    # monomials still ranks K's rows where monomials are left
    x, y = R2.gen("x"), R2.gen("y")
    pres = ModulePresentation(FreeModuleSpec(R2, ((0, 0), (0, 0))), ((x, -y),))
    for top, bottom in [(None, ()), (None, (x * x,)), ((x, y), (x * x, x * y))]:
        spans = (None if top is None else as_span(top)), as_span(bottom)
        for fiber in (0, 1):
            dims = slice_dims_up_to(pres, fiber, *spans, 4)
            assert dims == dense_slice_dims(pres, fiber, top, bottom, 4)


ECHELON_RINGS = (R22, RingSpec(PrimeField(5), ("x", "y"), ("u", "v")))


@st.composite
def same_bidegree_polys(draw):
    """A ring, a bidegree and a list of polynomials of that bidegree.

    The list mixes fresh polynomials and monomials with duplicates,
    scalar multiples and sums of earlier entries.
    """
    ring = draw(st.sampled_from(ECHELON_RINGS))
    bidegree = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    polys = [draw(polynomials(ring, bidegree, 4))]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("fresh", "monomial", "copy", "multiple", "sum")))
        g = draw(st.sampled_from(polys))
        h = draw(st.sampled_from(polys))
        if kind == "fresh":
            polys.append(draw(polynomials(ring, bidegree, 4)))
        elif kind == "monomial":
            polys.append(draw(polynomials(ring, bidegree, 1)))
        elif kind == "copy":
            polys.append(g)
        elif kind == "multiple":
            polys.append(g * draw(st.integers(-4, 4).filter(bool)))
        elif not (g + h).is_zero():
            polys.append(g + h)
    return ring, bidegree, polys


@given(same_bidegree_polys(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_echelon_basis_is_the_reduced_row_echelon_form(case, rng):
    ring, bidegree, polys = case
    columns = monomial_basis(ring, bidegree)  # descending: leftmost leads
    rows = [[dict(g.terms).get(m, 0) for m in columns] for g in polys]
    reduced, rk = rref(Matrix.from_rows(ring.field, rows))
    expected = tuple(
        Polynomial.from_dict(ring, dict(zip(columns, row)))
        for row in reduced.rows[:rk]
    )
    basis = _echelon_basis(ring, tuple(polys))
    assert basis == expected
    assert all(g.terms[0][1] == ring.field.one for g in basis)
    shuffled = list(polys)
    rng.shuffle(shuffled)
    assert _echelon_basis(ring, tuple(shuffled)) == basis


def test_monomial_plans_skip_the_echelon_step(monkeypatch):
    import brmult.rings as rings

    def fail(ring, polys):
        raise AssertionError("echelon step on a monomial plan")

    monkeypatch.setattr(rings, "_echelon_basis", fail)
    x, y = R2.gen("x"), R2.gen("y")
    items = as_span([x * x, x * y, y])
    assert span_dim(free_module(R2), (2, 0), items) == 3


def test_echelon_monomials_join_the_monomial_ideal():
    # x*u + y*v, x*v, x*u - y*v span x*u, y*v and x*v: no polynomial rows
    x, y, u, v = (R22.gen(s) for s in "xyuv")
    gens = (x * u + y * v, x * v, x * u - y * v)
    assert all(g.is_monomial() for g in _echelon_basis(R22, gens))
    pres = free_module(R22)
    for a in range(1, 4):
        deg = (a, 1)
        assert span_dim(pres, deg, as_span(gens)) == scan_span_dim(pres, deg, gens)


def test_slice_dims_refuse_a_top_span_that_misses_the_bottom():
    # T = (x) does not contain B = (x, y): at base degree 1, dim F/T = 1
    # (y) exceeds dim F/B = 0, which no quotient T/B can have
    ring = RingSpec(QQ, ("x", "y"), ())
    x, y = ring.gen("x"), ring.gen("y")
    one, two = as_span([x]), as_span([x, y])
    with pytest.raises(AssertionError, match=r"not nested at bidegree \(1, 0\)"):
        slice_dims_up_to(free_module(ring), 0, one, two, 3)
    assert slice_dims_up_to(free_module(ring), 0, two, one, 3) == (0, 1, 1, 1)
