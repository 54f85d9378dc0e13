"""Graded modules: piece dimensions, slice lengths, Krull dimension."""

import pytest
from hypothesis import given, settings, strategies as st

from brmult.fields import QQ, PrimeField
from brmult.modules import (
    CutoffExceeded,
    CutoffTooSmall,
    FreeModuleSpec,
    HilbertProbeError,
    ModulePresentation,
    SliceSpan,
    ZeroModuleError,
    _echelon_basis,
    _hilbert_numerator,
    _prune_dominated,
    _standard_count,
    free_piece_dim,
    graded_slice_length,
    krull_dimension,
    piece_basis,
    piece_dimension,
    slice_dims_up_to,
    span_dim,
)
from brmult.rings import GradingError, Polynomial, RingSpec, monomial_basis
from dense_oracle import (
    Matrix,
    piece_subspace,
    quadratic_prune,
    rref,
    scan_span_dim,
)

R2 = RingSpec(QQ, ("x", "y"), ("T",))
R22 = RingSpec(QQ, ("x", "y"), ("u", "v"))


def free_module(ring, shifts=((0, 0),)):
    return ModulePresentation(FreeModuleSpec(ring, shifts))


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
    extra = [SliceSpan(x, 0), SliceSpan(y, 0)]
    res = graded_slice_length(m, 0, None, extra)
    assert res.total == 1
    assert res.per_degree[0] == 1
    assert all(v == 0 for v in res.per_degree[1:])


def test_quotient_by_square_of_maximal_ideal():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    extra = [SliceSpan(g, 0) for g in (x * x, x * y, y * y)]
    res = graded_slice_length(m, 0, None, extra)
    assert res.total == 3
    assert res.per_degree[:2] == (1, 2)


def test_infinite_quotient_hits_cutoff():
    m = free_module(R2)
    with pytest.raises(CutoffExceeded):
        graded_slice_length(m, 0, None, [], cutoff=12)
    # x spans from base degree 1 on, so a cutoff of 3 did test it
    with pytest.raises(CutoffExceeded):
        graded_slice_length(m, 0, None, [SliceSpan(R2.gen("x"), 0)], cutoff=3)


def test_cutoff_below_what_the_walk_needs_is_too_small():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    squares = [SliceSpan(g, 0) for g in (x * x, y * y)]
    # the finite quotient k[x,y]/(x^2, y^2) needs base degrees 0..3
    assert graded_slice_length(m, 0, None, squares, cutoff=3).total == 4
    # cutoff 1 ends the walk before the squares span anything
    with pytest.raises(CutoffTooSmall) as err:
        graded_slice_length(m, 0, None, squares, cutoff=1)
    assert err.value.needed == 2
    # a top generated in base degree 2 has certificate degree 2
    with pytest.raises(CutoffTooSmall) as err:
        graded_slice_length(m, 0, squares, [], cutoff=1)
    assert err.value.needed == 2


def test_length_certificate_really_stops():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    extra = [SliceSpan(g, 0) for g in (x * x * x, x * y, y * y)]
    res = graded_slice_length(m, 0, None, extra)
    # continue past stop_degree by hand: every later summand is zero
    for a in range(res.stop_degree + 1, res.stop_degree + 5):
        top = free_piece_dim(m.free, (a, 0))
        bottom = span_dim(m, (a, 0), [SliceSpan(g, 0) for g in (x * x * x, x * y, y * y)])
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
    # k[x,y]/(x^9, y^9) has not reached its zero tail by the probe bound
    nine = ModulePresentation(free, ((x**9,), (y**9,)))
    with pytest.raises(HilbertProbeError):
        krull_dimension(nine)


def test_krull_dimension_rejects_a_falling_tail():
    # k[x,y]/(x^12, y^12) is Artinian, but at the probe bound its Hilbert
    # function still falls by 1 per degree. A negative slope is no Hilbert
    # polynomial, so this raises instead of reporting dimension 2 (3 with
    # a fiber variable, whose cumulative sums then end on a concave tail).
    for ring in (RingSpec(QQ, ("x", "y"), ()), RingSpec(QQ, ("x", "y"), ("u",))):
        x, y = ring.gen("x"), ring.gen("y")
        free = FreeModuleSpec(ring, ((0, 0),))
        with pytest.raises(HilbertProbeError):
            krull_dimension(ModulePresentation(free, ((x**12,), (y**12,))))
        # (x^8, y^8) reaches its tail inside the probe range
        eight = krull_dimension(ModulePresentation(free, ((x**8,), (y**8,))))
        assert eight == (1 if ring.fiber else 0)


def test_slice_dims_up_to_matches_piece_dims():
    m = free_module(R22)
    dims = slice_dims_up_to(m, 2, None, (), 5)
    assert dims == tuple(piece_dimension(m, (a, 2)) for a in range(6))


def test_piece_basis_index_is_flat():
    free = FreeModuleSpec(R2, ((0, 0), (1, 0)))
    basis, index = piece_basis(free, (2, 0))
    seen = set()
    for slot, mono in basis:
        assert slot in (0, 1)
        seen.add((slot, mono))
    assert len(seen) == len(basis) == 3 + 2
    # the index inverts the basis: each key maps to its flat position
    assert len(index) == len(basis)
    assert all(index[key] == k for k, key in enumerate(basis))


@st.composite
def monomial_spans(draw):
    a = draw(st.integers(min_value=0, max_value=2))
    basis = monomial_basis(R2, (a, 0))
    monos = draw(
        st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True)
    )
    return [SliceSpan(R2.monomial(m), 0) for m in monos]


@given(monomial_spans(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_span_dim_matches_subspace_basis(items, a):
    m = free_module(R2)
    sub = piece_subspace(m, (a, 0), items)
    assert span_dim(m, (a, 0), items) == sub.dim


def test_span_dim_monotone_in_items():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    one_item = [SliceSpan(x, 0)]
    two_items = [SliceSpan(x, 0), SliceSpan(y, 0)]
    for a in range(5):
        assert span_dim(m, (a, 0), one_item) <= span_dim(m, (a, 0), two_items)


def test_cross_fiber_spans():
    # multiplication by a fiber-degree-1 element maps the n=0 slice into n=1
    m = free_module(R22)
    xu = R22.gen("x") * R22.gen("u")
    dims = slice_dims_up_to(m, 1, None, [SliceSpan(xu, 0)], 4)
    # free dims are 2(a+1); the image of xu contributes a dims in degree a+1
    assert dims == (2, 3, 4, 5, 6)


def _brute_standard_count(ring, gens, deg):
    return sum(
        not any(all(a >= b for a, b in zip(m, g)) for g in gens)
        for m in monomial_basis(ring, deg)
    )


def test_hilbert_numerator_of_a_bigraded_monomial_ideal():
    # x base, y fiber: S/(x^2, xy, y^3) has the basis 1, x, y, y^2, so the
    # numerator is (1 + X + Y + Y^2)(1 - X)(1 - Y).
    ring = RingSpec(QQ, ("x",), ("y",))
    gens = _prune_dominated([(0, 3), (1, 1), (2, 0), (2, 1)])
    assert gens == ((1, 1), (2, 0), (0, 3))
    assert _hilbert_numerator(gens, 1) == (
        (0, 0, 1),
        (0, 3, -1),
        (1, 1, -1),
        (1, 3, 1),
        (2, 0, -1),
        (2, 1, 1),
    )
    # the same ideal with both variables in the base: 1 - 2t^2 + t^4
    assert _hilbert_numerator(gens, 2) == ((0, 0, 1), (2, 0, -2), (4, 0, 1))
    for a in range(5):
        for n in range(5):
            assert _standard_count(ring, gens, (a, n)) == _brute_standard_count(
                ring, gens, (a, n)
            )


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
    for a in range(7):
        for n in range(4):
            assert _standard_count(ring, gens, (a, n)) == _brute_standard_count(
                ring, gens, (a, n)
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
    """A presentation, a fiber degree and slice-span items over it.

    Relations are single-entry (monomial ones feed the per-component
    ideals) or, with ``max_terms`` > 1, polynomial and spread over
    several components; items include the unit generator now and then,
    and dependent items that share (n_src, gb) with another item.
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
        gb, gf = draw(bidegrees)
        gf = min(gf, fiber)
        items.append(SliceSpan(draw(polynomials(ring, (gb, gf), max_terms)), fiber - gf))
    for _ in range(draw(st.integers(0, 3)) if items else 0):
        # an item sharing (n_src, gb) with an earlier one: a fresh
        # polynomial or monomial, or g + c*h, a multiple of g when h = g
        g, n_src = draw(st.sampled_from(items))
        if g.is_zero():
            continue
        if max_terms == 1 or draw(st.booleans()):
            extra = draw(polynomials(ring, g.bidegree(), max_terms))
        else:
            partners = [
                h
                for h, m in items
                if m == n_src and not h.is_zero() and h.bidegree() == g.bidegree()
            ]
            extra = g + draw(st.sampled_from(partners)) * draw(st.integers(-2, 2))
        items.append(SliceSpan(extra, n_src))
    presentation = ModulePresentation(FreeModuleSpec(ring, shifts), tuple(relations))
    return presentation, fiber, items


@given(span_cases(max_terms=1))
@settings(max_examples=150, deadline=None)
def test_monomial_span_dim_matches_the_divisibility_scan(case):
    pres, fiber, items = case
    for a in range(6):
        deg = (a, fiber)
        assert span_dim(pres, deg, items) == scan_span_dim(pres, deg, items)
        assert span_dim(pres, deg) == scan_span_dim(pres, deg)


@given(span_cases(max_terms=3))
@settings(max_examples=100, deadline=None)
def test_mixed_span_dim_matches_the_divisibility_scan(case):
    pres, fiber, items = case
    for a in range(5):
        deg = (a, fiber)
        assert span_dim(pres, deg, items) == scan_span_dim(pres, deg, items)


def test_polynomial_rows_are_cleared_by_their_own_component_ideal():
    # x kills x*e1 only, so (x+y)*e1 and (2x+y)*e1 both reduce to y*e1
    x, y = R2.gen("x"), R2.gen("y")
    free = FreeModuleSpec(R2, ((0, 0), (0, 0)))
    pres = ModulePresentation(free, ((R2.zero, x),))
    items = [SliceSpan(x + y, 0), SliceSpan(2 * x + y, 0)]
    for a in range(4):
        deg = (a, 0)
        assert span_dim(pres, deg, items) == scan_span_dim(pres, deg, items)
    assert span_dim(pres, (1, 0), items) == 4


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
    import brmult.modules as modules

    assert _echelon_basis.cache_info().maxsize is not None

    def fail(ring, polys):
        raise AssertionError("echelon step on a monomial plan")

    monkeypatch.setattr(modules, "_echelon_basis", fail)
    x, y = R2.gen("x"), R2.gen("y")
    items = [SliceSpan(x * x, 0), SliceSpan(x * y, 0), SliceSpan(y, 0)]
    assert span_dim(free_module(R2), (2, 0), items) == 3


def test_echelon_monomials_join_the_monomial_ideal():
    # x*u + y*v, x*v, x*u - y*v span x*u, y*v and x*v: no polynomial rows
    x, y, u, v = (R22.gen(s) for s in "xyuv")
    gens = (x * u + y * v, x * v, x * u - y * v)
    assert all(g.is_monomial() for g in _echelon_basis(R22, gens))
    items = [SliceSpan(g, 0) for g in gens]
    pres = free_module(R22)
    for a in range(1, 4):
        deg = (a, 1)
        assert span_dim(pres, deg, items) == scan_span_dim(pres, deg, items)
