"""Graded modules: piece dimensions, slice lengths, Krull dimension."""

import pytest
from hypothesis import given, settings, strategies as st

from brmult.fields import QQ
from brmult.modules import (
    CutoffExceeded,
    FreeModuleSpec,
    ModulePresentation,
    SliceSpan,
    free_piece_dim,
    krull_dimension,
    piece_basis,
    piece_dimension,
    quotient_fiber_length,
    slice_dims_up_to,
    span_dim,
)
from brmult.rings import GradingError, RingSpec, monomial_basis
from dense_oracle import piece_subspace

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
    res = quotient_fiber_length(m, extra, 0)
    assert res.total == 1
    assert res.per_degree[0] == 1
    assert all(v == 0 for v in res.per_degree[1:])


def test_quotient_by_square_of_maximal_ideal():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    extra = [SliceSpan(g, 0) for g in (x * x, x * y, y * y)]
    res = quotient_fiber_length(m, extra, 0)
    assert res.total == 3
    assert res.per_degree[:2] == (1, 2)


def test_infinite_quotient_hits_cutoff():
    m = free_module(R2)
    with pytest.raises(CutoffExceeded):
        quotient_fiber_length(m, [], 0, cutoff=12)


def test_length_certificate_really_stops():
    m = free_module(R2)
    x, y = R2.gen("x"), R2.gen("y")
    extra = [SliceSpan(g, 0) for g in (x * x * x, x * y, y * y)]
    res = quotient_fiber_length(m, extra, 0)
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


def test_slice_dims_up_to_matches_piece_dims():
    m = free_module(R22)
    dims = slice_dims_up_to(m, 2, None, (), 5)
    assert dims == tuple(piece_dimension(m, (a, 2)) for a in range(6))


def test_piece_basis_offsets_are_flat():
    free = FreeModuleSpec(R2, ((0, 0), (1, 0)))
    basis, offsets = piece_basis(free, (2, 0))
    seen = set()
    for slot, mono in basis:
        assert slot in (0, 1)
        seen.add((slot, mono))
    assert len(seen) == len(basis) == 3 + 2
    # each offset marks where a generator's block of monomials begins
    assert offsets == (0, 3)


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
