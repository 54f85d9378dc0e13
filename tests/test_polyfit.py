"""Finite differences and leading-form extraction on integer tables."""

import itertools
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from brmult.polyfit import (
    DegreeExceedsError,
    GridTooSmallError,
    LengthTable,
    StabilizationError,
    finite_difference,
    leading_form,
    total_degree_estimate,
)


def table_from(fn, axes, origin, extents):
    pts = itertools.product(
        *(range(o, o + e) for o, e in zip(origin, extents))
    )
    return LengthTable(axes, origin, extents, tuple(fn(*p) for p in pts))


def test_finite_difference_one_axis():
    t = LengthTable(("n",), (0,), (5,), (0, 1, 4, 9, 16))
    d = finite_difference(t, "n")
    assert d.values == (1, 3, 5, 7)
    dd = finite_difference(d, "n")
    assert dd.values == (2, 2, 2)


def test_finite_difference_two_axes_commute():
    t = table_from(lambda p, n: p * p * n + 3 * p, ("p", "n"), (0, 0), (5, 5))
    dpn = finite_difference(finite_difference(t, "p"), "n")
    dnp = finite_difference(finite_difference(t, "n"), "p")
    assert dpn == dnp


@st.composite
def axis_tables(draw):
    """A table on 1 to 3 axes, and an axis of extent at least 2."""
    arity = draw(st.integers(1, 3))
    axis = draw(st.integers(0, arity - 1))
    extents = tuple(
        draw(st.integers(2 if i == axis else 1, 4)) for i in range(arity)
    )
    size = 1
    for e in extents:
        size *= e
    values = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    origin = tuple(draw(st.integers(-2, 2)) for _ in range(arity))
    return LengthTable(("p", "q", "n")[:arity], origin, extents, values), axis


@given(axis_tables())
@settings(max_examples=150, deadline=None)
def test_finite_difference_matches_the_per_index_definition(case):
    t, axis = case
    d = finite_difference(t, axis)
    step = tuple(int(i == axis) for i in range(t.arity))
    points = itertools.product(*(range(e) for e in d.extents))
    expected = tuple(
        t.value(tuple(j + k for j, k in zip(idx, step))) - t.value(idx)
        for idx in points
    )
    assert d.values == expected
    assert (d.axes, d.origin) == (t.axes, t.origin)


@given(axis_tables())
@settings(max_examples=100, deadline=None)
def test_value_and_point_follow_the_row_major_order(case):
    t, _ = case
    points = list(itertools.product(*(range(e) for e in t.extents)))
    assert [t.value(idx) for idx in points] == list(t.values)
    assert [t.point(flat) for flat in range(len(points))] == [
        tuple(o + j for o, j in zip(t.origin, idx)) for idx in points
    ]
    with pytest.raises(IndexError):
        t.value(t.extents)


def test_difference_of_tiny_extent_rejected():
    t = LengthTable(("n",), (0,), (1,), (7,))
    with pytest.raises(GridTooSmallError):
        finite_difference(t, "n")


def test_leading_form_of_known_cubic():
    # (p+n+1) * p * (p+1) / 2 has leading form p^3/2 + p^2 n / 2
    fn = lambda p, n: (p + n + 1) * p * (p + 1) // 2
    t = table_from(fn, ("p", "n"), (0, 0), (8, 8))
    lf = leading_form(t, 3)
    assert lf.as_dict() == {(3, 0): 3, (2, 1): 1, (1, 2): 0, (0, 3): 0}


def test_leading_form_symmetric_quadratic():
    fn = lambda p, q: (p + q) * (p + q + 1) // 2
    t = table_from(fn, ("p", "q"), (0, 0), (6, 6))
    lf = leading_form(t, 2)
    assert lf.as_dict() == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_leading_form_one_axis():
    fn = lambda n: 2 * (n + 1) * (n + 2)
    t = table_from(fn, ("n",), (0,), (7,))
    lf = leading_form(t, 2)
    assert lf.as_dict() == {(2,): 4}
    assert lf[(2,)] == 4


def test_leading_form_of_lower_degree_table_is_zero():
    t = table_from(lambda p, n: 5 * p + 2, ("p", "n"), (0, 0), (6, 6))
    lf = leading_form(t, 2)
    assert all(e == 0 for e in lf.as_dict().values())


def test_leading_form_of_zero_table():
    t = table_from(lambda p, n: 0, ("p", "n"), (0, 0), (6, 6))
    lf = leading_form(t, 3)
    assert set(lf.as_dict().values()) == {0}


def test_exponential_table_never_stabilizes():
    t = table_from(lambda n: 2**n, ("n",), (0,), (9,))
    with pytest.raises(StabilizationError):
        leading_form(t, 3)


def test_degree_overshoot_detected():
    # first differences (1,1,2,2,3,3,4) pause on every other window but the
    # second differences never vanish alongside them
    t = LengthTable(("n",), (0,), (8,), (0, 1, 2, 4, 6, 9, 12, 16))
    with pytest.raises(DegreeExceedsError):
        leading_form(t, 1)


def test_window_heuristic_can_be_fooled_by_flat_transients():
    # a long flat start passes the window test before the growth begins;
    # this is the documented limit of the certificate, mitigated by the
    # pipelines' larger default grids
    t = LengthTable(("n",), (0,), (8,), (0, 0, 0, 0, 1, 3, 6, 10))
    assert leading_form(t, 1).as_dict() == {(1,): 0}


def test_unstabilized_cubic_asked_too_low():
    # no flat window at all, but the fourth differences vanish: the table's
    # degree estimate, 3, is what classifies the failure
    t = table_from(lambda n: n * n * n, ("n",), (0,), (9,))
    with pytest.raises(DegreeExceedsError, match="estimate 3 exceeds r = 2") as err:
        leading_form(t, 2)
    assert (err.value.table, err.value.r) == (t, 2)


def test_grid_too_small():
    t = table_from(lambda p, n: p + n, ("p", "n"), (0, 0), (3, 3))
    with pytest.raises(GridTooSmallError):
        leading_form(t, 3)


def test_transient_then_polynomial():
    # nonpolynomial near the origin, linear from n = 3 on
    vals = (5, 1, 4, 6, 8, 10, 12, 14)
    t = LengthTable(("n",), (0,), (8,), vals)
    lf = leading_form(t, 1)
    assert lf.as_dict() == {(1,): 2}
    # the window starts past the nonlinear entries at 0 and 1
    assert lf.base_point[0] >= 2
    assert total_degree_estimate(t) == 1


def test_total_degree_estimate_examples():
    t3 = table_from(lambda p, n: p**3 + n, ("p", "n"), (0, 0), (8, 8))
    assert total_degree_estimate(t3) == 3
    t0 = table_from(lambda n: 7, ("n",), (0,), (6,))
    assert total_degree_estimate(t0) == 0
    with pytest.raises(GridTooSmallError):
        total_degree_estimate(LengthTable(("n",), (0,), (2,), (1, 2)))


coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def polynomials_2d(draw, max_degree=3):
    terms = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            c = draw(coeff)
            if c:
                terms[(i, j)] = c
    return terms


def eval_poly(terms, p, n):
    return sum(c * p**i * n**j for (i, j), c in terms.items())


@given(polynomials_2d())
@settings(max_examples=60, deadline=None)
def test_polynomial_reproduction(terms):
    degree = max((i + j for i, j in terms), default=0)
    fn = lambda p, n: eval_poly(terms, p, n)
    t = table_from(fn, ("p", "n"), (0, 0), (degree + 5, degree + 5))
    lf = leading_form(t, degree)
    # e[alpha] is the alpha coefficient scaled by alpha!
    for (i, j), e in lf.as_dict().items():
        expected = terms.get((i, j), 0) * factorial(i) * factorial(j)
        assert e == expected
    assert total_degree_estimate(t) <= degree


@given(polynomials_2d(), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_larger_grid_gives_same_leading_form(terms, extra):
    degree = max((i + j for i, j in terms), default=0)
    fn = lambda p, n: eval_poly(terms, p, n)
    small = table_from(fn, ("p", "n"), (0, 0), (degree + 5, degree + 5))
    big = table_from(
        fn, ("p", "n"), (0, 0), (degree + 5 + extra, degree + 5 + extra)
    )
    assert leading_form(small, degree).as_dict() == leading_form(
        big, degree
    ).as_dict()


@given(polynomials_2d())
@settings(max_examples=40, deadline=None)
def test_difference_lowers_degree(terms):
    degree = max((i + j for i, j in terms), default=0)
    if degree == 0:
        return
    fn = lambda p, n: eval_poly(terms, p, n)
    t = table_from(fn, ("p", "n"), (0, 0), (degree + 6, degree + 6))
    d = finite_difference(t, "p")
    assert total_degree_estimate(d) <= max(degree - 1, 0) or not any(
        i > 0 for i, _ in terms
    )


def test_table_validation():
    with pytest.raises(ValueError):
        LengthTable(("p", "n"), (0, 0), (2, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        LengthTable(("p",), (0,), (0,), ())


def test_a_table_builds_each_difference_once_outside_its_fields(monkeypatch):
    import brmult.polyfit as polyfit

    calls = []
    monkeypatch.setattr(
        polyfit,
        "finite_difference",
        lambda t, axis: calls.append(axis) or finite_difference(t, axis),
    )
    t = table_from(lambda p, n: p * p + 3 * p * n, ("p", "n"), (0, 0), (6, 6))
    twin = table_from(lambda p, n: p * p + 3 * p * n, ("p", "n"), (0, 0), (6, 6))
    assert leading_form(t, 2).as_dict() == {(2, 0): 2, (1, 1): 3, (0, 2): 0}
    # orders 1..3 of two axes: 2 + 3 + 4 tables, read again by the estimate
    assert len(calls) == 9
    assert total_degree_estimate(t) == 2
    assert len(calls) == 9
    diffs = t.differences(1)
    assert diffs[(0, 0)] is t and diffs[(1, 0)] == finite_difference(t, "p")
    assert len(calls) == 9
    # the kept differences are not part of the value
    assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)


def test_degree_exceeds_carries_the_table_and_r():
    # the table of test_degree_overshoot_detected
    t = LengthTable(("n",), (0,), (8,), (0, 1, 2, 4, 6, 9, 12, 16))
    with pytest.raises(DegreeExceedsError) as err:
        leading_form(t, 1)
    assert err.value.table is t and err.value.r == 1
