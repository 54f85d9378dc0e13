"""Finite differences and leading-form extraction on integer tables."""

import itertools
from math import comb, factorial, prod
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from brmult.polyfit import (
    DegreeExceedsError,
    GridTooSmallError,
    LengthTable,
    StabilizationError,
    WINDOW,
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
    # built without the checks, it is the table the checked constructor builds
    checked = LengthTable(d.axes, d.origin, d.extents, d.values)
    assert d == checked
    assert hash(d) == hash(checked)
    assert d._strides == checked._strides


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


@pytest.mark.parametrize("bad", [True, 1.0])
def test_length_table_rejects_a_value_that_is_not_an_int(bad):
    with pytest.raises(GridTooSmallError, match="non-integer table value"):
        LengthTable(("n",), (0,), (3,), (0, bad, 2))


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
    # floor((n+1)^2 / 4) is no polynomial: its second differences alternate
    # 0, 1, 0, ... up to the far corner, so no difference of any order
    # vanishes on a tail and no degree estimate exists
    t = LengthTable(("n",), (0,), (8,), (0, 1, 2, 4, 6, 9, 12, 16))
    with pytest.raises(StabilizationError):
        leading_form(t, 1)


def test_flat_transients_do_not_fool_the_tail_certificate():
    # a flat start no longer passes for a tail: the second differences are
    # 1 from n = 3 to the far corner, so the table is quadratic there
    t = LengthTable(("n",), (0,), (8,), (0, 0, 0, 0, 1, 3, 6, 10))
    with pytest.raises(DegreeExceedsError, match="estimate 2 exceeds r = 1"):
        leading_form(t, 1)
    assert total_degree_estimate(t) == 2


def test_unstabilized_cubic_asked_too_low():
    # the third differences vanish on no tail, but the fourth ones do: the
    # table's degree estimate, 3, is what classifies the failure
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
    # the tail starts past the nonlinear entries at 0 and 1
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


@st.composite
def polynomials_with_a_dirty_corner(draw):
    """A polynomial of degree at most r on 1 to 3 axes as (terms, r), and a
    table of it whose cells below a lower corner are overwritten, with at
    least WINDOW + r + 1 clean points per axis above that corner. The
    corner holds arbitrary integers or, as a flat transient would, a second
    polynomial of degree at most r."""
    arity = draw(st.integers(1, 3))
    r = draw(st.integers(0, 3 if arity < 3 else 2))

    def polynomial():
        return {
            alpha: draw(coeff)
            for alpha in itertools.product(range(r + 1), repeat=arity)
            if sum(alpha) <= r
        }

    terms = polynomial()
    mimic = polynomial() if draw(st.booleans()) else None
    corner = tuple(draw(st.integers(0, r + 3)) for _ in range(arity))
    extents = tuple(c + WINDOW + r + 1 + draw(st.integers(0, 1)) for c in corner)
    origin = tuple(draw(st.integers(-2, 2)) for _ in range(arity))
    values = []
    for idx in itertools.product(*(range(e) for e in extents)):
        point = [o + i for o, i in zip(origin, idx)]
        source = terms
        if all(map(int.__lt__, idx, corner)):
            if mimic is None:
                values.append(draw(st.integers(-50, 50)))
                continue
            source = mimic
        values.append(
            sum(
                c * prod(x**a for x, a in zip(point, alpha))
                for alpha, c in source.items()
            )
        )
    table = LengthTable(("p", "q", "n")[:arity], origin, extents, values)
    return terms, r, table


def brute_difference(t, alpha, idx):
    """The order-alpha mixed difference of t at index idx, summed from the
    table's own values: sum over beta <= alpha of
    (-1)^|alpha - beta| prod C(alpha_i, beta_i) t(idx + beta)."""
    total = 0
    for beta in itertools.product(*(range(a + 1) for a in alpha)):
        sign = (-1) ** (sum(alpha) - sum(beta))
        weight = prod(comb(a, b) for a, b in zip(alpha, beta))
        total += sign * weight * t.value(tuple(map(add, idx, beta)))
    return total


@given(polynomials_with_a_dirty_corner())
@settings(max_examples=60, deadline=None)
def test_a_dirty_corner_leaves_the_tail_certificate_exact(case):
    terms, r, t = case
    # the cells from the corner on along the first axis are clean, so a tail
    # always vanishes there and the fit never fails
    lf = leading_form(t, r)
    expected = {
        alpha: terms.get(alpha, 0) * prod(map(factorial, alpha))
        for alpha in itertools.product(range(r + 1), repeat=t.arity)
        if sum(alpha) == r
    }
    assert lf.as_dict() == expected
    # every order-(r+1) difference is zero from the base point to its far corner
    base = tuple(map(sub, lf.base_point, t.origin))
    for alpha in itertools.product(range(r + 2), repeat=t.arity):
        if sum(alpha) != r + 1:
            continue
        tail = itertools.product(
            *(range(b, e - a) for b, e, a in zip(base, t.extents, alpha))
        )
        assert all(brute_difference(t, alpha, idx) == 0 for idx in tail)


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
    # the table of test_flat_transients_do_not_fool_the_tail_certificate
    t = LengthTable(("n",), (0,), (8,), (0, 0, 0, 0, 1, 3, 6, 10))
    with pytest.raises(DegreeExceedsError) as err:
        leading_form(t, 1)
    assert err.value.table is t and err.value.r == 1
