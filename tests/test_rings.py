"""Bigraded polynomial rings, monomials, and submodule generators."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from brmult.fields import QQ, PrimeField
from brmult.rings import (
    GradingError,
    Polynomial,
    RingSpec,
    SubmoduleSpec,
    _echelon_basis,
    _monic_monomial,
    monomial_basis,
    power_generators,
    product_generators,
)
from dense_oracle import (
    multiset_power_generators,
    pairwise_product_generators,
    rref_by_bidegree,
)

R2 = RingSpec(QQ, ("x", "y"), ("T",))
R22 = RingSpec(QQ, ("x", "y"), ("u", "v"))


def enumerate_monomials(ring, bidegree):
    """Brute-force enumeration: scan the full exponent box."""
    a, n = bidegree
    nb, nf = len(ring.base), len(ring.fiber)
    out = []
    for exps in product(range(max(a, n) + 1), repeat=nb + nf):
        if sum(exps[:nb]) == a and sum(exps[nb:]) == n:
            out.append(exps)
    return sorted(out, reverse=True)


def test_monomial_basis_matches_enumeration():
    for ring in (R2, R22):
        for a in range(5):
            for n in range(4):
                assert list(monomial_basis(ring, (a, n))) == enumerate_monomials(
                    ring, (a, n)
                )


def test_monomial_basis_sizes():
    # dim of the (a, n) piece of k[x,y;u,v] is (a+1)(n+1)
    for a in range(6):
        for n in range(6):
            assert len(monomial_basis(R22, (a, n))) == (a + 1) * (n + 1)
    # one fiber variable: dim (a, n) piece is a+1
    for a in range(6):
        assert len(monomial_basis(R2, (a, 3))) == a + 1


def test_negative_bidegree_is_empty():
    assert monomial_basis(R2, (-1, 0)) == ()
    assert monomial_basis(R2, (0, -2)) == ()


def poly_of(ring, pairs):
    return Polynomial.from_dict(ring, dict(pairs))


small_exps = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def bihomogeneous_polys(draw):
    a = draw(st.integers(min_value=0, max_value=3))
    n = draw(st.integers(min_value=0, max_value=3))
    basis = monomial_basis(R2, (a, n))
    chosen = draw(
        st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return poly_of(R2, zip(chosen, coeffs))


@given(bihomogeneous_polys(), bihomogeneous_polys())
@settings(max_examples=100, deadline=None)
def test_bidegrees_add_under_products(f, g):
    fa, fn = f.bidegree()
    ga, gn = g.bidegree()
    prod = f * g
    if prod.is_zero():
        return
    assert prod.bidegree() == (fa + ga, fn + gn)


def test_bidegree_is_stored_but_mixed_bidegrees_raise_every_time():
    x, y, T = R2.gens()
    f = x * T + y * y * T
    for _ in range(2):
        with pytest.raises(GradingError, match="term y"):
            f.bidegree()
    with pytest.raises(GradingError):
        R2.zero.bidegree()
    g = x * T + y * T
    assert g.bidegree() is g.bidegree() == (1, 1)


@given(bihomogeneous_polys(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_power_is_iterated_product(f, n):
    expected = R2.one
    for _ in range(n):
        expected = expected * f
    assert f**n == expected


def test_polynomial_str_samples():
    x, y, t = R2.gen("x"), R2.gen("y"), R2.gen("T")
    assert str(x * x * t) == "x^2*T"
    assert str(x * y - y * y) == "x*y - 1*y^2"
    assert str(R2.zero) == "0"
    assert str(R2.one * 3) == "3"


def test_mixed_fiber_degree_rejected_with_term_named():
    x, y, t = R2.gen("x"), R2.gen("y"), R2.gen("T")
    with pytest.raises(GradingError) as err:
        SubmoduleSpec(R2, 1, (x * t + y,))
    assert "y" in str(err.value)


def test_mixed_base_degree_rejected():
    x, y = R2.gen("x"), R2.gen("y")
    with pytest.raises(GradingError):
        SubmoduleSpec(R2, 0, (x + y * y,))


def test_declared_fiber_degree_must_match():
    x, t = R2.gen("x"), R2.gen("T")
    with pytest.raises(GradingError):
        SubmoduleSpec(R2, 0, (x * t,))


def test_zero_generators_are_dropped():
    x = R2.gen("x")
    h = SubmoduleSpec(R2, 0, (x, R2.zero, x))
    assert len(h.gens) == 2


def test_power_generators_counts():
    x, y = R2.gen("x"), R2.gen("y")
    m = SubmoduleSpec(R2, 0, (x, y))
    for p in range(6):
        hp = power_generators(m, p)
        # monomials of degree p in two variables, deduplicated
        assert len(hp.gens) == p + 1
        assert hp.fiber_degree == 0
    assert power_generators(m, 0).gens == (m.ring.one,)


def test_power_generators_dedup_scalar_multiples():
    x = R2.gen("x")
    h = SubmoduleSpec(R2, 0, (x, x + x))
    assert len(power_generators(h, 2).gens) == 1


def test_product_generators_match_power_of_product():
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x, y * y))
    h2 = SubmoduleSpec(R2, 0, (x * x, y))
    prod = product_generators(h1, h2)
    expected = sorted(
        set((g1 * g2).monic().terms for g1 in h1.gens for g2 in h2.gens),
        reverse=True,
    )
    assert [g.terms for g in prod.gens] == expected


def test_equal_monomial_generators_are_one_object():
    # walks keyed by generator tuples then compare them by identity
    x, y, T = R2.gens()
    h1 = SubmoduleSpec(R2, 1, (x * T, y * T))
    h2 = SubmoduleSpec(R2, 0, (x, y))
    assert power_generators(h1, 0).gens[0] is power_generators(h2, 0).gens[0]
    left = product_generators(h1, h2).gens
    t = SubmoduleSpec(R2, 1, (T,))
    right = product_generators(product_generators(h2, t), h2).gens
    assert len(left) == 3
    assert all(a is b for a, b in zip(left, right, strict=True))


@given(st.integers(0, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_specs_built_from_exponents_equal_specs_built_from_polynomials(d, data):
    # H^1 and the products with the unit are built from exponent tuples;
    # they must compare and hash as the spec of the same monic
    # Polynomials in the same order, and read the shared monomials
    basis = [m for a in range(3) for m in monomial_basis(R22, (a, d))]
    monos = data.draw(st.lists(st.sampled_from(basis), max_size=6))
    coeffs = data.draw(
        st.lists(st.integers(1, 3), min_size=len(monos), max_size=len(monos))
    )
    h = SubmoduleSpec(R22, d, tuple(map(R22.monomial, monos, coeffs)))
    expected = sorted(set(monos), reverse=True)
    fresh = SubmoduleSpec(R22, d, tuple(map(R22.monomial, expected)))
    unit = power_generators(h, 0)
    for spec in (
        power_generators(h, 1),
        product_generators(h, unit),
        product_generators(unit, h),
    ):
        assert spec == fresh and fresh == spec
        assert hash(spec) == hash(fresh)
        shared = [_monic_monomial(R22, m) for m in expected]
        assert all(a is b for a, b in zip(spec.gens, shared, strict=True))
    if expected:
        # a coefficient other than 1 keeps a spec unequal, as does another order
        scaled = SubmoduleSpec(R22, d, (R22.monomial(expected[0], 2),) + fresh.gens[1:])
        assert scaled != fresh and fresh != scaled
        assert scaled == SubmoduleSpec(R22, d, scaled.gens)
    if len(expected) >= 2:
        assert SubmoduleSpec(R22, d, fresh.gens[::-1]) != fresh


def test_product_fiber_degrees_add():
    xu = R22.gen("x") * R22.gen("u")
    yv = R22.gen("y") * R22.gen("v")
    h = SubmoduleSpec(R22, 1, (xu, yv))
    assert product_generators(h, h).fiber_degree == 2
    assert power_generators(h, 3).fiber_degree == 3


@st.composite
def submodules(draw, ring, monomial):
    """H with 2-4 generators of one fiber degree and base degrees 1 or 2.

    Coefficients lie in 1..4, so no term vanishes over F_5 and the
    non-monomial generators stay non-monomial.
    """
    d = draw(st.integers(0, 1))
    terms = 1 if monomial else 3
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        basis = monomial_basis(ring, (draw(st.integers(1, 2)), d))
        monos = draw(
            st.lists(
                st.sampled_from(basis),
                min_size=min(terms, 2),
                max_size=terms,
                unique=True,
            )
        )
        coeffs = draw(
            st.lists(st.integers(1, 4), min_size=len(monos), max_size=len(monos))
        )
        gens.append(Polynomial.from_dict(ring, dict(zip(monos, coeffs))))
    return SubmoduleSpec(ring, d, tuple(gens))


SPAN_RINGS = (R22, RingSpec(PrimeField(5), ("x", "y"), ("u", "v")))


@given(st.sampled_from(SPAN_RINGS), st.integers(0, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_powers_and_products_span_what_the_multisets_span(ring, p, data):
    h1 = data.draw(submodules(ring, monomial=False))
    h2 = data.draw(submodules(ring, monomial=False))
    hp = power_generators(h1, p)
    assert hp.fiber_degree == p * h1.fiber_degree
    assert rref_by_bidegree(ring, hp.gens) == rref_by_bidegree(
        ring, multiset_power_generators(h1, p)
    )
    product = product_generators(h1, h2)
    assert rref_by_bidegree(ring, product.gens) == (
        rref_by_bidegree(ring, pairwise_product_generators(h1, h2))
    )
    # Each bidegree group is the canonical basis of its span, so building
    # H^p from H's reduced basis H^1 gives the tuple H's raw generators give.
    for spec in (hp, product, power_generators(h1, 1)):
        assert_reduced_by_bidegree(ring, spec.gens)
    if p >= 1:
        assert hp == product_generators(power_generators(h1, p - 1), h1)


def assert_reduced_by_bidegree(ring, gens):
    """Each bidegree group of ``gens`` is a fixed point of ``_echelon_basis``,
    with monic rows in strictly descending order of leading monomial."""
    groups = {}
    for g in gens:
        groups.setdefault(g.bidegree(), []).append(g)
    for group in map(tuple, groups.values()):
        assert _echelon_basis(ring, group) == group
        assert all(g.terms[0][1] == ring.field.one for g in group)
        leads = [g.terms[0][0] for g in group]
        assert leads == sorted(set(leads), reverse=True)


@given(st.sampled_from(SPAN_RINGS), st.integers(0, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_monomial_powers_and_products_keep_the_multiset_generators(ring, p, data):
    h1 = data.draw(submodules(ring, monomial=True))
    h2 = data.draw(submodules(ring, monomial=True))
    assert power_generators(h1, p).gens == multiset_power_generators(h1, p)
    assert product_generators(h1, h2).gens == pairwise_product_generators(h1, h2)


def test_each_power_multiplies_each_generator_pair_once(monkeypatch):
    # H spans the whole (1, 1) piece, so its reduced basis H^1 is the four
    # monomials, and H^p = H^(p-1)*H^1 is a product of monomial factors for
    # p >= 2: no polynomial products at all. Multiplying by H's raw
    # generators would take |gens H^(p-1)| * 4 = 4p^2 products.
    ring = RingSpec(PrimeField(11), ("x", "y"), ("u", "v"))
    x, y, u, v = ring.gens()
    lines = (x + y * 2, x * 3 - y), (u + v, u - v * 2)
    h = SubmoduleSpec(ring, 1, tuple(a * b for a in lines[0] for b in lines[1]))
    calls = []
    multiply = Polynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    for p in range(1, 5):
        previous = power_generators(h, p - 1)
        calls.clear()
        hp = power_generators(h, p)
        assert len(calls) == (len(previous.gens) * len(h.gens) if p == 1 else 0)
        # H^p fills its (p, p) piece, so its echelon basis is monomial
        assert hp.gens == tuple(ring.monomial(m) for m in monomial_basis(ring, (p, p)))


def test_ring_rejects_bad_names():
    with pytest.raises(GradingError):
        RingSpec(QQ, ("x", "x"), ("T",))
    with pytest.raises(GradingError):
        RingSpec(QQ, (), ())
