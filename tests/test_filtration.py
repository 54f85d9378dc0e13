"""Mixed filtration levels, inclusion checks, and factor telescoping."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import brmult.cli as cli
import brmult.filtration as filtration
from brmult.fields import QQ
from brmult.filtration import (
    assoc_graded_piece_dims,
    check_filtration_inclusions,
    filtration_factor_lengths,
    mixed_factor_lengths,
    mixed_level,
)
from brmult.modules import (
    FreeModuleSpec,
    ModulePresentation,
    graded_slice_length,
    span_dim,
)
from brmult.rings import RingSpec, SubmoduleSpec, power_generators, product_generators
from dense_oracle import as_span, pairwise_product_generators

INSTANCES = Path(__file__).resolve().parents[1] / "demos" / "instances"
R2 = RingSpec(QQ, ("x", "y"), ("T",))
BASE = RingSpec(QQ, ("x", "y"), ())


def free_module(ring):
    return ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))


def max_ideal(ring):
    return SubmoduleSpec(ring, 0, (ring.gen("x"), ring.gen("y")))


def test_mixed_level_enumeration():
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x,))
    h2 = SubmoduleSpec(R2, 0, (y,))
    # level nu sums x^i y^j with i <= p, j <= q, i + j >= p + q - nu
    level = mixed_level(h1, h2, 1, 1, 1)
    assert sorted(str(g) for h in level for g in h.gens) == ["x", "x*y", "y"]
    top = mixed_level(h1, h2, 1, 1, 0)
    assert [str(g) for h in top for g in h.gens] == ["x*y"]
    full = mixed_level(h1, h2, 1, 1, 2)
    assert any(str(g) == "1" for h in full for g in h.gens)


def _products(h1, h2, p, q, nu):
    """The products H1^i H2^j that level nu of (p, q) sums, one per (i, j)."""
    return [
        product_generators(power_generators(h1, i), power_generators(h2, j))
        for i, j in itertools.product(range(p + 1), range(q + 1))
        if i + j >= p + q - nu
    ]


def test_levels_are_their_distinct_products():
    # a level is the span of the products it sums, each once and in order:
    # H1 = H2 = m makes every H1^i H2^j with one i + j the same m^(i+j)
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x, y * y))
    h2 = SubmoduleSpec(R2, 0, (x * x * 3, y))
    m = max_ideal(R2)
    for p, q in ((1, 2), (2, 2)):
        for nu in range(p + q + 1):
            products = _products(h1, h2, p, q, nu)
            assert mixed_level(h1, h2, p, q, nu) == tuple(dict.fromkeys(products))
            level = mixed_level(m, m, p, q, nu)
            assert level == tuple(dict.fromkeys(_products(m, m, p, q, nu)))
            assert len(level) == min(nu, p + q) + 1


def test_mixed_level_contains_unit_at_top():
    m = max_ideal(R2)
    for p in range(3):
        for q in range(3):
            lvl = mixed_level(m, m, p, q, p + q)
            assert any(g.monic() == R2.one for h in lvl for g in h.gens)


def test_inclusions_pass_for_honest_levels():
    m = max_ideal(R2)
    results = check_filtration_inclusions(m, m, 2, 2)
    assert len(results) == 8  # parts (a) and (b) for nu = 1..4
    assert all(w.passed for w in results)


def test_inclusions_pass_for_asymmetric_pair():
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x, y * y))
    h2 = SubmoduleSpec(R2, 0, (x * x, y))
    results = check_filtration_inclusions(h1, h2, 3, 2)
    assert all(w.passed for w in results)


def test_inclusions_catch_a_broken_level_rule(monkeypatch):
    # sabotage one level: blow level 1 up to the unit ideal while level 0
    # stays honest, so products out of level 1 escape level 0
    real = filtration.mixed_level

    def inflated(h1, h2, p, q, nu):
        if nu == 1:
            return (SubmoduleSpec(h1.ring, 0, (h1.ring.one,)),)
        return real(h1, h2, p, q, nu)

    monkeypatch.setattr(filtration, "mixed_level", inflated)
    m = max_ideal(R2)
    results = check_filtration_inclusions(m, m, 2, 2)
    failed = [w for w in results if not w.passed]
    assert failed
    w = failed[0]
    assert w.generator is not None
    assert w.bidegree is not None


def test_monomial_inclusions_by_divisibility_match_the_rank_test():
    # a monomial generator against a span of monomials goes by
    # divisibility, whether its part is monomial or holds a binomial too;
    # the binomial goes by rank
    pres = free_module(R2)
    exponents = [(1, 0, 0), (0, 2, 0), (1, 1, 1), (0, 0, 1), (2, 0, 1), (0, 0, 0)]
    monos = [R2.monomial(e) for e in exponents]
    candidates = [
        R2.monomial((a, b, c)) for a in range(3) for b in range(3) for c in range(2)
    ]

    def escapes(span, g):
        deg = g.bidegree()
        return span_dim(pres, deg, span + as_span([g])) != span_dim(pres, deg, span)

    for k in range(4):
        for gens in itertools.combinations(monos, k):
            span = as_span(gens)
            for g in candidates:
                partners = [h for h in candidates if h.bidegree() == g.bidegree()]
                for part in [(g,)] + [(g, g + h) for h in partners if h != g][:1]:
                    parts = as_span(part)
                    found = filtration._first_escape("a", 1, pres, parts, span, {})
                    escaping = [h for h in part if escapes(span, h)]
                    assert found.passed == (not escaping)
                    if escaping:
                        witness = (str(escaping[0]), escaping[0].bidegree())
                        assert (found.generator, found.bidegree) == witness


def test_assoc_graded_dims_for_maximal_ideal():
    # gr of (x,y) on k[x,y]: piece i has dimension i + 1
    pres = free_module(BASE)
    m = max_ideal(BASE)
    modulus = SubmoduleSpec(
        BASE,
        0,
        tuple(BASE.monomial(mo) for mo in ((3, 0), (2, 1), (1, 2), (0, 3))),
    )
    for i in range(3):
        res = assoc_graded_piece_dims(m, pres, modulus, i)
        assert res.total == i + 1


def test_factor_lengths_telescope_to_direct_quotient():
    # Sigma_nu len(H^nu M_{d(p-nu)+n} / H^(nu+1) M_...) telescopes to
    # len(M_{dp+n} / H^(p+1) M_{n-d})
    ring = RingSpec(QQ, ("x", "y"), ("u", "v"))
    pres = free_module(ring)
    x, y, u, v = (ring.gen(s) for s in "xyuv")
    h = SubmoduleSpec(ring, 1, (x * u, x * v, y * u, y * v))
    for p, n in ((1, 0), (2, 1), (3, 2)):
        factors = filtration_factor_lengths(pres, h, p - 1, n + 1)
        total = sum(f.total for f in factors)
        top_fiber = 1 * (p - 1) + (n + 1)
        bottom = (power_generators(h, p),)
        direct = graded_slice_length(pres, top_fiber, None, bottom)
        assert total == direct.total


def test_factor_lengths_known_values():
    # the same instance has lambda(p, n) = (p + n + 1) p (p + 1) / 2
    ring = RingSpec(QQ, ("x", "y"), ("u", "v"))
    pres = free_module(ring)
    x, y, u, v = (ring.gen(s) for s in "xyuv")
    h = SubmoduleSpec(ring, 1, (x * u, x * v, y * u, y * v))
    for p, n, expected in ((1, 0, 2), (2, 1, 12), (3, 2, 36)):
        factors = filtration_factor_lengths(pres, h, p - 1, n + 1)
        assert sum(f.total for f in factors) == expected


def test_mixed_factor_lengths_telescope():
    pres = free_module(R2)
    m = max_ideal(R2)
    for p, q, n in ((0, 0, 0), (1, 1, 0), (2, 1, 0)):
        factors = mixed_factor_lengths(pres, m, m, p, q, n)
        deep = SubmoduleSpec(
            R2,
            0,
            tuple(
                g1 * g2
                for g1 in power_generators(m, p + 1).gens
                for g2 in power_generators(m, q + 1).gens
            ),
        )
        direct = graded_slice_length(pres, n, None, (deep,))
        assert sum(f.total for f in factors) == direct.total


def test_mixed_factor_count():
    pres = free_module(R2)
    m = max_ideal(R2)
    factors = mixed_factor_lengths(pres, m, m, 2, 1, 0)
    assert len(factors) == 4  # nu = 0..p+q


class _Forgetful(dict):
    """An inclusion memo that keeps nothing, so every test is made."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("name", ["max_ideal_pair.txt", "newton_pair.txt"])
def test_monomial_inclusion_report_makes_no_rank_test(monkeypatch, name):
    # every level of a monomial pair is monomial, so verify inclusions
    # decides each containment by divisibility, with no elimination
    inst = cli.parse_instance((INSTANCES / name).read_text())
    calls = []
    real = filtration.span_dim

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(filtration, "span_dim", counting)
    assert cli._inclusion_report(inst, 3).passed
    assert calls == []


def test_nonmonomial_inclusion_report_makes_each_rank_test_once(monkeypatch):
    # H of minors_block.txt keeps polynomial generators in its powers, so
    # the pair (H, (x, y)) goes through the rank test. With one memo over
    # (p, q) <= 2, each (level, generator) test that recurs is made once.
    text = (INSTANCES / "minors_block.txt").read_text()
    inst = cli.parse_instance(text + "submodule M fiberdeg 0 gens x, y\n")
    calls = []
    real = filtration._contains

    def counting(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(filtration, "_contains", counting)
    memoized = cli._inclusion_report(inst, 2)
    assert memoized.passed
    assert len(calls) == len(set(calls)) == 741

    calls.clear()
    monkeypatch.setattr(
        cli,
        "check_filtration_inclusions",
        lambda h1, h2, p, q, memo: check_filtration_inclusions(
            h1, h2, p, q, _Forgetful()
        ),
    )
    assert cli._inclusion_report(inst, 2) == memoized
    assert len(calls) == 886


def test_nonmonomial_inclusion_report_makes_each_span_dim_once(monkeypatch):
    # the memo keeps each span's dimension by bidegree as well, so of the
    # 1,482 span_dim calls the report makes without it only the 806
    # distinct ones remain
    text = (INSTANCES / "minors_block.txt").read_text()
    inst = cli.parse_instance(text + "submodule M fiberdeg 0 gens x, y\n")
    calls = []
    real = filtration.span_dim

    def counting(pres, deg, items):
        calls.append((deg, items))
        return real(pres, deg, items)

    monkeypatch.setattr(filtration, "span_dim", counting)
    assert cli._inclusion_report(inst, 2).passed
    assert len(calls) == len(set(calls)) == 806


def _rank_inclusions(h1, h2, p, q):
    """The (part, nu, bidegrees where a generator escapes, tested
    generators, target generators) of each test
    ``check_filtration_inclusions`` makes at (p, q), with products formed
    by multiplying every pair of generators and every containment decided
    by the rank test."""
    pres = free_module(h1.ring)

    def level(p, q, nu):  # looked up here, so sabotage shows
        return [g for h in filtration.mixed_level(h1, h2, p, q, nu) for g in h.gens]

    def escaping(part, nu, gens, span):
        bad = {g.bidegree() for g in dict.fromkeys(gens) if _escapes(pres, g, span)}
        return part, nu, bad, gens, span

    h1h2 = pairwise_product_generators(h1, h2)
    out = []
    for nu in range(1, p + q + 1):
        level_nu = level(p, q, nu)
        products = [a * b for a in h1h2 for b in level_nu]
        out.append(escaping("a", nu, products, level(p, q, nu - 1)))
        if p >= 1 and q >= 1:
            out.append(escaping("b", nu, level_nu, level(p - 1, q - 1, nu - 1)))
    return out


def _escapes(pres, g, gens) -> bool:
    """Does g raise the rank of the polynomials ``gens`` at its bidegree?"""
    deg, span = g.bidegree(), as_span(gens)
    return span_dim(pres, deg, span + as_span([g])) != span_dim(pres, deg, span)


def _tested_generators(h1, h2, p, q) -> dict:
    """{str(g): g} over every generator ``check_filtration_inclusions``
    may name at (p, q): those of the levels and of their products with
    H1 H2."""
    h1h2 = product_generators(h1, h2)
    named = {}
    for nu in range(p + q + 1):
        for h in filtration.mixed_level(h1, h2, p, q, nu):
            for g in h.gens + product_generators(h1h2, h).gens:
                named[str(g)] = g
    return named


RINGS = (R2, BASE)


def _binomials(ring) -> tuple:
    x, y = ring.gen("x"), ring.gen("y")
    if ring.fiber:
        T = ring.gen("T")
        return (x + y, x * T + y * T, x * x + x * y)
    return (x + y, x * x + x * y, x * x + y * y)


@st.composite
def ideals(draw, ring):
    """A submodule of monomials, now and then with a binomial of its
    fiber degree among its generators."""
    d = draw(st.integers(0, len(ring.fiber)))
    base = st.tuples(st.integers(0, 2), st.integers(0, 2))
    exps = draw(st.lists(base, min_size=1, max_size=3))
    fiber = (d,) * len(ring.fiber)
    gens = [ring.monomial(e + fiber) for e in exps]
    binomials = [g for g in _binomials(ring) if g.fiber_degree() == d]
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(binomials)))
    return SubmoduleSpec(ring, d, tuple(gens))


@st.composite
def sabotaged_levels(draw, ring):
    """A level index and the span that replaces that level: monomial parts
    (the unit among their generators now and then) and at times a binomial
    part."""
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    gens = [ring.monomial(e) for e in draw(st.lists(exps, min_size=1, max_size=3))]
    if draw(st.booleans()):
        gens.append(ring.one)
    span = as_span(gens)
    if draw(st.booleans()):
        span += as_span([draw(st.sampled_from(_binomials(ring)))])
    return draw(st.integers(0, 3)), span


@st.composite
def inclusion_cases(draw):
    """H1, H2, p, q and a sabotaged level or None, over R2 or over the
    two-variable ring BASE, where an exponent tuple has a bidegree's
    shape."""
    ring = draw(st.sampled_from(RINGS))
    h1, h2 = draw(ideals(ring)), draw(ideals(ring))
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return h1, h2, p, q, draw(st.none() | sabotaged_levels(ring))


@given(inclusion_cases())
@settings(max_examples=100, deadline=None)
def test_inclusions_by_divisibility_match_the_rank_test(case):
    # every witness passes exactly when no multiplied-out generator escapes
    # by rank. A failed one names a generator that escapes by rank and lies
    # in the multiplied-out span; the check's generators are interreduced,
    # so they span the same pieces but need not escape first where the
    # multiplied-out ones do. A sabotaged level makes some tests fail
    h1, h2, p, q, sabotage = case
    pres = free_module(h1.ring)
    with pytest.MonkeyPatch.context() as patch:
        if sabotage is not None:
            real = filtration.mixed_level
            bad_nu, bad_gens = sabotage

            def sabotaged(h1, h2, p, q, nu):
                return bad_gens if nu == bad_nu else real(h1, h2, p, q, nu)

            patch.setattr(filtration, "mixed_level", sabotaged)
        expected = _rank_inclusions(h1, h2, p, q)
        found = check_filtration_inclusions(h1, h2, p, q)
        named = _tested_generators(h1, h2, p, q)
    outcomes = [(w.part, w.nu, w.passed) for w in found]
    assert outcomes == [(part, nu, not bad) for part, nu, bad, _, _ in expected]
    for w, (_, _, bad, gens, span) in zip(found, expected):
        if not w.passed:
            g = named[w.generator]
            assert g.bidegree() == w.bidegree and w.bidegree in bad
            assert _escapes(pres, g, span) and not _escapes(pres, g, gens)


def test_inclusions_on_a_two_variable_ring_share_one_memo():
    # over k[x, y] an exponent tuple has a bidegree's shape; the rank
    # test's memo must keep a generator's outcome apart from a span's
    # dimension, or a monomial generator tested after its bidegree's
    # dimension was stored reads that dimension as its outcome
    x, y = BASE.gen("x"), BASE.gen("y")
    h1, h2 = SubmoduleSpec(BASE, 0, (x + y,)), max_ideal(BASE)
    memo = {}
    for p in range(3):
        for q in range(3):
            found = check_filtration_inclusions(h1, h2, p, q, memo)
            assert found == check_filtration_inclusions(h1, h2, p, q)
            assert all(w.passed for w in found)
