"""Mixed filtration levels, inclusion checks, and factor telescoping."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import brmult.cli as cli
import brmult.filtration as filtration
from brmult.fields import QQ
from brmult.filtration import (
    InclusionWitness,
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
from brmult.rings import (
    RingSpec,
    SubmoduleSpec,
    _dedup_monic,
    power_generators,
    product_generators,
)

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
    # level nu collects x^i y^j with i <= p, j <= q, i + j >= p + q - nu
    level = mixed_level(h1, h2, 1, 1, 1)
    assert sorted(str(g) for g in level) == ["x", "x*y", "y"]
    top = mixed_level(h1, h2, 1, 1, 0)
    assert [str(g) for g in top] == ["x*y"]
    full = mixed_level(h1, h2, 1, 1, 2)
    assert any(str(g) == "1" for g in full)


def test_monomial_levels_are_the_products_generators():
    # a level of monomial products is the union of their exponent tuples;
    # it must be the tuple their generators give, object for object
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x, y * y))
    h2 = SubmoduleSpec(R2, 0, (x * x * 3, y))
    for p, q in ((1, 2), (2, 2)):
        for nu in range(p + q + 1):
            products = [
                product_generators(power_generators(h1, i), power_generators(h2, j))
                for i, j in itertools.product(range(p + 1), range(q + 1))
                if i + j >= p + q - nu
            ]
            expected = _dedup_monic(g for h in products for g in h.gens)
            level = mixed_level(h1, h2, p, q, nu)
            assert all(a is b for a, b in zip(level, expected, strict=True))


def test_mixed_level_contains_unit_at_top():
    m = max_ideal(R2)
    for p in range(3):
        for q in range(3):
            lvl = mixed_level(m, m, p, q, p + q)
            assert any(g.monic() == R2.one for g in lvl)


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
            return (h1.ring.one,)
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
    # a monomial generator, as a polynomial or as its exponent tuple,
    # against a span of monomials goes by divisibility
    pres = free_module(R2)
    exponents = [(1, 0, 0), (0, 2, 0), (1, 1, 1), (0, 0, 1), (2, 0, 1), (0, 0, 0)]
    monos = [R2.monomial(e) for e in exponents]
    candidates = [
        R2.monomial((a, b, c)) for a in range(3) for b in range(3) for c in range(2)
    ]
    for k in range(4):
        for gens in itertools.combinations(monos, k):
            for g in candidates:
                deg = g.bidegree()
                by_rank = span_dim(pres, deg, gens + (g,)) == span_dim(
                    pres, deg, gens
                )
                for item in (g, g.terms[0][0]):
                    found = filtration._first_escape("a", 1, pres, (item,), gens, {})
                    assert found.passed == by_rank
                    if not by_rank:
                        assert (found.generator, found.bidegree) == (str(g), deg)


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
        bottom = power_generators(h, p).gens
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
        direct = graded_slice_length(pres, n, None, deep.gens)
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
    assert len(calls) == len(set(calls)) == 885

    calls.clear()
    monkeypatch.setattr(
        cli,
        "check_filtration_inclusions",
        lambda h1, h2, p, q, memo: check_filtration_inclusions(
            h1, h2, p, q, _Forgetful()
        ),
    )
    assert cli._inclusion_report(inst, 2) == memoized
    assert len(calls) == 1026


def test_nonmonomial_inclusion_report_makes_each_span_dim_once(monkeypatch):
    # the memo keeps each span's dimension by bidegree as well, so of the
    # 1,770 span_dim calls the report makes without it only the 954
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
    assert len(calls) == len(set(calls)) == 954


def _rank_inclusions(h1, h2, p, q):
    """``check_filtration_inclusions`` with every containment decided by
    the rank test on products formed by polynomial multiplication."""
    pres = free_module(h1.ring)
    level = filtration.mixed_level  # looked up here, so sabotage shows
    h1h2 = product_generators(h1, h2).gens

    def first_escape(part, nu, gens, span):
        for g in gens:
            deg = g.bidegree()
            if span_dim(pres, deg, span + (g,)) != span_dim(pres, deg, span):
                return InclusionWitness(part, nu, False, str(g), deg)
        return InclusionWitness(part, nu, True)

    out = []
    for nu in range(1, p + q + 1):
        level_nu = level(h1, h2, p, q, nu)
        products = _dedup_monic(a * b for a in h1h2 for b in level_nu)
        out.append(first_escape("a", nu, products, level(h1, h2, p, q, nu - 1)))
        if p >= 1 and q >= 1:
            target = level(h1, h2, p - 1, q - 1, nu - 1)
            out.append(first_escape("b", nu, level_nu, target))
    return out


base_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def monomial_ideals(draw):
    d = draw(st.integers(0, 1))
    exps = draw(st.lists(base_exponents, min_size=1, max_size=3))
    return SubmoduleSpec(R2, d, tuple(R2.monomial((a, b, d)) for a, b in exps))


@st.composite
def sabotaged_levels(draw):
    """A level index and the generators that replace that level: monomials
    (the unit among them) and at times a binomial."""
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    gens = [R2.monomial(e) for e in draw(st.lists(exps, min_size=1, max_size=3))]
    if draw(st.booleans()):
        x, y, T = R2.gen("x"), R2.gen("y"), R2.gen("T")
        gens.append(draw(st.sampled_from((x + y, x * T + y * T, x * x + x * y))))
    return draw(st.integers(0, 3)), tuple(gens)


@given(
    monomial_ideals(),
    monomial_ideals(),
    st.integers(0, 2),
    st.integers(0, 2),
    st.none() | sabotaged_levels(),
)
@settings(max_examples=100, deadline=None)
def test_inclusions_by_divisibility_match_the_rank_test(h1, h2, p, q, sabotage):
    # the witnesses, the first escaping generator's string and bidegree
    # included, equal those of deciding every containment by rank; a
    # sabotaged level makes some tests fail
    with pytest.MonkeyPatch.context() as patch:
        if sabotage is not None:
            real = filtration.mixed_level
            bad_nu, bad_gens = sabotage

            def sabotaged(h1, h2, p, q, nu):
                return bad_gens if nu == bad_nu else real(h1, h2, p, q, nu)

            patch.setattr(filtration, "mixed_level", sabotaged)
        expected = _rank_inclusions(h1, h2, p, q)
        assert check_filtration_inclusions(h1, h2, p, q) == expected
