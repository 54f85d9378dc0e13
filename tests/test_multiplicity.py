"""Length functions and multiplicity pipelines on frozen instances.

Every expected number here is either a closed-form monomial count or an
independently computed oracle value; nothing is copied back from the code
under test.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import brmult.linalg as linalg
import brmult.polyfit as polyfit
from brmult.cli import parse_instance, run
from brmult.fields import QQ, PrimeField, Value
from brmult.modules import (
    CutoffExceeded,
    CutoffTooSmall,
    FreeModuleSpec,
    ModulePresentation,
)
from brmult.multiplicity import (
    KInstabilityError,
    LocalQuery,
    ProductQuery,
    SupportConditionError,
    _generators,
    br_multiplicities,
    generalized_samuel_report,
    lambda_local,
    lambda_product,
    pure_table,
    resolve_r,
)
from brmult.polyfit import DegreeExceedsError, LengthTable, StabilizationError
from brmult.rings import (
    GradingError,
    Polynomial,
    RingSpec,
    SubmoduleSpec,
    _echelon_basis,
    power_generators,
    product_generators,
)
from brmult.verify import check_mixed_operator_formula, check_symmetry
from corpus import curated_local, curated_mixed, curated_pure, parameter_matrices
from dense_oracle import (
    Matrix,
    dense_slice_dims,
    multiset_power_generators,
    rank,
    samuel_function,
    slice_generators,
)
from freeze_golden import clear_caches

INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"
R2 = RingSpec(QQ, ("x", "y"), ("T",))
R22 = RingSpec(QQ, ("x", "y"), ("u", "v"))
R3 = RingSpec(QQ, ("x", "y", "z"), ("u",))
BASE = RingSpec(QQ, ("x", "y"), ())
ROWS = RingSpec(PrimeField(32003), ("x", "y"), ("T",))


def free_module(ring):
    return ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))


def block_query(**kw):
    x, y, u, v = (R22.gen(s) for s in "xyuv")
    h = SubmoduleSpec(R22, 1, (x * u, x * v, y * u, y * v))
    return ProductQuery(free_module(R22), (h,), **kw)


def test_block_vs_max_fit_differences_each_table_once(monkeypatch):
    # r = 3 on the 6^3 grid: the leading form differences the table up to
    # order 4, one table per order alpha, which is 34 tables, and the degree
    # estimate reads the same tables
    calls = []
    difference = polyfit.finite_difference

    def counted(t, axis):
        calls.append(axis)
        return difference(t, axis)

    monkeypatch.setattr(polyfit, "finite_difference", counted)
    [inst] = [inst for inst in curated_mixed() if inst.name == "block-vs-max"]
    report = br_multiplicities(ProductQuery(inst.module, (inst.h1, inst.h2), grid=5))
    assert (report.r, report.enlarged) == (3, False)
    assert len(calls) == 34


def test_block_vs_max_walks_one_series_per_span(monkeypatch):
    # each of the 216 cells of the grid-5 query folds one series, and no
    # free one: krull_dimension reads the pole order off the numerators and
    # folds none (229 folds when it walked 13 fiber degrees)
    import brmult.modules as modules

    clear_caches()
    calls = []
    fold = modules._fold

    def counted(terms, fiber_deg, t):
        calls.append(fiber_deg)
        return fold(terms, fiber_deg, t)

    monkeypatch.setattr(modules, "_fold", counted)
    [inst] = [inst for inst in curated_mixed() if inst.name == "block-vs-max"]
    report = br_multiplicities(ProductQuery(inst.module, (inst.h1, inst.h2), grid=5))
    assert report.r == 3
    assert len(calls) == 216
    # one span plan per generator set and cap: the 36 sets H1^p H2^q, whose
    # cap is always p, and the free slice of krull_dimension
    assert modules._span_plan.cache_info().misses == 37


def test_block_vs_max_builds_no_product_polynomial(monkeypatch):
    # the powers and products of the grid-5 query are exponent tuples, so
    # it builds no Polynomial, and its cache keys hash no generator: when
    # each product built, validated and hashed its generator Polynomials,
    # the query made 861 of them (881 with the CLI's parse) and 4,536
    # Value.__hash__ calls. Each of the 36 rows, not each of the 216
    # cells, looks up its powers, product, lengths and span plan: 1,831
    # calls when every cell did, 391 when a row multiplied H1^p by H2^q,
    # and more now that it multiplies row q - 1 by H2 through the cache
    [inst] = [inst for inst in curated_mixed() if inst.name == "block-vs-max"]
    query = ProductQuery(inst.module, (inst.h1, inst.h2), grid=5)
    clear_caches()
    counts = {"polynomials": 0, "hashes": 0}
    build, value_hash = Polynomial.__init__, Value.__hash__

    def counted_build(self, *args):
        counts["polynomials"] += 1
        build(self, *args)

    def counted_hash(self):
        counts["hashes"] += 1
        return value_hash(self)

    monkeypatch.setattr(Polynomial, "__init__", counted_build)
    monkeypatch.setattr(Value, "__hash__", counted_hash)
    assert br_multiplicities(query).r == 3
    assert counts == {"polynomials": 0, "hashes": 515}


def test_block_vs_max_rows_multiply_by_one_factor(monkeypatch):
    # row (p, q) adds the exponents of H2 = (x, y) to those of row q - 1:
    # 2 (p + q)(p + 1) sums, and the powers H1^p add 4 p^2, 1,550 in all on
    # the grid-5 query. Multiplying H1^p by H2^q formed 2,159
    import brmult.rings as rings

    sums = []
    add = rings.add
    monkeypatch.setattr(rings, "add", lambda a, b: sums.append(a) or add(a, b))
    [inst] = [inst for inst in curated_mixed() if inst.name == "block-vs-max"]
    clear_caches()
    br_multiplicities(ProductQuery(inst.module, (inst.h1, inst.h2), grid=5))
    nvars = len(inst.module.ring.base + inst.module.ring.fiber)
    assert len(sums) == 1550 * nvars


def test_numerator_recursion_prunes_nothing(monkeypatch):
    # J : x_j^e and J + (x_j^e) come minimal from J's generators, so only
    # the span plans prune: 37 of them on the grid-5 block-vs-max query,
    # with 105 numerators, and 11 on the r = 5 block, with 299
    import brmult.modules as modules

    callers = []
    prune = modules._prune_dominated

    def counted(monos):
        callers.append(sys._getframe(1).f_code.co_name)
        return prune(monos)

    monkeypatch.setattr(modules, "_prune_dominated", counted)
    [inst] = [inst for inst in curated_mixed() if inst.name == "block-vs-max"]
    clear_caches()
    br_multiplicities(ProductQuery(inst.module, (inst.h1, inst.h2), grid=5))
    assert modules._hilbert_numerator.cache_info().misses == 105
    assert callers == ["_span_plan"] * 37
    clear_caches()
    callers.clear()
    assert run(["br", str(INSTANCES / "block_3x3.txt")])[0] == 0
    assert modules._hilbert_numerator.cache_info().misses == 299
    assert callers == ["_span_plan"] * 11


def count_walks(monkeypatch, *runs) -> list:
    """The (rows, cells) of product tables each of ``runs`` walks, from
    empty caches."""
    import brmult.multiplicity as multiplicity

    calls = []
    walk = multiplicity.generated_lengths

    def counted(pres, gens, ns, cutoff):
        calls.append(len(ns))
        return walk(pres, gens, ns, cutoff)

    monkeypatch.setattr(multiplicity, "generated_lengths", counted)
    counts = []
    for run in runs:
        clear_caches()
        calls.clear()
        run()
        counts.append((len(calls), sum(calls)))
    return counts


def pair_query(name):
    inst = parse_instance((INSTANCES / name).read_text())
    return ProductQuery(inst.module, (inst.submodule(0), inst.submodule(1)))


def test_symmetry_walks_no_product_twice(monkeypatch):
    # A row depends only on the generators of H1^p H2^q, which
    # product_generators makes canonical, so the (H2, H1) table walks
    # nothing new. The mixed table itself walks 25 of its 49 rows, 175 of
    # its 343 cells: (x^2, y^2)^p (x, y)^q has the generators of
    # (x, y)^(2p+q) for q >= 1.
    query = pair_query("squares_vs_max.txt")
    mixed, symmetry = count_walks(
        monkeypatch, lambda: br_multiplicities(query), lambda: check_symmetry(query)
    )
    assert mixed == symmetry == (25, 175)


def test_operator_check_walks_only_its_mixed_table(monkeypatch):
    # (H1 H2)^p has the generators of H1^p H2^p, so each row of the pure
    # table of the product is a row of the p = q diagonal of the mixed one
    query = pair_query("newton_pair.txt")
    mixed, operator = count_walks(
        monkeypatch,
        lambda: br_multiplicities(query),
        lambda: check_mixed_operator_formula(query),
    )
    assert mixed == operator == (49, 343)


def test_cleared_caches_leave_no_work_behind(monkeypatch):
    # clear_caches empties only the caches that have cache_clear, so a
    # product row or span plan cached another way would let the second
    # run walk, fold or prune less than the first
    import brmult.modules as modules
    from brmult.cli import run

    folds, prunes = [], []
    fold, prune = modules._fold, modules._prune_dominated
    monkeypatch.setattr(modules, "_fold", lambda *a: folds.append(a) or fold(*a))
    monkeypatch.setattr(
        modules, "_prune_dominated", lambda m: prunes.append(m) or prune(m)
    )
    runs = []

    def verify_all():
        folds.clear()
        prunes.clear()
        assert run(["verify", "all", str(INSTANCES / "newton_pair.txt")])[0] == 0
        runs.append((len(folds), len(prunes)))

    assert count_walks(monkeypatch, verify_all, verify_all) == [(49, 343)] * 2
    assert runs[0] == runs[1]
    assert min(runs[0]) > 0


@st.composite
def row_queries(draw):
    """A product query over F_32003[x,y;T] for a grid-2 ``pure_table``.

    M is F, or F over one relation of positive base degree, a monomial or
    a binomial. One or two submodules of fiber degree 0 or 1 have up to
    three generators x^i y^j T^d with i, j <= 2, now and then a binomial
    instead; lists without pure powers of x and y, whose quotients are
    infinite, come up as often as any. The cutoff is None, the default,
    or small enough to cut finite walks short.
    """
    x, y, t = ROWS.gens()
    monomial = st.builds(lambda i, j: x**i * y**j, st.integers(0, 2), st.integers(0, 2))
    binomial = st.builds(
        lambda a, b, c: x**a * y ** (2 - a) + c * x**b * y ** (2 - b),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(-2, 2),
    )
    term = st.one_of(monomial, binomial)
    relations = ()
    if draw(st.booleans()):
        rel = draw(term.filter(lambda g: not g.is_zero() and g.bidegree()[0] >= 1))
        relations = ((rel,),)
    module = ModulePresentation(FreeModuleSpec(ROWS, ((0, 0),)), relations)
    subs = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.integers(0, 1))
        gens = [g * t**d for g in draw(st.lists(term, min_size=1, max_size=3))]
        gens = tuple(g for g in gens if not g.is_zero()) or (t**d,)
        subs.append(SubmoduleSpec(ROWS, d, gens))
    cutoff = draw(st.one_of(st.none(), st.integers(0, 6)))
    return ProductQuery(module, tuple(subs), cutoff=cutoff)


@st.composite
def generator_pairs(draw):
    """Two submodules of k[x,y;T], k = Q or F_3, of fiber degree 0 or 1,
    with up to three generators x^i y^j T^d (i, j <= 2), and now and then
    binomials instead, whose products cancel more often over F_3."""
    ring = draw(st.sampled_from((R2, RingSpec(PrimeField(3), ("x", "y"), ("T",)))))
    x, y, t = ring.gens()
    monomial = st.builds(lambda i, j: x**i * y**j, st.integers(0, 2), st.integers(0, 2))
    binomial = st.builds(
        lambda a, b, c: x**a * y ** (2 - a) + c * x**b * y ** (2 - b),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(-2, 2),
    )
    term = st.one_of(monomial, binomial) if draw(st.booleans()) else monomial
    subs = []
    for _ in range(2):
        d = draw(st.integers(0, 1))
        gens = [g * t**d for g in draw(st.lists(term, min_size=1, max_size=3))]
        subs.append(SubmoduleSpec(ring, d, gens))
    return tuple(subs)


def _pieces(spec) -> dict:
    """The reduced echelon basis of each bidegree piece ``spec`` spans."""
    groups = {}
    for g in spec.gens:
        groups.setdefault(g.bidegree(), []).append(g)
    return {deg: _echelon_basis(spec.ring, tuple(gs)) for deg, gs in groups.items()}


@given(generator_pairs(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_rows_multiply_by_one_factor(subs, p, q):
    # row (p, q) multiplies row (p, q - 1) by H2: the same generators as
    # H1^p H2^q for monomial pairs, the same pieces for polynomial ones
    h1, h2 = subs
    clear_caches()
    ours = _generators(((h1, p), (h2, q)))
    whole = product_generators(power_generators(h1, p), power_generators(h2, q))
    assert ours.fiber_degree == whole.fiber_degree
    if h1._monomials is not None and h2._monomials is not None:
        assert ours == whole
    assert _pieces(ours) == _pieces(whole)


def expected_cell(pres, fiber, gens, cutoff):
    """A cell of a product table from dense per-degree dims and the stop
    rule, as (total, stop) or (error kind, fiber degree, cutoff). F is
    generated in base degree 0, so the first zero stops the walk. With no
    cutoff, a slice whose dims stay positive up to base degree 20 is taken
    to be infinite, and is cut off at 64: the finite slices of
    ``row_queries`` stop sooner."""
    dims = dense_slice_dims(pres, fiber, None, gens, 20 if cutoff is None else cutoff)
    for a, dim in enumerate(dims):
        if dim == 0:
            return sum(dims[: a + 1]), a
    if cutoff is None:
        return CutoffExceeded, fiber, 64
    reach = min((gb for _, _, gb in slice_generators(gens, fiber)), default=0)
    return (CutoffTooSmall if cutoff < reach else CutoffExceeded), fiber, cutoff


def expected_table(query, gmax):
    """The cells of ``pure_table(query, gmax)`` in table order, through the
    first failing one, from multiplied-out products and dense pieces."""
    for powers in itertools.product(range(gmax + 1), repeat=len(query.subs)):
        gens = [query.module.ring.one]
        for h, e in zip(query.subs, powers):
            gens = [g * f for g in gens for f in multiset_power_generators(h, e)]
        fiber = sum(h.fiber_degree * e for h, e in zip(query.subs, powers))
        for n in range(gmax + 1):
            cell = expected_cell(query.module, fiber + n, gens, query.cutoff)
            yield cell
            if isinstance(cell[0], type):
                return


@given(row_queries())
@settings(max_examples=40, deadline=None)
def test_rows_match_the_dense_per_cell_count(query):
    # every cell of every row, or the kind and fiber degree of the first
    # cell that fails
    expected = list(expected_table(query, 2))
    try:
        table, stops = pure_table(query, 2)
    except (CutoffExceeded, CutoffTooSmall) as err:
        assert (type(err), err.fiber_degree, err.cutoff) == expected[-1]
    else:
        assert list(zip(table.values, stops)) == expected


def test_lambda_pure_block_closed_form():
    q = block_query()
    # lambda(p, n) = (p + n + 1) p (p + 1) / 2 by monomial counting
    assert lambda_product(q, 2, 3) == 18
    assert lambda_product(q, 7, 7) == 420
    for p in range(4):
        for n in range(4):
            assert lambda_product(q, p, n) == (p + n + 1) * p * (p + 1) // 2


def test_lambda_pure_p_zero_is_zero():
    q = block_query()
    for n in range(6):
        assert lambda_product(q, 0, n) == 0


def test_lambda_pure_d_zero_max_ideal():
    m = SubmoduleSpec(R2, 0, (R2.gen("x"), R2.gen("y")))
    q = ProductQuery(free_module(R2), (m,))
    # length(A/m^p) = p(p+1)/2, independent of n
    for p in range(5):
        for n in range(3):
            assert lambda_product(q, p, n) == p * (p + 1) // 2


def test_br_multiplicities_block():
    report = br_multiplicities(block_query())
    assert report.r == 3
    assert report.r_source == "krull-1"
    assert report.leading.as_dict() == {
        (3, 0): 3,
        (2, 1): 1,
        (1, 2): 0,
        (0, 3): 0,
    }
    assert report.degree_estimate <= 3
    assert not report.enlarged


def test_br_multiplicities_square_of_max_ideal():
    x, y = R2.gen("x"), R2.gen("y")
    h = SubmoduleSpec(R2, 0, (x * x, x * y, y * y))
    q = ProductQuery(free_module(R2), (h,))
    report = br_multiplicities(q)
    assert report.r == 2
    # lambda(p, n) = 2 p^2 + p
    assert report.leading.as_dict() == {(2, 0): 4, (1, 1): 0, (0, 2): 0}


def test_degenerate_degree_gives_zero_leading_form():
    # M = k[x,y;T]/(x) with H = (xT, yT): lambda(p, n) = p, so asking for
    # r = 2 yields an identically zero leading form rather than an error
    x, y, t = R2.gen("x"), R2.gen("y"), R2.gen("T")
    killed = ModulePresentation(FreeModuleSpec(R2, ((0, 0),)), ((x,),))
    h = SubmoduleSpec(R2, 1, (x * t, y * t))
    q = ProductQuery(killed, (h,), r=2)
    report = br_multiplicities(q)
    assert report.r_source == "explicit"
    assert set(report.leading.as_dict().values()) == {0}
    assert report.degree_estimate == 1


def test_killed_axis_natural_r():
    x, y, t = R2.gen("x"), R2.gen("y"), R2.gen("T")
    killed = ModulePresentation(FreeModuleSpec(R2, ((0, 0),)), ((x,),))
    h = SubmoduleSpec(R2, 1, (x * t, y * t))
    for p in range(1, 5):
        assert lambda_product(ProductQuery(killed, (h,)), p, 2) == p
    report = br_multiplicities(ProductQuery(killed, (h,)))
    assert report.r == 1
    assert report.leading.as_dict() == {(1, 0): 1, (0, 1): 0}


def test_resolve_r_paths():
    assert resolve_r(free_module(R22), None) == (3, "krull-1")
    assert resolve_r(free_module(BASE), None) == (2, "krull")
    assert resolve_r(free_module(R2), 5) == (5, "explicit")


def test_empty_h_is_a_support_error():
    h = SubmoduleSpec(R2, 0, ())
    q = ProductQuery(free_module(R2), (h,))
    with pytest.raises(SupportConditionError):
        lambda_product(q, 1, 0)


def test_empty_h_on_the_zero_module_has_length_zero():
    # M = F/(1) is zero, so a generatorless H breaks no support condition
    zero = ModulePresentation(FreeModuleSpec(R2, ((0, 0),)), ((R2.one,),))
    q = ProductQuery(zero, (SubmoduleSpec(R2, 0, ()),))
    assert [lambda_product(q, p, n) for p in range(3) for n in range(3)] == [0] * 9


def test_empty_h_on_a_shifted_surviving_generator_is_a_support_error():
    # the (0, 0) generator is killed, but the one shifted to (1, 0) spans
    # M_(1, 0), so M is nonzero although its piece at (0, 0) is zero
    free = FreeModuleSpec(R2, ((0, 0), (1, 0)))
    m = ModulePresentation(free, ((R2.one, R2.zero),))
    q = ProductQuery(m, (SubmoduleSpec(R2, 0, ()),))
    with pytest.raises(SupportConditionError):
        lambda_product(q, 1, 0)


def test_query_grading_guards():
    m = SubmoduleSpec(R2, 0, (R2.gen("x"), R2.gen("y")))
    with pytest.raises(Exception):
        ProductQuery(free_module(R22), (m,))
    with pytest.raises(Exception):
        LocalQuery(free_module(R2), m)  # ring has a fiber variable


def test_product_query_takes_one_or_two_submodules_of_its_ring():
    m = SubmoduleSpec(R2, 0, (R2.gen("x"), R2.gen("y")))
    for subs in ((), (m, m, m)):
        with pytest.raises(ValueError, match="one or two submodules"):
            ProductQuery(free_module(R2), subs)
    other = SubmoduleSpec(R22, 1, (R22.gen("u"),))
    with pytest.raises(GradingError):
        ProductQuery(free_module(R2), (m, other))


def test_lambda_product_checks_its_indices():
    m = SubmoduleSpec(R2, 0, (R2.gen("x"), R2.gen("y")))
    pure = ProductQuery(free_module(R2), (m,))
    pair = ProductQuery(free_module(R2), (m, m))
    for query, point in ((pure, (1, 1, 1)), (pure, (1,)), (pair, (1, 1))):
        with pytest.raises(ValueError, match="indices, got"):
            lambda_product(query, *point)
    for query, point in ((pure, (-1, 0)), (pair, (0, -1, 0)), (pair, (0, 0, -1))):
        with pytest.raises(ValueError, match="nonnegative"):
            lambda_product(query, *point)


def test_lambda_mixed_max_ideal_pair():
    m = SubmoduleSpec(R2, 0, (R2.gen("x"), R2.gen("y")))
    q = ProductQuery(free_module(R2), (m, m))
    # length(A/m^(p+q)) = (p+q)(p+q+1)/2
    for p in range(4):
        for qq in range(4):
            want = (p + qq) * (p + qq + 1) // 2
            assert lambda_product(q, p, qq, 1) == want


def test_mixed_br_max_ideal_pair():
    m = SubmoduleSpec(R2, 0, (R2.gen("x"), R2.gen("y")))
    report = br_multiplicities(ProductQuery(free_module(R2), (m, m)))
    assert report.r == 2
    lead = report.leading.as_dict()
    assert lead[(2, 0, 0)] == 1
    assert lead[(1, 1, 0)] == 1
    assert lead[(0, 2, 0)] == 1
    assert all(e == 0 for alpha, e in lead.items() if alpha[2] > 0)


def test_mixed_br_newton_pair():
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x, y * y))
    h2 = SubmoduleSpec(R2, 0, (x * x, y))
    report = br_multiplicities(ProductQuery(free_module(R2), (h1, h2)))
    lead = report.leading.as_dict()
    assert lead[(2, 0, 0)] == 2
    assert lead[(1, 1, 0)] == 1
    assert lead[(0, 2, 0)] == 2


def test_mixed_p_zero_edge_reduces_to_pure():
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x, y * y))
    h2 = SubmoduleSpec(R2, 0, (x * x, y))
    mq = ProductQuery(free_module(R2), (h1, h2))
    pq = ProductQuery(free_module(R2), (h2,))
    for qq in range(4):
        for n in range(3):
            assert lambda_product(mq, 0, qq, n) == lambda_product(pq, qq, n)


@pytest.mark.parametrize("inst", curated_mixed(), ids=lambda inst: inst.name)
def test_pure_lengths_are_the_q_zero_face_of_the_mixed_ones(inst):
    mq = ProductQuery(inst.module, (inst.h1, inst.h2))
    pq = ProductQuery(inst.module, (inst.h1,))
    for p in range(4):
        for n in range(3):
            assert lambda_product(mq, p, 0, n) == lambda_product(pq, p, n)


def local_query(gens, **kw):
    ideal = SubmoduleSpec(BASE, 0, tuple(gens))
    return LocalQuery(free_module(BASE), ideal, **kw)


def test_lambda_local_max_ideal():
    x, y = BASE.gen("x"), BASE.gen("y")
    q = local_query((x, y))
    for k in (2, 4):
        for n in range(5):
            assert lambda_local(q, n, k=k) == (n + 1) * (n + 2) // 2


def test_lambda_local_one_axis():
    x = BASE.gen("x")
    q = local_query((x,))
    # with k = 2 each factor is spanned by x^i, x^i y, x^i y^2
    for n in range(5):
        assert lambda_local(q, n, k=2) == 3 * (n + 1)


def test_lambda_local_unit_ideal():
    q = local_query((BASE.one,))
    assert lambda_local(q, 3, k=2) == 0


def samuel_e(gens, **kw):
    return generalized_samuel_report(local_query(gens, **kw)).e


def test_generalized_samuel_suite():
    x, y = BASE.gen("x"), BASE.gen("y")
    assert samuel_e((x, y)) == 1
    assert samuel_e((x,)) == 0
    assert samuel_e((x * x, y * y)) == 4


def test_generalized_samuel_report_fields():
    x, y = BASE.gen("x"), BASE.gen("y")
    report = generalized_samuel_report(local_query((x * x, y * y)))
    assert report.e == 4
    assert report.r == 2
    assert report.r_source == "krull"
    assert report.k == 4  # default r + 2
    assert report.e_next_k == report.e


def test_analytic_spread():
    # the spread is maximal exactly when e(I, M) > 0
    x, y = BASE.gen("x"), BASE.gen("y")
    assert samuel_e((x, y)) > 0
    assert samuel_e((x,)) == 0
    assert samuel_e((x * x, y * y)) > 0
    assert samuel_e((BASE.one,)) == 0


def test_lambda_local_matches_samuel_function_when_primary():
    # the two pipelines agree for m-primary ideals once k is large
    x, y = BASE.gen("x"), BASE.gen("y")
    module = free_module(BASE)
    for gens in ((x, y), (x * x, y * y), (x * x, x * y, y * y)):
        ideal = SubmoduleSpec(BASE, 0, gens)
        q = LocalQuery(module, ideal)
        for n in range(5):
            assert lambda_local(q, n, k=6) == samuel_function(module, ideal, n)


def test_samuel_function_values():
    x, y = BASE.gen("x"), BASE.gen("y")
    module = free_module(BASE)
    m = SubmoduleSpec(BASE, 0, (x, y))
    for n in range(5):
        assert samuel_function(module, m, n) == (n + 1) * (n + 2) // 2
    squares = SubmoduleSpec(BASE, 0, (x * x, y * y))
    assert samuel_function(module, squares, 0) == 4
    axis = SubmoduleSpec(BASE, 0, (x,))
    with pytest.raises(ValueError):
        samuel_function(module, axis, 1)


@pytest.mark.parametrize(
    "name, grid, leading, p1_row",
    [
        (
            "minors_block.txt",
            5,
            {(3, 0): 3, (2, 1): 1, (1, 2): 0, (0, 3): 0},
            (3, 3, 4, 5, 6, 7, 8, 9),
        ),
        (
            "minors_3var.txt",
            6,
            {(4, 0): 4, (3, 1): 1, (2, 2): 0, (1, 3): 0, (0, 4): 0},
            (4, 4, 4, 5, 6, 7, 8, 9, 10),
        ),
    ],
    ids=["minors_block", "minors_3var"],
)
def test_nonmonomial_block_ranks_over_q_are_all_certified(
    monkeypatch, name, grid, leading, p1_row
):
    # H = (xu, yu + xv, yv) and H = (xu, yu + xv, zu + yv, zv) do not
    # fill the bidegree pieces their powers span, so echelon bases keep
    # polynomial rows and the spans still go through elimination. Every
    # elimination ends at full rank mod 2^31 - 1, so none may reach
    # Fraction arithmetic. The p = 1 rows match the dense oracle. The
    # caches start empty, so an earlier query cannot answer this one.
    clear_caches()
    kernel = linalg._rank
    calls = []

    def modular_only(rows, ncols, modulus):
        if modulus is None:
            raise AssertionError("exact fallback reached")
        calls.append(ncols)
        return kernel(rows, ncols, modulus)

    monkeypatch.setattr(linalg, "_rank", modular_only)
    inst = parse_instance((INSTANCES / name).read_text())
    query = ProductQuery(inst.module, (inst.submodule(0),), grid=grid)
    report = br_multiplicities(query)
    assert calls
    assert report.leading.as_dict() == leading
    n = report.table.extents[1]
    assert report.table.values[n : 2 * n] == p1_row


def test_buchsbaum_rim_theorem_on_a_dense_parameter_module():
    # H has e + d - 1 = 3 generators in F = k[x,y]{u,v}, and F/H has finite
    # length, so e(H) = l(F/H) = lambda(1, 0) (Buchsbaum-Rim, Trans. AMS
    # 111, 1964). Three rows cannot fill the 4-dimensional (1, 1) piece, so
    # H's reduced basis stays polynomial and its powers are built from
    # polynomial products.
    ring = RingSpec(PrimeField(32003), ("x", "y"), ("u", "v"))
    x, y, u, v = ring.gens()
    h = SubmoduleSpec(
        ring,
        1,
        (
            (x + y * 2) * u + (x * 3 - y) * v,
            (x * 2 + y) * u + (x - y * 3) * v,
            (x - y * 3) * u + (x + y) * v,
        ),
    )
    assert not all(g.is_monomial() for g in power_generators(h, 1).gens)
    query = ProductQuery(free_module(ring), (h,))
    assert lambda_product(query, 1, 0) == 3
    assert br_multiplicities(query).leading.as_dict()[(3, 0)] == 3


def test_buchsbaum_rim_theorem_on_seeded_parameter_matrices():
    # the theorem above on P1 = minors_block.txt over Q and on seeded dense
    # draws over F_32003; a draw with F/H of infinite length is skipped
    inst = parse_instance((INSTANCES / "minors_block.txt").read_text())
    cases = [(inst.module, inst.submodule(0))]
    cases += [(draw.module, draw.h) for draw in parameter_matrices()]
    finite = 0
    for module, h in cases:
        try:
            report = br_multiplicities(ProductQuery(module, (h,)))
        except CutoffExceeded:
            continue
        finite += 1
        assert report.leading[(3, 0)] == report.table.value((1, 0))
    assert finite >= 4


@pytest.mark.parametrize(
    "f, degree",
    [
        (lambda x, y, z: x**3 + y**3 + z**3 + x * y * z, 3),
        (lambda x, y, z: x**4 + y**4 + z**4 + x * x * y * z, 4),
    ],
    ids=("cubic", "quartic"),
)
def test_hypersurface_multiplicity_is_the_degree_of_f(f, degree):
    # M = k[x,y,z;u]/(f) with H = m u: e[2,0] = e(m, k[x,y,z]/(f)) = deg f
    x, y, z, u = R3.gens()
    module = ModulePresentation(FreeModuleSpec(R3, ((0, 0),)), ((f(x, y, z),),))
    h = SubmoduleSpec(R3, 1, (x * u, y * u, z * u))
    leading = br_multiplicities(ProductQuery(module, (h,))).leading
    assert leading.as_dict() == {(2, 0): degree, (1, 1): 0, (0, 2): 0}


# two quadrics and a cubic of k[x,y], no two with a common factor
QUADRICS = (
    lambda x, y: x * x + x * y * 2 + y * y * 3,
    lambda x, y: x * x * 2 - x * y + y * y,
)
CUBIC = lambda x, y: x**3 + x * y * y + y**3 * 2


@pytest.mark.parametrize(
    "forms, product",
    [(QUADRICS, 4), ((QUADRICS[0], CUBIC), 6)],
    ids=("two-quadrics", "quadric-and-cubic"),
)
def test_complete_intersection_multiplicity_is_the_product_of_degrees(
    forms, product
):
    # forms of degrees d_i that form a regular sequence give e(I) = prod d_i
    x, y, u = R2.gens()
    h = SubmoduleSpec(R2, 1, tuple(form(x, y) * u for form in forms))
    leading = br_multiplicities(ProductQuery(free_module(R2), (h,))).leading
    assert leading.as_dict() == {(2, 0): product, (1, 1): 0, (0, 2): 0}


def test_mixed_multiplicities_of_m_and_a_complete_intersection():
    # I = two quadrics: e(m^[2-i] | I^[i]) = 2^i (Teissier, Cargese 1973;
    # Trung-Verma, Trans. AMS 359, 2007), in either order of the pair
    x, y, u = R2.gens()
    m = SubmoduleSpec(R2, 1, (x * u, y * u))
    i = SubmoduleSpec(R2, 1, tuple(form(x, y) * u for form in QUADRICS))
    for subs, top in (((m, i), (1, 2, 4)), ((i, m), (4, 2, 1))):
        leading = br_multiplicities(ProductQuery(free_module(R2), subs)).leading
        assert [leading[(2 - j, j, 0)] for j in range(3)] == list(top)
        assert all(e == 0 for alpha, e in leading.entries if alpha[2] > 0)


def kirby_rees_sides(i1, i2) -> tuple:
    """Both sides of Kirby-Rees for monomial ideals I1, I2 of k[x,y], each
    given by exponent pairs: br's e[3,0] of I1 u + I2 v in k[x,y;u,v], and
    the mixed e[2,0,0], e[1,1,0], e[0,2,0] of (I1 u, I2 u) in k[x,y;u]."""
    r4 = RingSpec(QQ, ("x", "y"), ("u", "v"))
    h = SubmoduleSpec(
        r4,
        1,
        tuple(r4.monomial((a, b, 1, 0)) for a, b in i1)
        + tuple(r4.monomial((a, b, 0, 1)) for a, b in i2),
    )
    r3 = RingSpec(QQ, ("x", "y"), ("u",))
    h1, h2 = (
        SubmoduleSpec(r3, 1, tuple(r3.monomial((a, b, 1)) for a, b in ideal))
        for ideal in (i1, i2)
    )
    direct = br_multiplicities(ProductQuery(free_module(r4), (h,))).leading
    mixed = br_multiplicities(ProductQuery(free_module(r3), (h1, h2))).leading
    return direct[(3, 0)], (mixed[(2, 0, 0)], mixed[(1, 1, 0)], mixed[(0, 2, 0)])


@pytest.mark.parametrize(
    "i1, i2, direct, mixed",
    [
        (((2, 0), (0, 1)), ((1, 0), (0, 2)), 5, (2, 1, 2)),
        (((3, 0), (1, 1), (0, 4)), ((2, 0), (0, 3)), 18, (7, 5, 6)),
    ],
)
def test_kirby_rees_direct_sums(i1, i2, direct, mixed):
    # e(I1 + I2) of the direct sum is the sum of the mixed multiplicities
    # e(I1^[a] | I2^[b]) over a + b = d (Kirby-Rees; Kleiman-Thorup 1994)
    assert kirby_rees_sides(i1, i2) == (direct, mixed)


primary_monomial_ideals = st.builds(
    lambda a, b, mixed: ((a, 0), (0, b), *mixed),
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=2),
)


@example(((4, 0), (0, 4)), ((4, 0), (0, 3), (1, 2)))
@given(primary_monomial_ideals, primary_monomial_ideals)
@settings(max_examples=20, deadline=None)
def test_kirby_rees_on_random_monomial_pairs(i1, i2):
    # the example's mixed fit enlarges the grid to 9, and one of its walks
    # stops at base degree 65, past the cutoff of unproven walks: the
    # division proves it finite, so no cutoff applies
    direct, mixed = kirby_rees_sides(i1, i2)
    assert direct == sum(mixed)


def test_three_variable_block_e_values():
    # H = (x,y,z)*(u,v,w): e^(5-j, j) = C(5-j, 2-j) for j <= 2, then 0.
    # H^p has C(p+2, 2)^2 generators, all of one degree.
    inst = parse_instance((INSTANCES / "block_3x3.txt").read_text())
    query = ProductQuery(inst.module, (inst.submodule(0),), grid=5)
    report = br_multiplicities(query)
    assert report.leading.as_dict() == {
        (5, 0): 10,
        (4, 1): 4,
        (3, 2): 1,
        (2, 3): 0,
        (1, 4): 0,
        (0, 5): 0,
    }


def substitute(poly, images):
    """``poly`` with its j-th variable replaced by ``images[j]``."""
    out = poly.ring.zero
    for mono, c in poly.terms:
        term = poly.ring.one * c
        for image, e in zip(images, mono):
            term = term * image**e
        out = out + term
    return out


def linear_images(ring, rng, blocks):
    """Variable images under seeded invertible integer substitutions.

    Each block named in ``blocks`` ("base", "fiber") is mapped by a dense
    matrix with entries in +-1..+-3 and full rank over Q; the entries are
    too small for the determinant to vanish mod a large prime.
    """
    images = []
    for name in ("base", "fiber"):
        gens = [ring.gen(v) for v in getattr(ring, name)]
        if name not in blocks:
            images += gens
            continue
        while True:
            mat = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in gens] for _ in gens]
            if rank(Matrix.from_rows(QQ, mat)) == len(gens):
                break
        for row in mat:
            image = ring.zero
            for c, g in zip(row, gens):
                image = image + g * c
            images.append(image)
    return images


def substituted(h, images):
    gens = tuple(substitute(g, images) for g in h.gens)
    return SubmoduleSpec(h.ring, h.fiber_degree, gens)


FIELDS = (QQ, PrimeField(linalg.MODULUS))


@pytest.mark.parametrize("field", FIELDS, ids=("Q", "Fp"))
def test_br_is_invariant_under_base_and_fiber_substitutions(field):
    # Multiplicities are invariant under bigraded automorphisms. The images
    # of the monomial block are non-monomial, yet span the same pieces.
    inst = parse_instance((INSTANCES / "min_deg_one_block.txt").read_text(), field)
    h = inst.submodule(0)
    original = br_multiplicities(ProductQuery(inst.module, (h,), grid=4))
    rng = random.Random(5)
    for _ in range(2):
        images = linear_images(inst.ring, rng, ("base", "fiber"))
        moved = substituted(h, images)
        assert not all(g.is_monomial() for g in moved.gens)
        report = br_multiplicities(ProductQuery(inst.module, (moved,), grid=4))
        assert report.table == original.table
        assert report.leading.as_dict() == original.leading.as_dict()


@pytest.mark.parametrize("field", FIELDS, ids=("Q", "Fp"))
def test_mixed_is_invariant_under_a_base_substitution(field):
    # The images of (x, y^2) and (x^2, y) stay non-monomial in every
    # echelon basis, so these spans go through elimination.
    inst = parse_instance((INSTANCES / "newton_pair.txt").read_text(), field)
    h1, h2 = inst.submodule(0), inst.submodule(1)
    original = br_multiplicities(ProductQuery(inst.module, (h1, h2), grid=4))
    images = linear_images(inst.ring, random.Random(7), ("base",))
    moved = (substituted(h1, images), substituted(h2, images))
    report = br_multiplicities(ProductQuery(inst.module, moved, grid=4))
    assert report.table == original.table
    assert report.leading.as_dict() == original.leading.as_dict()


def test_degree_exceeds_is_a_hard_error():
    x, y = BASE.gen("x"), BASE.gen("y")
    with pytest.raises(DegreeExceedsError):
        samuel_e((x, y), r=1)
    with pytest.raises(DegreeExceedsError):
        br_multiplicities(block_query(r=2))


def test_repeated_runs_give_identical_reports():
    first = br_multiplicities(block_query())
    again = br_multiplicities(block_query())
    assert first.table == again.table
    assert first.leading.as_dict() == again.leading.as_dict()


def test_curated_instances_all_run():
    for inst in curated_pure():
        report = br_multiplicities(ProductQuery(inst.module, (inst.h,)))
        assert all(e >= 0 for e in report.leading.as_dict().values())
    for inst in curated_mixed():
        report = br_multiplicities(
            ProductQuery(inst.module, (inst.h1, inst.h2))
        )
        assert all(e >= 0 for e in report.leading.as_dict().values())
    for inst in curated_local():
        e = generalized_samuel_report(LocalQuery(inst.module, inst.ideal)).e
        if any(g.monic() == inst.ideal.ring.one for g in inst.ideal.gens):
            assert e == 0
        else:
            assert e >= 0


def test_fit_reraises_a_stabilization_failure_at_the_enlarged_grid(monkeypatch):
    # lambda(n) = 2^n: no difference of any order settles at either grid,
    # and the degree estimate finds no vanishing tail either, so the
    # enlarged attempt's StabilizationError leaves the fit as it is
    import brmult.multiplicity as multiplicity

    grids = []

    def exponential(query, k, gmax):
        grids.append(gmax)
        return LengthTable(("n",), (0,), (gmax + 1,), tuple(2**n for n in range(gmax + 1)))

    monkeypatch.setattr(multiplicity, "local_table", exponential)
    x, y = BASE.gen("x"), BASE.gen("y")
    with pytest.raises(StabilizationError, match="no stabilization window of size 2"):
        generalized_samuel_report(local_query((x, y), r=1))
    # r + 4 first, then enlarged by 2; the k + 1 table is never built
    assert grids == [5, 7]


@pytest.mark.parametrize(
    "name, top",
    [
        # H1 = m F and its reduction H2 = P1: 3 in every e[i,3-i,0]
        ("module_pair.txt", (3, 3, 3, 3)),
        # H1 = m and H2 = P1: e[3-j,j,0] = C(j,1) e(m)
        ("ideal_module_pair.txt", (0, 1, 2, 3)),
    ],
)
def test_pairs_with_a_rank_two_submodule(name, top):
    # top lists e[3-j,j,0] for j = 0..3; of the rest only e[2,0,1],
    # e[1,1,1] and e[0,2,1] are nonzero, each 1
    expected = {(3 - j, j, 0): e for j, e in enumerate(top)}
    expected.update({(2, 0, 1): 1, (1, 1, 1): 1, (0, 2, 1): 1})
    path = str(INSTANCES / name)
    code, out = run(["mixed", path])
    assert code == 0
    assert json.loads(out)["leading_form"] == {
        "e[" + ",".join(map(str, alpha)) + "]": str(expected.get(alpha, 0))
        for alpha in itertools.product(range(4), repeat=3)
        if sum(alpha) == 3
    }
    code, out = run(["verify", "operator", path])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_fit_classifies_the_table_that_failed_not_the_first_one():
    # the first table is linear and fits at r = 1; the second is n^3 at
    # both grids, whose second differences vanish on no tail, so the failure
    # is the second table's degree estimate exceeding r
    from brmult.multiplicity import _fit

    tables = []

    def build(f):
        def table(gmax):
            values = tuple(f(n) for n in range(gmax + 1))
            tables.append(LengthTable(("n",), (0,), (gmax + 1,), values))
            return tables[-1], ()

        return table

    with pytest.raises(DegreeExceedsError, match="estimate 3 exceeds r = 1") as err:
        _fit([build(lambda n: 2 * n), build(lambda n: n**3)], 1, None)
    assert [t.extents for t in tables] == [(6,), (6,), (8,), (8,)]
    assert err.value.table is tables[3]
    assert err.value.r == 1


def test_k_instability_when_the_leading_coefficient_moves_with_k(monkeypatch, tmp_path):
    # lambda(n) = k n at neighborhood order k: e is k at k and k + 1 at k + 1
    import brmult.multiplicity as multiplicity

    def linear_in_k(query, k, gmax):
        return LengthTable(("n",), (0,), (gmax + 1,), tuple(k * n for n in range(gmax + 1)))

    monkeypatch.setattr(multiplicity, "local_table", linear_in_k)
    x, y = BASE.gen("x"), BASE.gen("y")
    with pytest.raises(KInstabilityError, match=r"k = 3 \(3\) and k = 4 \(4\)"):
        generalized_samuel_report(local_query((x, y), r=1))
    path = tmp_path / "local.txt"
    path.write_text("field Q\nring base x y fiber\nsubmodule I fiberdeg 0 gens x, y\n")
    code, out = run(["samuel", str(path), "--r", "1"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "k-instability"


def test_degree_exceeds_carries_the_table_and_r_it_was_raised_on(monkeypatch):
    # both grids of the r = 2 block fit fail; the error keeps the enlarged
    # table, whose differences the fit has already built
    import brmult.multiplicity as multiplicity

    tables = []
    build = multiplicity.pure_table

    def recorded(query, gmax):
        tables.append(build(query, gmax)[0])
        return tables[-1], ()

    monkeypatch.setattr(multiplicity, "pure_table", recorded)
    with pytest.raises(DegreeExceedsError) as err:
        br_multiplicities(block_query(r=2))
    assert [t.extents for t in tables] == [(7, 7), (9, 9)]
    assert err.value.table is tables[1]
    assert err.value.r == 2


def test_verify_all_differences_each_fitted_table_once(monkeypatch):
    # verify all on max_ideal_pair.txt (r = 2) fits the mixed table (3 axes,
    # orders 1..3: 3 + 6 + 10 = 19 differences) and the product's pure one
    # (2 axes: 2 + 3 + 4 = 9) for operator, H1's pure table (9) for
    # degree-bound, which reads those 9 again, and the mixed table twice
    # (19 + 19) for symmetry: 75
    calls = []
    difference = polyfit.finite_difference
    monkeypatch.setattr(
        polyfit, "finite_difference", lambda t, axis: calls.append(axis) or difference(t, axis)
    )
    clear_caches()
    code, _ = run(["verify", "all", str(INSTANCES / "max_ideal_pair.txt")])
    assert code == 0
    assert len(calls) == 75
