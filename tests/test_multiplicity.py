"""Length functions and multiplicity pipelines on frozen instances.

Every expected number here is either a closed-form monomial count or an
independently computed oracle value; nothing is copied back from the code
under test.
"""

import random
from pathlib import Path

import pytest

import brmult.linalg as linalg
from brmult.cli import parse_instance
from brmult.fields import QQ, PrimeField
from brmult.modules import FreeModuleSpec, ModulePresentation
from brmult.multiplicity import (
    KInstabilityError,
    LocalQuery,
    ProductQuery,
    SupportConditionError,
    br_multiplicities,
    generalized_samuel,
    generalized_samuel_report,
    has_maximal_analytic_spread,
    lambda_local,
    lambda_product,
    resolve_r,
    samuel_function,
)
from brmult.polyfit import DegreeExceedsError
from brmult.rings import GradingError, RingSpec, SubmoduleSpec
from corpus import curated_local, curated_mixed, curated_pure
from dense_oracle import Matrix, rank

INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"
R2 = RingSpec(QQ, ("x", "y"), ("T",))
R22 = RingSpec(QQ, ("x", "y"), ("u", "v"))
BASE = RingSpec(QQ, ("x", "y"), ())


def free_module(ring):
    return ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))


def block_query(**kw):
    x, y, u, v = (R22.gen(s) for s in "xyuv")
    h = SubmoduleSpec(R22, 1, (x * u, x * v, y * u, y * v))
    return ProductQuery(free_module(R22), (h,), **kw)


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


def test_generalized_samuel_suite():
    x, y = BASE.gen("x"), BASE.gen("y")
    assert generalized_samuel(local_query((x, y))) == 1
    assert generalized_samuel(local_query((x,))) == 0
    assert generalized_samuel(local_query((x * x, y * y))) == 4


def test_generalized_samuel_report_fields():
    x, y = BASE.gen("x"), BASE.gen("y")
    report = generalized_samuel_report(local_query((x * x, y * y)))
    assert report.e == 4
    assert report.r == 2
    assert report.r_source == "krull"
    assert report.k == 4  # default r + 2
    assert report.e_next_k == report.e


def test_analytic_spread():
    x, y = BASE.gen("x"), BASE.gen("y")
    assert has_maximal_analytic_spread(local_query((x, y)))
    assert not has_maximal_analytic_spread(local_query((x,)))
    assert has_maximal_analytic_spread(local_query((x * x, y * y)))
    assert not has_maximal_analytic_spread(local_query((BASE.one,)))


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
    with pytest.raises(Exception):
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
    # Fraction arithmetic. The p = 1 rows match the dense oracle.
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
        generalized_samuel(local_query((x, y), r=1))
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
        q = LocalQuery(inst.module, inst.ideal)
        if inst.ideal.is_unit():
            assert not has_maximal_analytic_spread(q)
        else:
            assert generalized_samuel(q) >= 0
