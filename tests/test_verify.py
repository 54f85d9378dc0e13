"""Identity checks: both sides computed, exact agreement demanded."""

from pathlib import Path

import pytest

import brmult.verify as verify
from brmult.cli import run
from brmult.fields import QQ
from brmult.modules import FreeModuleSpec, ModulePresentation
from brmult.multiplicity import MultiplicityReport, ProductQuery, br_multiplicities
from brmult.polyfit import LeadingForm, LengthTable
from brmult.rings import RingSpec, SubmoduleSpec
from brmult.verify import (
    check_degree_bound,
    check_mixed_factor_sum,
    check_mixed_operator_formula,
    check_symmetry,
    check_telescoping,
)

INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"
R2 = RingSpec(QQ, ("x", "y"), ("T",))
R22 = RingSpec(QQ, ("x", "y"), ("u", "v"))


def free_module(ring):
    return ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))


def max_ideal(ring):
    return SubmoduleSpec(ring, 0, (ring.gen("x"), ring.gen("y")))


def block_h():
    x, y, u, v = (R22.gen(s) for s in "xyuv")
    return SubmoduleSpec(R22, 1, (x * u, x * v, y * u, y * v))


def test_operator_formula_max_ideal_pair():
    m = max_ideal(R2)
    report = check_mixed_operator_formula(ProductQuery(free_module(R2), (m, m)))
    assert report.passed
    left = dict(report.left)
    # e^{2,0} of m^2 is 4 and the binomial sum is 1 + 2*1 + 1
    assert left["e[2,0](H1*H2)"] == 4
    assert [v for _, v in report.left] == [v for _, v in report.right]


def test_operator_formula_newton_pair():
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x, y * y))
    h2 = SubmoduleSpec(R2, 0, (x * x, y))
    report = check_mixed_operator_formula(ProductQuery(free_module(R2), (h1, h2)))
    assert report.passed
    # the (n, k) = (2, 0) comparison is 6 = 2 + 2*1 + 2
    values = dict(report.left)
    assert 6 in values.values()


def test_operator_formula_degenerate_unit_factor():
    one = SubmoduleSpec(R2, 0, (R2.one,))
    m = max_ideal(R2)
    report = check_mixed_operator_formula(ProductQuery(free_module(R2), (one, m)))
    assert report.passed


def test_telescoping_block_instance():
    report = check_telescoping(free_module(R22), block_h(), grid=3)
    assert report.passed
    assert report.witness is None
    assert len(report.left) == len(report.right) == 16


def test_telescoping_with_relation():
    x = R2.gen("x")
    t = R2.gen("T")
    killed = ModulePresentation(FreeModuleSpec(R2, ((0, 0),)), ((x,),))
    h = SubmoduleSpec(R2, 1, (x * t, R2.gen("y") * t))
    report = check_telescoping(killed, h, grid=3)
    assert report.passed


def test_telescoping_d_zero():
    report = check_telescoping(free_module(R2), max_ideal(R2), grid=3)
    assert report.passed


def test_factor_sum_principal_pair():
    # non-primary pair with infinite totals: the per-degree vectors still
    # have to agree
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x,))
    h2 = SubmoduleSpec(R2, 0, (y,))
    report = check_mixed_factor_sum(free_module(R2), h1, h2, grid=2)
    assert report.passed


def test_factor_sum_max_ideal_pair():
    m = max_ideal(R2)
    report = check_mixed_factor_sum(free_module(R2), m, m, grid=2)
    assert report.passed


@pytest.mark.parametrize("name", ("max_ideal_pair.txt", "newton_pair.txt"))
def test_telescoping_walks_each_slice_once(monkeypatch, name):
    # At d = 0 the default bound grows with p at a fixed fiber, so grid
    # points share slices at different bounds: 56 walks name 32 slices.
    walks = []
    walk = verify.slice_dims_up_to

    def counting(module, fiber, top, bottom, bound):
        walks.append((fiber, top, bottom))
        return walk(module, fiber, top, bottom, bound)

    monkeypatch.setattr(verify, "slice_dims_up_to", counting)
    code, _ = run(["verify", "telescoping", str(INSTANCES / name)])
    assert code == 0
    assert len(walks) == len(set(walks)) == 32


def test_factor_sum_with_unit():
    one = SubmoduleSpec(R2, 0, (R2.one,))
    m = max_ideal(R2)
    report = check_mixed_factor_sum(free_module(R2), one, m, grid=2)
    assert report.passed


def test_symmetry_asymmetric_pair():
    x, y = R2.gen("x"), R2.gen("y")
    h1 = SubmoduleSpec(R2, 0, (x, y * y))
    h2 = SubmoduleSpec(R2, 0, (x * x, y))
    report = check_symmetry(ProductQuery(free_module(R2), (h1, h2)))
    assert report.passed
    # labels pair e[i,j,k] with e[j,i,k]
    assert len(report.left) == len(report.right)


@pytest.mark.parametrize("check", [check_symmetry, check_mixed_operator_formula])
def test_pair_checks_refuse_a_single_submodule(check):
    m = SubmoduleSpec(R2, 0, (R2.gen("x"), R2.gen("y")))
    with pytest.raises(ValueError, match="needs two submodules"):
        check(ProductQuery(free_module(R2), (m,)))


@pytest.mark.parametrize("check", [check_telescoping, check_mixed_factor_sum])
def test_factor_sum_checks_refuse_a_negative_grid(check):
    # an empty grid would pass with nothing compared
    m = max_ideal(R2)
    subs = (m,) if check is check_telescoping else (m, m)
    with pytest.raises(ValueError, match="grid must be nonnegative"):
        check(free_module(R2), *subs, grid=-1)


def test_degree_bound_passes_on_honest_report():
    report = br_multiplicities(ProductQuery(free_module(R22), (block_h(),)))
    outcome = check_degree_bound(report)
    assert outcome.passed
    assert outcome.witness is None


def test_degree_bound_fails_on_understated_r():
    # hand-build a report whose r understates the table's actual degree;
    # the check recomputes the estimate and pinpoints a surviving
    # high-order difference
    honest = br_multiplicities(ProductQuery(free_module(R22), (block_h(),)))
    fake_leading = LeadingForm(
        2,
        honest.table.axes,
        (((2, 0), 0), ((1, 1), 0), ((0, 2), 0)),
        honest.leading.base_point,
    )
    fake = MultiplicityReport(
        honest.table,
        fake_leading,
        2,
        "explicit",
        2,
        honest.stops,
        honest.enlarged,
    )
    outcome = check_degree_bound(fake)
    assert not outcome.passed
    assert outcome.witness is not None
    assert "order" in outcome.witness


def test_br_degree_bound_reads_its_witness_table_off_the_fit_error(monkeypatch):
    # at r = 1 both grids of the block fit fail with DegreeExceedsError;
    # the check reports on the enlarged table that error carries, with no
    # third table build
    import brmult.multiplicity as multiplicity

    grids = []
    build = multiplicity.pure_table
    monkeypatch.setattr(
        multiplicity, "pure_table", lambda q, gmax: grids.append(gmax) or build(q, gmax)
    )
    report = verify.check_br_degree_bound(
        ProductQuery(free_module(R22), (block_h(),), r=1)
    )
    assert grids == [5, 7]
    assert not report.passed
    assert report.left == (("degree estimate", 3),)
    assert report.witness == "difference of order (1, 1) at (6, 6) is 7, not 0"


def test_degree_bound_tolerates_transients():
    # quadratic near the origin, linear in the tail: the estimate must
    # come from the tail, not from global difference vanishing
    values = []
    for p in range(8):
        for n in range(8):
            values.append(p * p if p < 3 else 6 * p - 9)
    table = LengthTable(("p", "n"), (0, 0), (8, 8), tuple(values))
    leading = LeadingForm(
        1, ("p", "n"), (((1, 0), 6), ((0, 1), 0)), (4, 0)
    )
    report = MultiplicityReport(table, leading, 1, "explicit", 1, (), False)
    assert check_degree_bound(report).passed


def test_reports_carry_instance_description():
    m = max_ideal(R2)
    report = check_telescoping(free_module(R2), m, grid=2)
    assert "x" in report.instance and "y" in report.instance
    assert report.check


def _drop_first_factor(chain):
    def dropped(*args):
        fiber, factors, quotient = chain(*args)
        return fiber, factors[1:], quotient

    return dropped


def test_factor_sums_missing_a_factor_fail_at_the_first_bad_degree(monkeypatch):
    # both checks take their chains from the filtration module; a chain
    # that lost a factor must fail with a per-degree witness
    for name in ("_power_factors", "_mixed_factors"):
        monkeypatch.setattr(verify, name, _drop_first_factor(getattr(verify, name)))
    m = max_ideal(R2)
    reports = (
        check_telescoping(free_module(R2), m, grid=2),
        check_mixed_factor_sum(free_module(R2), m, m, grid=1),
    )
    # at the origin the quotients are k[x,y]/m and k[x,y]/m^2
    expected = (("(p,n)=(0,0)", 1), ("(p,q,n)=(0,0,0)", 3))
    for report, (tag, length) in zip(reports, expected):
        assert not report.passed
        assert report.witness == f"{tag} base degree 0: factors 0 != quotient 1"
        assert report.left[0] == (f"{tag} sum of factors", 0)
        assert report.right[0] == (f"{tag} direct quotient", length)
