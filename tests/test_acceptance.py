"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each criterion recomputes its expected numbers through an independent
oracle (explicit monomial enumeration, hand finite differences, or a
second pipeline) and compares exactly. The summary lines are printed
with capture disabled so they always reach the terminal.
"""

import json

from brmult.cli import run
from brmult.fields import QQ, PrimeField
from brmult.filtration import check_filtration_inclusions
from brmult.modules import FreeModuleSpec, ModulePresentation
from brmult.multiplicity import (
    LocalQuery,
    ProductQuery,
    br_multiplicities,
    generalized_samuel_report,
    lambda_product,
)
from brmult.rings import RingSpec, SubmoduleSpec
from brmult.verify import (
    check_mixed_factor_sum,
    check_mixed_operator_formula,
    check_symmetry,
    check_telescoping,
)
from corpus import (
    curated_local,
    curated_mixed,
    curated_pure,
    factor_sum_pairs,
    random_mixed_instances,
    random_pure_instances,
)
from dense_oracle import samuel_function

BIG_PRIME = 2**31 - 1


def announce(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {number}: {status} - {detail}")


def block_query(field=QQ, **kw):
    ring = RingSpec(field, ("x", "y"), ("u", "v"))
    module = ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))
    x, y, u, v = (ring.gen(s) for s in "xyuv")
    h = SubmoduleSpec(ring, 1, (x * u, x * v, y * u, y * v))
    return ProductQuery(module, (h,), **kw)


def oracle_block_lambda(p, n):
    # quotient basis: x^a y^b u^c v^d with a + b < p and c + d = p + n,
    # enumerated one monomial at a time
    total = 0
    for a in range(p):
        for b in range(p - a):
            for c in range(p + n + 1):
                total += 1
    return total


def test_acceptance_1_buchsbaum_rim_of_block(capsys):
    q = block_query(grid=7)
    ok = True
    for p in range(8):
        for n in range(8):
            if lambda_product(q, p, n) != oracle_block_lambda(p, n):
                ok = False
    report = br_multiplicities(q)
    expected = {(3, 0): 3, (2, 1): 1, (1, 2): 0, (0, 3): 0}
    ok = ok and report.leading.as_dict() == expected
    announce(capsys, 1, ok, "e^{3,0}=3, e^{2,1}=1 on the rank-two block, oracle-checked")
    assert ok


def test_acceptance_2_mixed_operator_identity(capsys):
    ring = RingSpec(QQ, ("x", "y"), ("T",))
    module = ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))
    x, y = ring.gen("x"), ring.gen("y")
    pairs = [
        ((x, y), (x, y)),
        ((x, y * y), (x * x, y)),
        ((x * x, y * y), (x, y)),
    ]
    ok = True
    for gens1, gens2 in pairs:
        h1 = SubmoduleSpec(ring, 0, gens1)
        h2 = SubmoduleSpec(ring, 0, gens2)
        report = check_mixed_operator_formula(ProductQuery(module, (h1, h2)))
        if not report.passed:
            ok = False
    announce(capsys, 2, ok, "operator formula exact on three d=0 instances")
    assert ok


def fit_leading_coefficient(values, r):
    # iterated forward differences by hand; returns the stabilized tail
    diffs = list(values)
    for _ in range(r):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return diffs[-1]


def test_acceptance_3_generalized_samuel_suite(capsys):
    ring = RingSpec(QQ, ("x", "y"), ())
    module = ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))
    x, y = ring.gen("x"), ring.gen("y")
    suite = [
        ((x, y), 1, True, True),
        ((x,), 0, False, False),
        ((x * x, y * y), 4, True, True),
    ]
    ok = True
    for gens, expected_e, expected_spread, primary in suite:
        ideal = SubmoduleSpec(ring, 0, gens)
        q = LocalQuery(module, ideal)
        e = generalized_samuel_report(q).e
        if e != expected_e:
            ok = False
        if (e > 0) != expected_spread:
            ok = False
        if primary:
            values = [samuel_function(module, ideal, n) for n in range(9)]
            if fit_leading_coefficient(values, 2) != expected_e:
                ok = False
    announce(capsys, 3, ok, "e=1,0,4 with samuel-function oracle and spread flags")
    assert ok


def test_acceptance_4_degree_bound_on_random_corpus(capsys):
    pures = random_pure_instances(16)
    mixeds = random_mixed_instances(4)
    ok = True
    count = 0
    for inst in pures:
        report = br_multiplicities(ProductQuery(inst.module, (inst.h,)))
        count += 1
        if report.degree_estimate > report.r:
            ok = False
    for inst in mixeds:
        report = br_multiplicities(
            ProductQuery(inst.module, (inst.h1, inst.h2))
        )
        count += 1
        if report.degree_estimate > report.r:
            ok = False
    ok = ok and count >= 20
    announce(capsys, 4, ok, f"degree estimate <= r on {count} random instances")
    assert ok


def test_acceptance_5_filtration_identities(capsys):
    ok = True
    pair_instances = list(curated_mixed()) + list(factor_sum_pairs())
    for inst in pair_instances:
        for p in range(4):
            for q in range(4):
                for w in check_filtration_inclusions(inst.h1, inst.h2, p, q):
                    if not w.passed:
                        ok = False
    for inst in curated_pure():
        if not check_telescoping(inst.module, inst.h, grid=3).passed:
            ok = False
    for inst in pair_instances:
        report = check_mixed_factor_sum(inst.module, inst.h1, inst.h2, grid=3)
        if not report.passed:
            ok = False
    announce(capsys, 5, ok, "inclusions p,q<=3 plus factor sums on [0,3] grids")
    assert ok


def test_acceptance_6_symmetry(capsys):
    ok = True
    for inst in curated_mixed():
        report = check_symmetry(ProductQuery(inst.module, (inst.h1, inst.h2)))
        if not report.passed:
            ok = False
    announce(capsys, 6, ok, "e[i,j,k](H1,H2) = e[j,i,k](H2,H1) on the curated pairs")
    assert ok


def test_acceptance_7_determinism_and_integrality(tmp_path, capsys):
    path = tmp_path / "block.txt"
    path.write_text(
        "field Q\n"
        "ring base x y fiber u v\n"
        "submodule H fiberdeg 1 gens x*u, x*v, y*u, y*v\n"
    )
    code1, serial = run(["br", str(path)])
    code2, again = run(["br", str(path)])
    ok = code1 == code2 == 0 and serial == again
    doc = json.loads(serial)
    ok = ok and all(
        v.lstrip("-").isdigit() for v in doc["leading_form"].values()
    )

    for inst_q, inst_p in zip(
        curated_pure(QQ), curated_pure(PrimeField(BIG_PRIME))
    ):
        rep_q = br_multiplicities(ProductQuery(inst_q.module, (inst_q.h,)))
        rep_p = br_multiplicities(ProductQuery(inst_p.module, (inst_p.h,)))
        if not all(
            isinstance(e, int) for e in rep_q.leading.as_dict().values()
        ):
            ok = False
        if rep_q.leading.as_dict() != rep_p.leading.as_dict():
            ok = False
        if rep_q.table.values != rep_p.table.values:
            ok = False
    for inst_q, inst_p in zip(
        curated_mixed(QQ), curated_mixed(PrimeField(BIG_PRIME))
    ):
        rep_q = br_multiplicities(
            ProductQuery(inst_q.module, (inst_q.h1, inst_q.h2))
        )
        rep_p = br_multiplicities(
            ProductQuery(inst_p.module, (inst_p.h1, inst_p.h2))
        )
        if rep_q.leading.as_dict() != rep_p.leading.as_dict():
            ok = False
    announce(capsys, 7, ok, "byte-identical JSON, integral e-values, Q = F_p results")
    assert ok


def test_acceptance_8_local_k_stability(capsys):
    ok = True
    for inst in curated_local():
        report = generalized_samuel_report(
            LocalQuery(inst.module, inst.ideal)
        )
        if report.k != report.r + 2:
            ok = False
        if report.e != report.e_next_k:
            ok = False
    announce(capsys, 8, ok, "k and k+1 leading coefficients agree at k = r+2")
    assert ok
