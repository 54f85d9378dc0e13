"""Run the identity-checking harness on concrete instances.

Run from the repository root:

    python3 demos/04_identity_checks.py
"""

import os

from brmult import (
    FreeModuleSpec,
    ModulePresentation,
    ProductQuery,
    QQ,
    RingSpec,
    SubmoduleSpec,
    check_filtration_inclusions,
    check_mixed_factor_sum,
    check_mixed_operator_formula,
    check_symmetry,
    check_telescoping,
    run,
)


def show(report):
    status = "pass" if report.passed else "FAIL"
    print(f"  [{status}] {report.check}: {report.instance}")
    if not report.passed:
        print(f"         witness: {report.witness}")


def main():
    ring = RingSpec(QQ, ("x", "y"), ("T",))
    module = ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))
    x, y = ring.gen("x"), ring.gen("y")
    m = SubmoduleSpec(ring, 0, (x, y))
    h1 = SubmoduleSpec(ring, 0, (x, y * y))
    h2 = SubmoduleSpec(ring, 0, (x * x, y))

    print("Operator formula: e-values of the product submodule against")
    print("binomial-weighted sums of mixed e-values.")
    pair = ProductQuery(module, (h1, h2))
    show(check_mixed_operator_formula(ProductQuery(module, (m, m))))
    show(check_mixed_operator_formula(pair))
    print()

    print("Telescoping: filtration factors sum to the direct quotient,")
    print("compared degree by degree.")
    show(check_telescoping(module, m, grid=3))
    print()

    print("Mixed factor sum, including a pair with infinite totals where")
    print("only the per-degree comparison makes sense.")
    show(check_mixed_factor_sum(module, h1, h2, grid=2))
    px = SubmoduleSpec(ring, 0, (x,))
    py = SubmoduleSpec(ring, 0, (y,))
    show(check_mixed_factor_sum(module, px, py, grid=2))
    print()

    print("Symmetry of the mixed e-values under swapping the pair.")
    show(check_symmetry(pair))
    print()

    print("Filtration nesting laws at every (p, q) up to 3:")
    bad = 0
    for p in range(4):
        for q in range(4):
            for w in check_filtration_inclusions(h1, h2, p, q):
                if not w.passed:
                    bad += 1
    print(f"  {bad} violations out of all checked pairs")
    print()

    here = os.path.dirname(os.path.abspath(__file__))
    instance = os.path.join(here, "instances", "max_ideal_pair.txt")
    print("The same harness drives the command line, e.g.:")
    print(f"  brmult verify all {os.path.relpath(instance)}")
    code, out = run(["verify", "all", instance])
    print(f"  exit code {code}, {out.count(chr(10))} lines of JSON")


if __name__ == "__main__":
    main()
