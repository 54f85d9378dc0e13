"""Mixed multiplicities of a pair of submodules.

Run from the repository root:

    python3 demos/02_mixed_multiplicities.py
"""

from brmult import (
    FreeModuleSpec,
    ModulePresentation,
    ProductQuery,
    QQ,
    RingSpec,
    SubmoduleSpec,
    br_multiplicities,
    lambda_product,
)


def show(title, report):
    print(title)
    print(f"  r = {report.r} ({report.r_source})")
    for alpha, e in report.leading.entries:
        if e:
            print(f"  e{list(alpha)} = {e}")
    zero = [alpha for alpha, e in report.leading.entries if not e]
    if zero:
        print(f"  (zero at {len(zero)} other exponents)")
    print()


def main():
    ring = RingSpec(QQ, ("x", "y"), ("T",))
    module = ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))
    x, y = ring.gen("x"), ring.gen("y")

    # Two copies of the maximal ideal. lambda(p, q, n) only depends on
    # p + q here, so all three order-2 coefficients are 1.
    m = SubmoduleSpec(ring, 0, (x, y))
    show("H1 = H2 = (x, y):", br_multiplicities(ProductQuery(module, (m, m))))

    # An asymmetric pair. Each ideal has multiplicity 2 on its own
    # (covolume of its staircase), and the mixed coefficient is 1.
    h1 = SubmoduleSpec(ring, 0, (x, y * y))
    h2 = SubmoduleSpec(ring, 0, (x * x, y))
    q = ProductQuery(module, (h1, h2))
    show("H1 = (x, y^2), H2 = (x^2, y):", br_multiplicities(q))

    # The raw length function behind that report.
    print("lambda(p, q, 0) for the asymmetric pair:")
    print("   q:  " + "  ".join(f"{qq:3d}" for qq in range(4)))
    for p in range(4):
        row = [lambda_product(q, p, qq, 0) for qq in range(4)]
        print(f"p={p}:  " + "  ".join(f"{v:3d}" for v in row))
    print()
    print("Swapping H1 and H2 transposes the table and the e-values;")
    print("the identity checks in demo 04 verify that exactly.")


if __name__ == "__main__":
    main()
