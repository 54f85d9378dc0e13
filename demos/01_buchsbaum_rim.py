"""Walk through the pure multiplicity pipeline on two instances.

Run from the repository root:

    python3 demos/01_buchsbaum_rim.py
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


def main():
    # The module is the free rank-1 module over k[x,y;u,v]. H is spanned
    # by the four products of a base variable and a fiber variable, i.e.
    # the image of the maximal ideal acting on a rank-2 free module.
    ring = RingSpec(QQ, ("x", "y"), ("u", "v"))
    module = ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))
    x, y, u, v = (ring.gen(s) for s in "xyuv")
    h = SubmoduleSpec(ring, 1, (x * u, x * v, y * u, y * v))
    query = ProductQuery(module, (h,))

    print("lambda(p, n) = length of M_{p+n} / H^p M_n")
    print("   n:  " + "  ".join(f"{n:4d}" for n in range(5)))
    for p in range(5):
        row = [lambda_product(query, p, n) for n in range(5)]
        print(f"p={p}:  " + "  ".join(f"{v:4d}" for v in row))
    print()
    print("The table is (p+n+1)p(p+1)/2, a polynomial of total degree 3.")
    print()

    report = br_multiplicities(query)
    print(f"r = {report.r} (source: {report.r_source})")
    print(f"degree estimate from the table: {report.degree_estimate}")
    for alpha, e in report.leading.entries:
        print(f"  e{list(alpha)} = {e}")
    print()
    print("e[3, 0] = 3 is the multiplicity of the column span; e[2, 1] = 1")
    print("carries the mixed p^2 n term of the leading form.")
    print()

    # Second instance: the square of the maximal ideal in fiber degree 0.
    ring2 = RingSpec(QQ, ("x", "y"), ("T",))
    module2 = ModulePresentation(FreeModuleSpec(ring2, ((0, 0),)))
    a, b = ring2.gen("x"), ring2.gen("y")
    h2 = SubmoduleSpec(ring2, 0, (a * a, a * b, b * b))
    report2 = br_multiplicities(ProductQuery(module2, (h2,)))
    print("H = m^2 at fiber degree 0 over k[x,y;T]:")
    for alpha, e in report2.leading.entries:
        print(f"  e{list(alpha)} = {e}")
    print("e[2, 0] = 4 = 2^2, the classical multiplicity of m^2.")


if __name__ == "__main__":
    main()
