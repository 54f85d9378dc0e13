"""Generalized Samuel multiplicities of base ideals at the origin.

Run from the repository root:

    python3 demos/03_generalized_samuel.py
"""

from brmult import (
    FreeModuleSpec,
    LocalQuery,
    ModulePresentation,
    QQ,
    RingSpec,
    SubmoduleSpec,
    generalized_samuel_report,
    graded_slice_length,
    lambda_local,
    power_generators,
)


def main():
    ring = RingSpec(QQ, ("x", "y"), ())
    module = ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))
    x, y = ring.gen("x"), ring.gen("y")

    ideals = [
        ("(x, y)", (x, y)),
        ("(x)", (x,)),
        ("(x^2, y^2)", (x * x, y * y)),
    ]
    for label, gens in ideals:
        ideal = SubmoduleSpec(ring, 0, gens)
        q = LocalQuery(module, ideal)
        report = generalized_samuel_report(q)
        print(f"I = {label}:")
        print(f"  e(I, M) = {report.e}  (r = {report.r}, k = {report.k},"
              f" next k agrees: {report.e == report.e_next_k})")
        print(f"  maximal analytic spread: {report.e > 0}")
        print()

    # For an m-primary ideal the associated-graded length function agrees
    # with the plain Samuel function length(M / I^{n+1} M) once k is large
    # enough; that length is one slice of M modulo the generators of I^{n+1}.
    squares = SubmoduleSpec(ring, 0, (x * x, y * y))
    q = LocalQuery(module, squares)
    print("lambda(n) versus length(M / I^{n+1} M) for I = (x^2, y^2):")
    for n in range(5):
        via_graded = lambda_local(q, n, k=6)
        power = power_generators(squares, n + 1)
        via_quotient = graded_slice_length(module, 0, None, (power,)).total
        marker = "==" if via_graded == via_quotient else "!="
        print(f"  n={n}: {via_graded} {marker} {via_quotient}")
    print()
    print("The ideal (x) has a one-dimensional zero locus, so its degree-2")
    print("coefficient vanishes: e = 0 and the spread is not maximal.")


if __name__ == "__main__":
    main()
