"""Seeded inputs for the non-monomial workloads.

A non-monomial instance is the rank-two block (l1, l2) * (m1, m2) on
k[x,y;u,v], where (l1, l2) is a dense invertible integer substitution of
the base variables and (m1, m2) one of the fiber variables. Every entry is
in +-1..+-3, so every generator l_i * m_j is a product of two binomials and
has four terms. The ideal the block generates is always (x,y)*(u,v), so the
lengths, tables and e-values equal those of the monomial block in
``demos/instances/min_deg_one_block.txt``: the automorphism oracle the gate
checks. Only the coefficient arithmetic the program does differs.

Draw 0 of seed 0 is the block (x+2y, 3x-y)*(u+v, u-2v) that ROADMAP.md
profiles.
"""

from __future__ import annotations

import random

PRIME = 2**31 - 1
ENTRIES = (-3, -2, -1, 1, 2, 3)
DEFAULT_SEED = 0
ROADMAP_BASE = ((1, 2), (3, -1))
ROADMAP_FIBER = ((1, 1), (1, -2))


def determinant(m) -> int:
    (a, b), (c, d) = m
    return a * d - b * c


def draw_substitution(rng: random.Random) -> tuple:
    """A dense 2x2 integer matrix, invertible over Q and over F_PRIME."""
    while True:
        m = tuple(tuple(rng.choice(ENTRIES) for _ in range(2)) for _ in range(2))
        det = determinant(m)
        if det != 0 and det % PRIME != 0:
            return m


def substitutions(seed: int):
    """Endless stream of (base, fiber) substitution pairs for ``seed``."""
    rng = random.Random(seed)
    if seed == DEFAULT_SEED:
        yield ROADMAP_BASE, ROADMAP_FIBER
    while True:
        yield draw_substitution(rng), draw_substitution(rng)


def linear_form(coeffs, names) -> str:
    terms = []
    for c, name in zip(coeffs, names):
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        if not terms:
            terms.append(("-" if c < 0 else "") + mag + name)
        else:
            terms.append(("- " if c < 0 else "+ ") + mag + name)
    return " ".join(terms)


def block_instance(base, fiber) -> str:
    """Instance-file text of the block (base forms) * (fiber forms) over Q."""
    gens = ", ".join(
        f"({linear_form(b, 'xy')})*({linear_form(f, 'uv')})"
        for b in base
        for f in fiber
    )
    return (
        "field Q\n"
        "ring base x y fiber u v\n"
        "module free 1 shifts (0,0)\n"
        f"submodule H fiberdeg 1 gens {gens}\n"
    )
