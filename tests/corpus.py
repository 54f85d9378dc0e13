"""Curated and randomized instance corpus for the test suite.

The curated instances are small enough to admit closed-form length
functions, which the test suite freezes as oracles. The randomized
instances are monomial by construction: every submodule contains a power
of each base variable (or the full base-degree-c times fiber-degree-d
monomial block), so the quotients are finite and every pipeline query is
valid. Generation is fully determined by the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from brmult.fields import QQ, PrimeField
from brmult.modules import FreeModuleSpec, ModulePresentation
from brmult.rings import RingSpec, SubmoduleSpec, monomial_basis

__all__ = [
    "PureInstance",
    "MixedInstance",
    "LocalInstance",
    "curated_pure",
    "curated_mixed",
    "curated_local",
    "factor_sum_pairs",
    "random_pure_instances",
    "random_mixed_instances",
    "parameter_matrices",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 918273645


@dataclass(frozen=True)
class PureInstance:
    name: str
    module: ModulePresentation
    h: SubmoduleSpec


@dataclass(frozen=True)
class MixedInstance:
    name: str
    module: ModulePresentation
    h1: SubmoduleSpec
    h2: SubmoduleSpec


@dataclass(frozen=True)
class LocalInstance:
    name: str
    module: ModulePresentation
    ideal: SubmoduleSpec


def _free(ring, shifts=((0, 0),)):
    return ModulePresentation(FreeModuleSpec(ring, shifts))


def curated_pure(field=QQ):
    """Pure-query instances with known leading forms."""
    r4 = RingSpec(field, ("x", "y"), ("u", "v"))
    x, y, u, v = (
        r4.monomial(m)
        for m in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    mf = SubmoduleSpec(r4, 1, (x * u, x * v, y * u, y * v))

    rt = RingSpec(field, ("x", "y"), ("T",))
    xt, yt = rt.monomial((1, 0, 0)), rt.monomial((0, 1, 0))
    msq = SubmoduleSpec(rt, 0, (xt * xt, xt * yt, yt * yt))

    # M = A/(x) over k[x,y;T] with H = (xT, yT): the quotient only ever
    # sees y, so the length function is linear and the top e-values are
    # small.
    t = rt.monomial((0, 0, 1))
    killed = ModulePresentation(
        FreeModuleSpec(rt, ((0, 0),)), ((xt,),)
    )
    edge = SubmoduleSpec(rt, 1, (xt * t, yt * t))

    return (
        PureInstance("min-deg-one-block", _free(r4), mf),
        PureInstance("square-of-max-ideal", _free(rt), msq),
        PureInstance("killed-axis", killed, edge),
    )


def curated_mixed(field=QQ):
    """Mixed pairs whose pipelines converge (finite lengths everywhere)."""
    rt = RingSpec(field, ("x", "y"), ("T",))
    x, y = rt.monomial((1, 0, 0)), rt.monomial((0, 1, 0))
    m_ = SubmoduleSpec(rt, 0, (x, y))
    i1 = SubmoduleSpec(rt, 0, (x, y * y))
    i2 = SubmoduleSpec(rt, 0, (x * x, y))
    sq = SubmoduleSpec(rt, 0, (x * x, y * y))

    r4 = RingSpec(field, ("x", "y"), ("u", "v"))
    x4, y4, u4, v4 = (
        r4.monomial(m)
        for m in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    mf = SubmoduleSpec(r4, 1, (x4 * u4, x4 * v4, y4 * u4, y4 * v4))
    m4 = SubmoduleSpec(r4, 0, (x4, y4))

    return (
        MixedInstance("max-ideal-twice", _free(rt), m_, m_),
        MixedInstance("newton-pair", _free(rt), i1, i2),
        MixedInstance("squares-vs-max", _free(rt), sq, m_),
        MixedInstance("block-vs-max", _free(r4), mf, m4),
    )


def factor_sum_pairs(field=QQ):
    """Pairs for the per-degree filtration checks.

    These may have infinite total colength (the principal pair), which is
    fine: the factor-sum identities are compared degree by degree.
    """
    rt = RingSpec(field, ("x", "y"), ("T",))
    x, y = rt.monomial((1, 0, 0)), rt.monomial((0, 1, 0))
    one = rt.monomial((0, 0, 0))
    ix = SubmoduleSpec(rt, 0, (x,))
    iy = SubmoduleSpec(rt, 0, (y,))
    m_ = SubmoduleSpec(rt, 0, (x, y))
    unit = SubmoduleSpec(rt, 0, (one,))
    return (
        MixedInstance("principal-pair", _free(rt), ix, iy),
        MixedInstance("max-ideal-twice", _free(rt), m_, m_),
        MixedInstance("unit-degenerate", _free(rt), unit, unit),
    )


def curated_local(field=QQ):
    """Base-only ideals with known generalized Samuel multiplicities."""
    r2 = RingSpec(field, ("x", "y"), ())
    x, y = r2.monomial((1, 0)), r2.monomial((0, 1))
    one = r2.monomial((0, 0))
    return (
        LocalInstance("max-ideal", _free(r2), SubmoduleSpec(r2, 0, (x, y))),
        LocalInstance("one-axis", _free(r2), SubmoduleSpec(r2, 0, (x,))),
        LocalInstance(
            "squares", _free(r2), SubmoduleSpec(r2, 0, (x * x, y * y))
        ),
        LocalInstance("unit", _free(r2), SubmoduleSpec(r2, 0, (one,))),
    )


def _random_module(rng, ring, fiber_shift_zero=False):
    # A generator in positive fiber degree is invisible to M_n for small n,
    # so quotients by HM_n with d >= 1 go infinite there; those instances
    # must stay generated in fiber degree 0.
    rank = rng.choice((1, 1, 2))
    shifts = tuple(
        (rng.randrange(0, 2), 0 if fiber_shift_zero else rng.randrange(0, 2))
        for _ in range(rank)
    )
    relations = []
    if rng.random() < 0.4:
        slot = rng.randrange(rank)
        a, n = shifts[slot]
        mono = [0] * ring.nvars
        mono[rng.randrange(len(ring.base))] = rng.randrange(1, 3)
        rel = [ring.zero for _ in range(rank)]
        rel[slot] = ring.monomial(tuple(mono))
        relations.append(tuple(rel))
    return ModulePresentation(FreeModuleSpec(ring, shifts), tuple(relations))


def _random_primary_ideal(rng, ring, max_exp=3):
    """Monomial ideal of fiber degree 0 containing a power of each base var."""
    gens = []
    for i in range(len(ring.base)):
        mono = [0] * ring.nvars
        mono[i] = rng.randrange(1, max_exp + 1)
        gens.append(ring.monomial(tuple(mono)))
    for _ in range(rng.randrange(0, 3)):
        mono = [0] * ring.nvars
        for i in range(len(ring.base)):
            mono[i] = rng.randrange(0, max_exp)
        if sum(mono) == 0:
            continue
        gens.append(ring.monomial(tuple(mono)))
    return SubmoduleSpec(ring, 0, tuple(gens))


def _full_block(rng, ring, d):
    """All products (base monomial of degree c) * (fiber monomial of degree d)."""
    c = rng.randrange(1, 3)
    gens = tuple(
        ring.monomial(m) for m in monomial_basis(ring, (c, d))
    )
    return SubmoduleSpec(ring, d, gens)


def random_pure_instances(count=16, seed=DEFAULT_SEED, field=QQ):
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        fiber = ("T",) if idx % 2 == 0 else ("u", "v")
        ring = RingSpec(field, ("x", "y"), fiber)
        positive_d = idx % 3 == 2
        module = _random_module(rng, ring, fiber_shift_zero=positive_d)
        if positive_d and len(fiber) == 1:
            h = _full_block(rng, ring, rng.randrange(1, 3))
        elif positive_d:
            h = _full_block(rng, ring, 1)
        else:
            h = _random_primary_ideal(rng, ring)
        out.append(PureInstance(f"random-pure-{idx:02d}", module, h))
    return tuple(out)


def random_mixed_instances(count=4, seed=DEFAULT_SEED + 1, field=QQ):
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        ring = RingSpec(field, ("x", "y"), ("T",))
        module = _random_module(rng, ring)
        h1 = _random_primary_ideal(rng, ring)
        h2 = _random_primary_ideal(rng, ring)
        out.append(MixedInstance(f"random-mixed-{idx:02d}", module, h1, h2))
    return tuple(out)


def parameter_matrices(count=4, seed=DEFAULT_SEED + 2, field=PrimeField(32003)):
    """Seeded 2 x 3 matrices of linear forms in x, y with dense coefficients.

    Column j is read as the generator a_1j * u + a_2j * v of a submodule H
    of F = k[x,y]{u,v}, so H has e + d - 1 = 3 generators. A generic draw
    has F/H of finite length; a degenerate one does not.
    """
    rng = random.Random(seed)
    ring = RingSpec(field, ("x", "y"), ("u", "v"))
    x, y, u, v = ring.gens()

    def linear():
        return x * rng.randrange(field.p) + y * rng.randrange(field.p)

    out = []
    for idx in range(count):
        gens = tuple(linear() * u + linear() * v for _ in range(3))
        h = SubmoduleSpec(ring, 1, gens)
        out.append(PureInstance(f"parameter-matrix-{idx:02d}", _free(ring), h))
    return tuple(out)
