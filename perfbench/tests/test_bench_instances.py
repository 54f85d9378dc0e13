from itertools import islice

from brmult.cli import parse_instance

from instances import (
    DEFAULT_SEED,
    ENTRIES,
    PRIME,
    ROADMAP_BASE,
    ROADMAP_FIBER,
    block_instance,
    determinant,
    substitutions,
)


def test_default_seed_starts_with_the_roadmap_block():
    base, fiber = next(substitutions(DEFAULT_SEED))
    assert (base, fiber) == (ROADMAP_BASE, ROADMAP_FIBER)
    gens = block_instance(base, fiber).splitlines()[-1]
    assert gens.endswith(
        "gens (x + 2*y)*(u + v), (x + 2*y)*(u - 2*v),"
        " (3*x - y)*(u + v), (3*x - y)*(u - 2*v)"
    )


def test_substitutions_are_dense_and_invertible_over_q_and_fp():
    for seed in range(40):
        for pair in islice(substitutions(seed), 4):
            for m in pair:
                assert all(entry in ENTRIES for row in m for entry in row)
                assert determinant(m) != 0
                assert determinant(m) % PRIME != 0


def test_same_seed_same_inputs():
    assert list(islice(substitutions(5), 3)) == list(islice(substitutions(5), 3))
    assert list(islice(substitutions(5), 3)) != list(islice(substitutions(6), 3))


def test_every_generated_generator_is_non_monomial():
    for base, fiber in islice(substitutions(3), 4):
        inst = parse_instance(block_instance(base, fiber))
        (name, h), = inst.submodules
        assert len(h.gens) == 4
        assert all(len(g.terms) == 4 for g in h.gens)
