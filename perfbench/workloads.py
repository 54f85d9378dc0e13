"""The four workloads: which brmult queries a pass runs, and how each is checked.

A pass is the workload's fixed unit of work. The benchmark runs passes one
after another (a single client in a closed loop), each query in a fresh
interpreter. See README.md for why each workload was chosen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Optional

import gate
from instances import PRIME, block_instance, substitutions

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
ORACLE_INSTANCE = "demos/instances/min_deg_one_block.txt"

# The curated block-vs-max mixed pair of brmult.corpus.curated_mixed.
BLOCK_VS_MAX = (
    "field Q\n"
    "ring base x y fiber u v\n"
    "module free 1 shifts (0,0)\n"
    "submodule H1 fiberdeg 1 gens x*u, x*v, y*u, y*v\n"
    "submodule H2 fiberdeg 0 gens x, y\n"
)
# Grid 5 (216 cells) gives the same e-values as grid 6 and the default 7
# in a few seconds, so a run holds several passes.
BLOCK_VS_MAX_ARGS = ("--grid", "5")
NONMONO_ARGS = {"nonmono-q": ("--grid", "5"), "nonmono-fp": ("--modp", str(PRIME))}
# The cost of a nonmono-fp query differs by up to 15% from draw to draw,
# so its pass sums three draws; over Q the draws cost within a few percent.
DRAWS_PER_PASS = {"nonmono-q": 1, "nonmono-fp": 3}

# One pass of cli-sweep, over demos/instances. Two of these are expected
# error documents: cutoff-exceeded (verify all principal_pair) and
# grading (samuel on an instance with fiber variables).
CLI_SWEEP = (
    "dims min_deg_one_block.txt",
    "lambda min_deg_one_block.txt --grid 4 --csv",
    "lambda killed_axis.txt --r 1",
    "br min_deg_one_block.txt",
    "br killed_axis.txt --r 1",
    "br min_deg_one_block.txt --modp 32003",
    "mixed max_ideal_pair.txt",
    "mixed newton_pair.txt",
    "mixed squares_vs_max.txt --csv",
    "samuel local_max_ideal.txt",
    "samuel local_squares.txt",
    "samuel max_ideal_pair.txt",
    "spread local_one_axis.txt",
    "spread local_squares.txt",
    "verify all max_ideal_pair.txt",
    "verify all newton_pair.txt",
    "verify all min_deg_one_block.txt",
    "verify all killed_axis.txt --r 1",
    "verify all principal_pair.txt",
    "verify telescoping principal_pair.txt",
    "verify factor-sum principal_pair.txt",
    "verify inclusions principal_pair.txt",
    "verify operator newton_pair.txt",
    "verify symmetry squares_vs_max.txt",
)


@dataclass(frozen=True)
class Query:
    argv: tuple
    # (exit code, stdout bytes) -> None when right, else the reason.
    check: Callable[[int, bytes], Optional[str]]


def sweep_argv(line: str) -> tuple:
    """CLI arguments of a CLI_SWEEP line, with the instance path filled in."""
    words = line.split()
    at = 2 if words[0] == "verify" else 1
    words[at] = "demos/instances/" + words[at]
    return tuple(words)


def oracle_argv(workload: str) -> tuple:
    return ("br", ORACLE_INSTANCE) + NONMONO_ARGS[workload]


def _expected(name: str) -> bytes:
    return (EXPECTED / name).read_bytes()


def block_vs_max_passes(seed: int, work: Path):
    """The same query every pass; the seed does not change it."""
    path = work / "block-vs-max.txt"
    path.write_text(BLOCK_VS_MAX, encoding="utf-8")
    check = partial(gate.check_bytes, _expected("block-vs-max.json"))
    query = Query(("mixed", str(path)) + BLOCK_VS_MAX_ARGS, check)
    while True:
        yield [query]


def nonmono_passes(workload: str, seed: int, work: Path):
    """Each pass runs the next DRAWS_PER_PASS draws of the seed's substitutions."""
    check = partial(gate.check_same_fit, _expected(f"oracle-{workload}.json"))
    draws = enumerate(substitutions(seed))
    while True:
        queries = []
        for k, (base, fiber) in islice(draws, DRAWS_PER_PASS[workload]):
            path = work / f"{workload}-{k}.txt"
            path.write_text(block_instance(base, fiber), encoding="utf-8")
            queries.append(Query(("br", str(path)) + NONMONO_ARGS[workload], check))
        yield queries


def cli_sweep_passes(seed: int, work: Path):
    """Every pass runs all of CLI_SWEEP, in an order drawn from the seed."""
    expected = json.loads(_expected("cli-sweep.json"))
    rng = random.Random(seed)
    queries = [
        Query(sweep_argv(line), partial(gate.check_digest, expected[line]))
        for line in CLI_SWEEP
    ]
    while True:
        order = list(queries)
        rng.shuffle(order)
        yield order


def passes(workload: str, seed: int, work: Path):
    if workload == "block-vs-max":
        return block_vs_max_passes(seed, work)
    if workload == "cli-sweep":
        return cli_sweep_passes(seed, work)
    return nonmono_passes(workload, seed, work)


def final_checks(workload: str) -> list:
    """Untimed queries run once per run: the nonmono automorphism oracle."""
    if workload not in NONMONO_ARGS:
        return []
    oracle = _expected(f"oracle-{workload}.json")
    return [Query(oracle_argv(workload), partial(gate.check_bytes, oracle))]


WORKLOADS = ("block-vs-max", "nonmono-q", "nonmono-fp", "cli-sweep")
