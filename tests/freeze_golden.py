"""Freeze the CLI outputs that ``tests/test_golden_cli.py`` compares against.

Usage, from the repository root: ``PYTHONPATH=src python3 tests/freeze_golden.py``

Writes ``tests/golden_cli.json``: for each command, the exit code and the
SHA-256 of its stdout, run in-process through ``brmult.cli.run``. The
commands are every line of the benchmark's cli-sweep workload
(``perfbench/workloads.py``), plus ``br``, ``mixed``, ``lambda --csv``,
``verify all`` and ``verify inclusions --grid 4`` on each instance file
under ``demos/instances``, or the forms ``FORMS`` lists in their place
for a file whose full set takes seconds, and the explicit-cutoff forms
``CUTOFF_FORMS``. Rerun it only when an output
is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"
INSTANCES = ROOT / "demos" / "instances"
PER_INSTANCE = (
    "br {}",
    "mixed {}",
    "lambda {} --csv",
    "verify all {}",
    "verify inclusions {} --grid 4",
)
# Files whose full PER_INSTANCE set takes seconds or more: the monomial
# r = 5 block keeps its ``br``, ``lambda --csv`` and ``verify
# telescoping``, and the non-monomial block its ``br`` and ``lambda
# --csv``, which reach its polynomial span plans in about 0.6 s each.
# The pairs with a rank-2 submodule keep every form and add ``verify
# operator`` and ``verify factor-sum``. In-process, their ``verify
# inclusions --grid 4`` forms take 1-2 s each and their ``verify all``
# forms under 2 s; every other kept form runs in under 0.5 s. The two
# blocks whose every power is ranked keep ``br`` over Q and over F_32003
# (0.4-0.8 s each): the Q ranks of the fallback block fail their mod-p
# certificate and are redone in Fractions.
PAIR_FORMS = PER_INSTANCE + ("verify operator {}", "verify factor-sum {}")
RANKED_FORMS = ("br {}", "br {} --modp 32003")
FORMS = {
    "block_3x3.txt": ("br {}", "lambda {} --csv", "verify telescoping {}"),
    "minors_3var.txt": ("br {}", "lambda {} --csv"),
    "fallback_block.txt": RANKED_FORMS,
    "generic_linear_block.txt": RANKED_FORMS,
    "module_pair.txt": PAIR_FORMS,
    "ideal_module_pair.txt": PAIR_FORMS,
}
# Explicit cutoffs, which no form above sets: monomial and polynomial
# walks that stop inside theirs, and each error a cutoff can end a walk
# with (a polynomial and a two-sided walk past it, a walk cut off before
# its spans act, and one before its certificate degree).
CUTOFF_FORMS = (
    "mixed demos/instances/squares_vs_max.txt --cutoff 30",
    "br demos/instances/min_deg_one_block.txt --cutoff 20",
    "br demos/instances/minors_3var.txt --cutoff 20",
    "br demos/instances/minors_3var.txt --cutoff 2",
    "samuel demos/instances/local_squares.txt --cutoff 12",
    "mixed demos/instances/squares_vs_max.txt --cutoff 8",
    "samuel demos/instances/local_max_ideal.txt --cutoff 0",
)


def golden_commands() -> list:
    """Command lines, each with its instance path relative to the root."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import CLI_SWEEP, sweep_argv
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    lines = [" ".join(sweep_argv(line)) for line in CLI_SWEEP]
    for path in sorted(INSTANCES.glob("*.txt")):
        relative = path.relative_to(ROOT).as_posix()
        forms = FORMS.get(path.name, PER_INSTANCE)
        lines += [form.format(relative) for form in forms]
    return list(dict.fromkeys(lines + list(CUTOFF_FORMS)))


def clear_caches() -> None:
    """Empty every module-level cache of brmult, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("brmult."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def outcome(line: str) -> dict:
    """Exit code and stdout digest of one command line, run in-process
    from empty caches, which it leaves empty for the next caller."""
    from brmult.cli import run

    argv = [str(ROOT / w) if w.startswith("demos/") else w for w in line.split()]
    clear_caches()
    try:
        code, output = run(argv)
    finally:
        clear_caches()
    return {"exit": code, "sha256": hashlib.sha256(output.encode()).hexdigest()}


def main() -> None:
    golden = {line: outcome(line) for line in golden_commands()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} commands to {GOLDEN}")


if __name__ == "__main__":
    main()
