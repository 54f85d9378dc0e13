"""Write the gate's expected outputs under perfbench/expected/.

Usage (from the root of a checkout of the seed commit):

    python3 perfbench/freeze.py

The files in expected/ were written this way from the seed commit. They
define correct output for every later commit, so do not run this on a
commit whose outputs are not already known to be right.
"""

from __future__ import annotations

import json
import sys
import time

import gate
import run
import workloads
from instances import DEFAULT_SEED, block_instance, substitutions


def stdout_of(argv) -> tuple:
    outcome = run.spawn(argv, time.monotonic() + 600)
    if outcome is None:
        sys.exit(f"timed out: {' '.join(argv)}")
    return outcome.code, outcome.stdout


def write(name: str, data: bytes) -> None:
    (workloads.EXPECTED / name).write_bytes(data)
    print(f"wrote expected/{name}")


def main() -> int:
    workloads.EXPECTED.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)

    path = run.WORK / "block-vs-max.txt"
    path.write_text(workloads.BLOCK_VS_MAX, encoding="utf-8")
    code, out = stdout_of(("mixed", str(path)) + workloads.BLOCK_VS_MAX_ARGS)
    if code != 0:
        sys.exit("block-vs-max failed")
    write("block-vs-max.json", out)

    base, fiber = next(substitutions(DEFAULT_SEED))
    for name in workloads.NONMONO_ARGS:
        code, oracle = stdout_of(workloads.oracle_argv(name))
        if code != 0:
            sys.exit(f"oracle for {name} failed")
        path = run.WORK / f"{name}-freeze.txt"
        path.write_text(block_instance(base, fiber), encoding="utf-8")
        code, out = stdout_of(("br", str(path)) + workloads.NONMONO_ARGS[name])
        reason = gate.check_same_fit(oracle, code, out)
        if reason is not None:
            sys.exit(f"{name}: the ROADMAP block disagrees with its oracle: {reason}")
        write(f"oracle-{name}.json", oracle)

    sweep = {}
    for line in workloads.CLI_SWEEP:
        code, out = stdout_of(workloads.sweep_argv(line))
        sweep[line] = {"exit": code, "sha256": gate.digest(out)}
        if code != 0:
            sweep[line]["error"] = json.loads(out)["error"]["kind"]
    write("cli-sweep.json", (json.dumps(sweep, indent=2, sort_keys=True) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
