"""Run one brmult CLI query in a fresh interpreter, as the benchmark's child.

Usage: python3 child.py <trace-file|-> [brmult arguments...]

The program's output goes to stdout unchanged, and the exit code is the
program's. Without brmult arguments the child only starts and reports.
The last line on stderr is a JSON object with the monotonic time at
which ``import brmult`` returned, the process's CPU time then and at the
end, and its peak RSS.
With a trace file, the tracer wraps brmult's public functions first and
writes its spans to that file when the query ends.
"""

import time

import brmult.cli

IMPORTED = time.monotonic()
CPU_IMPORTED = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(
            {
                name: module
                for name, module in sys.modules.items()
                if name == "brmult" or name.startswith("brmult.")
            }
        )
    code = 0
    if argv:
        code, output = brmult.cli.run(argv)
        sys.stdout.write(output)
        sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    report = {
        "imported": IMPORTED,
        "cpu_imported": CPU_IMPORTED,
        "cpu": time.process_time(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
