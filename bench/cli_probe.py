"""Run one ``repro`` CLI command with the benchmark's layer tracer.

Usage: ``python3 bench/cli_probe.py OUT.json analyze FILE``

Behaves like ``python -m repro analyze FILE`` (same output, same exit
code) and writes to OUT.json the time spent importing ``repro.cli``,
the time of the command itself, and the tracer's layer aggregates.
"""

import json
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - t0

    import layers

    tracer = layers.Tracer()
    tracer.install()
    tracer.begin_task(" ".join(argv[:1]))
    t1 = time.perf_counter()
    try:
        code = repro.cli.main(argv)
    finally:
        command_s = time.perf_counter() - t1
        tracer.end_task()
        tracer.uninstall()
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, "command_s": command_s,
                   "trace": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
