"""Traced stand-in for `python -m intorder <command> --json`.

Reads the graph on stdin, imports the package, installs the tracer, runs
the command through `intorder.cli.run`, and prints one JSON object: exit
code, stdout, the spans, and the time spent inside this process.

Usage: python3 perfbench/cli_child.py <src dir> <command> [args...]
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import IMPORT, Tracer  # noqa: E402


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    argv = sys.argv[2:]
    text = sys.stdin.read()
    tracer = Tracer()
    index = tracer.begin(IMPORT)
    import intorder.cli

    tracer.end(index)
    tracer.install()
    code, out, _ = intorder.cli.run(argv, text)
    tracer.uninstall()
    inside = time.perf_counter() - STARTED
    sys.stdout.write(json.dumps({"code": code, "out": out, "spans": tracer.spans,
                                 "counts": tracer.counts, "inside_s": inside}))


if __name__ == "__main__":
    main()
