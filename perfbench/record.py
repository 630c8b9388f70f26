"""Record expected.json: exit code, input digest and stdout digest per pool entry.

Usage (from the repository root): python3 perfbench/record.py

Every pool entry of every workload is run once in-process through
intorder.cli.run, and its certificate is checked before it is recorded,
so the file only ever holds certified answers. The recording is a
regression guard for later changes, which must keep stdout byte-identical;
re-record only when an output change is intended. Prints, per stratum, the
slowest entry, which must stay far inside run.OP_LIMIT_S.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from collections import defaultdict

from run import EXPECTED, OP_LIMIT_S, import_package, raise_timeout


def main() -> None:
    import_package()
    import intorder.cli
    from checks import certify
    from corpus import WORKLOADS, corpus, digest, input_digest

    signal.signal(signal.SIGALRM, raise_timeout)
    recorded: dict[str, dict[str, list]] = {}
    for workload in WORKLOADS:
        table = recorded[workload] = {}
        slowest: dict[str, float] = defaultdict(float)
        for item in corpus(workload):
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            started = time.perf_counter()
            try:
                code, out, err = intorder.cli.run(item.argv, item.text)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            stratum = item.key.split("/")[0]
            slowest[stratum] = max(slowest[stratum], time.perf_counter() - started)
            problem = certify(item, code, json.loads(out)) if out else f"no output: {err}"
            if problem:
                sys.exit(f"{item.key}: {problem}")
            table[item.key] = [code, input_digest(item), digest(out)]
        for stratum, seconds in slowest.items():
            print(f"{workload} {stratum}: slowest {seconds * 1000:.1f} ms", file=sys.stderr)
    # one entry per line, so a re-recording shows as a readable diff
    blocks = []
    for workload, table in sorted(recorded.items()):
        lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(entry)}"
                           for key, entry in sorted(table.items()))
        blocks.append(f"{json.dumps(workload)}: {{\n{lines}\n}}")
    EXPECTED.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
