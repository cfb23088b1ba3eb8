"""The workload's oracle, in a process of its own.

Started by ``worker.py``, so the oracle's arrays stay out of the worker's
peak resident memory. It writes ``ready`` once imported, then answers
each request line ``{"params": ..., "outdir": ...}`` with one line: the
JSON failure reason of that op's artifacts, or ``null``.

    python3 bench/checker.py WORKLOAD
"""

from __future__ import annotations

import json
import sys

from workloads import WORKLOADS


def main(argv=None):
    (name,) = sys.argv[1:] if argv is None else argv
    workload = WORKLOADS[name]
    print("ready", flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        try:
            reason = workload.check(request["params"], request["outdir"])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"artifacts unreadable: {exc!r}"
        print(json.dumps(reason), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
