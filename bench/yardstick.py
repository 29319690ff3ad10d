"""A fixed CPU loop that measures how fast the host runs right now.

    python3 -m bench.yardstick

The benchmark starts it beside each experiment child, pinned to the same
CPU, so the two share that CPU's time slices and see the same host.  It
prints ``ready`` once, then repeats a fixed pure-Python loop (a chunk)
and keeps, for each chunk, its monotonic start and end and the CPU time
it took.  On SIGTERM it finishes the current chunk, prints the records
as one JSON list and exits.

On a 2.1 GHz Xeon VM a chunk takes about 1.25 ms of CPU when the host
is quiet and up to twice that when other tenants load it.  Over 17-18
experiments per workload, an experiment's CPU time rose and fell with
the mean chunk time of a loop like this one beside it (correlation
0.92-0.99).
"""

from __future__ import annotations

import json
import signal
import sys
import time

CHUNK_LOOP = 20_000


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    records = []
    print("ready", flush=True)
    while not stop:
        start, cpu = time.monotonic(), time.process_time()
        total = 0
        for i in range(CHUNK_LOOP):
            total += i * i % 7
        records.append((start, time.monotonic(), time.process_time() - cpu))
    json.dump(records, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
