"""Run one benchmark operation, or one set-up probe, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds "call" ("cli", "hole_report" or "setup"), "argv" (for the
CLI) or "n" (for hole_report), "trace" (bool) and "result" (path of the JSON
file to write). The operation's output goes to this process's stdout, which
the caller points at a file. Each operation gets its own process, so no cache
(the `canonical_masks` lru_cache, packed rows, imported-module state) carries
from one timed operation to the next, as for a user running the CLI.

The reference loop (see "Host speed" in run.py) runs in this process, on the
core the operation runs on: before and after the timed call, or after the
imports for a set-up probe.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import setgraphs
import setgraphs.cli

T_IMPORTED = perf_counter()

REF_ITERS = 20_000  # iterations of one chunk of the reference loop, about 2.5 ms
REF_CHUNKS = 40  # chunks timed in one sample of the host's speed


def reference_chunk() -> int:
    """One chunk of the reference loop: fixed pure-Python work."""
    x = 0
    for i in range(REF_ITERS):
        x ^= (i * 2654435761) & 0xFFFF
    return x


def reference_s() -> float:
    """Median seconds of one reference chunk over REF_CHUNKS chunks run now."""
    times = []
    for _ in range(REF_CHUNKS):
        t0 = perf_counter()
        reference_chunk()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["call"] == "setup":
        # perf_counter reads CLOCK_MONOTONIC, which the parent shares: it
        # times the set-up from its own start of this process to T_IMPORTED.
        result = {"t_imported": T_IMPORTED, "ref_s": [reference_s()]}
        with open(spec["result"], "w") as fh:
            json.dump(result, fh)
        return 0
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    report = None
    ref_before = reference_s()
    t0 = perf_counter()
    if spec["call"] == "cli":
        code = setgraphs.cli.main(spec["argv"])
        sys.stdout.flush()
    else:
        report = setgraphs.hole_report(spec["n"], threads=1)
        code = 0
    wall_s = perf_counter() - t0
    ref_after = reference_s()
    if report is not None:
        sys.stdout.write(json.dumps(report.as_dict()) + "\n")
        sys.stdout.flush()
    result = {"wall_s": wall_s, "ref_s": [ref_before, ref_after], "exit_code": code}
    if tracer is not None:
        result["spans"] = tracer.spans()
        result["canonical_masks_hit_ratio"] = tracer.canonical_masks_hit_ratio()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
