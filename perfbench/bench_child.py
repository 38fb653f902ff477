"""One repetition of a workload, in a fresh process.

    python3 perfbench/bench_child.py SPEC.json

SPEC names the source tree, the ``slmatch`` command line, the proof-scenario
scan (if any), whether to trace, and where to write the result.  Imports
happen before the clock starts; the timed region runs from the entry call to
the returned summary, and its CPU time includes reaped children (pool
workers).
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback


def _scan(proof_harness, nmax: int) -> list[list]:
    """Every deficiency scenario with even n <= nmax through the three
    scenario checks, looked up on the module at call time."""
    rows = []
    for n in range(4, nmax + 1, 2):
        for inst in proof_harness.exhaustive_instances(n):
            root = proof_harness.check_root_bounds(inst)
            shift = proof_harness.check_vertex_shift(inst)
            merge = proof_harness.check_merge_singletons(inst)
            rows.append([
                inst.s, list(inst.parts), root.passed, root.details["graph_q1"],
                shift.passed, shift.skipped, merge.passed, merge.skipped,
            ])
    return rows


def _peak_rss_mb(kids) -> float:
    """Larger of this process's and its reaped children's peak RSS.

    ru_maxrss of this process also counts the memory of the process that
    spawned it (the kernel carries the pre-exec peak over), so this process's
    own peak is read from VmHWM, which starts afresh at exec.
    """
    own_kb = 0
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    return max(own_kb, kids.ru_maxrss) / 1024.0


def _cpu_s(before, after) -> float:
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    from slmatch import cli, proof_harness

    tracer = None
    if spec["trace"]:
        import bench_trace

        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)

    stdout = io.StringIO()
    rc, scan, error = None, [], None
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        rc = cli.main(spec["argv"], stdout=stdout)
        if spec["scan_nmax"]:
            scan = _scan(proof_harness, spec["scan_nmax"])
    except Exception:  # reported as a failed repetition, not a crash
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    if tracer is not None:
        tracer.save(spec["spans"])
    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall_s,
        "cpu_s": _cpu_s(self0, self1) + _cpu_s(kids0, kids1),
        "peak_rss_mb": _peak_rss_mb(kids1),
        "stdout": stdout.getvalue(),
        "scan": scan,
    }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
