"""slmatch benchmark: seeded workloads through the public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/slmatch``.  Workloads
(one batch client, closed loop: each sweep runs to completion before the
next starts):

  exhaustive6   verify --exhaustive 6 --out F          26,704 tiny graphs
  stream_large  verify --graph6-file C --out F         seeded corpus to n=1000
  random_par2   verify --random 12 --p 0.85 --count 8000 --seed N --jobs 2 --out F
  proof_scan    proof-check --all --nmax 40, then every scenario with even n <= 30

Each repetition is a fresh process (bench_child.py); repetitions run until
the next one would overrun --seconds of measured time, and every output is
checked against bench_reference before its numbers count.  Set-up probes,
each a fresh process too, run between the first repetitions: the machine's
speed changes in spells of seconds to tens of seconds, and probes spread
over the run do not all fall into one spell.  With --trace 0 the end-to-end
metrics are printed, each the median over repetitions (over SETUP_REPS
probes for setup_s):

  wall_s       entry call to a returned summary
  items_per_s  verdict records (plus proof reports and scenarios) per second
  cpu_s        user + system time of the process and its reaped children
  setup_s      interpreter start to `import slmatch` and a first q1 returned
  peak_rss_mb  larger of the process's and its children's peak RSS

With --trace 1, untraced and traced repetitions alternate (random_par2 runs
serially in both, because spans inside pool workers cannot be read from
outside) and the per-layer metrics of bench_trace are printed: medians over
traced repetitions, plus the tracing overhead.  The last line of output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is 1 if any output disagreed with the reference and 2 if the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_trace
from bench_workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 20
SETUP_PER_REP = 4  # set-up probes before each repetition until SETUP_REPS
RUN_LIMIT_S = 170.0  # every child is killed once the whole run reaches this

SETUP_CODE = (
    "import slmatch\n"
    "slmatch.q1(slmatch.build_graph(4, [(0, 1), (1, 2), (2, 3)]))\n"
    "print('ready', flush=True)\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run to the end."""


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    suffix = name.rsplit(".", 1)[-1]
    return {
        "calls": "count",
        "self_s": "s",
        "p50_us": "us",
        "p99_us": "us",
        "us_per_kb": "us/KB",
        "max_abs_err": "1",
    }.get(suffix, "ratio")


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env(workdir: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts: the source tree on
    the path, temporary files inside the run's work directory."""
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(workdir))


def setup_probe(workdir: Path, deadline: float) -> float:
    """Seconds from process start to a first q1, in a fresh process."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], cwd=workdir, env=child_env(workdir),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        ready = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("set-up probe did not finish in time") from None
    finally:
        _kill_group(proc)
        proc.wait()
    if ready != "ready" or proc.returncode != 0:
        raise BenchError("set-up probe failed: cannot import slmatch and compute q1")
    return elapsed


def run_rep(workload, traced: bool, serial: bool, workdir: Path, deadline: float) -> dict:
    spec = {
        "src": str(SRC),
        "argv": workload.argv(serial),
        "scan_nmax": workload.scan_nmax,
        "trace": traced,
        "result": str(workdir / "result.json"),
        "spans": str(workdir / "spans.npz"),
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "bench_child.py"), str(spec_path)],
        cwd=workdir, env=child_env(workdir), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition did not finish in time") from None
    finally:
        _kill_group(proc)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"repetition process exited with {proc.returncode}: {stderr[-2000:]}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    if traced:
        result["layers"] = bench_trace.summarize(spec["spans"], result["wall_s"])
    return result


def source_loc() -> int:
    """Net source lines of src/slmatch: neither blank nor comment-only."""
    total = 0
    for path in sorted((SRC / "slmatch").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


def git_commit() -> str:
    """Commit of the source tree: HEAD, resolved through a loose ref or
    packed-refs; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="ascii").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            commit, _, name = line.partition(" ")
            if name == ref:
                return commit
    return "unknown"


def run_metadata(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "src_loc": source_loc(),
    }


@dataclass
class Measured:
    """One benchmark run: its metrics and how its outputs fared."""

    metrics: dict[str, float]
    units: dict[str, str]
    rep_walls: dict[str, list[float]]
    attempted: int
    failed: int
    problems: list[str]


def measure(name: str, seed: int, seconds: int, trace: bool, workdir: Path) -> Measured:
    """Run the workload's repetitions and check each one's output."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[name](workdir, seed)
    setup_probe(workdir, deadline)  # warm-up, not counted
    setup: list[float] = []

    kinds = [False, True] if trace else [False]
    reps: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, list[float]] = {False: [], True: []}
    spent, attempted, failed, problems, q1_err = 0.0, 0, 0, [], 0.0
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        if i >= len(kinds):
            estimate = statistics.median(durations[traced])
            if spent + estimate > seconds:
                break
        for _ in range(min(SETUP_PER_REP, SETUP_REPS - len(setup))):
            setup.append(setup_probe(workdir, deadline))
        start = time.perf_counter()
        result = run_rep(workload, traced, trace, workdir, deadline)
        durations[traced].append(time.perf_counter() - start)
        spent += durations[traced][-1]
        outcome = workload.check(result)
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(outcome.problems)
        q1_err = max(q1_err, outcome.q1_err)
        result["items"] = outcome.items
        reps[traced].append(result)

    while len(setup) < SETUP_REPS:
        setup.append(setup_probe(workdir, deadline))

    untraced, traced_reps = reps[False], reps[True]
    if not trace:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END_UNITS
    else:
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced_reps)
            for key in traced_reps[0]["layers"]
        }
        metrics["spectral.q1.max_abs_err"] = q1_err
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced_reps)
            / statistics.median(r["wall_s"] for r in untraced)
            - 1.0
        )
        units = {key: layer_unit(key) for key in metrics}
    rep_walls = {
        "untraced": [r["wall_s"] for r in untraced],
        "traced": [r["wall_s"] for r in traced_reps],
    }
    return Measured(metrics, units, rep_walls, attempted, failed, problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "slmatch" / "__init__.py").is_file():
        print(f"error: no slmatch source tree at {SRC}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("meta " + json.dumps(run_metadata(args.seed)))
    for kind, walls in run.rep_walls.items():
        if walls:
            print(f"{kind} repetitions {len(walls)}, wall_s each: "
                  + " ".join(f"{w:.4f}" for w in walls))
    for key, value in run.metrics.items():
        print(f"{key} {value!r} {run.units[key]}")
    print(f"fail_ratio {run.failed / run.attempted!r} ratio "
          f"({run.failed} of {run.attempted} items)")
    for problem in run.problems[:20]:
        print(f"mismatch {problem}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": run.units[k]} for k, v in run.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
