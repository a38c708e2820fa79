"""The repository benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload survey-pool-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``BENCHMARK.json`` and ``perfbench/README.md``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's context (host facts, input sizes, call statistics, digests).  The
exit code is 0 only when every output check passed.

Each timed run starts ``SESSIONS`` fresh processes one after another, as
a user of the library would: each imports the library, builds the inputs
from the seed, makes one warm-up call (all of it set-up) and then times
calls for its share of ``--seconds``.  This process samples the memory
of each session and its pool workers meanwhile.  Everything the
benchmark writes goes under a work directory in the checkout that is
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("policy-leafspine", "survey-pool-cold", "survey-store-warm", "ingest-dumps")

#: Fresh-process set-ups per timed run; set-up time is their median.
SESSIONS = 3

#: Wall-clock ceiling of one run, below the 180 s every run must end in.
DEADLINE_S = 170.0

#: Period of the memory sampler.
SAMPLE_INTERVAL_S = 0.05

#: Numeric libraries run single-threaded: the workloads add no threads.
ENVIRONMENT = {"PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The run could not produce a result."""


def _process_tree(pid: int) -> list[int]:
    """``pid`` and its live descendants, from ``/proc``."""
    pids, pending = [], [pid]
    while pending:
        current = pending.pop()
        pids.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
            except OSError:
                pass
    return pids


def _pss_kib(pid: int) -> int:
    """Proportional set size of one process: shared pages split among sharers."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_kib(pid: int) -> int:
    """Memory of a session and its forked pool workers, without double counting."""
    return sum(_pss_kib(member) for member in _process_tree(pid))


def run_session(args: argparse.Namespace, index: int, seconds: float, workdir: Path,
                deadline: float) -> tuple[dict, int]:
    """Run one fresh-process session; return its result and peak memory (KiB)."""
    directory = workdir / f"session-{index}"
    directory.mkdir()
    result = directory / "result.json"
    command = [sys.executable, "-B", str(HERE / "session.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--verify", "1" if index == 0 else "0",
               "--workdir", str(directory), "--result", str(result)]
    environment = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(directory),
                       **ENVIRONMENT)
    peak = 0
    marker = directory / "timed"
    launched = time.monotonic()
    process = subprocess.Popen(command + ["--launched", repr(launched)], cwd=ROOT,
                               env=environment, stdout=sys.stderr)
    try:
        while True:
            try:
                process.wait(timeout=SAMPLE_INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() > deadline:
                raise BenchmarkError(f"session {index} overran the {DEADLINE_S:g} s limit")
            if marker.exists():
                peak = max(peak, tree_pss_kib(process.pid))
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or not result.exists():
        raise BenchmarkError(f"session {index} exited with code {process.returncode}")
    return json.loads(result.read_text()), peak


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    summary = {"n": len(values), "median": statistics.median(values)}
    level = int(100 * (1 - 10 / len(values))) if len(values) > 10 else 0
    if level >= 50:
        summary[f"p{level}"] = statistics.quantiles(values, n=100)[level - 1]
    return summary


def host_facts() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "platform": platform.platform()}


def timed_run(args: argparse.Namespace, workdir: Path, deadline: float) -> tuple[dict, dict]:
    sessions = []
    peaks = []
    for index in range(SESSIONS):
        outcome, peak = run_session(args, index, args.seconds / SESSIONS, workdir, deadline)
        sessions.append(outcome)
        peaks.append(peak)
    calls = [call for outcome in sessions for call in outcome["calls"]]
    setups = [outcome["setup_s"] for outcome in sessions]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pairs_per_s": (statistics.median(pairs / seconds for seconds, pairs, _ in calls),
                        "pairs/s"),
        "updates_per_s": (statistics.median(updates / seconds
                                            for seconds, _, updates in calls), "updates/s"),
        "peak_rss_mb": (max(peaks) / 1024, "MiB"),
    }
    context = {"sessions": SESSIONS, "fresh_process": True,
               "setup_s": setups, "call_s": tail([call[0] for call in calls]),
               "peak_rss_mb": [peak / 1024 for peak in peaks],
               "sizes": sessions[0]["sizes"], "quality": sessions[0]["quality"],
               "digests": sessions[0]["digests"]}
    return _summary(sessions, metrics, context)


def traced_run(args: argparse.Namespace, workdir: Path, deadline: float) -> tuple[dict, dict]:
    outcome, _ = run_session(args, 0, args.seconds, workdir, deadline)
    print(json.dumps({"spans": outcome["spans"]}), file=sys.stderr)
    metrics = {name: tuple(value) for name, value in outcome["metrics"].items()}
    context = {"sessions": 1, "fresh_process": True, "sizes": outcome["sizes"],
               "digests": outcome["digests"], "spans": len(outcome["spans"])}
    return _summary([outcome], metrics, context)


def _summary(sessions: list[dict], metrics: dict, context: dict) -> tuple[dict, dict]:
    errors = [error for outcome in sessions for error in outcome["errors"]]
    result = {"correct": not errors,
              "attempted": sum(outcome["attempted"] for outcome in sessions),
              "failed": sum(outcome["failed"] for outcome in sessions),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    context["errors"] = errors
    return result, context


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        run = traced_run if args.trace else timed_run
        result, context = run(args, workdir, deadline)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, host=host_facts())
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
