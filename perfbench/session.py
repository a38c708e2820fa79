"""One benchmark session: a fresh process that sets up a workload and measures it.

``run.py`` starts sessions; this file is not meant to be run by hand.  A
session imports the library, builds the workload's inputs, makes one
warm-up call (all of which counts as set-up), then repeats the timed
call until its time share is spent.  With ``--trace 1`` it instead
measures the untraced call, re-drives the workload through the traced
layer calls and reports the per-layer split.  The result goes to the
JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class Session:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workdir = Path(args.workdir)
        self.workload = wl.WORKLOADS[args.workload]()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def fresh_dir(self) -> Path:
        self.count += 1
        directory = self.workdir / "calls" / f"{self.count:05d}"
        directory.mkdir(parents=True)
        return directory

    def fail(self, errors: list[str]) -> None:
        """Record a failed operation (a call whose output check failed)."""
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def checked_call(self, digest: bool = False,
                     **options: int) -> tuple[wl.Call, dict | None]:
        """One public call, its cheap checks and, optionally, its digests."""
        self.attempted += 1
        call = self.workload.call(self.fresh_dir(), **options)
        self.fail(self.workload.check(call))
        digests = self.workload.digests(call) if digest else None
        return call, digests

    def discard(self, call: wl.Call) -> None:
        shutil.rmtree(call.directory)

    # ------------------------------------------------------------------
    def timed(self, launched: float) -> dict:
        sizes = self.workload.setup(self.args.seed, self.workdir)
        first, expected = self.checked_call(digest=True)
        ready = time.monotonic()
        quality = self.workload.quality(first)
        self.fail(wl.check_pinned(self.workload.name, self.args.seed, expected))

        calls = []
        marker = self.workdir / "timed"
        marker.touch()
        deadline = time.monotonic() + self.args.seconds
        while not calls or time.monotonic() < deadline:
            call, _ = self.checked_call()
            calls.append([call.seconds, call.pairs, call.updates])
            # The last call is checked in full against the warm-up call.
            if time.monotonic() >= deadline and self.workload.digests(call) != expected:
                self.fail(["a timed call's output differs from the warm-up call's"])
            self.discard(call)
        marker.unlink()
        if self.args.verify:
            self.fail(self.workload.verify(first))
        self.discard(first)
        return {"setup_s": ready - launched, "calls": calls, "sizes": sizes,
                "quality": quality, "digests": expected}

    # ------------------------------------------------------------------
    def repeat(self, budget: float, run) -> list[float]:
        """Run ``run`` at least twice and until ``budget`` seconds are spent."""
        values: list[float] = []
        deadline = time.monotonic() + budget
        while len(values) < 2 or time.monotonic() < deadline:
            values.append(run())
        return values

    def traced(self) -> dict:
        workload = self.workload
        sizes = workload.setup(self.args.seed, self.workdir)
        first, expected = self.checked_call(digest=True)
        self.fail(wl.check_pinned(workload.name, self.args.seed, expected))
        self.discard(first)
        quality = workload.quality(first)

        def untraced(**options: int) -> float:
            call, _ = self.checked_call(**options)
            self.discard(call)
            return call.seconds

        phases = 3 if workload.uses_pool else 2
        share = self.args.seconds / phases
        steady = statistics.median(self.repeat(share, untraced))
        single = steady
        speedup = 0.0
        if workload.uses_pool:
            single = statistics.median(self.repeat(share, lambda: untraced(workers=1)))
            speedup = single / steady

        tracers: list[tracing.Tracer] = []

        def traced_run() -> float:
            tracer = tracing.Tracer(run=f"{workload.name}-{len(tracers)}")
            directory = self.fresh_dir()
            self.attempted += 1
            try:
                digests = tracing.REDRIVES[workload.name](workload, tracer, directory)
            except tracing.ReDriveMismatch as error:
                digests = None
                self.fail([str(error)])
            if digests is not None and digests != expected:
                self.fail(["re-driven records differ from the untraced call's records"])
            shutil.rmtree(directory)
            tracers.append(tracer)
            return tracer.wall()

        traced_wall = statistics.median(self.repeat(share, traced_run))
        per_layer = [tracing.layer_metrics(t.self_times(), t.counts) for t in tracers]
        metrics = {name: statistics.median(run[name] for run in per_layer)
                   for name in per_layer[0]}
        metrics["faults.execution.speedup"] = speedup
        metrics["faults.execution.first_call_s"] = \
            first.seconds - steady if workload.uses_pool else 0.0
        metrics["trace.overhead_s"] = traced_wall - single
        metrics["trace.coverage"] = statistics.median(
            1.0 - t.self_times()[tracing.ROOT] / t.wall() for t in tracers)
        for name in ("adaptive_relative_cost", "adaptive_mean_nrmse"):
            metrics[f"pipeline.policies.{name}"] = quality.get(name, 0.0)
        return {"metrics": {name: [metrics[name], unit]
                            for name, unit in tracing.UNITS.items()},
                "sizes": sizes, "digests": expected,
                "spans": [vars(span) for span in tracers[-1].spans]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    session = Session(args)
    outcome = session.traced() if args.trace else session.timed(args.launched)
    # Pool workers of the last call may still be exiting; wait for them.
    for child in multiprocessing.active_children():
        child.join()
    outcome.update(attempted=session.attempted, failed=session.failed,
                   errors=session.errors)
    Path(args.result).write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
