"""The slice executor shared by both fleet surveys.

The Nyquist survey (:func:`repro.analysis.survey.run_survey`) and the
policy survey (:func:`repro.analysis.policy_survey.run_policy_survey`)
are one state machine run over two different kernels.  A
:class:`SliceKernel` turns one equal-shape
:class:`~repro.telemetry.source.TraceBatch` into columnar result blocks;
:func:`run_slices` drives it through every execution mode:

* **Slicing.**  Each metric's pair list is cut at ``chunk_size``
  boundaries (:func:`~repro.telemetry.source.batch_offsets`) in every
  mode, so records land in identical blocks at any worker count, sink,
  error policy or store state.
* **Store.**  With a :class:`~repro.records.RecordStore`, every slice is
  fingerprinted over its pair contents and ``kernel.cache_token()``;
  hits are served as memory-mapped blocks and only the misses are
  computed, then written back.  Quarantined slices are never cached.
* **Pool.**  With ``workers > 1`` the misses run as picklable batch specs
  under :func:`~repro.faults.run_batch_tasks` (bounded retry, broken-pool
  rebuild); workers re-open the source from its ``worker_spec()`` and
  return ``.rcb`` spill refs when the parent re-serialises blocks anyway.
* **Quarantine.**  With ``on_error="quarantine"`` a slice that stays
  failed is salvaged pair by pair (:func:`_quarantine_slice`): unloadable
  pairs and rows the kernel cannot evaluate become
  :class:`~repro.records.FailureRecord` rows, healthy rows keep the bytes
  of a clean run.
"""

from __future__ import annotations

import abc
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ClassVar, Generator, Iterator, Literal, Sequence

import numpy as np

from ..faults.execution import (RETRYABLE_EXCEPTIONS, BatchExecutionError, RetryPolicy,
                                run_batch_tasks)
from ..records import (BlockFileRef, ColumnarBlock, FailureRecord, FailureRecordBlock,
                       MemoryRecordSink, RecordSink, RecordStore, SpillingRecordSink,
                       fingerprint_slice)
from ..telemetry.source import TraceBatch, TraceSource, WorkerSpec, batch_offsets

__all__ = ["OnError", "SliceKernel", "SliceResult", "run_slices"]

#: Failure handling of the fleet pipelines: fail fast (the default, the
#: historical behaviour) or quarantine failing pairs as
#: :class:`~repro.records.FailureRecord` rows and finish the healthy ones.
OnError = Literal["raise", "quarantine"]

#: One slice's computed blocks and, for a salvaged slice, its failures
#: (``None`` marks a clean slice, the only kind the store caches).
_Outcome = tuple[list[ColumnarBlock], list[FailureRecord] | None]


@dataclass(frozen=True)
class SliceKernel(abc.ABC):
    """The per-batch work of one survey, picklable to pool workers.

    ``kind`` names the survey: it is the ``fingerprint_slice`` namespace,
    the scratch-file prefix and the context word of a
    :class:`~repro.faults.BatchExecutionError`.  ``stage`` is the failure
    stage recorded for a row the kernel cannot evaluate.  ``evaluate``
    must treat rows independently: a row evaluated alone gives the bytes
    it gets inside any batch, which is what lets salvage drop failing
    rows without disturbing the healthy ones.
    """

    kind: ClassVar[str]
    stage: ClassVar[str]

    @abc.abstractmethod
    def evaluate(self, metric_name: str, batch: TraceBatch) -> list[ColumnarBlock]:
        """Result blocks of one equal-shape trace batch."""

    @abc.abstractmethod
    def cache_token(self) -> str:
        """Analysis-parameter half of a slice's store fingerprint."""


class SliceResult:
    """Sink and failure-sink plumbing shared by both survey results.

    Outcomes live in columnar blocks behind a :class:`RecordSink`;
    quarantined pairs in :class:`~repro.records.FailureRecordBlock`
    chunks behind a second sink.  Blocks already in ``sink`` (a spill
    directory re-opened after the run) are adopted.
    """

    def __init__(self, sink: RecordSink | None = None,
                 failure_sink: RecordSink | None = None) -> None:
        #: Pairs served from / recomputed past a RecordStore (both stay 0
        #: on store-less runs); see ``run_survey(store=...)``.
        self.cache_hits = 0
        self.cache_misses = 0
        self._sink = sink if sink is not None else MemoryRecordSink()
        self._failure_sink = failure_sink if failure_sink is not None \
            else MemoryRecordSink()
        self._metric_order: list[str] = []
        for block in self._sink.blocks():  # adopt pre-existing (reopened) sink content
            self._note(block)

    def _note(self, block: Any) -> None:
        if block.metric_name not in self._metric_order:
            self._metric_order.append(block.metric_name)

    def append_block(self, block: ColumnarBlock) -> None:
        """Append one columnar chunk of outcomes (the pipeline's feed)."""
        self._sink.append(block)
        self._note(block)

    def iter_blocks(self) -> Iterator:
        """Stream the stored columnar chunks in survey order."""
        return self._sink.blocks()

    @property
    def sink(self) -> RecordSink:
        return self._sink

    # --------------------- quarantine accounting -----------------------
    def append_failures(self, failures: Sequence[FailureRecord]) -> None:
        """Record one batch slice's quarantined failures (pipeline feed)."""
        if failures:
            self._failure_sink.append(FailureRecordBlock.from_failures(failures))

    def iter_failure_blocks(self) -> Iterator[FailureRecordBlock]:
        """Stream the quarantined-failure chunks in survey order."""
        return self._failure_sink.blocks()

    @property
    def failure_sink(self) -> RecordSink:
        return self._failure_sink

    @property
    def quarantined(self) -> list[FailureRecord]:
        """Per-failure view of the quarantine store, materialised on demand."""
        return [failure for block in self._failure_sink.blocks()
                for failure in block.failures()]

    @property
    def quarantined_count(self) -> int:
        """Number of pairs quarantined during the run."""
        return self._failure_sink.rows

    def __len__(self) -> int:
        return self._sink.rows

    def metrics(self) -> list[str]:
        """Metric names present in the survey, in first-appearance order."""
        return list(self._metric_order)


# ----------------------------------------------------------------------
def _slice_blocks(kernel: SliceKernel, source: TraceSource, metric_name: str,
                  offset: int, limit: int, chunk_size: int) -> list[ColumnarBlock]:
    """Evaluate one pair slice, one block per kernel output and batch shape."""
    blocks: list[ColumnarBlock] = []
    for batch in source.trace_batches(metric_name, limit=limit, offset=offset,
                                      chunk_size=chunk_size):
        blocks.extend(kernel.evaluate(metric_name, batch))
    return blocks


def _rows(batch: TraceBatch, rows: list[int]) -> TraceBatch:
    """The sub-batch of ``rows`` (in the given order)."""
    return TraceBatch(tuple(batch.pairs[row] for row in rows), batch.values[rows],
                      batch.interval)


def _evaluate_run(kernel: SliceKernel, metric_name: str, batch: TraceBatch,
                  positions: list[int], failures: list[tuple[int, FailureRecord]]
                  ) -> list[ColumnarBlock]:
    """Evaluate one run of salvaged rows, blaming failing rows one by one.

    If the run raises, each row is evaluated alone to find the failing
    ones, which are recorded at ``kernel.stage``; the rest are evaluated
    again as one batch, so the run still gives one block per kernel
    output and every healthy row keeps its bytes.
    """
    try:
        return kernel.evaluate(metric_name, batch)
    except Exception:
        healthy = []
        for row, position in enumerate(positions):
            try:
                kernel.evaluate(metric_name, _rows(batch, [row]))
            except Exception as error:
                failures.append((position, FailureRecord.from_pair(
                    batch.pairs[row], metric_name, kernel.stage, error, position)))
            else:
                healthy.append(row)
        return kernel.evaluate(metric_name, _rows(batch, healthy)) if healthy else []


def _quarantine_slice(kernel: SliceKernel, source: TraceSource, metric_name: str,
                      offset: int, limit: int) -> _Outcome:
    """Per-pair salvage of one failed slice.

    Pairs are loaded one at a time; an unloadable pair becomes a
    ``"trace"`` failure.  Consecutive survivors sharing a (length,
    interval) shape form one batch, which is evaluated as a whole (see
    :func:`_evaluate_run`).  Blocks and failures are pure functions of the
    slice address, so any worker count produces identical record *and*
    failure blocks.
    """
    failures: list[tuple[int, FailureRecord]] = []
    runs: list[tuple[tuple[int, float], list, list[np.ndarray], list[int]]] = []
    pairs = source.pairs_for_metric(metric_name)[offset:offset + limit]
    for position, pair in enumerate(pairs, start=offset):
        try:
            trace = source.load(pair)
        except Exception as error:
            failures.append((position, FailureRecord.from_pair(
                pair, metric_name, "trace", error, position)))
            continue
        shape = (len(trace), trace.interval)
        if not runs or runs[-1][0] != shape:
            runs.append((shape, [], [], []))
        runs[-1][1].append(pair)
        runs[-1][2].append(trace.values)
        runs[-1][3].append(position)
    blocks: list[ColumnarBlock] = []
    for (_, interval), run_pairs, values, positions in runs:
        batch = TraceBatch(tuple(run_pairs), np.vstack(values), interval)
        blocks.extend(_evaluate_run(kernel, metric_name, batch, positions, failures))
    failures.sort(key=lambda item: item[0])  # pair order, as the provenance names it
    return blocks, [failure for _, failure in failures]


def _retry_or_salvage(kernel: SliceKernel, source: TraceSource,
                      address: tuple[str, int, int], chunk_size: int, retry: RetryPolicy,
                      sleep: Callable[[float], None]) -> _Outcome:
    """Serve one slice in process under ``on_error="quarantine"``.

    A transiently failing slice is retried under the policy's budget;
    once that is spent -- or at once for content errors -- it is salvaged
    pair by pair.
    """
    attempt = 1
    while True:
        try:
            return _slice_blocks(kernel, source, *address, chunk_size), None
        except Exception as error:
            if not (isinstance(error, RETRYABLE_EXCEPTIONS)
                    and attempt < retry.max_attempts):
                return _quarantine_slice(kernel, source, *address)
        sleep(retry.delay(attempt))
        attempt += 1


def _in_process_outcomes(kernel: SliceKernel, source: TraceSource,
                         misses: list[tuple[int, tuple[str, int, int]]], chunk_size: int,
                         on_error: OnError, retry: RetryPolicy,
                         sleep: Callable[[float], None]) -> Generator[_Outcome, None, None]:
    """Compute the ``(slice index, address)`` misses in this process, in order.

    ``"raise"`` propagates the first failure unchanged.  Its batch loop
    runs in this generator's own frame, so the last trace batch stays
    alive until the next slice's first batch replaces it, as in one
    sequential stream.  Freeing it at every slice end instead lets the
    allocator trim the top of the heap and fault it back in on the next
    slice: two to three times the page faults (and their system time) per
    policy-survey call, varying with the process's heap layout.
    """
    for _, address in misses:
        if on_error == "quarantine":
            yield _retry_or_salvage(kernel, source, address, chunk_size, retry, sleep)
            continue
        metric_name, offset, limit = address
        blocks: list[ColumnarBlock] = []
        for batch in source.trace_batches(metric_name, limit=limit, offset=offset,
                                          chunk_size=chunk_size):
            blocks.extend(kernel.evaluate(metric_name, batch))
        yield blocks, None


#: Per-worker-process source cache: re-opening the source once per process
#: instead of once per task keeps tasks cheap (worker specs are hashable
#: frozen dataclasses -- a DatasetConfig or a MeasuredSourceSpec -- so the
#: spec doubles as the cache key).
_WORKER_SOURCES: dict[WorkerSpec, TraceSource] = {}


def _spill_task_blocks(blocks: Sequence[ColumnarBlock], spill: tuple[str, int],
                       prefix: str) -> list[BlockFileRef]:
    """Write a worker's result blocks as scratch rcb files, return the refs.

    The refs are a few dozen bytes each, so the pool's result pipe ships
    pointers instead of pickled column arrays -- the fix for multi-worker
    runs being *slower* than sequential ones when a spilling sink or
    record store (which re-serialises the blocks anyway) is in use.
    """
    scratch, tag = spill
    refs: list[BlockFileRef] = []
    for index, block in enumerate(blocks):
        path = Path(scratch) / f"{prefix}-{tag:05d}-{index:03d}.rcb"
        block.save_rcb(path)
        refs.append(BlockFileRef(str(path)))
    return refs


def _materialise_blocks(outcome: Sequence) -> list[ColumnarBlock]:
    """Resolve a worker outcome into blocks, loading spill-file refs.

    Referenced scratch files are unlinked right after the mmap is opened
    (the mapping keeps the data alive), so the scratch directory never
    holds more than the in-flight results.
    """
    blocks = []
    for item in outcome:
        if isinstance(item, BlockFileRef):
            blocks.append(item.load())
            Path(item.path).unlink(missing_ok=True)
        else:
            blocks.append(item)
    return blocks


def _slice_worker(task: tuple) -> list:
    """Process-pool entry point: serve one pair slice through the kernel.

    ``task`` is a picklable batch spec ``(worker_spec, kernel,
    metric_name, offset, limit, chunk_size, spill)``; the worker re-opens
    the trace source locally from the spec (``spec.open()``: a synthetic
    fleet regenerates from its config, a measured fleet re-reads its
    manifest and serves the file-offset slice) and returns compact
    columnar blocks -- no trace data crosses the process boundary.  With
    ``spill`` set (a ``(scratch_dir, task_tag)`` pair), the blocks are
    written as scratch ``.rcb`` files and only
    :class:`~repro.records.BlockFileRef` pointers return through the
    pipe.  A slice address outside the source's pair list raises instead
    of silently dropping records.

    Failures surface as :class:`~repro.faults.BatchExecutionError` naming
    the batch spec (source, metric, offset, limit) -- never a bare
    traceback from the pool -- with IO-shaped errors marked retryable.
    """
    spec, kernel, metric_name, offset, limit, chunk_size, spill = task
    context = (f"{kernel.kind} batch (source={spec}, metric={metric_name!r}, "
               f"offset={offset}, limit={limit})")
    try:
        source = _WORKER_SOURCES.get(spec)
        if source is None:
            source = _WORKER_SOURCES[spec] = spec.open()
        blocks = _slice_blocks(kernel, source, metric_name, offset, limit, chunk_size)
        return blocks if spill is None else _spill_task_blocks(blocks, spill, kernel.kind)
    except Exception as error:
        raise BatchExecutionError.wrap(error, context) from error


def _pooled_outcomes(kernel: SliceKernel, source: TraceSource,
                     misses: list[tuple[int, tuple[str, int, int]]], chunk_size: int,
                     workers: int, on_error: OnError, retry: RetryPolicy,
                     sleep: Callable[[float], None],
                     scratch_dir: Path | None) -> Generator[_Outcome, None, None]:
    """Compute the ``(slice index, address)`` misses on a process pool, in order.

    A batch that stays failed past :func:`~repro.faults.run_batch_tasks`'
    retries is raised or salvaged pair by pair on the parent's own
    source -- the salvage the in-process path runs, so blocks stay
    worker-count independent.
    """
    spec = source.worker_spec()
    tasks = [(spec, kernel, *address, chunk_size,
              None if scratch_dir is None else (str(scratch_dir), index))
             for index, address in misses]
    for position, outcome in run_batch_tasks(_slice_worker, tasks, workers,
                                             retry=retry, sleep=sleep):
        if not isinstance(outcome, BatchExecutionError):
            yield _materialise_blocks(outcome), None
        elif on_error == "raise":
            raise outcome
        else:
            yield _quarantine_slice(kernel, source, *misses[position][1])


def run_slices(kernel: SliceKernel, source: TraceSource, result: SliceResult,
               entry: str, metrics: Sequence[str] | None, limit_per_metric: int | None,
               chunk_size: int, workers: int, on_error: OnError,
               store: RecordStore | None, retry: RetryPolicy,
               sleep: Callable[[float], None]) -> None:
    """Run ``kernel`` over every ``chunk_size`` slice of ``source`` into ``result``.

    ``entry`` names the public function in error messages.  Slices are
    appended in survey order whatever mix of store hits, pooled and
    in-process misses produced them, so records are byte-identical in
    every mode.
    """
    for name, label, sink in (("sink", "sink", result.sink),
                              ("failure_sink", "failure sink", result.failure_sink)):
        if sink.rows > 0:
            # Appending a fresh survey to leftover records would silently
            # corrupt every aggregation with duplicates.
            raise ValueError(
                f"{name} already holds {sink.rows} records; {entry} needs an empty "
                f"{label} (point SpillingRecordSink at a fresh directory, or re-open "
                f"the existing one with {type(result).__name__}({name}=...))")
    metric_names = list(metrics) if metrics is not None else source.metric_names()
    slices = [(metric_name, offset, limit) for metric_name in metric_names
              for offset, limit in batch_offsets(source, metric_name, limit_per_metric,
                                                 chunk_size)]
    fingerprints = []
    cached: list[list | None] = [None] * len(slices)
    if store is not None:
        params_token = kernel.cache_token()
        fingerprints = [fingerprint_slice(kernel.kind, source, *address, chunk_size,
                                          params_token) for address in slices]
        cached = [store.get(fingerprint) for fingerprint in fingerprints]
    misses = [(index, address) for index, address in enumerate(slices)
              if cached[index] is None]

    # Workers return .rcb spill-file refs instead of pickled arrays when
    # the parent re-serialises the blocks anyway (store writes, spilling
    # sinks) -- the scratch directory lives next to the destination so the
    # rename-free loads stay on one filesystem.
    scratch_dir: Path | None = None
    if workers > 1 and store is not None:
        scratch_dir = store.directory / ".scratch"
    elif workers > 1 and isinstance(result.sink, SpillingRecordSink):
        scratch_dir = result.sink.directory / ".scratch"
    outcomes: Generator[_Outcome, None, None]
    if workers > 1:
        outcomes = _pooled_outcomes(kernel, source, misses, chunk_size, workers,
                                    on_error, retry, sleep, scratch_dir)
    else:
        outcomes = _in_process_outcomes(kernel, source, misses, chunk_size, on_error,
                                        retry, sleep)
    try:
        if scratch_dir is not None:
            scratch_dir.mkdir(parents=True, exist_ok=True)
        for index, (_, _, limit) in enumerate(slices):
            blocks = cached[index]
            failures: list[FailureRecord] | None = None
            if blocks is None:
                blocks, failures = next(outcomes)
                if store is not None:
                    result.cache_misses += limit
                    if failures is None:
                        store.put(fingerprints[index], blocks)
            else:
                result.cache_hits += limit
            for block in blocks:
                result.append_block(block)
            result.append_failures(failures or [])
    finally:
        outcomes.close()
        if scratch_dir is not None:
            shutil.rmtree(scratch_dir, ignore_errors=True)
