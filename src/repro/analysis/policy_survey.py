"""The fleet policy survey: cost vs quality for every (metric, device) pair.

This is the paper's headline experiment (the cost/quality sweet spot) run
at survey scale: for every measurement point of a
:class:`~repro.telemetry.source.TraceSource`, evaluate how today's
fixed-rate polling compares against Nyquist-informed sampling policies --
what each policy costs (samples collected, hop-weighted bytes moved,
storage, analysis) and what quality it returns (reconstruction error
against the reference trace).

The pipeline mirrors :func:`repro.analysis.survey.run_survey` feature for
feature:

* **Columnar storage.**  Each (metric batch, policy) produces one
  :class:`~repro.pipeline.evaluation.PolicyRecordBlock`; aggregations are
  streamed numpy reductions over the blocks.
* **Out-of-core results.**  Blocks flow into a
  :class:`~repro.records.RecordSink`; pass a
  :class:`~repro.records.SpillingRecordSink` and a fleet-scale evaluation
  holds one ``chunk_size`` block in memory at a time.  A spilled run
  re-opens later via ``PolicySurveyResult(sink=SpillingRecordSink(dir))``.
* **Multi-worker execution.**  ``run_policy_survey(workers=N)`` fans
  trace production, policy collection, reconstruction *and* cost
  accounting out to a process pool.  Workers receive picklable batch
  specs (the source's ``worker_spec()`` plus a pair-slice address, the
  policy suite recipe and the pricing accountant), re-open the source
  locally and return compact columnar blocks.  Records are byte-identical
  to ``workers=1`` because slices land on the sequential ``chunk_size``
  boundaries, exactly like the Nyquist survey.
* **Vectorised hot loops.**  Policies are evaluated through
  :meth:`~repro.pipeline.policies.SamplingPolicy.evaluate_batch`: the
  fixed-rate baseline and the Nyquist-static policy run as a handful of
  matrix operations (one ``estimate_batch`` calibration call, one batched
  FFT reconstruction per decimation group), the adaptive controller steps
  all rows through their windows in lock-step; pricing is one vectorised
  :meth:`~repro.network.cost.TelemetryCostAccountant.price_sample_block`
  call per block.

Policies are specified as a :class:`~repro.pipeline.policies.PolicySuite`
(rates derived per metric from the production interval -- the right choice
for fleets whose metrics poll at different rates) or an explicit policy
sequence applied to every metric.  With a
:class:`~repro.network.DeploymentTraceSource` and an accountant built on
the same topology, the survey prices every point with real fabric hop
counts -- the end-to-end wiring of :mod:`repro.network`.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ..faults.execution import (RETRYABLE_EXCEPTIONS, BatchExecutionError, RetryPolicy,
                                run_batch_tasks)
from ..network.cost import TelemetryCostAccountant
from ..pipeline.evaluation import PointEvaluation, PolicyRecordBlock
from ..pipeline.policies import PolicySuite, SamplingPolicy, StaticPolicySuite
from ..records import (FailureRecord, FailureRecordBlock, MemoryRecordSink,
                       RecordSink, RecordStore, SpillingRecordSink, fingerprint_slice)
from ..telemetry.source import TraceBatch, TraceSource, WorkerSpec, batch_offsets
from .survey import OnError, _materialise_blocks, _spill_task_blocks

__all__ = ["PolicySurveyResult", "run_policy_survey", "OnError"]


#: Columns accumulated per policy by the streaming aggregation.
_SUM_COLUMNS = ("collection_cpu_us", "transmission", "storage_bytes", "analysis")


@dataclass
class _PolicyTotals:
    """Streaming accumulator for one policy's aggregate row."""

    points: int = 0
    samples: int = 0
    collection_cpu_us: float = 0.0
    transmission: float = 0.0
    storage_bytes: float = 0.0
    analysis: float = 0.0
    nrmse_sum: float = 0.0
    nrmse_count: int = 0
    worst_nrmse: float = float("nan")

    def add(self, block: PolicyRecordBlock) -> None:
        self.points += len(block)
        self.samples += int(block.samples.sum())
        for column in _SUM_COLUMNS:
            setattr(self, column,
                    getattr(self, column) + float(getattr(block, column).sum()))
        finite = block.nrmse[~np.isnan(block.nrmse)]
        if finite.size:
            self.nrmse_sum += float(finite.sum())
            self.nrmse_count += int(finite.size)
            worst = float(finite.max())
            if not self.worst_nrmse >= worst:  # also replaces the initial nan
                self.worst_nrmse = worst

    @property
    def total_cost(self) -> float:
        return (self.collection_cpu_us + self.transmission
                + self.storage_bytes + self.analysis)

    @property
    def mean_nrmse(self) -> float:
        return self.nrmse_sum / self.nrmse_count if self.nrmse_count else float("nan")


class PolicySurveyResult:
    """All policy-evaluation records of one survey run, with aggregations.

    Outcomes live in columnar
    :class:`~repro.pipeline.evaluation.PolicyRecordBlock` chunks behind a
    :class:`~repro.records.RecordSink`; every aggregation streams the
    blocks, so a spilled (out-of-core) run aggregates identically to an
    in-memory one while holding one block in memory at a time.
    """

    def __init__(self, sink: RecordSink | None = None,
                 failure_sink: RecordSink | None = None) -> None:
        #: Pairs served from / recomputed past a RecordStore (both stay 0
        #: on store-less runs); see ``run_policy_survey(store=...)``.
        self.cache_hits = 0
        self.cache_misses = 0
        self._sink = sink if sink is not None else MemoryRecordSink()
        self._failure_sink = failure_sink if failure_sink is not None \
            else MemoryRecordSink()
        self._metric_order: list[str] = []
        self._policy_order: list[str] = []
        self._totals_cache: tuple[int, dict[str, _PolicyTotals]] | None = None
        for block in self._sink.blocks():  # adopt pre-existing (reopened) sink content
            self._note(block)

    # ------------------------------------------------------------------
    def _note(self, block: PolicyRecordBlock) -> None:
        if block.metric_name not in self._metric_order:
            self._metric_order.append(block.metric_name)
        if block.policy_name not in self._policy_order:
            self._policy_order.append(block.policy_name)

    def append_block(self, block: PolicyRecordBlock) -> None:
        """Append one columnar chunk of outcomes (the pipeline's feed)."""
        self._sink.append(block)
        self._note(block)

    def iter_blocks(self) -> Iterator[PolicyRecordBlock]:
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
        """Total (policy, measurement point) rows stored."""
        return self._sink.rows

    def metrics(self) -> list[str]:
        """Metric names present in the survey, in first-appearance order."""
        return list(self._metric_order)

    def policies(self) -> list[str]:
        """Policy names present in the survey, in first-appearance order."""
        return list(self._policy_order)

    def evaluations(self) -> Iterator[PointEvaluation]:
        """Per-row view of the columnar store, materialised on demand."""
        for block in self._sink.blocks():
            yield from block.to_evaluations()

    # ------------------------------------------------------------------
    def _totals(self) -> dict[str, _PolicyTotals]:
        """Streamed per-policy totals, cached per sink state.

        Reporting typically asks for ``rows()`` *and* ``relative_costs``;
        without the cache each call would re-stream (for a spilled run:
        re-read and decompress) every block.
        """
        if self._totals_cache is not None and self._totals_cache[0] == self._sink.rows:
            return self._totals_cache[1]
        totals = {name: _PolicyTotals() for name in self._policy_order}
        for block in self._sink.blocks():
            totals[block.policy_name].add(block)
        self._totals_cache = (self._sink.rows, totals)
        return totals

    def rows(self) -> list[dict[str, float | str]]:
        """One aggregate cost/quality row per policy -- the paper's table.

        Keys mirror :meth:`~repro.pipeline.evaluation.PolicySummary.as_row`
        (minus the detection columns, which the fleet survey does not
        score): points, samples, the cost components and total, and the
        mean/worst reconstruction nrmse across the fleet.
        """
        rows = []
        for name, totals in self._totals().items():
            rows.append({
                "policy": name,
                "points": float(totals.points),
                "samples": float(totals.samples),
                "total_cost": totals.total_cost,
                "collection_cpu_us": totals.collection_cpu_us,
                "transmission": totals.transmission,
                "storage_bytes": totals.storage_bytes,
                "analysis": totals.analysis,
                "mean_nrmse": totals.mean_nrmse,
                "worst_nrmse": totals.worst_nrmse,
            })
        return rows

    def relative_costs(self, baseline_policy: str) -> dict[str, float]:
        """Total cost of each policy relative to ``baseline_policy``.

        The paper's headline comparison.  Raises :class:`ValueError` when
        the baseline's total cost is zero rather than flooding the report
        with ``nan``.
        """
        totals = self._totals()
        if baseline_policy not in totals:
            raise KeyError(f"unknown policy {baseline_policy!r}")
        baseline = totals[baseline_policy].total_cost
        if baseline == 0:
            raise ValueError(
                f"baseline policy {baseline_policy!r} has zero total cost "
                f"({totals[baseline_policy].points} points evaluated); "
                "relative costs are undefined")
        return {name: entry.total_cost / baseline for name, entry in totals.items()}

    def nrmse_values(self, policy_name: str,
                     metric_name: str | None = None) -> np.ndarray:
        """All finite per-point nrmse values of one policy (quality CDFs)."""
        parts = [block.nrmse[~np.isnan(block.nrmse)]
                 for block in self._sink.blocks()
                 if block.policy_name == policy_name
                 and (metric_name is None or block.metric_name == metric_name)]
        return np.concatenate(parts) if parts else np.array([])


# ----------------------------------------------------------------------
def _coerce_suite(
        policies: PolicySuite | StaticPolicySuite | Sequence[SamplingPolicy],
) -> PolicySuite | StaticPolicySuite:
    """Accept a suite or an explicit policy sequence."""
    if hasattr(policies, "build"):
        return policies
    return StaticPolicySuite(tuple(policies))


def _evaluate_batch_blocks(metric_name: str, batch: TraceBatch,
                           suite: PolicySuite | StaticPolicySuite,
                           accountant: TelemetryCostAccountant
                           ) -> list[PolicyRecordBlock]:
    """Evaluate every policy of the suite on one trace batch and price it."""
    devices = [pair.device.device_id for pair in batch.pairs]
    blocks = []
    for policy in suite.build(batch.interval):
        evaluation = policy.evaluate_batch(batch.values, batch.interval)
        priced = accountant.price_sample_block(devices, evaluation.samples_collected)
        blocks.append(PolicyRecordBlock.from_batch(metric_name, evaluation,
                                                   devices, priced))
    return blocks


#: Per-worker-process source cache, keyed by the hashable worker spec --
#: the same idiom as the Nyquist survey's worker pool.
_WORKER_SOURCES: dict[WorkerSpec, TraceSource] = {}


def _policy_slice_blocks(source: TraceSource, metric_name: str, offset: int,
                         limit: int | None,
                         suite: PolicySuite | StaticPolicySuite,
                         accountant: TelemetryCostAccountant,
                         chunk_size: int) -> list[PolicyRecordBlock]:
    """Evaluate and price one pair slice, compacted into columnar blocks."""
    blocks: list[PolicyRecordBlock] = []
    for batch in source.trace_batches(metric_name, limit=limit, offset=offset,
                                      chunk_size=chunk_size):
        blocks.extend(_evaluate_batch_blocks(metric_name, batch, suite, accountant))
    return blocks


def _policy_worker(task: tuple) -> list:
    """Process-pool entry point: serve one pair slice, evaluate, price, compact.

    ``task`` is a picklable batch spec ``(worker_spec, metric_name,
    offset, limit, suite, accountant, chunk_size, spill)``; the worker
    re-opens the trace source locally from the spec, runs the batched
    policy evaluation and the vectorised pricing, and returns compact
    columnar blocks -- no trace data crosses the process boundary.  With
    ``spill`` set (a ``(scratch_dir, task_tag)`` pair, used when the
    parent re-serialises blocks anyway), the blocks are written as
    scratch ``.rcb`` files and only
    :class:`~repro.records.BlockFileRef` pointers return through the
    pipe.  A slice address outside the source's pair list raises instead
    of silently dropping records.

    Failures surface as :class:`~repro.faults.BatchExecutionError` naming
    the batch spec (source, metric, offset, limit) -- never a bare
    traceback from the pool -- with IO-shaped errors marked retryable.
    """
    (spec, metric_name, offset, limit, suite, accountant, chunk_size, spill) = task
    context = (f"policy batch (source={spec}, metric={metric_name!r}, "
               f"offset={offset}, limit={limit})")
    try:
        source = _WORKER_SOURCES.get(spec)
        if source is None:
            source = spec.open()
            _WORKER_SOURCES[spec] = source
        blocks = _policy_slice_blocks(source, metric_name, offset, limit, suite,
                                      accountant, chunk_size)
        if spill is None:
            return blocks
        return _spill_task_blocks(blocks, spill, "policy")
    except Exception as error:
        raise BatchExecutionError.wrap(error, context) from error


def _quarantine_policy_slice(source: TraceSource, result: PolicySurveyResult,
                             metric_name: str, offset: int, limit: int | None,
                             suite: PolicySuite | StaticPolicySuite,
                             accountant: TelemetryCostAccountant) -> None:
    """Per-pair salvage of one failed batch slice.

    Traces are loaded pair by pair; loadable pairs are re-assembled into
    one survivor batch and evaluated/priced together (policy evaluation
    is row-independent, so survivor records match the no-fault run),
    while unloadable pairs become failure rows.  Should the survivor
    *evaluation* itself fail, the whole survivor batch is quarantined at
    stage ``"evaluate"`` -- the evaluation is batched, so per-pair blame
    is not available there.
    """
    pairs = source.pairs_for_metric(metric_name)[offset:offset + limit]
    survivors: list = []
    values: list[np.ndarray] = []
    failures: list[FailureRecord] = []
    positions: list[int] = []
    interval = 0.0
    for position, pair in enumerate(pairs):
        try:
            trace = source.load(pair)
        except Exception as error:
            failures.append(FailureRecord.from_pair(pair, metric_name, "trace", error,
                                                    offset + position))
            continue
        survivors.append(pair)
        values.append(trace.values)
        positions.append(offset + position)
        interval = trace.interval
    if survivors:
        batch = TraceBatch(tuple(survivors), np.vstack(values), interval)
        try:
            blocks = _evaluate_batch_blocks(metric_name, batch, suite, accountant)
        except Exception as error:
            failures.extend(
                FailureRecord.from_pair(pair, metric_name, "evaluate", error, position)
                for pair, position in zip(survivors, positions))
            blocks = []
        for block in blocks:
            result.append_block(block)
    result.append_failures(sorted(failures, key=lambda f: f.provenance))


def _policy_slice_or_quarantine(source: TraceSource, result: PolicySurveyResult,
                                metric_name: str, offset: int, limit: int,
                                suite: PolicySuite | StaticPolicySuite,
                                accountant: TelemetryCostAccountant,
                                chunk_size: int, on_error: OnError,
                                retry: RetryPolicy,
                                sleep: Callable[[float], None]
                                ) -> list[PolicyRecordBlock] | None:
    """Serve one slice sequentially under the run's error policy.

    With ``on_error="raise"`` the first failure propagates; with
    ``"quarantine"`` a transiently failing slice is retried under the
    policy's budget and, once exhausted -- or immediately for content
    errors -- salvaged pair by pair (returning ``None``: the salvage
    appends its blocks and failures to ``result`` itself).
    """
    if on_error == "raise":
        return _policy_slice_blocks(source, metric_name, offset, limit, suite,
                                    accountant, chunk_size)
    for attempt in range(1, retry.max_attempts + 1):
        try:
            return _policy_slice_blocks(source, metric_name, offset, limit,
                                        suite, accountant, chunk_size)
        except RETRYABLE_EXCEPTIONS:
            if attempt < retry.max_attempts:
                sleep(retry.delay(attempt))
                continue
            _quarantine_policy_slice(source, result, metric_name, offset, limit,
                                     suite, accountant)
            return None
        except Exception:
            _quarantine_policy_slice(source, result, metric_name, offset, limit,
                                     suite, accountant)
            return None
    return None


def _run_policy_survey_quarantined(source: TraceSource, result: PolicySurveyResult,
                                   suite: PolicySuite | StaticPolicySuite,
                                   accountant: TelemetryCostAccountant,
                                   metric_names: Sequence[str],
                                   limit_per_metric: int | None, chunk_size: int,
                                   retry: RetryPolicy,
                                   sleep: Callable[[float], None]) -> None:
    """Sequential quarantine execution: batch isolation at chunk boundaries.

    The policy-survey mirror of the Nyquist survey's quarantine loop:
    identical slice addresses at any worker count, bounded retry for
    transient errors, per-pair salvage once a slice stays failed.
    """
    for metric_name in metric_names:
        for offset, limit in batch_offsets(source, metric_name, limit_per_metric,
                                           chunk_size):
            blocks = _policy_slice_or_quarantine(
                source, result, metric_name, offset, limit, suite, accountant,
                chunk_size, "quarantine", retry, sleep)
            if blocks is None:
                continue
            for block in blocks:
                result.append_block(block)


def _run_policy_survey_parallel(source: TraceSource, result: PolicySurveyResult,
                                suite: PolicySuite | StaticPolicySuite,
                                accountant: TelemetryCostAccountant,
                                metric_names: Sequence[str],
                                limit_per_metric: int | None, chunk_size: int,
                                workers: int, on_error: OnError,
                                retry: RetryPolicy,
                                sleep: Callable[[float], None],
                                scratch_dir: Path | None = None) -> None:
    """Fan policy evaluation out to a process pool, in survey order.

    Tasks slice each metric's pair list at ``chunk_size`` boundaries --
    exactly where the sequential ``trace_batches`` iteration flushes --
    so the reassembled blocks are byte-identical to a ``workers=1`` run.
    This assumes every trace within one metric shares a (length,
    interval) shape, which holds for all shipped sources (synthetic
    fleets, their exports, deployment sources); a hand-written measured
    manifest mixing shapes inside a metric would still evaluate every
    row identically but flush blocks at the shape changes when
    sequential, so its spill-file boundaries would differ from a pooled
    run.

    Execution runs through :func:`~repro.faults.run_batch_tasks`
    (bounded retry, broken-pool resubmit); a batch that stays failed is
    raised or salvaged pair by pair on the parent's source, mirroring
    the Nyquist survey.
    """
    spec = source.worker_spec()
    tasks = []
    addresses = []
    for metric_name in metric_names:
        for offset, limit in batch_offsets(source, metric_name, limit_per_metric,
                                           chunk_size):
            spill = None if scratch_dir is None else (str(scratch_dir), len(tasks))
            tasks.append((spec, metric_name, offset, limit, suite, accountant,
                          chunk_size, spill))
            addresses.append((metric_name, offset, limit))
    for index, outcome in run_batch_tasks(_policy_worker, tasks, workers,
                                          retry=retry, sleep=sleep):
        if isinstance(outcome, BatchExecutionError):
            if on_error == "raise":
                raise outcome
            metric_name, offset, limit = addresses[index]
            _quarantine_policy_slice(source, result, metric_name, offset, limit,
                                     suite, accountant)
            continue
        for block in _materialise_blocks(outcome):
            result.append_block(block)


def _policy_params_token(suite: PolicySuite | StaticPolicySuite,
                         accountant: TelemetryCostAccountant) -> str:
    """Analysis-parameter half of a policy slice's fingerprint."""
    token = getattr(suite, "cache_token", None)
    if token is None:
        raise ValueError(
            f"policy suite {type(suite).__name__} does not define cache_token(); "
            "store-backed policy surveys need a deterministic parameter fingerprint")
    return f"{token()}|{accountant.cache_token()}"


def _run_policy_survey_with_store(source: TraceSource, result: PolicySurveyResult,
                                  store: RecordStore,
                                  suite: PolicySuite | StaticPolicySuite,
                                  accountant: TelemetryCostAccountant,
                                  metric_names: Sequence[str],
                                  limit_per_metric: int | None, chunk_size: int,
                                  workers: int, on_error: OnError,
                                  retry: RetryPolicy,
                                  sleep: Callable[[float], None],
                                  scratch_dir: Path | None) -> None:
    """Store-backed execution: serve cached slices, recompute only misses.

    The policy-survey mirror of the Nyquist survey's store runner: each
    ``chunk_size`` slice is fingerprinted over its pair contents, the
    suite's and accountant's ``cache_token()``; hits are appended as
    memory-mapped blocks without loading a trace, misses run exactly as a
    store-less run would (pooled or sequential) then written back.
    Quarantined slices are never cached.
    """
    params_token = _policy_params_token(suite, accountant)
    slices: list[tuple[str, int, int]] = []
    fingerprints: list = []
    cached: list = []
    for metric_name in metric_names:
        for offset, limit in batch_offsets(source, metric_name, limit_per_metric,
                                           chunk_size):
            fingerprint = fingerprint_slice("policy", source, metric_name, offset,
                                            limit, chunk_size, params_token)
            slices.append((metric_name, offset, limit))
            fingerprints.append(fingerprint)
            cached.append(store.get(fingerprint))

    outcomes = None
    if workers > 1:
        spec = source.worker_spec()
        tasks = []
        for index, (metric_name, offset, limit) in enumerate(slices):
            if cached[index] is not None:
                continue
            spill = None if scratch_dir is None else (str(scratch_dir), index)
            tasks.append((spec, metric_name, offset, limit, suite, accountant,
                          chunk_size, spill))
        outcomes = run_batch_tasks(_policy_worker, tasks, workers,
                                   retry=retry, sleep=sleep)

    for index, (metric_name, offset, limit) in enumerate(slices):
        hit = cached[index]
        if hit is not None:
            result.cache_hits += limit
            for block in hit:
                result.append_block(block)
            continue
        result.cache_misses += limit
        if outcomes is not None:
            _, outcome = next(outcomes)
            if isinstance(outcome, BatchExecutionError):
                if on_error == "raise":
                    raise outcome
                _quarantine_policy_slice(source, result, metric_name, offset, limit,
                                         suite, accountant)
                continue
            blocks = _materialise_blocks(outcome)
        else:
            maybe_blocks = _policy_slice_or_quarantine(
                source, result, metric_name, offset, limit, suite, accountant,
                chunk_size, on_error, retry, sleep)
            if maybe_blocks is None:
                continue
            blocks = maybe_blocks
        store.put(fingerprints[index], blocks)
        for block in blocks:
            result.append_block(block)


def run_policy_survey(source: TraceSource,
                      policies: PolicySuite | StaticPolicySuite | Sequence[SamplingPolicy],
                      accountant: TelemetryCostAccountant | None = None,
                      metrics: Sequence[str] | None = None,
                      limit_per_metric: int | None = None,
                      chunk_size: int = 256,
                      workers: int | None = None,
                      sink: RecordSink | None = None,
                      on_error: OnError = "raise",
                      failure_sink: RecordSink | None = None,
                      store: RecordStore | None = None,
                      retry: RetryPolicy | None = None,
                      retry_sleep: Callable[[float], None] = time.sleep,
                      ) -> PolicySurveyResult:
    """Evaluate sampling policies over every pair of a trace source.

    Parameters
    ----------
    source:
        Any :class:`~repro.telemetry.source.TraceSource`: a synthetic
        :class:`~repro.telemetry.dataset.FleetDataset`, a recorded
        :class:`~repro.telemetry.measured.MeasuredFleetDataset` (a
        directory exported by ``repro-monitor export-fleet``), or a
        :class:`~repro.network.DeploymentTraceSource` over a monitored
        fabric.  The source's traces are the *references* the policies
        sample from.
    policies:
        A :class:`~repro.pipeline.policies.PolicySuite` (per-metric
        policies derived from the production rate) or an explicit policy
        sequence applied to every metric.
    accountant:
        Prices each point's collected samples; build it on the same
        topology as a deployment source so transmission is weighted by
        real hop counts.  Defaults to the topology-less accountant
        (every device at ``default_hops``).
    metrics / limit_per_metric:
        Restrict the survey (same semantics as ``run_survey``).
    chunk_size:
        Traces held in memory at once; also the row count of each result
        block and the slice size of the multi-worker batch specs.
    workers:
        Worker processes; ``>= 2`` fans the whole per-batch pipeline out
        via picklable specs, byte-identical to a single-process run (for
        sources whose traces share one shape per metric -- true of every
        shipped source; see ``_run_policy_survey_parallel``).
    sink:
        Destination for the columnar result blocks (default: in-memory;
        pass a :class:`~repro.records.SpillingRecordSink` for
        out-of-core runs).
    on_error:
        ``"raise"`` (default) fails fast on the first bad pair;
        ``"quarantine"`` isolates failures instead: each failed batch
        slice is salvaged pair by pair, healthy pairs keep their
        records (byte-identical to a no-fault run at any worker count)
        and failed pairs become
        :class:`~repro.records.FailureRecord` rows in ``failure_sink``.
    failure_sink:
        Destination for the quarantined-failure blocks (default:
        in-memory; pass a :class:`~repro.records.SpillingRecordSink`
        rooted elsewhere than ``sink``).
    store:
        A :class:`~repro.records.RecordStore` for incremental reruns.
        Slices already fingerprinted in the store (pair contents + the
        suite's and accountant's ``cache_token()``) are served as
        memory-mapped blocks without loading a trace; misses run exactly
        as a store-less run would, then are written back atomically.
        ``PolicySurveyResult.cache_hits`` / ``cache_misses`` count the
        pairs on each path; quarantined slices are never cached.
    retry:
        :class:`~repro.faults.RetryPolicy` bounding attempts per batch
        for transient (IO-shaped) failures and crashed workers.
        Defaults to ``RetryPolicy()``.
    retry_sleep:
        Injectable backoff sleep (tests/benchmarks pass a no-op).
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"on_error must be 'raise' or 'quarantine', got {on_error!r}")
    if sink is not None and sink.rows > 0:
        raise ValueError(
            f"sink already holds {sink.rows} records; run_policy_survey needs an "
            "empty sink (point SpillingRecordSink at a fresh directory, or re-open "
            "the existing one with PolicySurveyResult(sink=...))")
    if failure_sink is not None and failure_sink.rows > 0:
        raise ValueError(
            f"failure_sink already holds {failure_sink.rows} records; "
            "run_policy_survey needs an empty failure sink (point "
            "SpillingRecordSink at a fresh directory, or re-open the existing "
            "one with PolicySurveyResult(failure_sink=...))")
    suite = _coerce_suite(policies)
    accountant = accountant or TelemetryCostAccountant()
    result = PolicySurveyResult(sink=sink, failure_sink=failure_sink)
    metric_names = list(metrics) if metrics is not None else source.metric_names()
    retry = retry if retry is not None else RetryPolicy()

    # Workers return .rcb spill-file refs instead of pickled arrays when
    # the parent re-serialises the blocks anyway (store writes, spilling
    # sinks); see run_survey for the layout rationale.
    worker_count = workers if workers is not None else 1
    scratch_dir: Path | None = None
    if worker_count > 1:
        if store is not None:
            scratch_dir = store.directory / ".scratch"
        elif isinstance(sink, SpillingRecordSink):
            scratch_dir = sink.directory / ".scratch"
    try:
        if scratch_dir is not None:
            scratch_dir.mkdir(parents=True, exist_ok=True)

        if store is not None:
            _run_policy_survey_with_store(source, result, store, suite, accountant,
                                          metric_names, limit_per_metric, chunk_size,
                                          worker_count, on_error, retry, retry_sleep,
                                          scratch_dir)
            return result

        if worker_count > 1:
            _run_policy_survey_parallel(source, result, suite, accountant,
                                        metric_names, limit_per_metric, chunk_size,
                                        worker_count, on_error, retry, retry_sleep,
                                        scratch_dir)
            return result
    finally:
        if scratch_dir is not None:
            shutil.rmtree(scratch_dir, ignore_errors=True)

    if on_error == "quarantine":
        _run_policy_survey_quarantined(source, result, suite, accountant,
                                       metric_names, limit_per_metric, chunk_size,
                                       retry, retry_sleep)
        return result

    for metric_name in metric_names:
        for batch in source.trace_batches(metric_name, limit=limit_per_metric,
                                          chunk_size=chunk_size):
            for block in _evaluate_batch_blocks(metric_name, batch, suite, accountant):
                result.append_block(block)
    return result
