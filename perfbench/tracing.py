"""Outside-in layer tracing: re-drive a workload through each layer's public call.

The library carries no instrumentation, so the traced run repeats each
workload's pipeline from here, one public layer call at a time, and
records a span around every call.  The re-driven records must equal the
untraced call's records byte for byte (the session checks the digests),
so the per-layer split describes the same program the timed runs measure.
Pool workers run no spans: the pool is measured by the workers=1 /
workers=2 pair instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.analysis.survey import PairCategory, PairRecord, RecordBlock
from repro.core.nyquist import NyquistEstimator
from repro.pipeline.evaluation import PolicyRecordBlock
from repro.records import MemoryRecordSink, SpillingRecordSink, fingerprint_slice
from repro.telemetry.ingest import PairAccumulator, open_export
from repro.telemetry.source import batch_offsets

import workloads as wl

#: Root span of one re-drive; everything outside a layer span is its self time.
ROOT = "workload"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


@dataclass
class Tracer:
    """Spans and counters of one re-drive, held in memory until the run ends."""

    run: str
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0,
                      self._open[-1] if self._open else None, self.run)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def iterate(self, name: str, iterable: Iterable[Any]) -> Iterator[Any]:
        """Yield from ``iterable`` with a span around each step (lazy producers)."""
        iterator = iter(iterable)
        while True:
            with self.span(name):
                item = next(iterator, self)
            if item is self:
                return
            yield item

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start - child
        return totals

    def wall(self) -> float:
        return sum(span.end - span.start for span in self.spans if span.parent is None)


# ----------------------------------------------------------------------
# Re-drives: each returns the digests of the records it produced.
# ----------------------------------------------------------------------
def _policy(workload: wl.PolicyLeafspine, tracer: Tracer, directory: Path) -> dict:
    source, suite, accountant = workload.source, workload.suite, workload.accountant
    sink = MemoryRecordSink()
    with tracer.span(ROOT):
        for metric in source.metric_names():
            batches = source.trace_batches(metric, chunk_size=wl.POLICY_CHUNK)
            for batch in tracer.iterate("telemetry.source", batches):
                tracer.add("telemetry.source.rows", len(batch))
                tracer.add("telemetry.source.bytes", batch.values.nbytes)
                devices = [pair.device.device_id for pair in batch.pairs]
                with tracer.span("pipeline.policies.build"):
                    policies = suite.build(batch.interval)
                for policy in policies:
                    with tracer.span(f"pipeline.policies.{policy.name}"):
                        evaluation = policy.evaluate_batch(batch.values, batch.interval)
                    tracer.add("pipeline.policies.rows", len(batch))
                    with tracer.span("network.cost"):
                        priced = accountant.price_sample_block(
                            devices, evaluation.samples_collected)
                    tracer.add("network.cost.rows", len(batch))
                    with tracer.span("pipeline.evaluation"):
                        block = PolicyRecordBlock.from_batch(metric, evaluation, devices,
                                                             priced)
                    with tracer.span("records.sinks"):
                        sink.append(block)
    return wl.column_digests(sink.blocks())


def _survey_block(metric: str, batch: Any, estimates: Any, duration: float) -> RecordBlock:
    """One batch's survey records, classified by the survey's published rule."""
    records = []
    for pair, estimate in zip(batch.pairs, estimates):
        if not estimate.reliable:
            category = PairCategory.ALIASED_SUSPECT
        elif estimate.reduction_ratio > wl.OVERSAMPLE_THRESHOLD:
            category = PairCategory.OVERSAMPLED
        else:
            category = PairCategory.MARGINAL
        records.append(PairRecord(metric, pair.device.device_id, batch.sampling_rate,
                                  estimate.nyquist_rate, estimate.reduction_ratio,
                                  category, estimate.reliable,
                                  pair.parameters.true_nyquist_rate, duration))
    return RecordBlock.from_records(metric, records)


def _survey(workload: wl.MeasuredSurvey, tracer: Tracer, directory: Path) -> dict:
    dataset = workload.dataset
    sink = SpillingRecordSink(directory / "sink")
    store = workload.store_for(directory)
    estimator = NyquistEstimator()
    # The survey's store key: estimator parameters plus the classification threshold.
    params = f"{estimator.cache_token()}|oversample_threshold={wl.OVERSAMPLE_THRESHOLD!r}"
    written_before = wl.tree_bytes(store.directory)
    with tracer.span(ROOT):
        for metric in dataset.metric_names():
            for offset, limit in batch_offsets(dataset, metric, chunk_size=wl.SURVEY_CHUNK):
                with tracer.span("records.store.fingerprint"):
                    fingerprint = fingerprint_slice("survey", dataset, metric, offset,
                                                    limit, wl.SURVEY_CHUNK, params)
                with tracer.span("records.store.get"):
                    blocks = store.get(fingerprint)
                if blocks is None:
                    tracer.add("records.store.misses", limit)
                    blocks = []
                    batches = dataset.trace_batches(metric, limit=limit, offset=offset,
                                                    chunk_size=wl.SURVEY_CHUNK)
                    for batch in tracer.iterate("telemetry.source", batches):
                        tracer.add("telemetry.source.rows", len(batch))
                        tracer.add("telemetry.source.bytes", batch.values.nbytes)
                        with tracer.span("core.batch"):
                            estimates = estimator.estimate_batch(batch.values,
                                                                 batch.interval)
                        tracer.add("core.batch.rows", len(batch))
                        blocks.append(_survey_block(metric, batch, estimates,
                                                    dataset.trace_duration))
                    with tracer.span("records.store.put"):
                        store.put(fingerprint, blocks)
                else:
                    tracer.add("records.store.hits", limit)
                for block in blocks:
                    with tracer.span("records.sinks"):
                        sink.append(block)
    # Every slice is fingerprinted once, over the bytes of its trace files.
    tracer.add("records.store.fingerprint_bytes", sum(
        (dataset.directory / pair.file).stat().st_size for pair in dataset.pairs()))
    tracer.add("records.store.bytes_written",
               wl.tree_bytes(store.directory) - written_before)
    tracer.add("records.sinks.files", len(sink.files))
    tracer.add("records.sinks.bytes", sum(path.stat().st_size for path in sink.files))
    return wl.column_digests(sink.blocks())


class ReDriveMismatch(Exception):
    """The re-drive disagreed with the program's own run statistics."""


def _ingest(workload: wl.IngestDumps, tracer: Tracer, directory: Path) -> dict:
    with tracer.span(ROOT):
        for kind, path in workload.dumps():
            failed: list[int] = []
            with tracer.span(f"telemetry.ingest.{kind}.parse"):
                updates = list(open_export(path).updates(
                    lambda line, error: failed.append(line)))
            accumulator = PairAccumulator(directory / f"{kind}-scratch",
                                          wl.INGEST_BUDGET_SAMPLES)
            with tracer.span("telemetry.ingest.accumulate"):
                for update in updates:
                    accumulator.add(update.key, update.timestamp, update.value)
            accumulator.close()
            with tracer.span("telemetry.ingest.ingest_dump"):
                stats = workload.ingest(path, directory / kind).ingest_stats
            replayed = (accumulator.total_samples, accumulator.spill_writes,
                        accumulator.spilled_samples, accumulator.peak_buffered_samples)
            if replayed != (stats.updates, stats.spill_writes, stats.spilled_samples,
                            stats.peak_buffered_samples) \
                    or failed != workload.quarantined(kind, directory):
                raise ReDriveMismatch(f"{kind}: re-driven parse/accumulate counters "
                                      f"{replayed} differ from ingest_dump's {stats}")
            tracer.add("telemetry.ingest.quarantined_lines", len(failed))
            tracer.add("telemetry.ingest.spill_writes", stats.spill_writes)
            tracer.add("telemetry.ingest.spilled_samples", stats.spilled_samples)
            tracer.counts["telemetry.ingest.peak_buffered_samples"] = max(
                tracer.counts.get("telemetry.ingest.peak_buffered_samples", 0),
                stats.peak_buffered_samples)
    tracer.add("telemetry.ingest.lines", workload.lines)
    return workload.published_digests(directory)


REDRIVES = {"policy-leafspine": _policy, "survey-pool-cold": _survey,
            "survey-store-warm": _survey, "ingest-dumps": _ingest}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Span name -> metric reporting its self time.
TIMED_LAYERS = {
    "telemetry.source": "telemetry.source.s",
    "core.batch": "core.batch.s",
    "pipeline.policies.fixed": "pipeline.policies.fixed.s",
    "pipeline.policies.nyquist-static": "pipeline.policies.nyquist-static.s",
    "pipeline.policies.adaptive-dual-rate": "pipeline.policies.adaptive-dual-rate.s",
    "network.cost": "network.cost.s",
    "pipeline.evaluation": "pipeline.evaluation.s",
    "records.sinks": "records.sinks.s",
    "records.store.fingerprint": "records.store.fingerprint_s",
    "records.store.get": "records.store.get_s",
    "records.store.put": "records.store.put_s",
    "telemetry.ingest.gnmi.parse": "telemetry.ingest.gnmi.parse_s",
    "telemetry.ingest.snmp.parse": "telemetry.ingest.snmp.parse_s",
    "telemetry.ingest.accumulate": "telemetry.ingest.accumulate_s",
}

#: Every per-layer metric with its unit; 0 where a workload leaves the layer idle.
UNITS = {
    **{metric: "s" for metric in TIMED_LAYERS.values()},
    "telemetry.ingest.finish_publish_s": "s",
    "telemetry.source.rows": "rows", "telemetry.source.bytes": "bytes",
    "core.batch.rows": "rows", "pipeline.policies.rows": "rows",
    "network.cost.rows": "rows",
    "records.sinks.bytes": "bytes", "records.sinks.files": "files",
    "records.store.fingerprint_bytes": "bytes", "records.store.hits": "pairs",
    "records.store.misses": "pairs", "records.store.hit_ratio": "ratio",
    "records.store.bytes_written": "bytes",
    "telemetry.ingest.lines": "lines", "telemetry.ingest.quarantined_lines": "lines",
    "telemetry.ingest.spill_writes": "count", "telemetry.ingest.spilled_samples": "samples",
    "telemetry.ingest.peak_buffered_samples": "samples",
    "faults.quarantine.error_rate": "fraction",
    "pipeline.policies.adaptive_relative_cost": "ratio",
    "pipeline.policies.adaptive_mean_nrmse": "ratio",
    "faults.execution.speedup": "ratio", "faults.execution.first_call_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "fraction",
}


def layer_metrics(self_times: dict[str, float], counts: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics one re-drive measures, from its self times and counters."""
    metrics = {metric: self_times.get(span, 0.0) for span, metric in TIMED_LAYERS.items()}
    metrics.update({name: float(counts.get(name, 0)) for name, unit in UNITS.items()
                    if unit not in ("s", "ratio", "fraction")})
    lookups = metrics["records.store.hits"] + metrics["records.store.misses"]
    metrics["records.store.hit_ratio"] = metrics["records.store.hits"] / lookups \
        if lookups else 0.0
    lines = metrics["telemetry.ingest.lines"]
    metrics["faults.quarantine.error_rate"] = \
        metrics["telemetry.ingest.quarantined_lines"] / lines if lines else 0.0
    # Derived, not traced: ingest_dump's own wall time less the re-driven
    # parse and accumulate passes it repeats internally.
    ingest = self_times.get("telemetry.ingest.ingest_dump", 0.0)
    metrics["telemetry.ingest.finish_publish_s"] = ingest - sum(
        metrics[name] for name in ("telemetry.ingest.gnmi.parse_s",
                                   "telemetry.ingest.snmp.parse_s",
                                   "telemetry.ingest.accumulate_s")) if ingest else 0.0
    return metrics
