"""Tests of the slice executor both surveys share.

Covers the two kernels' store fingerprint inputs, salvage on a metric
whose traces mix (length, interval) shapes, per-row blame of rows a
kernel cannot evaluate, and stable cache tokens of policies holding an
estimator.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.policy_survey import PolicyKernel, run_policy_survey
from repro.analysis.survey import SurveyKernel, run_survey
from repro.core.nyquist import NyquistEstimator
from repro.network.cost import TelemetryCostAccountant
from repro.pipeline.policies import (FixedRatePolicy, NyquistStaticPolicy, PolicySuite,
                                     StaticPolicySuite)
from repro.records import RecordStore
from repro.signals.timeseries import TimeSeries
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.measured import MeasuredFleetDataset, export_traces
from repro.telemetry.source import BaseTraceSource

SRC = Path(__file__).resolve().parents[2] / "src"

#: One metric, three 60 s traces then five 30 s traces, six hours each.
INTERVALS = (60.0,) * 3 + (30.0,) * 5
DURATION = 6 * 3600.0
METRIC = "Temperature"
CHUNK = 4
#: First sample of a trace that :class:`ExplodingPolicy` refuses to evaluate.
MARK = 1234.5


@dataclass(frozen=True)
class _Device:
    device_id: str


@dataclass(frozen=True)
class _Parameters:
    true_nyquist_rate: float


@dataclass(frozen=True)
class _Pair:
    metric_name: str
    device: _Device
    interval: float
    parameters: _Parameters

    @property
    def key(self) -> tuple[str, str]:
        return self.metric_name, self.device.device_id


class MixedShapeSource(BaseTraceSource):
    """One metric whose traces change sampling interval half way through."""

    def __init__(self, marked: tuple[str, ...] = ()) -> None:
        self._pairs = [_Pair(METRIC, _Device(f"d{index}"), interval,
                             _Parameters(1.0 / 600.0))
                       for index, interval in enumerate(INTERVALS)]
        self._marked = marked

    def pairs(self) -> list[_Pair]:
        return list(self._pairs)

    def pairs_for_metric(self, metric_name: str) -> list[_Pair]:
        return [pair for pair in self._pairs if pair.metric_name == metric_name]

    def metric_names(self) -> list[str]:
        return [METRIC]

    def load(self, pair: _Pair) -> TimeSeries:
        index = self._pairs.index(pair)
        times = np.arange(int(DURATION / pair.interval)) * pair.interval
        rng = np.random.default_rng(index)
        values = (20.0 + np.sin(2 * np.pi * times / 1200.0)
                  + 0.05 * rng.standard_normal(times.size))
        if pair.device.device_id in self._marked:
            values[0] = MARK
        return TimeSeries(values, pair.interval)

    @property
    def trace_duration(self) -> float:
        return DURATION

    def worker_spec(self):
        raise NotImplementedError("an in-memory test source; export it to run pooled")


class ExplodingPolicy(FixedRatePolicy):
    """A fixed-rate policy that refuses every batch holding a marked row."""

    def evaluate_batch(self, values, interval):
        if np.any(values[:, 0] == MARK):
            raise ValueError("marked row")
        return super().evaluate_batch(values, interval)


SUITE = PolicySuite(production_oversample=1.0, adaptive_window=2 * 3600.0)


def export(tmp_path: Path, name: str, source: BaseTraceSource) -> MeasuredFleetDataset:
    export_traces(source, tmp_path / name)
    return MeasuredFleetDataset(tmp_path / name)


def break_trace(dataset: MeasuredFleetDataset, device_id: str) -> MeasuredFleetDataset:
    """Overwrite one pair's trace file with junk and re-open the fleet."""
    pair = next(pair for pair in dataset.pairs() if pair.key[1] == device_id)
    (dataset.directory / pair.file).write_bytes(b"not a trace")
    return MeasuredFleetDataset(dataset.directory)


def payload(blocks) -> list[tuple]:
    """Every block's type, scalars and column bytes, in order."""
    out = []
    for block in blocks:
        schema = type(block)._SCHEMA
        columns = []
        for spec in schema.columns:
            values = getattr(block, spec.name)
            columns.append(tuple(values.tolist()) if spec.kind == "str"
                           else np.ascontiguousarray(values).tobytes())
        out.append((type(block).__name__,
                    tuple(getattr(block, spec.name) for spec in schema.scalars),
                    tuple(columns)))
    return out


# ----------------------------------------------------------------------
class TestKernelCacheTokens:
    """The store fingerprint inputs, pinned to the strings stores were filled with."""

    def test_survey_kernel_token(self):
        kernel = SurveyKernel(NyquistEstimator(), 1.25, 86400.0)
        assert kernel.cache_token() == (
            "NyquistEstimator(energy_fraction=0.99, include_dc=False, "
            "psd_method='periodogram', min_samples=16, flat_tolerance=0.0, "
            "aliased_band_fraction=0.9, detrend=False, window='rectangular')"
            "|oversample_threshold=1.25")

    def test_survey_token_ignores_execution_knobs(self):
        plain = SurveyKernel(NyquistEstimator(), 1.25, 86400.0)
        tuned = SurveyKernel(NyquistEstimator(), 1.25, 3600.0, fft_workers=4)
        assert plain.cache_token() == tuned.cache_token()

    def test_policy_kernel_token(self):
        kernel = PolicyKernel(PolicySuite(), TelemetryCostAccountant())
        assert kernel.cache_token() == (
            "PolicySuite(production_oversample=1.0, calibration_fraction=0.25, "
            "headroom=1.2, adaptive_window=14400.0, adaptive_backoff=8.0, "
            "adaptive_max_rate_factor=1.0)|TelemetryCostAccountant(cost_model="
            "CostModel(bytes_per_sample=64.0, collection_cpu_us=50.0, "
            "transmission_cost_per_byte_hop=1.0, storage_cost_per_byte=1.0, "
            "analysis_cost_per_sample=10.0), default_hops=3, hops=[])")


# ----------------------------------------------------------------------
class TestMixedShapeMetric:
    """A metric whose traces mix shapes slices, salvages and pools alike."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        return export(tmp_path_factory.mktemp("mixed"), "clean", MixedShapeSource())

    @pytest.fixture(scope="class")
    def broken(self, tmp_path_factory):
        fleet = export(tmp_path_factory.mktemp("mixed"), "broken", MixedShapeSource())
        return break_trace(fleet, "d1")

    def test_every_mode_cuts_the_same_blocks(self, clean):
        runs = [run_survey(clean, chunk_size=CHUNK),
                run_survey(clean, chunk_size=CHUNK, on_error="quarantine"),
                run_survey(clean, chunk_size=CHUNK, workers=2)]
        assert [len(block) for block in runs[0].iter_blocks()] == [3, 1, 4]
        for run in runs[1:]:
            assert payload(run.iter_blocks()) == payload(runs[0].iter_blocks())

    def test_policy_modes_cut_the_same_blocks(self, clean):
        runs = [run_policy_survey(clean, SUITE, chunk_size=CHUNK),
                run_policy_survey(clean, SUITE, chunk_size=CHUNK, on_error="quarantine"),
                run_policy_survey(clean, SUITE, chunk_size=CHUNK, workers=2)]
        for run in runs[1:]:
            assert payload(run.iter_blocks()) == payload(runs[0].iter_blocks())

    def test_survey_salvage_is_worker_count_independent(self, broken):
        serial = run_survey(broken, chunk_size=CHUNK, on_error="quarantine")
        pooled = run_survey(broken, chunk_size=CHUNK, workers=2, on_error="quarantine")
        assert payload(serial.iter_blocks()) == payload(pooled.iter_blocks())
        assert payload(serial.iter_failure_blocks()) == \
            payload(pooled.iter_failure_blocks())
        [failure] = serial.quarantined
        assert (failure.device_id, failure.stage) == ("d1", "trace")

    def test_salvage_keeps_each_rows_rate(self, clean, broken):
        salvaged = run_survey(broken, chunk_size=CHUNK, on_error="quarantine")
        rates = {record.device_id: record.current_rate for record in salvaged.records}
        expected = {f"d{index}": 1.0 / interval for index, interval in enumerate(INTERVALS)}
        del expected["d1"]
        assert rates == expected
        twins = {record.device_id: record for record in
                 run_survey(clean, chunk_size=CHUNK).records}
        for record in salvaged.records:
            twin = twins[record.device_id]
            assert (record.category, record.reliable) == (twin.category, twin.reliable)
            for field in ("current_rate", "nyquist_rate", "reduction_ratio",
                          "true_nyquist_rate", "trace_duration"):
                assert np.array_equal(getattr(record, field), getattr(twin, field),
                                      equal_nan=True), field

    def test_policy_salvage_completes(self, broken):
        serial = run_policy_survey(broken, SUITE, chunk_size=CHUNK, on_error="quarantine")
        pooled = run_policy_survey(broken, SUITE, chunk_size=CHUNK, workers=2,
                                   on_error="quarantine")
        assert payload(serial.iter_blocks()) == payload(pooled.iter_blocks())
        assert payload(serial.iter_failure_blocks()) == \
            payload(pooled.iter_failure_blocks())
        assert [(f.device_id, f.stage) for f in serial.quarantined] == [("d1", "trace")]
        assert len(serial) == len(SUITE.build(60.0)) * (len(INTERVALS) - 1)


class TestEvaluationBlame:
    """A row the kernel refuses is blamed alone; its batch mates keep their rows."""

    @pytest.fixture(scope="class")
    def marked(self, tmp_path_factory):
        return export(tmp_path_factory.mktemp("marked"), "fleet",
                      MixedShapeSource(marked=("d5",)))

    def test_only_the_refused_row_is_quarantined(self, marked):
        policies = [ExplodingPolicy(30.0, name="fixed")]
        serial = run_policy_survey(marked, policies, chunk_size=CHUNK,
                                   on_error="quarantine")
        pooled = run_policy_survey(marked, policies, chunk_size=CHUNK, workers=2,
                                   on_error="quarantine")
        assert payload(serial.iter_blocks()) == payload(pooled.iter_blocks())
        assert payload(serial.iter_failure_blocks()) == \
            payload(pooled.iter_failure_blocks())
        assert [(f.device_id, f.stage, f.provenance.split()[0])
                for f in serial.quarantined] == [("d5", "evaluate", f"{METRIC}[5]")]
        assert [block.device_ids.tolist() for block in serial.iter_blocks()] == \
            [["d0", "d1", "d2"], ["d3"], ["d4", "d6", "d7"]]


# ----------------------------------------------------------------------
class TestNyquistStaticCacheToken:
    """A policy holding an estimator fingerprints the same in every process."""

    def test_two_processes_agree(self):
        script = ("from repro.pipeline.policies import NyquistStaticPolicy;"
                  "print(NyquistStaticPolicy(60.0).cache_token())")
        tokens = {subprocess.run([sys.executable, "-c", script], check=True,
                                 capture_output=True, text=True,
                                 env={"PYTHONPATH": str(SRC)}).stdout
                  for _ in range(2)}
        assert len(tokens) == 1
        assert " object at 0x" not in tokens.pop()

    def test_other_policy_tokens_unchanged(self):
        assert FixedRatePolicy(60.0).cache_token() == \
            "FixedRatePolicy(interval=60.0, name='fixed@60s')"
        assert StaticPolicySuite((FixedRatePolicy(60.0),)).cache_token() == \
            "StaticPolicySuite(FixedRatePolicy(interval=60.0, name='fixed@60s'))"

    def test_static_suite_rerun_hits_the_store(self, tmp_path):
        source = FleetDataset(DatasetConfig(pair_count=14, seed=5,
                                            trace_duration=21600.0))
        policies = [FixedRatePolicy(300.0, name="fixed"),
                    NyquistStaticPolicy(300.0)]
        store = RecordStore(tmp_path / "store")
        cold = run_policy_survey(source, policies, chunk_size=4, store=store)
        warm = run_policy_survey(source, [FixedRatePolicy(300.0, name="fixed"),
                                          NyquistStaticPolicy(300.0)],
                                 chunk_size=4, store=store)
        assert (warm.cache_hits, warm.cache_misses) == (len(source), 0)
        assert payload(warm.iter_blocks()) == payload(cold.iter_blocks())
