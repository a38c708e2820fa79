"""Differential tests: the lock-step batched adaptive controller vs the scalar one.

``AdaptiveDualRatePolicy.evaluate_batch`` steps every row of a batch
through its windows together; ``SamplingPolicy.evaluate_batch`` (the
base-class row loop over :meth:`collect`) runs the scalar controller one
trace at a time.  The two must produce the same bytes in every record
column -- and the same error text when a trace cannot be reconstructed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSamplingController, ControllerConfig
from repro.pipeline.policies import AdaptiveDualRatePolicy, PolicySuite, SamplingPolicy
from repro.scenarios.presets import default_scenarios
from repro.signals.timeseries import TimeSeries
from repro.telemetry.dataset import DatasetConfig, FleetDataset

COLUMNS = ("samples_collected", "mean_sampling_rate", "nrmse", "max_abs_error")

#: Reference interval of the fleet metrics stacked into one test batch.
INTERVAL = 30.0

SCENARIOS = {scenario.name: scenario for scenario in default_scenarios()}


def assert_byte_identical(left, right) -> None:
    assert left.policy_name == right.policy_name
    for column in COLUMNS:
        assert getattr(left, column).tobytes() == getattr(right, column).tobytes(), column


def both_paths(policy: AdaptiveDualRatePolicy, values: np.ndarray, interval: float):
    return (policy.evaluate_batch(values, interval),
            SamplingPolicy.evaluate_batch(policy, values, interval))


@pytest.fixture(scope="module")
def dataset():
    return FleetDataset(DatasetConfig(pair_count=40, seed=13, trace_duration=21600.0))


@pytest.fixture(scope="module")
def batches(dataset):
    """Per scenario: every 30 s trace of the fleet stacked into one matrix.

    Row 0 is made constant and row 1 constant except for one sample, so
    the batch also holds the estimator's "constant trace" rows.
    """
    out = {}
    for name in ("stationary", "incident", "flap-churn", "faulty-counters"):
        source = SCENARIOS[name].wrap(dataset)
        traces = [source.load(pair) for pair in source.pairs()]
        values = np.vstack([trace.values for trace in traces
                            if trace.interval == INTERVAL])
        values[0] = 42.0
        values[1] = 7.0
        values[1, values.shape[1] // 3] = 9.0
        out[name] = values
    return out


def make_policy(window: float, check_interval: int, max_rate_factor: float,
                backoff: float) -> AdaptiveDualRatePolicy:
    suite = PolicySuite(production_oversample=4.0, adaptive_window=window,
                        adaptive_backoff=backoff, adaptive_max_rate_factor=max_rate_factor)
    policy = suite.build(INTERVAL)[2]
    config = dataclasses.replace(policy.config, aliasing_check_interval=check_interval)
    return AdaptiveDualRatePolicy(window_duration=window, config=config)


def sweep_cases() -> list[tuple]:
    """A covering grid: every window kind meets every check interval.

    Window kinds: 40 reference samples (probes at the production rate
    hold fewer than the estimator's and detector's ``min_samples``), 0.15
    of the trace (a ragged last window is dropped), exactly the trace, and
    longer than the trace (no window, so both paths must raise).  The
    other axes rotate so each of their values meets every window kind.
    """
    scenarios = ("stationary", "incident", "flap-churn", "faulty-counters")
    cases = []
    for index, (window_kind, check_interval) in enumerate(
            (kind, check) for kind in ("tiny", "ragged", "whole", "longer")
            for check in (1, 2, 3, 4)):
        cases.append((
            scenarios[index % len(scenarios)],
            (720, 719, 361)[index % 3],
            window_kind,
            check_interval,
            (1.0, 4.0)[index % 2],
            (1.0, 8.0)[(index // 2) % 2],
        ))
    return cases


def window_seconds(kind: str, length: int) -> float:
    duration = length * INTERVAL
    return {"tiny": 40 * INTERVAL, "ragged": 0.15 * duration,
            "whole": duration, "longer": 2.0 * duration}[kind]


@pytest.mark.parametrize("scenario, length, window_kind, check_interval, "
                         "max_rate_factor, backoff", sweep_cases())
def test_batched_matches_row_loop(batches, scenario, length, window_kind,
                                  check_interval, max_rate_factor, backoff):
    values = batches[scenario][:, :length]
    policy = make_policy(window_seconds(window_kind, length), check_interval,
                         max_rate_factor, backoff)
    if window_kind == "longer":
        with pytest.raises(ValueError) as batched:
            policy.evaluate_batch(values, INTERVAL)
        with pytest.raises(ValueError) as scalar:
            SamplingPolicy.evaluate_batch(policy, values, INTERVAL)
        assert str(batched.value) == str(scalar.value)
        assert "collected only 0 sample(s)" in str(batched.value)
        return
    assert_byte_identical(*both_paths(policy, values, INTERVAL))


def test_short_collection_error_text_matches():
    """A rate ceiling that leaves one sample per trace fails identically."""
    values = np.sin(np.arange(3 * 40, dtype=np.float64)).reshape(3, 40)
    config = ControllerConfig(initial_rate=0.01, min_rate=1e-4, max_rate=1.0 / 50.0)
    policy = AdaptiveDualRatePolicy(window_duration=40.0, config=config)
    with pytest.raises(ValueError) as batched:
        policy.evaluate_batch(values, 1.0)
    with pytest.raises(ValueError) as scalar:
        SamplingPolicy.evaluate_batch(policy, values, 1.0)
    assert str(batched.value) == str(scalar.value)
    assert "collected only 1 sample(s)" in str(batched.value)


def test_empty_batch(batches):
    policy = make_policy(7200.0, 4, 1.0, 8.0)
    empty = batches["stationary"][:0]
    assert_byte_identical(*both_paths(policy, empty, INTERVAL))


@pytest.mark.parametrize("check_interval", [1, 4])
def test_rates_match_scalar_decisions(batches, check_interval):
    """Per-window rates and costs of ``run_batch`` equal the scalar run's."""
    values = batches["incident"]
    config = make_policy(7200.0, check_interval, 4.0, 8.0).config
    run = AdaptiveSamplingController(config).run_batch(values, INTERVAL, 7200.0)
    for row in range(values.shape[0]):
        scalar = AdaptiveSamplingController(config).run(TimeSeries(values[row], INTERVAL),
                                                        7200.0)
        rates = np.array([decision.sampling_rate for decision in scalar.decisions])
        assert run.sampling_rates[row].tobytes() == rates.tobytes()
        assert run.samples_collected[row] == scalar.total_samples_collected


@pytest.mark.parametrize("scenario", ["stationary", "flap-churn"])
def test_rows_are_independent(batches, scenario):
    """A row evaluated alone gives the bytes it gets inside the whole batch.

    Quarantine salvage re-evaluates survivor subsets and multi-worker
    surveys split batches on other boundaries; both rely on this.
    """
    values = batches[scenario]
    policy = make_policy(7200.0, 2, 4.0, 8.0)
    whole = policy.evaluate_batch(values, INTERVAL)
    for row in range(values.shape[0]):
        alone = policy.evaluate_batch(values[row:row + 1], INTERVAL)
        for column in COLUMNS:
            assert (getattr(alone, column).tobytes()
                    == getattr(whole, column)[row:row + 1].tobytes()), (row, column)
    subset = [5, 2, 9]
    shuffled = policy.evaluate_batch(values[subset], INTERVAL)
    for column in COLUMNS:
        assert getattr(shuffled, column).tobytes() == getattr(whole, column)[subset].tobytes()
