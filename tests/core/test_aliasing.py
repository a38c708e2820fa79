"""Unit tests for the dual-frequency aliasing detector (Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aliasing import (DualRateAliasingDetector, compare_spectra,
                                 compare_spectra_batch, detect_aliasing)
from repro.core.psd import batch_periodogram, periodogram
from repro.signals.generators import multi_tone, sine
from repro.signals.noise import add_white_noise
from repro.signals.timeseries import TimeSeries


def sample_two_tone(rate: float, duration: float = 2.0):
    """Directly sample the 400+440 Hz continuous signal at the given rate."""
    return multi_tone([400.0, 440.0], duration, rate)


class TestDetectorConfiguration:
    def test_rejects_integer_ratio(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector(rate_ratio=2.0)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector(rate_ratio=0.5)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector(threshold=0.0)

    def test_rejects_bad_min_samples(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector(min_samples=1)

    @pytest.mark.parametrize("quantile", [-0.1, 1.5])
    def test_rejects_bad_noise_quantile(self, quantile):
        with pytest.raises(ValueError, match="noise_quantile"):
            DualRateAliasingDetector(noise_quantile=quantile)

    @pytest.mark.parametrize("quantile", [0.0, 1.0])
    def test_accepts_noise_quantile_bounds(self, quantile):
        assert DualRateAliasingDetector(noise_quantile=quantile).noise_quantile == quantile

    def test_probe_rates(self):
        detector = DualRateAliasingDetector(rate_ratio=1.6)
        slow, fast = detector.probe_rates(10.0)
        assert slow == 10.0
        assert fast == pytest.approx(16.0)

    def test_probe_rates_reject_bad_rate(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector().probe_rates(0.0)


class TestDetection:
    def test_no_aliasing_above_nyquist(self):
        detector = DualRateAliasingDetector()
        verdict = detector.check_samples(sample_two_tone(900.0), sample_two_tone(1440.0))
        assert not verdict.aliased
        assert verdict.discrepancy < detector.threshold

    def test_aliasing_below_nyquist(self):
        detector = DualRateAliasingDetector()
        verdict = detector.check_samples(sample_two_tone(600.0), sample_two_tone(960.0))
        assert verdict.aliased
        assert verdict.margin > 0

    def test_aliasing_slightly_below_nyquist(self):
        detector = DualRateAliasingDetector()
        verdict = detector.check_samples(sample_two_tone(800.0), sample_two_tone(1280.0))
        assert verdict.aliased

    def test_order_of_arguments_does_not_matter(self):
        detector = DualRateAliasingDetector()
        a = detector.check_samples(sample_two_tone(600.0), sample_two_tone(960.0))
        b = detector.check_samples(sample_two_tone(960.0), sample_two_tone(600.0))
        assert a.aliased == b.aliased

    def test_too_few_samples_returns_not_aliased(self):
        detector = DualRateAliasingDetector(min_samples=16)
        verdict = detector.check_samples(sample_two_tone(600.0, duration=0.01),
                                         sample_two_tone(960.0, duration=0.01))
        assert not verdict.aliased
        assert verdict.discrepancy == 0.0

    def test_noise_tolerance(self, rng):
        # A clean slow tone plus small noise sampled at two adequate rates
        # should not trigger the detector.
        detector = DualRateAliasingDetector()
        slow = add_white_noise(sine(1.0, duration=30.0, sampling_rate=10.0, amplitude=5.0),
                               0.05, rng=rng)
        fast = add_white_noise(sine(1.0, duration=30.0, sampling_rate=16.0, amplitude=5.0),
                               0.05, rng=rng)
        assert not detector.check_samples(slow, fast).aliased

    def test_check_signal_from_reference(self, two_tone):
        detector = DualRateAliasingDetector()
        assert detector.check_signal(two_tone, candidate_rate=600.0).aliased
        assert not detector.check_signal(two_tone, candidate_rate=1000.0).aliased

    def test_check_signal_rejects_too_fast_candidate(self, two_tone):
        detector = DualRateAliasingDetector()
        with pytest.raises(ValueError):
            detector.check_signal(two_tone, candidate_rate=1900.0)

    def test_detect_aliasing_helper(self, two_tone):
        assert detect_aliasing(two_tone, 500.0).aliased
        assert not detect_aliasing(two_tone, 1100.0).aliased


class TestCompareSpectra:
    def test_identical_spectra_have_zero_discrepancy(self, two_tone):
        spectrum = periodogram(two_tone)
        discrepancy, band = compare_spectra(spectrum, spectrum)
        assert discrepancy == pytest.approx(0.0, abs=1e-9)
        assert band == pytest.approx(spectrum.max_frequency)

    def test_disjoint_spectra_have_large_discrepancy(self):
        low = periodogram(sine(1.0, duration=10.0, sampling_rate=50.0))
        high = periodogram(sine(20.0, duration=10.0, sampling_rate=50.0))
        discrepancy, _ = compare_spectra(low, high)
        assert discrepancy > 0.9

    def test_amplitude_scaling_does_not_register(self, two_tone):
        spectrum = periodogram(two_tone)
        scaled = periodogram(two_tone * 3.0)
        discrepancy, _ = compare_spectra(spectrum, scaled)
        assert discrepancy < 0.01


class TestBatchedCheck:
    """Row-wise batch check: bit-for-bit the scalar check on every row."""

    @pytest.fixture(scope="class")
    def probes(self):
        rng = np.random.default_rng(5)
        t = np.arange(480)
        rows = [np.sin(2 * np.pi * t * f) + rng.normal(0, 0.05, t.size)
                for f in (0.01, 0.03, 0.17, 0.31, 0.45)]
        rows.append(np.full(t.size, 3.0))
        return np.vstack(rows)

    @pytest.mark.parametrize("slow_factor, fast_factor", [(5, 3), (8, 5), (3, 3), (40, 25)])
    @pytest.mark.parametrize("quantile", [0.0, 0.5, 0.9])
    def test_matches_scalar_per_row(self, probes, slow_factor, fast_factor, quantile):
        detector = DualRateAliasingDetector(noise_quantile=quantile)
        slow, fast = probes[:, ::slow_factor], probes[:, ::fast_factor]
        aliased = detector.check_batch(slow, float(slow_factor), fast, float(fast_factor))
        discrepancy = compare_spectra_batch(batch_periodogram(slow, float(slow_factor)),
                                            batch_periodogram(fast, float(fast_factor)),
                                            noise_quantile=quantile)
        for row in range(probes.shape[0]):
            slow_series = TimeSeries(slow[row], float(slow_factor))
            fast_series = TimeSeries(fast[row], float(fast_factor))
            verdict = detector.check_samples(slow_series, fast_series)
            assert bool(aliased[row]) == verdict.aliased
            expected, _ = compare_spectra(periodogram(slow_series), periodogram(fast_series),
                                          noise_quantile=quantile)
            assert discrepancy[row] == expected
        # Argument order does not matter, as for check_samples.
        swapped = detector.check_batch(fast, float(fast_factor), slow, float(slow_factor))
        assert np.array_equal(swapped, aliased)
