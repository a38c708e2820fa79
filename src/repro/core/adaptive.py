"""Dynamic (adaptive) sampling controller (Section 4.2).

The strawman the paper proposes:

* Initially the Nyquist rate of the signal is unknown, so the controller is
  in **probe** mode: it samples at two rates (the dual-frequency trick of
  §4.1) and, while aliasing is detected, multiplicatively increases the
  rate.
* Once aliasing is no longer detected it estimates the Nyquist rate with
  the §3.2 method and settles in **steady** mode at that rate (plus a
  configurable headroom).
* If the signal quiets down, the controller adaptively decreases the rate;
  if aliasing re-appears it ramps back up, using a *memory* of previously
  observed maxima to re-ramp quickly ("we can even 'remember' previous
  maximum Nyquist rates to ramp up more quickly in the future").

The controller operates on successive time windows of the underlying
signal.  In the library the "underlying signal" is a high-rate reference
trace (either synthetic telemetry or an over-sampled production-style
trace); the controller only ever *reads* the samples it would actually
have collected at its chosen probe rates, so its cost accounting reflects a
real deployment.

:meth:`AdaptiveSamplingController.run` is the scalar reference: one trace,
one window at a time.  :meth:`AdaptiveSamplingController.run_batch` runs
the same state machine over a ``(rows, n)`` batch in lock-step and makes
the same per-row decisions; both apply the rules of one shared
:func:`_adapt`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ..signals.timeseries import TimeSeries
from .aliasing import AliasingVerdict, DualRateAliasingDetector
from .nyquist import NyquistEstimate, NyquistEstimator
from .resampling import decimation_factor, resample_to_rate

__all__ = [
    "ControllerMode",
    "ControllerConfig",
    "WindowDecision",
    "ModeTransition",
    "AdaptiveRun",
    "AdaptiveBatchRun",
    "AdaptiveSamplingController",
    "adaptive_sample",
]


class ControllerMode(enum.Enum):
    """Operating mode of the adaptive controller."""

    PROBE = "probe"
    STEADY = "steady"


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs of the adaptive controller (paper-guided defaults).

    Attributes
    ----------
    initial_rate:
        Sampling rate (Hz) the controller starts probing at.
    min_rate / max_rate:
        Hard bounds on the rate the controller may choose.  ``max_rate``
        defaults to infinity and is clamped to the reference trace's rate
        at run time (you cannot sample faster than the signal exists).
    probe_multiplier:
        Multiplicative increase applied while aliasing persists (§4.2
        "multiplicatively increase the measurement rate").
    decrease_factor:
        Multiplicative decrease applied in steady mode when the estimated
        Nyquist rate falls well below the current rate.
    headroom:
        Safety margin (>= 1) applied to the estimated Nyquist rate when
        settling ("maintaining ample headroom may be helpful").
    memory_decay:
        Per-window decay applied to the remembered maximum Nyquist rate;
        1.0 means "never forget", 0 disables memory.
    dual_rate_ratio:
        f1/f2 ratio used by the aliasing detector.
    energy_fraction:
        Energy threshold handed to the Nyquist estimator.
    aliasing_check_interval:
        In steady mode, run the (costly) dual-frequency aliasing check only
        every this many windows; in between, only the primary stream is
        collected and aliasing suspicion comes from the estimator itself.
        §4.1 notes the dual stream "roughly doubles measurement cost", so
        checking periodically rather than continuously is how a deployment
        keeps the net saving.  Set to 1 to check every window.
    """

    initial_rate: float = 1.0 / 300.0
    min_rate: float = 1.0 / 86400.0
    max_rate: float = math.inf
    probe_multiplier: float = 2.0
    decrease_factor: float = 0.5
    headroom: float = 1.2
    memory_decay: float = 0.9
    dual_rate_ratio: float = 1.6
    aliasing_threshold: float = 0.1
    energy_fraction: float = 0.99
    aliasing_check_interval: int = 4

    def __post_init__(self) -> None:
        if self.initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        if self.min_rate <= 0:
            raise ValueError("min_rate must be positive")
        if self.max_rate <= self.min_rate:
            raise ValueError("max_rate must exceed min_rate")
        if self.probe_multiplier <= 1:
            raise ValueError("probe_multiplier must be > 1")
        if not 0 < self.decrease_factor < 1:
            raise ValueError("decrease_factor must be in (0, 1)")
        if self.headroom < 1:
            raise ValueError("headroom must be >= 1")
        if not 0 <= self.memory_decay <= 1:
            raise ValueError("memory_decay must be in [0, 1]")
        if self.aliasing_check_interval < 1:
            raise ValueError("aliasing_check_interval must be >= 1")
        # The detector and estimator would reject these too, but only when
        # a controller is built -- inside every batch a survey evaluates.
        if self.dual_rate_ratio <= 1.0:
            raise ValueError("dual_rate_ratio must be > 1")
        if math.isclose(self.dual_rate_ratio, round(self.dual_rate_ratio), abs_tol=1e-9):
            raise ValueError("dual_rate_ratio must not be an integer (see §4.1)")
        if self.aliasing_threshold <= 0:
            raise ValueError("aliasing_threshold must be positive")
        if not 0 < self.energy_fraction <= 1:
            raise ValueError("energy_fraction must be in (0, 1]")


@dataclass(frozen=True)
class WindowDecision:
    """What the controller did for one time window."""

    window_start: float
    window_end: float
    mode: ControllerMode
    sampling_rate: float
    samples_collected: int
    aliased: bool
    aliasing_discrepancy: float
    nyquist_estimate: float
    next_rate: float

    @property
    def window_duration(self) -> float:
        return self.window_end - self.window_start


@dataclass(frozen=True)
class ModeTransition:
    """One probe/steady mode change of the adaptive controller.

    Emitted by :meth:`AdaptiveSamplingController.run` whenever processing
    a window leaves the controller in a different mode than it entered
    with.  The transition takes effect at the window's *end* (the next
    window is the first sampled under the new mode), so ``time`` is the
    earliest instant the behaviour change is observable.  These are the
    ground truth the scenario matrix measures re-probe latency against --
    directly, instead of inferring mode changes from nrmse drift.
    """

    time: float
    from_mode: ControllerMode
    to_mode: ControllerMode
    window_start: float
    window_end: float

    @property
    def kind(self) -> str:
        """``"re-probe"`` (steady -> probe) or ``"settle"`` (probe -> steady)."""
        return "re-probe" if self.to_mode is ControllerMode.PROBE else "settle"


@dataclass
class AdaptiveRun:
    """Full record of an adaptive-sampling run over a reference trace."""

    reference: TimeSeries
    decisions: list[WindowDecision] = field(default_factory=list)
    collected: list[TimeSeries] = field(default_factory=list)
    transitions: list[ModeTransition] = field(default_factory=list)

    @property
    def total_samples_collected(self) -> int:
        """Samples the adaptive system actually collected (its cost)."""
        return sum(decision.samples_collected for decision in self.decisions)

    @property
    def baseline_samples(self) -> int:
        """Samples the existing (full-rate) system collects over the same span."""
        return len(self.reference)

    @property
    def cost_reduction(self) -> float:
        """Factor by which the adaptive system reduces sample count."""
        collected = self.total_samples_collected
        if collected == 0:
            return float("inf")
        return self.baseline_samples / collected

    def inferred_rates(self) -> list[tuple[float, float]]:
        """(window_start, inferred Nyquist rate) pairs -- the Figure 7 series."""
        return [(decision.window_start, decision.nyquist_estimate)
                for decision in self.decisions]

    def sampling_rates(self) -> list[tuple[float, float]]:
        """(window_start, rate the controller sampled at) pairs."""
        return [(decision.window_start, decision.sampling_rate)
                for decision in self.decisions]

    def reprobe_transitions(self) -> list[ModeTransition]:
        """The steady -> probe transitions (aliasing re-detected mid-run)."""
        return [t for t in self.transitions if t.kind == "re-probe"]

    def collected_series(self) -> TimeSeries:
        """All collected samples concatenated into one (possibly uneven-rate) view.

        The concatenation keeps the coarsest common interval so downstream
        code can reconstruct; windows sampled at different rates are first
        aligned to the finest interval used anywhere in the run.
        """
        if not self.collected:
            return TimeSeries(np.empty(0), self.reference.interval,
                              self.reference.start_time, self.reference.name)
        finest = min(chunk.interval for chunk in self.collected if len(chunk))
        pieces: list[np.ndarray] = []
        for chunk in self.collected:
            if len(chunk) == 0:
                continue
            repeat = max(int(round(chunk.interval / finest)), 1)
            pieces.append(np.repeat(chunk.values, repeat))
        values = np.concatenate(pieces) if pieces else np.empty(0)
        return TimeSeries(values, finest, self.reference.start_time, self.reference.name)


@dataclass(frozen=True)
class AdaptiveBatchRun:
    """Per-row record of :meth:`AdaptiveSamplingController.run_batch`.

    ``window_bounds`` are the sample bounds ``(first, stop)`` of every
    processed window (shared by all rows of the batch).  Row ``i`` of
    ``sampling_rates`` holds the rate that row's controller chose for
    each window (the :attr:`WindowDecision.sampling_rate` sequence);
    ``decimation`` the integer factor that rate collects at;
    ``samples_collected`` each row's cost, probe traffic included.
    """

    window_bounds: list[tuple[int, int]]
    sampling_rates: np.ndarray
    decimation: np.ndarray
    samples_collected: np.ndarray


def _clamp(rate: float, floor: float, ceiling: float) -> float:
    return float(min(max(rate, floor), ceiling))


def _adapt(config: ControllerConfig, mode: ControllerMode, rate: float,
           remembered_max_rate: float, aliased: bool, estimate: NyquistEstimate,
           floor: float, ceiling: float) -> tuple[float, ControllerMode, float]:
    """Apply the §4.2 adaptation rules to one window's outcome.

    ``rate`` is the rate the window was sampled at, clamped to ``[floor,
    ceiling]`` as the next rate is.  Returns ``(next_rate, next_mode,
    remembered_max_rate)``: the one copy of the rules, shared by the
    scalar controller and the lock-step batch.
    """

    def probe_toward(proposed: float) -> tuple[float, ControllerMode, float]:
        # Enter probe mode toward `proposed` -- unless we are already
        # pinned.  When the clamped proposal cannot exceed the current
        # rate the controller sits at its ceiling (`max_rate` or the
        # reference rate): there is no faster rate left to probe, so
        # paying the dual-stream cost every window buys nothing.  Settle
        # instead; the periodic steady-mode aliasing check keeps watching
        # for change.  Without this, a genuinely broadband metric keeps
        # the controller in probe mode forever and its cost *exceeds* the
        # fixed baseline it is supposed to undercut.
        clamped = _clamp(proposed, floor, ceiling)
        next_mode = ControllerMode.STEADY if clamped <= rate else ControllerMode.PROBE
        return clamped, next_mode, remembered_max_rate

    if aliased or (estimate.reliable and estimate.nyquist_rate > rate):
        # Under-sampling detected: multiplicative increase, jump-started
        # by the remembered maximum if we have one.
        proposed = rate * config.probe_multiplier
        if remembered_max_rate > proposed:
            proposed = remembered_max_rate
        return probe_toward(proposed)

    if not estimate.reliable:
        if mode is ControllerMode.STEADY and estimate.reason == "trace too short":
            # We already settled once and this window simply holds too
            # few samples at the (low) steady rate to re-estimate; hold
            # the rate rather than needlessly ramping back up.
            return _clamp(rate, floor, ceiling), mode, remembered_max_rate
        # Still probing and nothing observable yet (or the probe itself
        # looks aliased): keep increasing until the Nyquist rate becomes
        # observable.  The remembered maximum is only used when aliasing
        # is positively detected, not for mere lack of data.
        return probe_toward(rate * config.probe_multiplier)

    # Clean estimate available: settle at Nyquist rate plus headroom.
    target = estimate.nyquist_rate * config.headroom
    remembered_max_rate = max(remembered_max_rate * config.memory_decay, target)
    if target < rate * config.decrease_factor:
        # The signal has quieted down a lot; decrease gradually rather
        # than jumping straight to the target so a transient lull does
        # not leave us wide open to aliasing.
        return (_clamp(rate * config.decrease_factor, floor, ceiling),
                ControllerMode.STEADY, remembered_max_rate)
    return _clamp(target, floor, ceiling), ControllerMode.STEADY, remembered_max_rate


class AdaptiveSamplingController:
    """State machine implementing the §4.2 adaptive sampling strawman."""

    def __init__(self, config: ControllerConfig | None = None,
                 estimator: NyquistEstimator | None = None,
                 detector: DualRateAliasingDetector | None = None) -> None:
        self.config = config or ControllerConfig()
        # The controller estimates over short windows, where a slow trend
        # that does not complete a cycle leaks energy across the spectrum
        # and inflates the estimate; detrending plus a Hann taper keeps the
        # windowed estimates honest (see NyquistEstimator docs).  The
        # strict "all bins needed" aliasing rule (1.0) is kept here: on
        # short windows the calibrated survey default (0.9) refuses too
        # eagerly and would boost the rate on every noisy window, and the
        # controller already carries its own aliasing safety net (the
        # dual-rate detector).
        self.estimator = estimator or NyquistEstimator(
            energy_fraction=self.config.energy_fraction,
            detrend=True, window="hann", aliased_band_fraction=1.0)
        self.detector = detector or DualRateAliasingDetector(
            rate_ratio=self.config.dual_rate_ratio,
            threshold=self.config.aliasing_threshold)
        self.mode = ControllerMode.PROBE
        self.current_rate = self.config.initial_rate
        self.remembered_max_rate = 0.0
        self._windows_since_check = 0
        self._floor_rate = self.config.min_rate

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return the controller to its initial state (keeps configuration)."""
        self.mode = ControllerMode.PROBE
        self.current_rate = self.config.initial_rate
        self.remembered_max_rate = 0.0
        self._windows_since_check = 0
        self._floor_rate = self.config.min_rate

    def minimum_viable_rate(self, window_duration: float) -> float:
        """Lowest rate at which one window still feeds the estimator and detector.

        Both the Nyquist estimator and the dual-frequency detector need a
        minimum number of samples to say anything; a controller that drops
        below ``min_samples / window_duration`` blinds its own safety net,
        so :meth:`run` never lets the rate fall below this floor.
        """
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        needed = max(self.estimator.min_samples, self.detector.min_samples, 4)
        return needed / window_duration

    # ------------------------------------------------------------------
    def process_window(self, window: TimeSeries) -> WindowDecision:
        """Decide what to collect for one window of the underlying signal.

        ``window`` is the portion of the (high-rate) reference signal that
        exists during this window; the controller only "sees" the samples
        it chooses to collect from it.
        """
        if len(window) < 2:
            raise ValueError("window must contain at least two reference samples")
        ceiling = window.sampling_rate
        floor = max(self.config.min_rate, self._floor_rate)
        top = min(self.config.max_rate, ceiling)
        rate = _clamp(self.current_rate, floor, top)

        # The dual-frequency check doubles measurement cost (§4.1), so in
        # steady mode it only runs every `aliasing_check_interval` windows;
        # probe mode always runs it because that is what probing is.
        run_check = (self.mode is ControllerMode.PROBE
                     or self._windows_since_check + 1 >= self.config.aliasing_check_interval)

        slow_rate, fast_rate = self.detector.probe_rates(rate)
        fast_rate = min(fast_rate, ceiling)
        slow_probe = resample_to_rate(window, slow_rate, anti_alias=False)

        if run_check:
            fast_probe = resample_to_rate(window, fast_rate, anti_alias=False)
            verdict = self.detector.check_samples(slow_probe, fast_probe)
            samples_collected = len(slow_probe) + len(fast_probe)
            estimation_input = fast_probe
            self._windows_since_check = 0
        else:
            verdict = AliasingVerdict(False, 0.0, self.detector.threshold,
                                      slow_rate, fast_rate, slow_rate / 2.0)
            samples_collected = len(slow_probe)
            estimation_input = slow_probe
            self._windows_since_check += 1

        estimate = self.estimator.estimate(estimation_input)
        nyquist_rate = estimate.nyquist_rate if estimate.reliable else float("nan")

        next_rate, self.mode, self.remembered_max_rate = _adapt(
            self.config, self.mode, rate, self.remembered_max_rate, verdict.aliased,
            estimate, floor, top)
        decision = WindowDecision(
            window_start=window.start_time,
            window_end=window.end_time,
            mode=self.mode,
            sampling_rate=rate,
            samples_collected=samples_collected,
            aliased=verdict.aliased,
            aliasing_discrepancy=verdict.discrepancy,
            nyquist_estimate=nyquist_rate,
            next_rate=next_rate,
        )
        self.current_rate = next_rate
        return decision

    # ------------------------------------------------------------------
    def run(self, reference: TimeSeries, window_duration: float,
            step: float | None = None) -> AdaptiveRun:
        """Run the controller over ``reference`` in windows of ``window_duration`` seconds.

        ``step`` defaults to ``window_duration`` (non-overlapping windows),
        which is how the controller would run in production; Figure 7 uses
        an overlapping window (6 h window, 5 min step) purely for analysis,
        which :mod:`repro.core.windowed` provides.
        """
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        step = window_duration if step is None else step
        if step <= 0:
            raise ValueError("step must be positive")
        self._floor_rate = self.minimum_viable_rate(window_duration)
        run = AdaptiveRun(reference=reference)
        for window in reference.iter_windows(window_duration, step):
            if len(window) < 2:
                continue
            mode_before = self.mode
            decision = self.process_window(window)
            run.decisions.append(decision)
            if self.mode is not mode_before:
                run.transitions.append(ModeTransition(
                    time=decision.window_end, from_mode=mode_before,
                    to_mode=self.mode, window_start=decision.window_start,
                    window_end=decision.window_end))
            collected = resample_to_rate(window, decision.sampling_rate, anti_alias=False)
            run.collected.append(collected)
        return run

    def run_batch(self, values: np.ndarray, interval: float,
                  window_duration: float) -> AdaptiveBatchRun:
        """Run the controller over every row of a ``(rows, n)`` matrix in lock-step.

        Row ``i`` gets exactly the decisions :meth:`run` makes on
        ``TimeSeries(values[i], interval)`` with non-overlapping windows,
        starting from this controller's current state (which is left
        untouched).  All rows share one window layout, so each window
        groups its rows by (slow probe factor, fast probe factor, whether
        the dual-rate check runs) and makes one batched aliasing check and
        one :meth:`~repro.core.nyquist.NyquistEstimator.estimate_batch`
        call per group instead of one of each per row; the per-row rate
        rules are the same :func:`_adapt` the scalar controller applies.
        """
        if values.ndim != 2:
            raise ValueError(f"values must be a (rows, n) matrix, got shape {values.shape}")
        rows, n = values.shape
        config = self.config
        reference_rate = 1.0 / interval
        floor = max(config.min_rate, self.minimum_viable_rate(window_duration))
        ceiling = min(config.max_rate, reference_rate)
        bounds = [(first, stop) for first, stop in
                  TimeSeries(np.empty(n), interval).iter_window_bounds(window_duration,
                                                                       window_duration)
                  if stop - first >= 2]

        modes = [self.mode] * rows
        rates = [self.current_rate] * rows
        remembered = [self.remembered_max_rate] * rows
        since_check = [self._windows_since_check] * rows
        sampling_rates = np.empty((rows, len(bounds)))
        decimation = np.empty((rows, len(bounds)), dtype=np.int64)
        samples = np.zeros(rows, dtype=np.int64)
        for column, (first, stop) in enumerate(bounds):
            groups: dict[tuple[int, int, bool], list[int]] = {}
            for row in range(rows):
                rate = rates[row] = _clamp(rates[row], floor, ceiling)
                run_check = (modes[row] is ControllerMode.PROBE
                             or since_check[row] + 1 >= config.aliasing_check_interval)
                slow_rate, fast_rate = self.detector.probe_rates(rate)
                fast = (decimation_factor(reference_rate, min(fast_rate, reference_rate))
                        if run_check else 0)
                key = (decimation_factor(reference_rate, slow_rate), fast, run_check)
                groups.setdefault(key, []).append(row)

            for (slow, fast, run_check), members in groups.items():
                window = values[members, first:stop]
                slow_probe = window[:, ::slow]
                if run_check:
                    probe, probe_interval = window[:, ::fast], interval * fast
                    aliased = self.detector.check_batch(slow_probe, interval * slow,
                                                        probe, probe_interval).tolist()
                    cost = slow_probe.shape[1] + probe.shape[1]
                else:
                    probe, probe_interval = slow_probe, interval * slow
                    aliased = [False] * len(members)
                    cost = slow_probe.shape[1]
                estimates = self.estimator.estimate_batch(probe, probe_interval)
                for row, hit, estimate in zip(members, aliased, estimates):
                    sampling_rates[row, column] = rates[row]
                    decimation[row, column] = slow
                    samples[row] += cost
                    since_check[row] = 0 if run_check else since_check[row] + 1
                    rates[row], modes[row], remembered[row] = _adapt(
                        config, modes[row], rates[row], remembered[row], hit, estimate,
                        floor, ceiling)
        return AdaptiveBatchRun(bounds, sampling_rates, decimation, samples)


def adaptive_sample(reference: TimeSeries, window_duration: float,
                    config: ControllerConfig | None = None) -> AdaptiveRun:
    """Convenience wrapper: run a fresh controller over ``reference``."""
    controller = AdaptiveSamplingController(config=config)
    return controller.run(reference, window_duration)
