"""Tests for the longitudinal campaign engine and its detection pipeline."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.censor.policy import PolicyTimeline
from repro.core.inference import (
    CusumChangePointDetector,
    CusumState,
    TimingCusumDetector,
)
from repro.core.longitudinal import LongitudinalConfig, LongitudinalEngine
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.store import DaySeries
from repro.population.world import World, WorldConfig


def longitudinal_world(seed=7):
    return World(
        WorldConfig(seed=seed, target_list_total=30, target_list_online=24, origin_site_count=4)
    )


def longitudinal_deployment(world=None, seed=11, country_code="DE"):
    """A §7.2-style deployment every visitor of which sits in one country."""
    config = CampaignConfig(
        visits=200,
        include_testbed=False,
        favicons_only=True,
        target_domains=("facebook.com", "youtube.com", "twitter.com"),
        seed=seed,
        country_code=country_code,
    )
    return EncoreDeployment(world or longitudinal_world(), config)


# ----------------------------------------------------------------------
# CUSUM: vectorized ≡ scalar reference
# ----------------------------------------------------------------------
def random_day_counts(rng, cells=40, n_days=50, empty_fraction=0.2, shifts=None):
    """A synthetic per-pair day series of success counts with regime shifts.

    ``shifts[cell]`` is the cell's ``(change, recovery)`` day pair (censored
    in between unless ``cell % 3 == 0``); drawn from ``rng`` when not given.
    """
    counts = {}
    for cell in range(cells):
        # cells < 77 keeps every (domain % 7, country % 11) pair distinct.
        domain = f"domain-{cell % 7}.org"
        country = f"C{cell % 11:02d}"
        if shifts is None:
            change = rng.integers(0, n_days)
            recovery = rng.integers(change, n_days + 10)
        else:
            change, recovery = shifts[cell]
        for day in range(n_days):
            if rng.random() < empty_fraction:
                continue
            n = int(rng.integers(1, 40))
            censored = change <= day < recovery and cell % 3 != 0
            p = 0.08 if censored else 0.92
            s = int(rng.binomial(n, p))
            counts[(domain, country, day)] = (n, s)
    return DaySeries.from_dict(counts, n_days=n_days)


@st.composite
def drawn_day_counts(draw):
    """A generated day series: shape, empty-day fraction and regime shifts."""
    cells = draw(st.integers(1, 30))
    n_days = draw(st.integers(1, 45))
    shift = st.tuples(st.integers(0, n_days), st.integers(0, n_days + 10))
    return random_day_counts(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        cells=cells,
        n_days=n_days,
        empty_fraction=draw(st.floats(0.0, 0.9)),
        shifts=draw(st.lists(shift, min_size=cells, max_size=cells)),
    )


#: Any tuning the constructor accepts: 0 < censored < healthy < 1 and so on.
drawn_detectors = st.builds(
    lambda censored, gap, drift, threshold, min_daily: CusumChangePointDetector(
        healthy_rate=censored + gap,
        censored_rate=censored,
        drift=drift,
        threshold=threshold,
        min_daily_measurements=min_daily,
    ),
    st.floats(0.01, 0.5),
    st.floats(0.01, 0.45),
    st.floats(0.0, 0.3),
    st.floats(0.1, 3.0),
    st.integers(1, 12),
)
drawn_baselines = st.none() | st.dictionaries(
    st.sampled_from([f"C{country:02d}" for country in range(11)]), st.floats(0.05, 0.99)
)


class TestCusumEquivalence:
    """The vectorized day-column scan must match the per-cell scalar walk."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("threshold,drift,min_daily", [
        (1.0, 0.05, 5), (0.5, 0.0, 1), (2.5, 0.15, 8),
    ])
    def test_events_match_reference_exactly(self, seed, threshold, drift, min_daily):
        rng = np.random.default_rng(seed)
        day_counts = random_day_counts(rng)
        detector = CusumChangePointDetector(
            threshold=threshold, drift=drift, min_daily_measurements=min_daily
        )
        fast = detector.detect_events(day_counts)
        reference = detector.detect_events_reference(day_counts)
        # Dataclass equality covers statistics and confidences bit-for-bit.
        assert fast == reference
        assert fast  # the synthetic shifts are large; silence would be a bug

    @given(day_counts=drawn_day_counts(), detector=drawn_detectors,
           baselines=drawn_baselines)
    @settings(max_examples=25, deadline=None)
    def test_generated_events_match_reference(self, day_counts, detector, baselines):
        assert detector.detect_events(day_counts, baselines) == (
            detector.detect_events_reference(day_counts, baselines)
        )

    def test_empty_counts_detect_nothing(self):
        empty = DaySeries.from_dict({})
        detector = CusumChangePointDetector()
        assert detector.detect_events(empty) == []
        assert detector.detect_events_reference(empty) == []

    def test_quiet_series_stays_silent(self):
        counts = {("a.org", "DE", day): (50, 47) for day in range(40)}
        detector = CusumChangePointDetector()
        assert detector.detect_events(DaySeries.from_dict(counts)) == []

    def test_single_shift_reports_onset_and_recovery(self):
        counts = {}
        for day in range(30):
            rate = 0.9 if day < 12 or day >= 22 else 0.05
            counts[("a.org", "DE", day)] = (100, int(100 * rate))
        events = CusumChangePointDetector().detect_events(
            DaySeries.from_dict(counts)
        )
        kinds = [(e.kind, e.change_day) for e in events]
        assert kinds == [("onset", 12), ("offset", 22)]
        assert all(e.detection_lag <= 2 for e in events)
        assert all(0.5 <= e.confidence <= 1.0 for e in events)

    def test_sparse_days_carry_the_statistic(self):
        """Days below min_daily_measurements neither add nor reset evidence."""
        counts = {}
        for day in range(0, 30, 3):  # two of every three days are empty
            rate = 0.9 if day < 15 else 0.0
            counts[("a.org", "DE", day)] = (20, int(20 * rate))
        detector = CusumChangePointDetector(min_daily_measurements=5)
        events = detector.detect_events(DaySeries.from_dict(counts))
        assert [e.kind for e in events] == ["onset"]
        assert events == detector.detect_events_reference(
            DaySeries.from_dict(counts)
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CusumChangePointDetector(healthy_rate=0.2, censored_rate=0.5)
        with pytest.raises(ValueError):
            CusumChangePointDetector(threshold=0.0)
        with pytest.raises(ValueError):
            CusumChangePointDetector(drift=-0.1)
        with pytest.raises(ValueError):
            CusumChangePointDetector(min_daily_measurements=0)


# ----------------------------------------------------------------------
# Resumable CUSUM state: split scans ≡ cold scans, checkpoints round-trip
# ----------------------------------------------------------------------
def truncated_day_counts(full, boundary):
    """The first ``boundary`` days of a DaySeries, as its own series."""
    kept = {k: v for k, v in full.as_dict().items() if k[2] < boundary}
    return DaySeries.from_dict(kept, n_days=boundary)


class TestCusumResume:
    @pytest.mark.parametrize("seed,boundaries", [
        (0, [17]),            # one mid-series split
        (1, [5, 23, 37]),     # several uneven increments
        (2, [0, 50]),         # empty first call, then everything
        (3, [10, 10, 30]),    # a no-new-days resume in the middle
    ])
    def test_split_scans_match_cold_scan_exactly(self, seed, boundaries):
        rng = np.random.default_rng(seed)
        full = random_day_counts(rng)
        detector = CusumChangePointDetector()
        cold = detector.detect_events(full)
        assert cold  # the synthetic shifts are large; silence would be a bug
        state = detector.initial_state()
        emitted = []
        for boundary in [*boundaries, full.n_days]:
            emitted.extend(detector.resume(state, truncated_day_counts(full, boundary)))
        assert emitted == cold
        assert state.events == cold
        assert state.days_processed == full.n_days
        # A further resume over the same data is a no-op.
        assert detector.resume(state, full) == []
        assert state.events == cold

    @given(full=drawn_day_counts(), detector=drawn_detectors, baselines=drawn_baselines,
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_generated_splits_match_cold_scan(self, full, detector, baselines, data):
        """Resumes at 0-3 drawn days, each through a JSON round trip of the
        state, emit the cold scan's events, which equal the reference's."""
        boundaries = sorted(
            data.draw(st.lists(st.integers(0, full.n_days), max_size=3), label="splits")
        )
        cold = detector.detect_events(full, baselines)
        assert cold == detector.detect_events_reference(full, baselines)
        state = detector.initial_state(baselines)
        emitted = []
        for boundary in boundaries:
            emitted.extend(detector.resume(state, truncated_day_counts(full, boundary)))
            state = CusumState.from_payload(json.loads(json.dumps(state.to_payload())))
        emitted.extend(detector.resume(state, full))
        assert emitted == cold
        assert state.events == cold
        assert state.days_processed == full.n_days

    def test_checkpoint_roundtrip_mid_series(self, tmp_path):
        rng = np.random.default_rng(5)
        full = random_day_counts(rng)
        detector = CusumChangePointDetector()
        cold = detector.detect_events(full)
        state = detector.initial_state()
        first = detector.resume(state, truncated_day_counts(full, 25))
        path = tmp_path / "state.json"
        state.save(path, signature="monitor-sig")
        restored = CusumState.load(path, signature="monitor-sig")
        assert restored.days_processed == 25
        assert restored.events == first
        assert restored.cells == state.cells
        second = detector.resume(restored, full)
        assert first + second == cold
        assert restored.events == cold

    def test_checkpoint_signature_mismatch_is_rejected(self, tmp_path):
        state = CusumChangePointDetector().initial_state()
        path = tmp_path / "state.json"
        state.save(path, signature="monitor-sig")
        with pytest.raises(ValueError, match="signature"):
            CusumState.load(path, signature="a-different-monitor")
        # Loading without a signature skips the check.
        assert CusumState.load(path).days_processed == 0

    def test_baselines_survive_the_checkpoint(self, tmp_path):
        detector = CusumChangePointDetector()
        baselines = {"C00": 0.85, "C01": 0.95}
        state = detector.initial_state(baselines)
        rng = np.random.default_rng(9)
        full = random_day_counts(rng)
        events = detector.resume(state, truncated_day_counts(full, 20))
        path = tmp_path / "state.json"
        state.save(path)
        restored = CusumState.load(path)
        assert restored.baselines == baselines
        # The continuation is identical whichever copy carries on.
        assert detector.resume(restored, full) == detector.resume(state, full)
        assert restored.events == state.events == events + restored.events[len(events):]


# ----------------------------------------------------------------------
# The engine: scripted policy → detected events
# ----------------------------------------------------------------------
class TestLongitudinalRun:
    ONSET_DAY = 6
    OFFSET_DAY = 14
    EPOCHS = 20
    #: Generous bound: with ~60 DE measurements per domain per day the CUSUM
    #: statistic crosses within two days of data.
    LAG_BOUND = 3

    def run_deployment(self, seed=11, **config_kwargs):
        deployment = longitudinal_deployment(seed=seed)
        timeline = (
            PolicyTimeline()
            .onset(self.ONSET_DAY, "DE", "facebook.com")
            .offset(self.OFFSET_DAY, "DE", "facebook.com")
        )
        kwargs = {"epochs": self.EPOCHS, "visits_per_epoch": 200}
        kwargs.update(config_kwargs)
        config = LongitudinalConfig(**kwargs)
        return deployment, deployment.run_longitudinal(timeline, config)

    def test_scripted_onset_detected_within_lag_bound(self):
        deployment, result = self.run_deployment()
        events = result.events()
        onsets = [e for e in events if e.kind == "onset"]
        offsets = [e for e in events if e.kind == "offset"]
        assert [(e.domain, e.country_code) for e in onsets] == [("facebook.com", "DE")]
        assert [(e.domain, e.country_code) for e in offsets] == [("facebook.com", "DE")]
        assert onsets[0].change_day == self.ONSET_DAY
        assert onsets[0].detected_day - self.ONSET_DAY <= self.LAG_BOUND
        assert offsets[0].detected_day - self.OFFSET_DAY <= self.LAG_BOUND
        # The vectorized scan over the *campaign's* data matches the scalar walk.
        assert events == result.detector.detect_events_reference(result.day_counts())

    def test_timeline_report_grades_the_run(self):
        _, result = self.run_deployment()
        report = result.timeline_report()
        assert report.transitions == 2
        assert report.detected_count == 2
        assert report.missed_count == 0
        assert report.detection_rate == 1.0
        assert 0 <= report.mean_detection_lag <= self.LAG_BOUND
        assert report.false_events == []
        assert all(match.change_day_error == 0 for match in report.matches)
        assert "facebook.com" in report.format()

    def test_epoch_summaries_cover_the_timeline(self):
        deployment, result = self.run_deployment()
        assert len(result.epochs) == self.EPOCHS
        assert result.total_days == self.EPOCHS
        assert [epoch.first_day for epoch in result.epochs] == list(range(self.EPOCHS))
        blocked_days = [
            epoch.first_day for epoch in result.epochs
            if ("DE", "facebook.com") in epoch.blocked
        ]
        assert blocked_days == list(range(self.ONSET_DAY, self.OFFSET_DAY))
        assert result.measurements == len(deployment.collection)
        day_column = deployment.collection.store.column("day")
        assert int(day_column.min()) == 0
        assert int(day_column.max()) == self.EPOCHS - 1

    def test_world_and_config_restored_after_run(self):
        deployment, _ = self.run_deployment()
        assert deployment.config.days == 30
        assert deployment.config.day_offset == 0
        assert deployment.world.config.timeline_rules == {}
        assert not deployment.world.censorship_for("DE").filters_anything

    def test_checkpointed_epochs_match_stateless(self, tmp_path):
        """An epoch run as one inline shard gives the batch epoch's rows."""
        _, stateless = self.run_deployment(seed=23)
        _, checkpointed = self.run_deployment(seed=23, checkpoint_dir=str(tmp_path))
        # Whole rows, measurement ids included, in the same order.
        assert checkpointed.collection.store.rows() == stateless.collection.store.rows()
        assert checkpointed.events() == stateless.events()

    def test_throttle_moves_timings_not_success_rates(self):
        """Throttling is the subtle filtering CUSUM is not expected to flag."""
        deployment = longitudinal_deployment(seed=31)
        timeline = PolicyTimeline().throttle(5, "DE", "facebook.com")
        result = deployment.run_longitudinal(
            timeline, LongitudinalConfig(epochs=12, visits_per_epoch=200)
        )
        assert result.events() == []
        assert timeline.transitions() == []
        throttled = [e for e in result.epochs if ("DE", "facebook.com") in e.throttled]
        assert [e.first_day for e in throttled] == list(range(5, 12))

    def test_timing_cusum_catches_throttle_success_cusum_misses(self):
        """The kernel's timing quantiles expose what success rates cannot.

        Full-size image fetches (not favicons) make the 40x throttle shift
        seconds-scale while every exchange still completes, so the
        success-rate CUSUM stays silent and the timing CUSUM must call the
        scripted throttle onset on the day it happened.
        """
        config = CampaignConfig(
            visits=200,
            include_testbed=False,
            favicons_only=False,
            target_domains=("facebook.com", "youtube.com", "twitter.com"),
            seed=31,
            country_code="DE",
        )
        deployment = EncoreDeployment(longitudinal_world(seed=7), config)
        timeline = PolicyTimeline().throttle(5, "DE", "facebook.com")
        result = deployment.run_longitudinal(
            timeline, LongitudinalConfig(epochs=12, visits_per_epoch=200)
        )
        # Throttled fetches complete: the success-rate detector is blind.
        assert result.events() == []
        # The timing detector sees the slowdown, on the throttled pair only.
        events = result.timing_events()
        assert [
            (e.kind, e.domain, e.country_code, e.change_day) for e in events
        ] == [("throttle-onset", "facebook.com", "DE", 5)]
        assert events[0].detection_lag >= 1
        # Vectorized scan ≡ scalar reference on the real corpus's series.
        series = result.timing_series()
        detector = result.config.timing_detector
        assert detector.detect_events(series) == (
            detector.detect_events_reference(series)
        )
        # The throttle scorecard grades it: one transition, found, no noise.
        report = result.throttle_report()
        assert report.detection_rate == 1.0
        assert report.false_events == []
        assert report.matches[0].change_day_error == 0
        # Retuning the timing detector invalidates the cache (the same
        # contract the success-rate events cache pins).
        default_detector = result.config.timing_detector
        result.config.timing_detector = TimingCusumDetector(threshold=10_000.0)
        assert result.timing_events() == []
        result.config.timing_detector = default_detector
        assert result.timing_events() == events

    def test_epochs_default_covers_timeline_with_trailing_slack(self):
        timeline = PolicyTimeline().onset(9, "DE", "facebook.com")
        config = LongitudinalConfig(trailing_epochs=4)
        assert config.resolved_epochs(timeline) == 14

    def test_empty_timeline_requires_explicit_epochs(self):
        """Regression: an event-free timeline used to silently schedule
        ``1 + trailing_epochs`` epochs instead of failing loudly."""
        empty = PolicyTimeline()
        with pytest.raises(ValueError, match="event-free timeline"):
            LongitudinalConfig().resolved_epochs(empty)
        deployment = longitudinal_deployment(seed=53)
        with pytest.raises(ValueError, match="event-free timeline"):
            LongitudinalEngine(deployment, empty, LongitudinalConfig())
        # An explicit epoch count still works on an empty timeline.
        assert LongitudinalConfig(epochs=7).resolved_epochs(empty) == 7
        result = deployment.run_longitudinal(
            empty, LongitudinalConfig(epochs=2, visits_per_epoch=50)
        )
        assert len(result.epochs) == 2
        assert result.events() == []

    def test_events_cache_keyed_on_detector_tuning(self):
        """Regression: the events cache used to key on store version alone,
        so retuning ``config.detector`` returned the stale previous list."""
        _, result = self.run_deployment(seed=47)
        default_detector = result.config.detector
        default_events = result.events()
        assert default_events
        result.config.detector = CusumChangePointDetector(threshold=10_000.0)
        assert result.events() == []
        result.config.detector = default_detector
        assert result.events() == default_events

    def test_validation(self):
        deployment = longitudinal_deployment(seed=37)
        timeline = PolicyTimeline()
        with pytest.raises(ValueError):
            LongitudinalEngine(deployment, timeline, LongitudinalConfig(days_per_epoch=0))
        with pytest.raises(ValueError):
            LongitudinalEngine(deployment, timeline, LongitudinalConfig(visits_per_epoch=0))
        with pytest.raises(ValueError):
            LongitudinalEngine(deployment, timeline, LongitudinalConfig(epochs=0))

    def test_monitor_signature_is_pinned(self):
        """The signature keys every CUSUM checkpoint; a run setting leaking
        back into it would make restarts reject their own checkpoints."""
        engine = LongitudinalEngine(
            longitudinal_deployment(seed=41),
            PolicyTimeline()
            .onset(self.ONSET_DAY, "DE", "facebook.com")
            .offset(self.OFFSET_DAY, "DE", "facebook.com"),
            LongitudinalConfig(epochs=self.EPOCHS, visits_per_epoch=200),
        )
        digest = hashlib.sha256(engine._monitor_signature.encode()).hexdigest()
        assert digest == (
            "035878cbeb2e503100233698f17741b881820942b8bd28f46074603b6c22fb79"
        )


class TestCheckpointedMonitor:
    """The always-on monitor loop: epoch resume + CUSUM checkpointing."""

    ONSET_DAY = TestLongitudinalRun.ONSET_DAY
    OFFSET_DAY = TestLongitudinalRun.OFFSET_DAY
    EPOCHS = TestLongitudinalRun.EPOCHS
    run_deployment = TestLongitudinalRun.run_deployment
    KILL_AFTER = 9

    def test_monitor_matches_stateless_run(self, tmp_path):
        _, stateless = self.run_deployment(seed=41)
        _, monitored = self.run_deployment(
            seed=41, checkpoint_dir=str(tmp_path / "monitor")
        )
        assert monitored.monitor is not None
        assert monitored.monitor.days_processed == self.EPOCHS
        # The incremental per-epoch scan accumulated exactly the cold
        # full-scan events, and events() serves them straight off the state.
        assert monitored.events() == stateless.events()
        assert monitored.day_counts().as_dict() == stateless.day_counts().as_dict()
        assert not any(epoch.resumed for epoch in monitored.epochs)
        assert (tmp_path / "monitor" / LongitudinalEngine.STATE_FILE).is_file()

    def test_killed_monitor_resumes_to_identical_events(self, tmp_path):
        checkpoint = tmp_path / "monitor"
        _, reference = self.run_deployment(
            seed=41, checkpoint_dir=str(tmp_path / "reference")
        )
        # A monitor killed after KILL_AFTER epochs (a shorter horizon stands
        # in for the kill: the checkpoint on disk is what a crash leaves).
        _, killed = self.run_deployment(
            seed=41, epochs=self.KILL_AFTER, checkpoint_dir=str(checkpoint)
        )
        assert killed.monitor.days_processed == self.KILL_AFTER
        # A fresh process: new deployment (same world/campaign seeds), full
        # horizon, same checkpoint directory.
        _, resumed = self.run_deployment(seed=41, checkpoint_dir=str(checkpoint))
        assert [e.resumed for e in resumed.epochs[: self.KILL_AFTER]] == (
            [True] * self.KILL_AFTER
        )
        assert not any(e.resumed for e in resumed.epochs[self.KILL_AFTER:])
        assert resumed.events() == reference.events()
        assert resumed.day_counts().as_dict() == reference.day_counts().as_dict()
        assert resumed.monitor.days_processed == self.EPOCHS
        # The completed epochs' events came from the checkpoint verbatim.
        assert resumed.monitor.events[: len(killed.monitor.events)] == (
            killed.monitor.events
        )

    @staticmethod
    def monitor_state(deployment, result):
        return (
            deployment.collection.store.rows(),
            [(e.epoch, e.measurements_added, e.blocked, e.throttled) for e in result.epochs],
            deployment.collection.unreachable_submissions,
            deployment.coordination.batched_deliveries_attempted,
            deployment.coordination.batched_deliveries_failed,
            deployment.scheduler.replication_report(),
            result.events(),
            result.monitor.days_processed,
        )

    def crash_and_resume(self, tmp_path, monkeypatch, orphan_segments, inject):
        """Kill the monitor with ``inject``, resume it, compare with a clean run.

        Returns the resumed run's per-epoch ``resumed`` flags and the
        segments the dead attempt left uncommitted.
        """
        expected = self.monitor_state(
            *self.run_deployment(seed=41, checkpoint_dir=str(tmp_path / "reference"))
        )
        checkpoint = tmp_path / "monitor"
        inject(monkeypatch)
        with pytest.raises(OSError, match="injected crash"):
            self.run_deployment(seed=41, checkpoint_dir=str(checkpoint))
        monkeypatch.undo()
        orphans = orphan_segments(checkpoint)
        # A fresh process: new deployment (same world/campaign seeds), same
        # checkpoint directory.
        deployment, resumed = self.run_deployment(seed=41, checkpoint_dir=str(checkpoint))
        assert self.monitor_state(deployment, resumed) == expected
        assert not any(path.exists() for path in orphans)
        assert orphan_segments(checkpoint) == set()
        return [e.resumed for e in resumed.epochs], orphans

    def test_crash_in_a_manifest_write(self, tmp_path, monkeypatch, orphan_segments):
        from repro.core import shard as shard_module

        real_write = shard_module.write_manifest
        calls = []

        def write_manifest(shard_dir, manifest):
            calls.append(shard_dir)
            if len(calls) == self.KILL_AFTER + 1:
                raise OSError("injected crash")
            return real_write(shard_dir, manifest)

        resumed, orphans = self.crash_and_resume(
            tmp_path, monkeypatch, orphan_segments,
            lambda patch: patch.setattr(shard_module, "write_manifest", write_manifest),
        )
        # Epoch KILL_AFTER spilled its segments but never committed them.
        assert orphans
        assert resumed == [True] * self.KILL_AFTER + [False] * (
            self.EPOCHS - self.KILL_AFTER
        )

    def test_crash_in_a_cusum_checkpoint(self, tmp_path, monkeypatch, orphan_segments):
        real_save = CusumState.save
        calls = []

        def save(state, path, signature=None):
            calls.append(path)
            if len(calls) == self.KILL_AFTER + 1:
                raise OSError("injected crash")
            real_save(state, path, signature)

        resumed, orphans = self.crash_and_resume(
            tmp_path, monkeypatch, orphan_segments,
            lambda patch: patch.setattr(CusumState, "save", save),
        )
        # Epoch KILL_AFTER committed its rows, so the resume adopts them and
        # re-scans its day from the previous epoch's checkpoint.
        assert not orphans
        assert resumed == [True] * (self.KILL_AFTER + 1) + [False] * (
            self.EPOCHS - self.KILL_AFTER - 1
        )

    def test_lost_cusum_checkpoint_rescans(self, tmp_path):
        checkpoint = tmp_path / "monitor"
        self.run_deployment(
            seed=41, epochs=self.KILL_AFTER, checkpoint_dir=str(checkpoint)
        )
        (checkpoint / LongitudinalEngine.STATE_FILE).unlink()
        _, restarted = self.run_deployment(seed=41, checkpoint_dir=str(checkpoint))
        # The CUSUM state starts fresh; the epoch campaigns still adopt the
        # completed epochs' rows from their manifests (that is cheap replay,
        # not stale state: the fold + scan cover those rows again).
        assert [e.resumed for e in restarted.epochs[: self.KILL_AFTER]] == (
            [True] * self.KILL_AFTER
        )
        assert restarted.monitor.days_processed == self.EPOCHS
        _, stateless = self.run_deployment(seed=41)
        assert restarted.events() == stateless.events()

    def test_adaptive_baselines_seed_and_persist(self, tmp_path):
        _, result = self.run_deployment(
            seed=43, checkpoint_dir=str(tmp_path), adaptive_baselines=True
        )
        baselines = result.monitor.baselines
        assert baselines
        assert all(0.0 < rate <= 1.0 for rate in baselines.values())
        restored = CusumState.load(tmp_path / LongitudinalEngine.STATE_FILE)
        assert restored.baselines == baselines


class TestTimelineReportAttribution:
    def test_missed_transition_cannot_claim_a_later_detection(self):
        """A missed early onset must not absorb the detection of a later one."""
        from repro.analysis.reports import build_timeline_report
        from repro.core.inference import CensorshipEvent

        timeline = (
            PolicyTimeline()
            .onset(5, "DE", "facebook.com")
            .offset(15, "DE", "facebook.com")
            .onset(30, "DE", "facebook.com")
        )
        # Only the day-30 onset (and the day-15 offset) were detected.
        events = [
            CensorshipEvent("facebook.com", "DE", "offset", 15, 16, 1.2, 0.6),
            CensorshipEvent("facebook.com", "DE", "onset", 30, 32, 1.4, 0.7),
        ]
        report = build_timeline_report(events, timeline)
        by_day = {match.day: match for match in report.matches}
        assert not by_day[5].detected
        assert by_day[15].detection_lag == 1
        assert by_day[30].detection_lag == 2
        assert report.mean_detection_lag == 1.5
        assert report.false_events == []


class TestTimelineCensorPlumbing:
    def test_rules_in_world_config_build_censors(self):
        config = WorldConfig(
            seed=3, target_list_total=20, target_list_online=16, origin_site_count=2,
            timeline_rules={"DE": {"facebook.com": "block", "youtube.com": "throttle"}},
        )
        world = World(config)
        censorship = world.censorship_for("DE")
        assert censorship.filters_anything
        assert censorship.would_filter("http://facebook.com/favicon.ico")
        names = [censor.name for censor in censorship.censors]
        assert names == ["de-timeline-block", "de-timeline-throttle"]

    def test_refresh_is_idempotent_and_reversible(self):
        world = longitudinal_world(seed=5)
        world.config.timeline_rules = {"DE": {"facebook.com": "block"}}
        world.refresh_timeline_censors()
        first = list(world.censorship_for("DE").censors)
        world.refresh_timeline_censors()
        assert world.censorship_for("DE").censors == first
        # Swinging the blacklist reuses the same censor object (stable chain).
        world.config.timeline_rules = {"DE": {"twitter.com": "block"}}
        world.refresh_timeline_censors()
        assert world.censorship_for("DE").censors[0] is first[0]
        assert world.censorship_for("DE").would_filter("http://twitter.com/")
        assert not world.censorship_for("DE").would_filter("http://facebook.com/")
        world.config.timeline_rules = {}
        world.refresh_timeline_censors()
        assert not world.censorship_for("DE").filters_anything

    def test_presets_survive_timeline_rules(self):
        world = longitudinal_world(seed=9)
        preset = list(world.censorship_for("CN").censors)
        world.config.timeline_rules = {"CN": {"example.org": "block"}}
        world.refresh_timeline_censors()
        assert world.censorship_for("CN").censors[: len(preset)] == preset
        world.config.timeline_rules = {}
        world.refresh_timeline_censors()
        assert world.censorship_for("CN").censors == preset
