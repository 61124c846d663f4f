"""The composable query kernel vs. its scalar reference twin.

``repro.core.query.run_query`` is the one group-by engine behind every store
reduction; these tests pin its equivalence contract: every (keys,
aggregates, mask, exclusions) combination must agree with
``run_query_reference`` — a per-row Python walk — on arbitrary corpora, with
and without spilled segments and adopted (merged) stores, and so must each
kernel wrapper (``grouped_success_counts`` in both shapes,
``masked_grouped_success_counts``, ``distinct_ip_count``) on every store
layout.  The fold-once incremental watermark, the ``store.query_folds``
counter, and the :class:`TimingCusumDetector` vectorized ≡ scalar
convention are pinned here too.
"""

import tempfile
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.reports import build_throttle_report
from repro.censor.policy import PolicyEvent, PolicyTimeline
from repro.core.collection import Measurement
from repro.core.inference import CensorshipEvent, TimingCusumDetector
from repro.core.query import (
    Count,
    DistinctCount,
    Quantiles,
    SuccessCount,
    distinct_ip_count,
    grouped_success_counts,
    masked_grouped_success_counts,
    run_query,
    run_query_reference,
    timing_day_series,
)
from repro.core.store import DaySeries, MeasurementStore
from repro.core.tasks import TaskOutcome, TaskType
from repro.obs.metrics import get_registry
from repro.web.url import URL


# ----------------------------------------------------------------------
# Random corpora (the store test conventions, plus timing variety)
# ----------------------------------------------------------------------
DOMAINS = ("facebook.com", "youtube.com", "twitter.com", "host-00.encore-testbed.net")
COUNTRIES = ("US", "CN", "IR", "DE")
ISPS = ("us-isp-1", "cn-isp-2", "attacker")
FAMILIES = ("chrome", "firefox", "ie")


@st.composite
def measurements(draw):
    domain = draw(st.sampled_from(DOMAINS))
    country = draw(st.sampled_from(COUNTRIES))
    return Measurement(
        measurement_id=f"m{draw(st.integers(min_value=0, max_value=30))}",
        task_type=draw(st.sampled_from(list(TaskType))),
        target_url=URL.parse(f"http://{domain}/favicon.ico"),
        target_domain=domain,
        outcome=draw(st.sampled_from(list(TaskOutcome))),
        elapsed_ms=draw(st.floats(min_value=0.0, max_value=5000.0)),
        client_ip=f"10.0.{draw(st.integers(min_value=0, max_value=40))}.7",
        country_code=country,
        isp=draw(st.sampled_from(ISPS)),
        browser_family=draw(st.sampled_from(FAMILIES)),
        origin_domain=None,
        day=draw(st.integers(min_value=0, max_value=20)),
        probe_time_ms=draw(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=500.0))
        ),
        is_automated=draw(st.booleans()),
    )


corpora = st.lists(measurements(), max_size=60)

KEY_COMBOS = (
    ("domain", "country"),
    ("domain", "country", "day"),
    ("country", "day"),
    ("country", "family"),
)

FULL_AGGREGATES = (
    Count(),
    SuccessCount(),
    Quantiles("elapsed_ms", (0.5, 0.9, 0.99)),
    DistinctCount("client_ip"),
)

query_combos = st.fixed_dictionaries(
    {
        "keys": st.sampled_from(KEY_COMBOS),
        "exclude_automated": st.booleans(),
        "exclude_inconclusive": st.booleans(),
    }
)


def build_store(corpus, **kwargs):
    store = MeasurementStore(segment_rows=16, **kwargs)
    store.append_rows(corpus)
    return store


def build_spilled_store(corpus, tmp):
    store = MeasurementStore(segment_rows=8, spill_dir=tmp)
    store.append_rows(corpus)
    store.spill()
    return store


def build_adopted_store(corpus, split, tmp):
    """A store that adopted another worker's spilled segments."""
    split = min(split, len(corpus))
    store = build_store(corpus[:split])
    other = MeasurementStore(segment_rows=8, spill_dir=tmp)
    other.append_rows(corpus[split:])
    other.spill()
    store.adopt_segments_from(other)
    return store


LAYOUTS = ("plain", "spilled", "adopted")


@contextmanager
def store_in_layout(corpus, layout, split):
    """``corpus`` in a plain, spilled, or adopted (merged) store."""
    with tempfile.TemporaryDirectory() as tmp:
        if layout == "plain":
            yield build_store(corpus)
        elif layout == "spilled":
            yield build_spilled_store(corpus, tmp)
        else:
            yield build_adopted_store(corpus, split, tmp)


# ----------------------------------------------------------------------
# run_query ≡ run_query_reference
# ----------------------------------------------------------------------
class TestRunQueryEquivalence:
    @given(corpus=corpora, combo=query_combos)
    @settings(max_examples=60, deadline=None)
    def test_cells_equal_reference(self, corpus, combo):
        store = build_store(corpus)
        assert (
            run_query(store, combo["keys"], FULL_AGGREGATES,
                      exclude_automated=combo["exclude_automated"],
                      exclude_inconclusive=combo["exclude_inconclusive"]).as_dict()
            == run_query_reference(store, combo["keys"], FULL_AGGREGATES,
                                   exclude_automated=combo["exclude_automated"],
                                   exclude_inconclusive=combo["exclude_inconclusive"])
        )

    @given(corpus=corpora, combo=query_combos, mask_seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_masked_cells_equal_reference(self, corpus, combo, mask_seed):
        store = build_store(corpus)
        mask = np.random.default_rng(mask_seed).random(len(store)) < 0.5
        assert (
            run_query(store, combo["keys"], FULL_AGGREGATES, mask=mask,
                      exclude_automated=combo["exclude_automated"],
                      exclude_inconclusive=combo["exclude_inconclusive"]).as_dict()
            == run_query_reference(store, combo["keys"], FULL_AGGREGATES, mask=mask,
                                   exclude_automated=combo["exclude_automated"],
                                   exclude_inconclusive=combo["exclude_inconclusive"])
        )

    @given(corpus=corpora, combo=query_combos)
    @settings(max_examples=30, deadline=None)
    def test_spilled_store_equals_reference(self, corpus, combo):
        with tempfile.TemporaryDirectory() as tmp:
            store = build_spilled_store(corpus, tmp)
            assert (
                run_query(store, combo["keys"], FULL_AGGREGATES,
                          exclude_automated=combo["exclude_automated"],
                          exclude_inconclusive=combo["exclude_inconclusive"]).as_dict()
                == run_query_reference(
                    store, combo["keys"], FULL_AGGREGATES,
                    exclude_automated=combo["exclude_automated"],
                    exclude_inconclusive=combo["exclude_inconclusive"])
            )

    @given(corpus=corpora, split=st.integers(0, 60), combo=query_combos)
    @settings(max_examples=30, deadline=None)
    def test_adopted_merged_store_equals_reference(self, corpus, split, combo):
        with tempfile.TemporaryDirectory() as tmp:
            store = build_adopted_store(corpus, split, tmp)
            assert (
                run_query(store, combo["keys"], FULL_AGGREGATES,
                          exclude_automated=combo["exclude_automated"],
                          exclude_inconclusive=combo["exclude_inconclusive"]).as_dict()
                == run_query_reference(
                    store, combo["keys"], FULL_AGGREGATES,
                    exclude_automated=combo["exclude_automated"],
                    exclude_inconclusive=combo["exclude_inconclusive"])
            )

    def test_store_query_method_is_the_kernel(self):
        store = build_store(_timing_corpus())
        assert store.query().as_dict() == run_query_reference(store)

    def test_invalid_keys_and_aggregates_fail_loudly(self):
        store = build_store(_timing_corpus())
        for key in ("no-such-axis", "isp", "task"):
            with pytest.raises(KeyError):
                run_query(store, (key,), (Count(),))
        with pytest.raises(ValueError):
            Quantiles("client_ip")
        with pytest.raises(ValueError):
            # A missing probe time is NaN, which np.quantile propagates and
            # the kernel's per-group sort does not.
            Quantiles("probe_time_ms")
        with pytest.raises(ValueError):
            DistinctCount("elapsed_ms")
        with pytest.raises(ValueError):
            DistinctCount("url")
        with pytest.raises(ValueError):
            Quantiles("elapsed_ms", ())
        with pytest.raises(ValueError):
            run_query(store, ("domain",), (Count(),), mask=np.ones(3, dtype=bool))
        # Row positions are no mask: cast to bool they would drop row 0.
        with pytest.raises(TypeError):
            run_query(store, ("domain",), (Count(),), mask=np.arange(len(store)))


def _timing_corpus(n=48, seed=5):
    rng = np.random.default_rng(seed)
    corpus = []
    for index in range(n):
        domain = DOMAINS[index % 3]
        country = COUNTRIES[index % 2]
        corpus.append(
            Measurement(
                measurement_id=f"t{index}",
                task_type=TaskType.IMAGE,
                target_url=URL.parse(f"http://{domain}/favicon.ico"),
                target_domain=domain,
                outcome=TaskOutcome.SUCCESS if index % 5 else TaskOutcome.FAILURE,
                elapsed_ms=float(rng.uniform(100.0, 900.0)),
                client_ip=f"10.1.{index % 9}.7",
                country_code=country,
                isp=ISPS[index % 2],
                browser_family=FAMILIES[index % 3],
                origin_domain=None,
                day=index % 6,
                probe_time_ms=None,
                is_automated=index % 7 == 0,
            )
        )
    return corpus


# ----------------------------------------------------------------------
# Kernel wrappers pinned to run_query_reference, on every store layout
# ----------------------------------------------------------------------
def success_keys(by_day):
    return ("domain", "country", "day") if by_day else ("domain", "country")


class TestWrappersPinned:
    @given(corpus=corpora, layout=st.sampled_from(LAYOUTS), split=st.integers(0, 60),
           by_day=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_grouped_success_counts_pinned(self, corpus, layout, split, by_day):
        with store_in_layout(corpus, layout, split) as store:
            assert (
                grouped_success_counts(store, by_day=by_day).as_dict()
                == run_query_reference(store, success_keys(by_day))
            )

    @given(corpus=corpora, layout=st.sampled_from(LAYOUTS), split=st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_day_series_pinned(self, corpus, layout, split):
        """``by_day=True`` equals the by-day reference cells densified."""
        with store_in_layout(corpus, layout, split) as store:
            series = grouped_success_counts(store, by_day=True)
            reference = run_query_reference(store, success_keys(True))
        # Densify the by-day reference cells into per-pair day matrices.
        pairs = sorted({(domain, country) for domain, country, _ in reference})
        n_days = max((day + 1 for _, _, day in reference), default=0)
        totals = np.zeros((len(pairs), n_days), dtype=np.int64)
        successes = np.zeros((len(pairs), n_days), dtype=np.int64)
        for (domain, country, day), (n, ok) in reference.items():
            row = pairs.index((domain, country))
            totals[row, day] = n
            successes[row, day] = ok
        assert series.n_days == n_days
        assert series.domains.tolist() == [domain for domain, _ in pairs]
        assert series.countries.tolist() == [country for _, country in pairs]
        assert np.array_equal(series.counts, totals)
        assert np.array_equal(series.values, successes)

    @given(corpus=corpora, layout=st.sampled_from(LAYOUTS), split=st.integers(0, 60),
           mask_seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_masked_grouped_success_counts_pinned(self, corpus, layout, split, mask_seed):
        with store_in_layout(corpus, layout, split) as store:
            mask = np.random.default_rng(mask_seed).random(len(store)) < 0.5
            assert (
                masked_grouped_success_counts(store, mask).as_dict()
                == run_query_reference(store, success_keys(False), mask=mask)
            )

    @given(corpus=corpora, layout=st.sampled_from(LAYOUTS), split=st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_distinct_ip_count_pinned(self, corpus, layout, split):
        with store_in_layout(corpus, layout, split) as store:
            reference = run_query_reference(
                store, (), (DistinctCount("client_ip"),),
                exclude_automated=False, exclude_inconclusive=False,
            )
            assert distinct_ip_count(store) == (reference[()][0] if reference else 0)


# ----------------------------------------------------------------------
# Fold-once incrementality and telemetry
# ----------------------------------------------------------------------
class TestFoldOnceAndTelemetry:
    def test_query_folds_each_sealed_segment_once(self):
        corpus = _timing_corpus(n=64)
        store = MeasurementStore(segment_rows=8)
        store.append_rows(corpus[:40])
        first = store.query(keys=("domain", "country", "day")).as_dict()
        assert store._query_states
        assert all(
            state.segments_folded == len(store._segments)
            for state in store._query_states.values()
        )
        # New rows advance the watermark; old segments are not refolded.
        counter = get_registry().counter("store.query_folds")
        segments_before = len(store._segments)
        folds_before = counter.value
        store.append_rows(corpus[40:])
        second = store.query(keys=("domain", "country", "day"))
        assert all(
            state.segments_folded == len(store._segments)
            for state in store._query_states.values()
        )
        new_segments = len(store._segments) - segments_before
        pending = len(store._pending)
        assert counter.value - folds_before == new_segments + pending
        # The incremental result equals a cold store over the same rows.
        cold = MeasurementStore(segment_rows=8)
        cold.append_rows(corpus)
        assert second.as_dict() == cold.query(keys=("domain", "country", "day")).as_dict()
        assert first == run_query_reference(
            store, ("domain", "country", "day"), mask=np.arange(len(store)) < 40
        )

    def test_cached_query_does_not_refold(self):
        store = build_store(_timing_corpus())
        store.query()
        counter = get_registry().counter("store.query_folds")
        before = counter.value
        assert store.query() is store.query()
        assert counter.value == before


# ----------------------------------------------------------------------
# Timing day series + TimingCusumDetector: vectorized ≡ scalar reference
# ----------------------------------------------------------------------
def random_timing_series(rng, cells=24, n_days=40, empty_fraction=None, shifts=None):
    """Synthetic per-pair daily quantiles with seeded throttle regimes.

    ``shifts[cell]`` is ``(change, recovery, factor)``: the cell runs
    ``factor`` times slower from ``change`` up to ``recovery``.  Drawn from
    ``rng`` when not given, with every third cell left unshifted.
    ``empty_fraction`` empties that share of the pair-days on top.
    """
    domains = np.asarray([f"domain-{c % 5}.org" for c in range(cells)])
    countries = np.asarray([f"C{c % 7:02d}" for c in range(cells)])
    counts = rng.integers(0, 14, size=(cells, n_days))
    if empty_fraction is not None:
        counts[rng.random((cells, n_days)) < empty_fraction] = 0
    baselines = rng.uniform(150.0, 900.0, size=cells)
    values = baselines[:, None] * rng.uniform(0.85, 1.15, size=(cells, n_days))
    for cell in range(cells):
        if shifts is not None:
            change, recovery, factor = shifts[cell]
        elif cell % 3 == 0:
            continue
        else:
            change = int(rng.integers(6, n_days))
            recovery = int(rng.integers(change, n_days + 8))
            factor = float(rng.uniform(3.0, 7.0))
        values[cell, change:recovery] *= factor
    values[counts == 0] = np.nan
    return DaySeries(domains, countries, counts, values, n_days)


@st.composite
def drawn_timing_series(draw):
    """A generated timing series: shape, empty-day fraction, throttle regimes."""
    cells = draw(st.integers(1, 30))
    n_days = draw(st.integers(1, 40))
    shift = st.tuples(
        st.integers(0, n_days), st.integers(0, n_days + 8), st.floats(1.0, 8.0)
    )
    return random_timing_series(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        cells=cells,
        n_days=n_days,
        empty_fraction=draw(st.floats(0.0, 0.9)),
        shifts=draw(st.lists(shift, min_size=cells, max_size=cells)),
    )


#: Any tuning the constructor accepts: slowdown - drift > 1 + drift and so on.
drawn_timing_detectors = st.builds(
    lambda drift, margin, threshold, min_daily, baseline_days: TimingCusumDetector(
        slowdown=1.0 + 2.0 * drift + margin,
        drift=drift,
        threshold=threshold,
        min_daily_measurements=min_daily,
        baseline_days=baseline_days,
    ),
    st.floats(0.0, 0.5),
    st.floats(0.05, 5.0),
    st.floats(0.1, 4.0),
    st.integers(1, 12),
    st.integers(1, 8),
)


class TestTimingCusumEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("threshold,drift,min_daily,baseline_days", [
        (2.0, 0.25, 5, 5), (1.0, 0.0, 1, 3), (3.0, 0.5, 8, 6),
    ])
    def test_events_match_reference_exactly(
        self, seed, threshold, drift, min_daily, baseline_days
    ):
        rng = np.random.default_rng(seed)
        series = random_timing_series(rng)
        detector = TimingCusumDetector(
            threshold=threshold,
            drift=drift,
            min_daily_measurements=min_daily,
            baseline_days=baseline_days,
        )
        fast = detector.detect_events(series)
        reference = detector.detect_events_reference(series)
        assert fast == reference
        assert fast  # the seeded slowdowns are large; silence would be a bug

    @given(series=drawn_timing_series(), detector=drawn_timing_detectors)
    @settings(max_examples=25, deadline=None)
    def test_generated_events_match_reference(self, series, detector):
        assert detector.detect_events(series) == detector.detect_events_reference(series)

    def test_empty_series_detects_nothing(self):
        empty = DaySeries(
            np.empty(0, dtype=np.str_), np.empty(0, dtype=np.str_),
            np.zeros((0, 10), dtype=np.int64), np.full((0, 10), np.nan), 10,
        )
        detector = TimingCusumDetector()
        assert detector.detect_events(empty) == []
        assert detector.detect_events_reference(empty) == []

    def test_cell_without_baseline_never_alarms(self):
        """No qualifying day in the baseline window means no evidence."""
        n_days = 20
        counts = np.full((1, n_days), 30, dtype=np.int64)
        counts[0, :5] = 1  # below min_daily_measurements while training
        values = np.full((1, n_days), 5000.0)
        series = DaySeries(
            np.asarray(["x.org"]), np.asarray(["DE"]), counts, values, n_days
        )
        detector = TimingCusumDetector(min_daily_measurements=5, baseline_days=5)
        assert detector.detect_events(series) == []
        assert detector.detect_events_reference(series) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingCusumDetector(slowdown=1.0)
        with pytest.raises(ValueError):
            TimingCusumDetector(drift=-0.1)
        with pytest.raises(ValueError):
            TimingCusumDetector(slowdown=1.5, drift=0.4)
        with pytest.raises(ValueError):
            TimingCusumDetector(threshold=0.0)
        with pytest.raises(ValueError):
            TimingCusumDetector(min_daily_measurements=0)
        with pytest.raises(ValueError):
            TimingCusumDetector(baseline_days=0)

    @given(corpus=corpora, quantile=st.sampled_from((0.5, 0.9)))
    @settings(max_examples=30, deadline=None)
    def test_timing_day_series_matches_query_cells(self, corpus, quantile):
        """The day series' measured pair-days equal the cell query."""
        store = build_store(corpus)
        series = timing_day_series(store, quantile=quantile)
        expected = run_query_reference(
            store, ("domain", "country", "day"),
            (Count(), Quantiles("elapsed_ms", (quantile,))),
        )
        cells = {key: (n, (value,)) for key, (n, value) in series.as_dict().items()}
        assert cells == expected
        # NaN exactly where a pair-day has no filtered measurements.
        assert np.array_equal(np.isnan(series.values), series.counts == 0)


# ----------------------------------------------------------------------
# Throttle ground truth and report grading
# ----------------------------------------------------------------------
class TestThrottleTransitionsAndReport:
    def test_throttle_transitions_dedup_and_offsets(self):
        timeline = (
            PolicyTimeline()
            .throttle(3, "DE", "facebook.com")
            .throttle(5, "DE", "facebook.com")   # redundant: no event
            .offset(8, "DE", "facebook.com")
            .throttle(10, "CN", "youtube.com")
            .onset(12, "CN", "youtube.com")      # blocked ends throttling
        )
        assert timeline.throttle_transitions() == [
            PolicyEvent(3, "DE", "facebook.com", "throttle"),
            PolicyEvent(8, "DE", "facebook.com", "offset"),
            PolicyEvent(10, "CN", "youtube.com", "throttle"),
            PolicyEvent(12, "CN", "youtube.com", "offset"),
        ]
        # Hard blocks alone never appear in the throttle ground truth.
        assert PolicyTimeline().onset(2, "IR", "twitter.com").throttle_transitions() == []

    def test_build_throttle_report_grades_timing_events(self):
        timeline = (
            PolicyTimeline()
            .throttle(5, "DE", "facebook.com")
            .offset(9, "DE", "facebook.com")
        )

        def event(kind, change_day, detected_day, domain="facebook.com", country="DE"):
            return CensorshipEvent(
                domain=domain, country_code=country, kind=kind,
                change_day=change_day, detected_day=detected_day,
                statistic=3.0, confidence=1.0,
            )

        onset = event("throttle-onset", 5, 6)
        offset = event("throttle-offset", 9, 10)
        spurious = event("throttle-onset", 2, 3, domain="youtube.com")
        report = build_throttle_report([onset, offset, spurious], timeline)
        assert report.detection_rate == 1.0
        assert [match.kind for match in report.matches] == [
            "throttle-onset", "throttle-offset"
        ]
        assert [match.event for match in report.matches] == [onset, offset]
        assert report.matches[0].detection_lag == 1
        assert report.false_events == [spurious]
