"""The columnar MeasurementStore vs. the seed row-list semantics.

The store replaced the collection server's ``list[Measurement]`` with
struct-of-arrays storage; these tests pin the redesign's compatibility
contract: every query (``row_mask``, the query kernel's wrappers, the
distinct counters, detection) must agree with the seed row-list
implementations — reproduced here as reference functions — on
arbitrary corpora, with and without spilling segments to disk.
"""

import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collection import CollectionServer, Measurement, SubmissionRecord
from repro.core.inference import (
    AdaptiveFilteringDetector,
    BinomialFilteringDetector,
    binomial_cdf,
    binomial_cdf_cells,
)
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.query import (
    Count,
    distinct_ip_count,
    grouped_success_counts,
    masked_grouped_success_counts,
    run_query,
)
from repro.core.store import (
    ColumnAlignmentError,
    ColumnValueError,
    DaySeries,
    DictColumn,
    MeasurementStore,
)
from repro.core.tasks import TaskOutcome, TaskType
from repro.population.geoip import GeoIPDatabase
from repro.population.world import World, WorldConfig
from repro.web.url import URL

# ----------------------------------------------------------------------
# Seed reference implementations (the pre-store row-list semantics)
# ----------------------------------------------------------------------
def reference_filtered(measurements, domain=None, country_code=None, task_type=None,
                       exclude_automated=True, exclude_inconclusive=True):
    result = []
    for m in measurements:
        if exclude_automated and m.is_automated:
            continue
        if exclude_inconclusive and m.outcome is TaskOutcome.INCONCLUSIVE:
            continue
        if domain is not None and m.target_domain != domain:
            continue
        if country_code is not None and m.country_code != country_code:
            continue
        if task_type is not None and m.task_type is not task_type:
            continue
        result.append(m)
    return result


def reference_success_counts(measurements, exclude_automated=True):
    totals = defaultdict(int)
    successes = defaultdict(int)
    for m in measurements:
        if exclude_automated and m.is_automated:
            continue
        if m.outcome is TaskOutcome.INCONCLUSIVE:
            continue
        key = (m.target_domain, m.country_code)
        totals[key] += 1
        if m.succeeded:
            successes[key] += 1
    return {key: (totals[key], successes[key]) for key in totals}


def reference_day_counts(measurements, exclude_automated=True):
    """The row-list semantics of ``success_counts(by_day=True)``."""
    totals = defaultdict(int)
    successes = defaultdict(int)
    for m in measurements:
        if exclude_automated and m.is_automated:
            continue
        if m.outcome is TaskOutcome.INCONCLUSIVE:
            continue
        key = (m.target_domain, m.country_code, m.day)
        totals[key] += 1
        if m.succeeded:
            successes[key] += 1
    return {key: (totals[key], successes[key]) for key in totals}


def reference_detect(counts, success_prior=0.7, significance=0.05, min_measurements=10):
    """The seed scalar detection loop, returning the detected pairs."""
    stats = []
    for (domain, country), (n, successes) in sorted(counts.items()):
        if n < min_measurements:
            continue
        stats.append((domain, country, n, successes,
                      binomial_cdf(successes, n, success_prior)))
    by_domain = defaultdict(list)
    for stat in stats:
        by_domain[stat[0]].append(stat)
    detected = set()
    for domain, domain_stats in by_domain.items():
        failing = [s for s in domain_stats if s[4] <= significance]
        passing = [
            s for s in domain_stats
            if s[4] > significance and (s[3] / s[2] if s[2] else 0.0) >= success_prior
        ]
        if not failing or not passing:
            continue
        for stat in failing:
            detected.add((stat[0], stat[1]))
    return detected


# ----------------------------------------------------------------------
# Random corpora
# ----------------------------------------------------------------------
DOMAINS = ("facebook.com", "youtube.com", "twitter.com", "host-00.encore-testbed.net")
COUNTRIES = ("US", "CN", "IR", "PK", "DE")
ISPS = ("us-isp-1", "cn-isp-2", "attacker")
FAMILIES = ("chrome", "firefox", "ie")


@st.composite
def measurements(draw):
    domain = draw(st.sampled_from(DOMAINS))
    country = draw(st.sampled_from(COUNTRIES))
    task_type = draw(st.sampled_from(list(TaskType)))
    probe = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=500.0)))
    return Measurement(
        measurement_id=f"m{draw(st.integers(min_value=0, max_value=30))}",
        task_type=task_type,
        target_url=URL.parse(f"http://{domain}/favicon.ico"),
        target_domain=domain,
        outcome=draw(st.sampled_from(list(TaskOutcome))),
        elapsed_ms=draw(st.floats(min_value=0.0, max_value=5000.0)),
        client_ip=f"10.0.{draw(st.integers(min_value=0, max_value=40))}.7",
        country_code=country,
        isp=draw(st.sampled_from(ISPS)),
        browser_family=draw(st.sampled_from(FAMILIES)),
        origin_domain=draw(st.one_of(st.none(), st.sampled_from(("origin-00.example.edu", "origin-01.example.edu")))),
        day=draw(st.integers(min_value=0, max_value=29)),
        probe_time_ms=probe,
        is_automated=draw(st.booleans()),
    )


corpora = st.lists(measurements(), max_size=60)

filter_combos = st.fixed_dictionaries(
    {
        "domain": st.one_of(st.none(), st.sampled_from(DOMAINS)),
        "country_code": st.one_of(st.none(), st.sampled_from(COUNTRIES + ("XX",))),
        "task_type": st.one_of(st.none(), st.sampled_from(list(TaskType))),
        "exclude_automated": st.booleans(),
        "exclude_inconclusive": st.booleans(),
    }
)


class TestStoreMatchesRowListSemantics:
    @given(corpus=corpora, combo=filter_combos)
    @settings(max_examples=60, deadline=None)
    def test_row_mask_equals_seed_filtered(self, corpus, combo):
        store = MeasurementStore(segment_rows=16)
        store.append_rows(corpus)
        mask = store.row_mask(**combo)
        assert mask.dtype == bool and len(mask) == len(corpus)
        assert store.rows(np.flatnonzero(mask)) == reference_filtered(corpus, **combo)

    @given(corpus=corpora, exclude_automated=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_success_counts_equal_seed(self, corpus, exclude_automated):
        store = MeasurementStore(segment_rows=16)
        store.append_rows(corpus)
        grouped = grouped_success_counts(store, exclude_automated=exclude_automated)
        assert grouped.as_dict() == reference_success_counts(corpus, exclude_automated)

    @given(corpus=corpora)
    @settings(max_examples=40, deadline=None)
    def test_rows_round_trip_field_for_field(self, corpus):
        store = MeasurementStore(segment_rows=8)
        store.append_rows(corpus)
        assert store.rows() == corpus

    @given(corpus=corpora, combo=filter_combos)
    @settings(max_examples=30, deadline=None)
    def test_spilled_store_answers_identically(self, corpus, combo):
        with tempfile.TemporaryDirectory() as tmp:
            store = MeasurementStore(segment_rows=8, max_rows_in_memory=8, spill_dir=tmp)
            store.append_rows(corpus)
            store.spill()
            if corpus:
                assert store.segment_files, "expected .npz segments on disk"
                assert store.rows_in_memory == 0
            assert store.rows() == corpus
            mask = store.row_mask(**combo)
            assert store.rows(np.flatnonzero(mask)) == reference_filtered(corpus, **combo)
            assert grouped_success_counts(store).as_dict() == reference_success_counts(corpus)

    def test_spilling_many_resident_segments_at_once_keeps_rows(self, tmp_path):
        # Regression: spilling several resident segments in one call must
        # write one .npz per segment, not overwrite a single path.
        corpus = TestDerivedCaches().make_corpus(30)
        store = MeasurementStore(segment_rows=10, spill_dir=tmp_path)
        for start in (0, 10, 20):
            store.append_rows(corpus[start:start + 10])
        assert store.spill() == 3
        assert len(store.segment_files) == 3
        assert len(set(store.segment_files)) == 3
        assert store.rows() == corpus

    def test_stores_sharing_a_spill_dir_do_not_collide(self, tmp_path):
        # Regression: two stores pointed at one spill_dir (e.g. a sweep's
        # campaigns) must not overwrite each other's segment files.
        first_corpus = TestDerivedCaches().make_corpus(10)
        second_corpus = [
            Measurement(**{**m.__dict__, "measurement_id": f"other-{i}"})
            for i, m in enumerate(TestDerivedCaches().make_corpus(10))
        ]
        first = MeasurementStore(spill_dir=tmp_path)
        second = MeasurementStore(spill_dir=tmp_path)
        first.append_rows(first_corpus)
        second.append_rows(second_corpus)
        first.spill()
        second.spill()
        assert first.rows() == first_corpus
        assert second.rows() == second_corpus

    @given(corpus=corpora)
    @settings(max_examples=40, deadline=None)
    def test_distinct_counters_equal_seed(self, corpus):
        store = MeasurementStore(segment_rows=16)
        store.append_rows(corpus)
        assert distinct_ip_count(store) == len({m.client_ip for m in corpus})
        collection = CollectionServer("http://collector.encore-measurement.org/submit",
                                      store=store)
        assert collection.distinct_countries() == len({m.country_code for m in corpus})
        by_country = store.query(
            ("country",), (Count(),), exclude_automated=False, exclude_inconclusive=False
        )
        assert by_country.as_dict() == {
            (code,): (n,) for code, n in Counter(m.country_code for m in corpus).items()
        }

    @given(corpus=corpora)
    @settings(max_examples=30, deadline=None)
    def test_distinct_ips_streams_spilled_segments(self, corpus):
        # Spill-aware path: per-segment uniques folded into one set, never
        # concatenating the full string column across segments.
        with tempfile.TemporaryDirectory() as tmp:
            store = MeasurementStore(segment_rows=8, max_rows_in_memory=8, spill_dir=tmp)
            store.append_rows(corpus)
            store.spill()
            assert distinct_ip_count(store) == len({m.client_ip for m in corpus})
            # The count is cached until the next append invalidates it.
            assert distinct_ip_count(store) == len({m.client_ip for m in corpus})

    @given(corpus=corpora, exclude_automated=st.booleans(), mask_seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_masked_counts_equal_seed_subset(self, corpus, exclude_automated, mask_seed):
        store = MeasurementStore(segment_rows=16)
        store.append_rows(corpus)
        mask = np.random.default_rng(mask_seed).random(len(corpus)) < 0.6
        grouped = masked_grouped_success_counts(
            store, mask, exclude_automated=exclude_automated
        )
        kept_rows = [m for m, keep in zip(corpus, mask.tolist()) if keep]
        assert grouped.as_dict() == reference_success_counts(kept_rows, exclude_automated)

    def test_masked_counts_reject_misaligned_mask(self):
        store = MeasurementStore()
        store.append_rows(TestDerivedCaches().make_corpus(4))
        with pytest.raises(ValueError):
            masked_grouped_success_counts(store, np.ones(3, dtype=bool))


class TestDayBucketedCounts:
    """``success_counts(by_day=True)`` vs. the row-list reference, everywhere."""

    @given(corpus=corpora, exclude_automated=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_by_day_equals_reference(self, corpus, exclude_automated):
        store = MeasurementStore(segment_rows=16)
        store.append_rows(corpus)
        grouped = grouped_success_counts(store, exclude_automated=exclude_automated, by_day=True)
        assert grouped.as_dict() == reference_day_counts(corpus, exclude_automated)
        # The day axis ends at the last measured day.
        assert grouped.n_days == max((day + 1 for *_, day in grouped.as_dict()), default=0)

    @given(corpus=corpora, exclude_automated=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_by_day_streams_spilled_segments(self, corpus, exclude_automated):
        with tempfile.TemporaryDirectory() as tmp:
            store = MeasurementStore(segment_rows=8, max_rows_in_memory=8, spill_dir=tmp)
            store.append_rows(corpus)
            store.spill()
            if corpus:
                assert store.segment_files and store.rows_in_memory == 0
            grouped = grouped_success_counts(
                store, exclude_automated=exclude_automated, by_day=True
            )
            assert grouped.as_dict() == reference_day_counts(corpus, exclude_automated)

    def test_by_day_on_adopted_segments(self, tmp_path):
        """Adopted segments bucket by day through their code remaps."""
        own = TestStoreAdoption().make_corpus(18, "own")
        other_rows = TestStoreAdoption().make_corpus(33, "other")
        other = MeasurementStore(segment_rows=10, spill_dir=tmp_path)
        other.append_rows(other_rows)
        other.spill()
        store = MeasurementStore(segment_rows=10)
        store.append_rows(own)
        store.adopt_segments_from(other)
        grouped = grouped_success_counts(store, by_day=True)
        assert grouped.as_dict() == reference_day_counts(own + other_rows)
        # A foreign manifest-style adoption (explicit path + remap) too.
        mounted = MeasurementStore()
        for path in other.segment_files:
            with np.load(path) as data:
                length = int(len(data["day"]))
            remap = {
                kind: mounted.merge_value_table(kind, values)
                for kind, values in other.value_tables().items()
            }
            mounted.adopt_spilled_segment(path, length, remap=remap)
        assert grouped_success_counts(mounted, by_day=True).as_dict() == reference_day_counts(
            other_rows
        )

    @given(
        corpus=corpora,
        exclude_automated=st.booleans(),
        segment_rows=st.integers(min_value=1, max_value=16),
        by_day=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_fold_matches_cold_scan(
        self, corpus, exclude_automated, segment_rows, by_day
    ):
        """Interleaved append/seal/query folds bit-identical to one cold pass.

        The incremental path folds each sealed segment exactly once and
        re-folds pending rows per call; querying between appends (on a
        spilled store, so segments stream back off disk) must leave the
        final answer identical to a fresh store's single full scan.
        """
        with tempfile.TemporaryDirectory() as tmp:
            store = MeasurementStore(
                segment_rows=segment_rows, max_rows_in_memory=segment_rows, spill_dir=tmp
            )
            step = max(1, len(corpus) // 5)
            for start in range(0, len(corpus), step):
                store.append_rows(corpus[start:start + step])
                grouped_success_counts(store, exclude_automated, by_day=by_day)
                if start % (2 * step) == 0:
                    store.seal_pending()
                    grouped_success_counts(store, exclude_automated, by_day=by_day)
            cold = MeasurementStore()
            cold.append_rows(corpus)
            incremental = grouped_success_counts(store, exclude_automated, by_day=by_day)
            reference = grouped_success_counts(cold, exclude_automated, by_day=by_day)
            assert incremental.as_dict() == reference.as_dict()
            if by_day:
                # The same pairs, in the same order, with the same day
                # matrices as the row-list reference densified.
                expected = DaySeries.from_dict(
                    reference_day_counts(corpus, exclude_automated),
                    n_days=reference.n_days,
                )
                assert incremental.n_days == reference.n_days
                for mine, theirs in zip(incremental.cell_series(), expected.cell_series()):
                    assert np.array_equal(mine, theirs)
            # After any cache-missing query, the fold watermark covers every
            # sealed segment exactly once.
            if corpus:
                store.append_rows(corpus[:1])
                grouped_success_counts(store, exclude_automated, by_day=by_day)
                assert store._query_states
                assert all(
                    state.segments_folded == len(store._segments)
                    for state in store._query_states.values()
                )

    @given(corpus=corpora, split=st.integers(min_value=0, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_incremental_fold_across_adoption(self, corpus, split):
        """Adopting a store mid-stream keeps the incremental fold exact.

        Queries before the merge prime the fold state; the adopted segments
        (pre-merge pending chunks included, read through their code remaps)
        must then fold in once, and later appends on top of the merged store
        must keep agreeing with the row-list reference.
        """
        split = min(split, len(corpus))
        own, other_rows = corpus[:split], corpus[split:]
        other = MeasurementStore(segment_rows=7)
        other.append_rows(other_rows)
        store = MeasurementStore(segment_rows=5)
        store.append_rows(own)
        grouped_success_counts(store, by_day=True)  # prime the fold state pre-merge
        grouped_success_counts(store)
        store.adopt_segments_from(other)
        assert grouped_success_counts(store, by_day=True).as_dict() == reference_day_counts(
            corpus
        )
        assert grouped_success_counts(store).as_dict() == reference_success_counts(corpus)
        store.append_rows(own)  # keep growing after the merge
        assert grouped_success_counts(store, by_day=True).as_dict() == reference_day_counts(
            corpus + own
        )

    @given(corpus=corpora, exclude_automated=st.booleans(), mask_seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_masked_by_day_equals_reference_subset(self, corpus, exclude_automated, mask_seed):
        store = MeasurementStore(segment_rows=16)
        store.append_rows(corpus)
        mask = np.random.default_rng(mask_seed).random(len(corpus)) < 0.6
        grouped = run_query(
            store, ("domain", "country", "day"), mask=mask,
            exclude_automated=exclude_automated,
        )
        kept_rows = [m for m, keep in zip(corpus, mask.tolist()) if keep]
        assert grouped.as_dict() == reference_day_counts(kept_rows, exclude_automated)

    @given(corpus=corpora)
    @settings(max_examples=30, deadline=None)
    def test_cell_series_round_trips_the_cells(self, corpus):
        store = MeasurementStore(segment_rows=16)
        store.append_rows(corpus)
        grouped = grouped_success_counts(store, by_day=True)
        domains, countries, totals, successes = grouped.cell_series()
        assert totals.shape == (len(domains), grouped.n_days)
        rebuilt = {}
        for index, (domain, country) in enumerate(zip(domains.tolist(), countries.tolist())):
            for day in range(grouped.n_days):
                if totals[index, day]:
                    rebuilt[(domain, country, day)] = (
                        int(totals[index, day]), int(successes[index, day])
                    )
        assert rebuilt == reference_day_counts(corpus)

    def test_from_dict_round_trip(self):
        counts = {("a.org", "DE", 3): (10, 7), ("a.org", "DE", 0): (4, 4),
                  ("b.org", "CN", 1): (8, 1)}
        grouped = DaySeries.from_dict(counts)
        assert grouped.as_dict() == counts
        assert grouped.n_days == 4
        assert len(grouped) == 2
        assert grouped.domains.tolist() == ["a.org", "b.org"]

    def test_from_dict_rejects_truncating_n_days(self):
        counts = {("a.org", "DE", 5): (3, 1)}
        with pytest.raises(ValueError):
            DaySeries.from_dict(counts, n_days=3)
        # Widening beyond the data is fine (trailing empty days).
        widened = DaySeries.from_dict(counts, n_days=10)
        assert widened.n_days == 10
        assert widened.cell_series()[2].shape == (1, 10)

    @pytest.mark.parametrize("n_days", [None, 6])
    def test_from_dict_rejects_negative_days(self, n_days):
        """Day -1 has no column: it used to land in the last one (or crash)."""
        counts = {("a.org", "DE", -1): (5, 0), ("a.org", "DE", 3): (5, 5)}
        with pytest.raises(ValueError, match="negative"):
            DaySeries.from_dict(counts, n_days=n_days)

    def test_by_day_growing_day_axis_across_ordered_chunks(self):
        """Day-ordered ingestion (the longitudinal pattern) grows the
        accumulator's day axis geometrically without losing cells."""
        store = MeasurementStore(segment_rows=4)
        corpus = []
        base = TestDerivedCaches().make_corpus(4)
        for day in range(9):
            chunk = [
                Measurement(**{**m.__dict__, "day": day,
                               "measurement_id": f"d{day}-{i}"})
                for i, m in enumerate(base)
            ]
            corpus.extend(chunk)
            store.append_rows(chunk)
        grouped = grouped_success_counts(store, by_day=True)
        assert grouped.as_dict() == reference_day_counts(corpus)
        assert grouped.n_days == 9


class TestStoreAdoption:
    """``adopt_segments_from``: zero-copy mounting of another store's rows."""

    def make_corpus(self, n, tag):
        base = TestDerivedCaches().make_corpus(n)
        return [
            Measurement(**{**m.__dict__, "measurement_id": f"{tag}-{i}"})
            for i, m in enumerate(base)
        ]

    @pytest.mark.parametrize("spill_other", [False, True])
    def test_adopted_rows_follow_own_rows(self, tmp_path, spill_other):
        own = self.make_corpus(12, "own")
        other_rows = self.make_corpus(25, "other")
        other = MeasurementStore(segment_rows=10, spill_dir=tmp_path)
        other.append_rows(other_rows)
        if spill_other:
            other.spill()
        store = MeasurementStore()
        store.append_rows(own)
        assert store.adopt_segments_from(other) == len(other_rows)
        assert len(store) == len(own) + len(other_rows)
        assert store.rows() == own + other_rows
        assert grouped_success_counts(store).as_dict() == reference_success_counts(
            own + other_rows
        )
        assert distinct_ip_count(store) == len({m.client_ip for m in own + other_rows})
        # The source store is untouched and stays independently usable.
        assert other.rows() == other_rows

    def test_adoption_composes_remaps_of_merged_stores(self, tmp_path):
        # other itself adopted a spilled segment from a third store, so its
        # codes need two hops of translation when adopted onward.
        third_rows = self.make_corpus(10, "third")
        third = MeasurementStore(spill_dir=tmp_path / "third")
        third.append_rows(third_rows)
        third.spill()
        other = MeasurementStore()
        other_rows = self.make_corpus(5, "other")
        other.append_rows(other_rows)
        remap = {
            kind: other.merge_value_table(kind, values)
            for kind, values in third.value_tables().items()
        }
        for path in third.segment_files:
            other.adopt_spilled_segment(path, 10, remap=remap)
        store = MeasurementStore()
        store.append_rows(self.make_corpus(3, "own"))
        store.adopt_segments_from(other)
        assert store.rows()[3:] == other_rows + third_rows

    def test_adopting_pending_rows_shares_chunks(self):
        other = MeasurementStore()  # never sealed: everything stays pending
        other_rows = self.make_corpus(7, "pending")
        other.append_rows(other_rows)
        store = MeasurementStore()
        store.adopt_segments_from(other)
        assert store.rows() == other_rows

    def test_store_cannot_adopt_itself(self):
        store = MeasurementStore()
        with pytest.raises(ValueError):
            store.adopt_segments_from(store)

    def test_adopter_outlives_source_store_cleanup(self, tmp_path):
        # Regression: cleanup hooks keyed to the source store's lifetime
        # (the sharded runner reclaims unnamed temp spill roots when its
        # store is collected) must not delete segments an adopter still
        # reads — the adopter holds the source alive.
        import gc
        import weakref

        rows = self.make_corpus(10, "src")
        source = MeasurementStore(spill_dir=tmp_path)
        source.append_rows(rows)
        source.spill()
        weakref.finalize(source, lambda: (tmp_path / "reaped").touch())
        store = MeasurementStore()
        store.adopt_segments_from(source)
        del source
        gc.collect()
        assert not (tmp_path / "reaped").exists()
        assert store.rows() == rows

    def test_temporary_spill_dir_goes_with_its_store(self):
        # With no spill_dir the store spills under a temp directory that
        # nothing else names: it must go when the last reader does.
        import gc

        rows = self.make_corpus(10, "temp")
        source = MeasurementStore()
        source.append_rows(rows)
        source.spill()
        spill_root = source.segment_files[0].parent
        assert spill_root.name.startswith("measurement-store-")
        adopter = MeasurementStore()
        adopter.adopt_segments_from(source)
        del source
        gc.collect()
        assert spill_root.is_dir()
        assert adopter.rows() == rows
        del adopter
        gc.collect()
        assert not spill_root.exists()


class TestDerivedCaches:
    def make_corpus(self, n=20):
        rng = np.random.default_rng(5)
        return [
            Measurement(
                measurement_id=f"m{i}",
                task_type=TaskType.IMAGE,
                target_url=URL.parse("http://facebook.com/favicon.ico"),
                target_domain="facebook.com",
                outcome=TaskOutcome.SUCCESS if rng.random() < 0.7 else TaskOutcome.FAILURE,
                elapsed_ms=float(rng.uniform(10, 100)),
                client_ip=f"10.0.0.{i}",
                country_code="US" if i % 2 else "CN",
                isp="isp",
                browser_family="chrome",
                origin_domain=None,
                day=0,
            )
            for i in range(n)
        ]

    def test_caches_hit_until_append_invalidates(self):
        corpus = self.make_corpus()
        store = MeasurementStore()
        store.append_rows(corpus)
        grouped = grouped_success_counts(store)
        assert grouped_success_counts(store) is grouped                # cache hit
        ips_before = distinct_ip_count(store)
        extra = self.make_corpus()[0]
        extra = Measurement(**{**extra.__dict__, "client_ip": "10.9.9.9",
                               "country_code": "IR", "measurement_id": "fresh"})
        store.append_rows([extra])                                     # invalidates
        assert distinct_ip_count(store) == ips_before + 1
        assert grouped_success_counts(store) is not grouped
        assert grouped_success_counts(store).as_dict()[("facebook.com", "IR")][0] == 1


class TestIngestAlignment:
    """``append_columns`` refuses columns that do not line up with the rows."""

    def columns(self, n, **overrides):
        columns = dict(
            measurement_id=[f"m{i}" for i in range(n)],
            task_type=[TaskType.IMAGE] * n,
            target_url=[URL.parse("http://facebook.com/favicon.ico")] * n,
            target_domain=["facebook.com"] * n,
            outcome=[TaskOutcome.SUCCESS] * n,
            elapsed_ms=[10.0] * n,
            client_ip=[f"10.0.0.{i}" for i in range(n)],
            country_code=["US"] * n,
            isp=["isp"] * n,
            browser_family=["chrome"] * n,
            origin_domain=[None] * n,
            day=[0] * n,
        )
        columns.update(overrides)
        return columns

    def test_rejects_an_extra_value_and_stores_nothing(self):
        store = MeasurementStore()
        ips = [f"10.0.0.{i}" for i in range(6)]
        with pytest.raises(ColumnAlignmentError) as info:
            store.append_columns(**self.columns(5, client_ip=ips))
        assert info.value.column == "client_ip"
        assert "client_ip" in str(info.value)
        assert isinstance(info.value, ValueError)
        assert len(store) == 0

    def test_rejects_a_short_column_in_a_later_chunk(self):
        store = MeasurementStore()
        assert store.append_columns(**self.columns(5)) == 5
        ips = [f"10.0.1.{i}" for i in range(4)]
        with pytest.raises(ColumnAlignmentError) as info:
            store.append_columns(**self.columns(5, client_ip=ips))
        assert info.value.column == "client_ip"
        assert len(store) == 5
        assert store.column("client_ip").tolist() == [f"10.0.0.{i}" for i in range(5)]

    @pytest.mark.parametrize("name,value", [
        ("elapsed_ms", np.zeros(4)),
        ("day", [0] * 6),
        ("probe_time_ms", [None] * 4),
        ("is_automated", np.zeros(6, dtype=bool)),
    ])
    def test_names_any_misaligned_column(self, name, value):
        with pytest.raises(ColumnAlignmentError) as info:
            MeasurementStore().append_columns(**self.columns(5, **{name: value}))
        assert info.value.column == name

    @pytest.mark.parametrize("indices", [
        [0, 1, 0, 1],        # one index short of the rows
        [0, 1, 0, 1, -1],    # negative: would wrap to the last value
        [0, 1, 0, 1, 2],     # past the two-entry table
    ])
    def test_rejects_bad_dict_column_indices(self, indices):
        isp = DictColumn(("isp-a", "isp-b"), np.asarray(indices))
        with pytest.raises(ColumnAlignmentError) as info:
            MeasurementStore().append_columns(**self.columns(5, isp=isp))
        assert info.value.column == "isp"

    def test_accepts_shared_dict_column_indices(self):
        visits = np.array([0, 0, 1, 2, 2])
        store = MeasurementStore()
        store.append_columns(**self.columns(
            5,
            client_ip=DictColumn(("10.0.0.1", "10.0.0.2", "10.0.0.3"), visits),
            country_code=DictColumn(("US", "DE", "PK"), visits),
        ))
        assert store.column("client_ip").tolist() == [
            "10.0.0.1", "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.3"
        ]

    def test_empty_chunk_is_still_checked(self):
        store = MeasurementStore()
        assert store.append_columns(**self.columns(0)) == 0
        with pytest.raises(ColumnAlignmentError):
            store.append_columns(**self.columns(0, client_ip=["10.0.0.1"]))

    @pytest.mark.parametrize("name,value", [
        ("day", [0, 0, 0, 1, -1]),
        ("elapsed_ms", [10.0, float("nan"), 10.0, 10.0, 10.0]),
        ("elapsed_ms", [10.0, 10.0, 10.0, float("inf"), 10.0]),
    ])
    def test_rejects_unusable_values_before_encoding(self, name, value):
        """A negative day used to land in another pair's cell of the by-day
        fold, and a NaN timing froze the vectorized timing CUSUM's statistic
        (``np.maximum`` keeps NaN) where its scalar reference reset it."""
        store = MeasurementStore()
        with pytest.raises(ColumnValueError) as info:
            store.append_columns(**self.columns(5, **{name: value}))
        assert info.value.column == name
        assert isinstance(info.value, ValueError)
        assert len(store) == 0
        assert store.version == 0
        assert all(not table for table in store.value_tables().values())


class TestGeoIPBatchLookup:
    @given(
        ips=st.lists(
            st.one_of(
                st.builds(
                    lambda a, b, c, d: f"{a}.{b}.{c}.{d}",
                    st.integers(min_value=9, max_value=13),
                    st.integers(min_value=0, max_value=255),
                    st.integers(min_value=0, max_value=255),
                    st.integers(min_value=0, max_value=255),
                ),
                st.sampled_from(("not-an-ip", "10.0", "10.0.1", "10.0.1.2.3", "a.b.c.d")),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_lookup_batch_equals_scalar_lookup(self, ips):
        batch_db = GeoIPDatabase()
        scalar_db = GeoIPDatabase()
        assert batch_db.lookup_batch(ips) == [scalar_db.lookup(ip) for ip in ips]

    def test_allocated_ips_geolocate_back(self):
        db = GeoIPDatabase()
        ips = db.allocate_ips("IR", 1000) + db.allocate_ips("US", 10)
        assert db.lookup_batch(ips) == ["IR"] * 1000 + ["US"] * 10


class TestVectorizedDetectorMatchesSeed:
    @st.composite
    def counts_tables(draw):
        n_domains = draw(st.integers(min_value=1, max_value=3))
        n_regions = draw(st.integers(min_value=1, max_value=6))
        counts = {}
        for d in range(n_domains):
            for r in range(n_regions):
                if draw(st.booleans()):
                    trials = draw(st.integers(min_value=1, max_value=200))
                    counts[(f"site-{d}.org", f"C{r}")] = (
                        trials, draw(st.integers(min_value=0, max_value=trials))
                    )
        return counts

    @given(counts=counts_tables())
    @settings(max_examples=80, deadline=None)
    def test_detect_from_counts_matches_seed_scalar_path(self, counts):
        detector = BinomialFilteringDetector(min_measurements=5)
        report = detector.detect_from_counts(counts)
        assert report.detected_pairs() == reference_detect(
            counts, detector.success_prior, detector.significance, detector.min_measurements
        )
        for stat in report.statistics:
            expected = binomial_cdf(stat.successes, stat.measurements, detector.success_prior)
            assert stat.p_value == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @given(counts=counts_tables())
    @settings(max_examples=60, deadline=None)
    def test_adaptive_cell_priors_match_country_priors(self, counts):
        detector = AdaptiveFilteringDetector(min_measurements=5)
        priors = detector.country_priors(counts)
        for stat in detector.region_statistics(counts):
            prior = priors.get(stat.country_code, detector.success_prior)
            expected = binomial_cdf(stat.successes, stat.measurements, prior)
            assert stat.p_value == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_cells_evaluator_edge_cases(self):
        successes = np.array([-1, 10, 5, 5, 0])
        trials = np.array([10, 10, 10, 10, 0])
        p = np.array([0.5, 0.5, 0.0, 1.0, 0.5])
        result = binomial_cdf_cells(successes, trials, p)
        expected = [binomial_cdf(s, n, q) for s, n, q in zip(successes, trials, p)]
        assert result.tolist() == pytest.approx(expected)
        with pytest.raises(ValueError):
            binomial_cdf_cells([1], [-1], 0.5)
        with pytest.raises(ValueError):
            binomial_cdf_cells([1], [2], 1.5)


def small_deployment(seed=11, visits=600, **config_kwargs):
    world = World(
        WorldConfig(seed=7, target_list_total=30, target_list_online=24, origin_site_count=4)
    )
    config = CampaignConfig(
        visits=visits, include_testbed=True, testbed_fraction=0.3, seed=seed,
        **config_kwargs,
    )
    return EncoreDeployment(world, config)


class TestCampaignBackedStore:
    def test_campaign_result_rows_match_seed_representation(self):
        """A campaign store's rows are Measurement dataclasses whose fields
        round-trip exactly through the columnar representation."""
        result = small_deployment().run_campaign()
        rows = result.collection.store.rows()
        assert rows and all(isinstance(m, Measurement) for m in rows)
        # Re-ingesting the materialized rows into a fresh store and reading
        # them back must be the identity, field for field.
        round_trip = MeasurementStore()
        round_trip.append_rows(rows)
        assert round_trip.rows() == rows
        # And the store-backed queries agree with the seed row-list logic.
        collection = result.collection
        mask = collection.store.row_mask(domain="youtube.com", country_code="CN")
        assert collection.store.rows(np.flatnonzero(mask)) == \
            reference_filtered(rows, domain="youtube.com", country_code="CN")
        assert collection.success_counts() == reference_success_counts(rows)
        assert collection.distinct_ips() == len({m.client_ip for m in rows})

    def test_ingest_records_stores_seed_identical_measurement(self):
        geoip = GeoIPDatabase()
        server = CollectionServer("http://collector.encore-measurement.org/submit", geoip)
        ip = geoip.allocate_ip("IR")
        url = URL.parse("http://facebook.com/favicon.ico")
        stored = server.ingest_records([SubmissionRecord(
            measurement_id="m1", task_type=TaskType.IMAGE, target_url=url,
            target_domain="facebook.com", outcome=TaskOutcome.SUCCESS, elapsed_ms=80.0,
            probe_time_ms=None, client_ip=ip, country_code="IR", isp="ir-isp-1",
            browser_family="chrome", origin_domain="origin-00.example.edu", day=3,
            strip_referer=False, is_automated=False,
        )])
        expected = Measurement(
            measurement_id="m1", task_type=TaskType.IMAGE, target_url=url,
            target_domain="facebook.com", outcome=TaskOutcome.SUCCESS, elapsed_ms=80.0,
            client_ip=ip, country_code="IR", isp="ir-isp-1",
            browser_family="chrome", origin_domain="origin-00.example.edu", day=3,
            probe_time_ms=None, is_automated=False,
        )
        assert stored == 1
        assert server.store.rows() == [expected]

    def test_campaign_with_spill_matches_in_memory_campaign(self, tmp_path):
        baseline = small_deployment(seed=23).run_campaign()
        spilling = small_deployment(
            seed=23, max_rows_in_memory=150, spill_dir=str(tmp_path)
        ).run_campaign()
        store = spilling.collection.store
        assert store.segment_files and all(p.suffix == ".npz" for p in store.segment_files)
        assert all(Path(p).is_relative_to(tmp_path) for p in store.segment_files)

        # Identical rows, measurement ids included.
        assert spilling.collection.store.rows() == baseline.collection.store.rows()
        assert spilling.detect().detected_pairs() == baseline.detect().detected_pairs()
        assert spilling.collection.success_counts() == baseline.collection.success_counts()

    def test_soundness_report_columnar_path_matches_row_path(self):
        from repro.analysis.reports import build_soundness_report

        deployment = small_deployment(seed=5, visits=800)
        result = deployment.run_campaign()
        from_rows = build_soundness_report(result.collection.store.rows(), deployment.testbed)
        from_store = build_soundness_report(result.collection.store, deployment.testbed)
        assert from_store.total_measurements == from_rows.total_measurements
        for task_type, stats in from_rows.per_task_type.items():
            columnar = from_store.per_task_type[task_type]
            assert (columnar.true_positives, columnar.false_positives,
                    columnar.true_negatives, columnar.false_negatives) == (
                stats.true_positives, stats.false_positives,
                stats.true_negatives, stats.false_negatives)
