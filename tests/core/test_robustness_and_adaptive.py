"""Tests for the §8 robustness extensions and the adaptive detector."""

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.collection import CollectionServer
from repro.core.inference import AdaptiveFilteringDetector, BinomialFilteringDetector
from repro.core.robustness import (
    AdaptiveReputationFilter,
    AdversarySweep,
    PoisoningAttacker,
    PoisoningCampaign,
    ReputationFilter,
)
from repro.core.shard import read_manifest
from repro.core.store import MeasurementStore, SegmentRowsError
from repro.population.geoip import GeoIPDatabase


def honest_rows(result):
    """The campaign's rows, materialized for the row references."""
    return result.collection.store.rows()


def store_of(rows):
    """A resident store holding ``rows`` in order."""
    store = MeasurementStore()
    store.append_rows(rows)
    return store


def forged_store(campaign, rng, rows=()):
    """``rows`` followed by ``campaign``'s forged submissions, as a store."""
    store = store_of(rows)
    PoisoningAttacker(rng=rng).forge_columns(campaign).append_to(store)
    return store


def detected_over(rows):
    """The §7.2 verdict over exactly ``rows``: a detector run on their store."""
    return BinomialFilteringDetector().detect(store_of(rows)).detected_pairs()


class TestPoisoningAttacker:
    def test_forged_measurements_match_campaign(self):
        attacker = PoisoningAttacker(rng=0)
        campaign = PoisoningCampaign("facebook.com", "DE", fabricate_blocking=True,
                                     submissions=50, client_identities=5)
        forged = attacker.forge_measurements(campaign)
        assert len(forged) == 50
        assert all(m.target_domain == "facebook.com" for m in forged)
        assert all(m.country_code == "DE" for m in forged)
        assert all(m.failed for m in forged)
        assert len({m.client_ip for m in forged}) == 5

    def test_masking_campaign_reports_success(self):
        attacker = PoisoningAttacker(rng=0)
        forged = attacker.forge_measurements(
            PoisoningCampaign("youtube.com", "PK", fabricate_blocking=False, submissions=20)
        )
        assert all(m.succeeded for m in forged)

    def test_inject_appends_to_collection(self):
        geoip = GeoIPDatabase()
        collection = CollectionServer("http://collector.encore-measurement.org/submit", geoip)
        attacker = PoisoningAttacker(geoip=geoip, rng=1)
        injected = attacker.inject(collection, PoisoningCampaign("twitter.com", "FR", submissions=30))
        assert injected == 30
        assert len(collection) == 30

    def test_poisoning_fools_the_naive_detector(self, detection_result):
        """Without defences, a modest flood invents censorship in Germany."""
        attacker = PoisoningAttacker(rng=2)
        forged = attacker.forge_measurements(
            PoisoningCampaign("facebook.com", "DE", submissions=400, client_identities=8)
        )
        poisoned = store_of(honest_rows(detection_result) + forged)
        report = BinomialFilteringDetector(min_measurements=10).detect(poisoned)
        assert report.detected("facebook.com", "DE")


class TestForgeColumnsEquivalence:
    """``forge_columns`` must be row-for-row identical to ``forge_measurements``."""

    @pytest.mark.parametrize("submissions,identities", [
        (0, 1), (1, 1), (40, 1), (50, 5), (257, 16), (400, 8),
    ])
    @pytest.mark.parametrize("fabricate", [True, False])
    def test_forge_columns_matches_forge_measurements(self, submissions, identities, fabricate):
        campaign = PoisoningCampaign(
            "facebook.com", "DE", fabricate_blocking=fabricate,
            submissions=submissions, client_identities=identities,
        )
        rows = PoisoningAttacker(rng=31).forge_measurements(campaign)
        store = MeasurementStore()
        assert PoisoningAttacker(rng=31).forge_columns(campaign).append_to(store) == submissions
        assert store.rows() == rows

    def test_successive_campaigns_share_attacker_state(self):
        """Id and identity counters advance identically on both paths."""
        first = PoisoningCampaign("facebook.com", "DE", submissions=30, client_identities=4)
        second = PoisoningCampaign("youtube.com", "PK", fabricate_blocking=False,
                                   submissions=20, client_identities=3)
        row_attacker = PoisoningAttacker(rng=32)
        rows = row_attacker.forge_measurements(first) + row_attacker.forge_measurements(second)
        column_attacker = PoisoningAttacker(rng=32)
        store = MeasurementStore()
        column_attacker.forge_columns(first).append_to(store)
        column_attacker.forge_columns(second).append_to(store)
        assert store.rows() == rows
        assert len({m.measurement_id for m in rows}) == 50

    def test_forge_columns_ingests_into_spilled_store(self, tmp_path):
        campaign = PoisoningCampaign("facebook.com", "DE", submissions=300, client_identities=6)
        rows = PoisoningAttacker(rng=33).forge_measurements(campaign)
        store = MeasurementStore(spill_dir=tmp_path)
        PoisoningAttacker(rng=33).forge_columns(campaign).append_to(store)
        store.spill()
        assert store.segment_files and store.rows_in_memory == 0
        assert store.rows() == rows

    def test_inject_rides_the_columnar_path(self):
        geoip = GeoIPDatabase()
        collection = CollectionServer(
            "http://collector.encore-measurement.org/submit", geoip
        )
        attacker = PoisoningAttacker(geoip=geoip, rng=34)
        reference = PoisoningAttacker(rng=34).forge_measurements(
            PoisoningCampaign("twitter.com", "FR", submissions=30, client_identities=3)
        )
        injected = attacker.inject(
            collection, PoisoningCampaign("twitter.com", "FR", submissions=30, client_identities=3)
        )
        assert injected == 30
        assert collection.store.rows() == reference


class TestReputationFilter:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReputationFilter(max_submissions_per_client=0)
        with pytest.raises(ValueError):
            ReputationFilter(suspicious_share=0.0)

    def test_honest_measurements_pass_through(self, detection_result):
        honest = detection_result.collection
        verdict = ReputationFilter().apply_store(honest)
        assert len(verdict.kept_indices) >= 0.95 * len(honest)

    def test_filter_defeats_fabricated_blocking(self, detection_result):
        poisoned = forged_store(
            PoisoningCampaign("facebook.com", "DE", submissions=400, client_identities=8),
            rng=3, rows=honest_rows(detection_result),
        )
        verdict = ReputationFilter().apply_store(poisoned)
        detector = BinomialFilteringDetector(min_measurements=10)
        report = detector.detect_from_counts(verdict.success_counts())
        assert not report.detected("facebook.com", "DE")

    def test_filter_preserves_real_detections(self, detection_result):
        poisoned = forged_store(
            PoisoningCampaign("facebook.com", "DE", submissions=400, client_identities=8),
            rng=4, rows=honest_rows(detection_result),
        )
        verdict = ReputationFilter().apply_store(poisoned)
        detector = BinomialFilteringDetector(min_measurements=10)
        report = detector.detect_from_counts(verdict.success_counts())
        for pair in [("youtube.com", "PK"), ("facebook.com", "CN"), ("twitter.com", "IR")]:
            assert pair in report.detected_pairs()

    def test_detect_rejects_a_reputation_verdict(self, detection_result):
        """A verdict carries its unfiltered store; ``detect`` must not score it."""
        poisoned = forged_store(
            PoisoningCampaign("facebook.com", "DE", submissions=400, client_identities=8),
            rng=2, rows=honest_rows(detection_result),
        )
        verdict = ReputationFilter().apply_store(poisoned)
        detector = BinomialFilteringDetector(min_measurements=10)
        assert verdict.dropped == 400 and not verdict.keep_mask[-400:].any()
        assert detector.detect(poisoned).detected("facebook.com", "DE")
        assert not detector.detect_from_counts(verdict.success_counts()).detected(
            "facebook.com", "DE"
        )
        with pytest.raises(TypeError, match="StoreReputationReport"):
            detector.detect(verdict)
        with pytest.raises(TypeError, match="dict"):
            detector.detect({("facebook.com", "DE"): (400, 0)})

    def test_rate_limiting_counts_drops(self):
        forged = forged_store(
            PoisoningCampaign("facebook.com", "DE", submissions=200, client_identities=2),
            rng=5,
        )
        verdict = ReputationFilter(max_submissions_per_client=10).apply_store(forged)
        assert verdict.dropped_rate_limited == 200 - 2 * 10
        assert verdict.dropped == verdict.dropped_rate_limited + verdict.dropped_low_reputation


class TestReputationFilterColumnarEquivalence:
    """The vectorized group-by verdict must match the per-row reference walk."""

    def poisoned_corpus(self, detection_result, rng_seed=6):
        attacker = PoisoningAttacker(rng=rng_seed)
        forged = attacker.forge_measurements(
            PoisoningCampaign("facebook.com", "DE", submissions=400, client_identities=8)
        )
        forged += attacker.forge_measurements(
            PoisoningCampaign("youtube.com", "PK", fabricate_blocking=False,
                              submissions=150, client_identities=3)
        )
        return honest_rows(detection_result) + forged

    @staticmethod
    def assert_verdicts_match(filt, corpus, store):
        """``apply_store`` on ``store`` keeps exactly the reference's rows."""
        reference = filt.apply_reference(corpus)
        verdict = filt.apply_store(store)
        assert store.rows(verdict.kept_indices) == reference.kept
        assert verdict.dropped_rate_limited == reference.dropped_rate_limited
        assert verdict.dropped_low_reputation == reference.dropped_low_reputation

    @pytest.mark.parametrize("max_per_client,share", [(10, 0.2), (3, 0.1), (50, 0.5)])
    def test_apply_store_matches_reference_row_for_row(
        self, detection_result, max_per_client, share
    ):
        corpus = self.poisoned_corpus(detection_result)
        filt = ReputationFilter(max_submissions_per_client=max_per_client,
                                suspicious_share=share)
        self.assert_verdicts_match(filt, corpus, store_of(corpus))

    def test_apply_store_on_a_collection_matches_reference(self, detection_result):
        corpus = self.poisoned_corpus(detection_result, rng_seed=7)
        collection = CollectionServer("http://collector.encore-measurement.org/submit")
        collection.store.append_rows(corpus)
        filt = ReputationFilter()
        reference = filt.apply_reference(corpus)
        verdict = filt.apply_store(collection)
        assert verdict.store is collection.store
        assert collection.store.rows(verdict.kept_indices) == reference.kept
        assert verdict.dropped_rate_limited == reference.dropped_rate_limited
        assert verdict.dropped_low_reputation == reference.dropped_low_reputation

    def test_empty_corpus(self):
        filt = ReputationFilter()
        verdict = filt.apply_store(MeasurementStore())
        assert verdict.keep_mask.shape == (0,)
        assert verdict.dropped == 0
        assert verdict.success_counts().as_dict() == {}
        assert filt.apply_reference([]).kept == []

    def test_apply_store_on_poisoned_spilled_store(self, detection_result, tmp_path):
        """Filtering and re-detection run on a spilled poisoned store without rows."""
        honest = honest_rows(detection_result)
        campaign = PoisoningCampaign("facebook.com", "DE", submissions=400, client_identities=8)
        reference_corpus = list(honest) + PoisoningAttacker(rng=8).forge_measurements(campaign)
        store = MeasurementStore(spill_dir=tmp_path)
        store.append_rows(honest)
        store.spill()
        PoisoningAttacker(rng=8).forge_columns(campaign).append_to(store)
        store.spill()
        assert store.segment_files and store.rows_in_memory == 0

        filt = ReputationFilter()
        reference = filt.apply_reference(reference_corpus)
        verdict = filt.apply_store(store)
        assert verdict.dropped_rate_limited == reference.dropped_rate_limited
        assert verdict.dropped_low_reputation == reference.dropped_low_reputation
        assert len(verdict.kept_indices) == len(reference.kept)
        # Defended detection over the kept rows, straight from the mask.
        detector = BinomialFilteringDetector(min_measurements=10)
        assert detector.detect_from_counts(verdict.success_counts()).detected_pairs() == \
            detector.detect(store_of(reference.kept)).detected_pairs()


class TestAdversarySweep:
    """The store-path sweep must reproduce the row pipeline cell for cell."""

    BUDGETS = [(100, 4), (400, 8)]
    SEED = 5

    def row_pipeline_cell(self, honest, submissions, identities, entropy):
        attacker = PoisoningAttacker(rng=np.random.default_rng(entropy))
        forged = attacker.forge_measurements(
            PoisoningCampaign("facebook.com", "DE", submissions=submissions,
                              client_identities=identities)
        )
        poisoned = honest + forged
        reference = ReputationFilter().apply_reference(poisoned)
        return {
            "naive": frozenset(detected_over(poisoned)),
            "defended": frozenset(detected_over(reference.kept)),
            "dropped_rate_limited": reference.dropped_rate_limited,
            "dropped_low_reputation": reference.dropped_low_reputation,
        }

    def test_sweep_matches_row_pipeline(self, detection_result):
        cells = detection_result.adversary_sweep(
            "facebook.com", "DE", self.BUDGETS, executor="inline", seed=self.SEED
        )
        honest = honest_rows(detection_result)
        for index, ((submissions, identities), cell) in enumerate(zip(self.BUDGETS, cells)):
            expected = self.row_pipeline_cell(honest, submissions, identities,
                                              [self.SEED, index])
            assert cell.submissions == submissions
            assert cell.identities == identities
            assert cell.forged == submissions
            assert cell.poisoned_rows == len(honest) + submissions
            assert cell.naive_pairs == expected["naive"]
            assert cell.defended_pairs == expected["defended"]
            assert cell.dropped_rate_limited == expected["dropped_rate_limited"]
            assert cell.dropped_low_reputation == expected["dropped_low_reputation"]
            assert cell.target_pair == ("facebook.com", "DE")

    def test_process_executor_matches_inline(self, detection_result, tmp_path):
        inline = detection_result.adversary_sweep(
            "facebook.com", "DE", self.BUDGETS, executor="inline", seed=6
        )
        fanned = detection_result.adversary_sweep(
            "facebook.com", "DE", self.BUDGETS, executor="process", seed=6,
            spill_dir=str(tmp_path / "sweep"),
        )
        assert fanned == inline

    def test_sweep_resumes_from_committed_manifests(self, detection_result, tmp_path):
        root = tmp_path / "sweep"
        first = detection_result.adversary_sweep(
            "facebook.com", "DE", self.BUDGETS, executor="inline", seed=7,
            spill_dir=str(root),
        )
        manifests = sorted(root.glob("cell-*/manifest.json"))
        assert len(manifests) == len(self.BUDGETS)
        stamps = [path.stat().st_mtime_ns for path in manifests]
        second = detection_result.adversary_sweep(
            "facebook.com", "DE", self.BUDGETS, executor="inline", seed=7,
            spill_dir=str(root),
        )
        assert second == first
        assert [path.stat().st_mtime_ns for path in manifests] == stamps
        # A different seed is a different signature: cells re-forge.
        detection_result.adversary_sweep(
            "facebook.com", "DE", self.BUDGETS, executor="inline", seed=8,
            spill_dir=str(root),
        )
        assert [path.stat().st_mtime_ns for path in manifests] != stamps

    def test_cell_segments_are_flushed_before_their_manifest_lands(
        self, detection_result, tmp_path, flushed_before
    ):
        # As for a campaign shard: a cell manifest that survives power loss
        # must not name a segment that did not, or a re-run would adopt a
        # truncated segment instead of forging the cell again.
        root = tmp_path / "sweep"
        detection_result.adversary_sweep(
            "facebook.com", "DE", [(50, 4)], executor="inline", seed=self.SEED,
            spill_dir=str(root),
        )
        (manifest_path,) = root.glob("cell-*/manifest.json")
        (segment,) = read_manifest(manifest_path)["blocks"][0]["segments"]
        path = Path(segment["path"])
        assert path.parent == manifest_path.parent
        assert {path, manifest_path.parent} <= flushed_before(manifest_path)

    def test_sweep_on_a_spilled_honest_store(self, detection_result, tmp_path):
        """Adopting a spilled honest corpus gives identical verdicts."""
        spilled = MeasurementStore(spill_dir=tmp_path / "honest")
        spilled.append_rows(honest_rows(detection_result))
        spilled.spill()
        sweep = AdversarySweep(executor="inline", seed=self.SEED)
        from_spilled = sweep.run(spilled, "facebook.com", "DE", self.BUDGETS)
        from_resident = detection_result.adversary_sweep(
            "facebook.com", "DE", self.BUDGETS, executor="inline", seed=self.SEED
        )
        assert from_spilled == from_resident

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            AdversarySweep(executor="threads")


class TestMaskingSweep:
    """``fabricate_blocking=False`` grids over a *real* detection (§8 masking)."""

    #: A pair the honest detection campaign genuinely flags.
    TARGET = ("youtube.com", "PK")
    BUDGETS = [(50, 2), (600, 24)]
    SEED = 9

    def row_pipeline_cell(self, honest, submissions, identities, entropy):
        attacker = PoisoningAttacker(rng=np.random.default_rng(entropy))
        forged = attacker.forge_measurements(
            PoisoningCampaign(*self.TARGET, fabricate_blocking=False,
                              submissions=submissions, client_identities=identities)
        )
        poisoned = honest + forged
        reference = ReputationFilter().apply_reference(poisoned)
        return {
            "naive": frozenset(detected_over(poisoned)),
            "defended": frozenset(detected_over(reference.kept)),
            "dropped_rate_limited": reference.dropped_rate_limited,
            "dropped_low_reputation": reference.dropped_low_reputation,
        }

    def test_masking_sweep_matches_row_pipeline(self, detection_result):
        assert self.TARGET in detection_result.detect().detected_pairs()
        cells = detection_result.adversary_sweep(
            *self.TARGET, self.BUDGETS, fabricate_blocking=False,
            executor="inline", seed=self.SEED,
        )
        honest = honest_rows(detection_result)
        for index, ((submissions, identities), cell) in enumerate(zip(self.BUDGETS, cells)):
            expected = self.row_pipeline_cell(
                honest, submissions, identities, [self.SEED, index]
            )
            assert cell.fabricate_blocking is False
            assert cell.naive_pairs == expected["naive"]
            assert cell.defended_pairs == expected["defended"]
            assert cell.dropped_rate_limited == expected["dropped_rate_limited"]
            assert cell.dropped_low_reputation == expected["dropped_low_reputation"]
            assert cell.naive_masked == (self.TARGET not in expected["naive"])
            assert cell.defended_masked == (self.TARGET not in expected["defended"])
            assert cell.attack_succeeded_naive == cell.naive_masked
            assert cell.attack_succeeded_defended == cell.defended_masked

    def test_masking_budget_hides_then_filter_restores(self, detection_result):
        """A narrow success flood hides the real detection; reputation restores
        it — but a budget spread across enough Sybil identities slips under
        the dominance test and stays hidden, the §8 trade-off."""
        narrow, wide = detection_result.adversary_sweep(
            *self.TARGET, [(200, 8), (600, 24)], fabricate_blocking=False,
            executor="inline", seed=self.SEED,
        )
        assert narrow.naive_masked, "the flood should hide the real detection"
        assert not narrow.defended_masked, "filtering should restore the detection"
        assert narrow.detections_survive([self.TARGET])
        assert wide.naive_masked and wide.defended_masked


class TestAdaptiveReputationFilter:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaptiveReputationFilter(min_threshold=0.9, max_threshold=0.5)
        with pytest.raises(ValueError):
            AdaptiveReputationFilter(margin=0.0)
        with pytest.raises(ValueError):
            ReputationFilter(disagreement_threshold=0.0)

    def test_country_thresholds_track_background_failure(self, detection_result):
        """Flakier countries get roomier disagreement thresholds."""
        corpus = honest_rows(detection_result)
        filt = AdaptiveReputationFilter(margin=0.45, min_threshold=0.5, max_threshold=0.85)
        thresholds = filt.country_thresholds(corpus)
        fails = Counter(m.country_code for m in corpus if m.failed)
        rows = Counter(m.country_code for m in corpus)
        rates = {code: fails.get(code, 0) / rows[code] for code in rows}
        flaky = max(rates, key=rates.get)
        pristine = min(rates, key=rates.get)
        assert thresholds[flaky] >= thresholds[pristine]
        assert all(0.5 <= t <= 0.85 for t in thresholds.values())
        # The fixed filter's table is flat.
        fixed = ReputationFilter().country_thresholds(corpus)
        assert set(fixed.values()) == {0.5}

    @pytest.mark.parametrize("rng_seed", [6, 7])
    def test_adaptive_apply_store_matches_reference_row_for_row(
        self, detection_result, rng_seed
    ):
        """The per-country threshold flows through both paths identically."""
        equivalence = TestReputationFilterColumnarEquivalence()
        corpus = equivalence.poisoned_corpus(detection_result, rng_seed=rng_seed)
        equivalence.assert_verdicts_match(AdaptiveReputationFilter(), corpus, store_of(corpus))

    def test_adaptive_apply_store_on_a_collection_matches_reference(self, detection_result):
        equivalence = TestReputationFilterColumnarEquivalence()
        corpus = equivalence.poisoned_corpus(detection_result, rng_seed=8)
        collection = CollectionServer("http://collector.encore-measurement.org/submit")
        collection.store.append_rows(corpus)
        filt = AdaptiveReputationFilter()
        reference = filt.apply_reference(corpus)
        verdict = filt.apply_store(collection)
        assert collection.store.rows(verdict.kept_indices) == reference.kept
        assert verdict.dropped_rate_limited == reference.dropped_rate_limited
        assert verdict.dropped_low_reputation == reference.dropped_low_reputation

    def test_adaptive_filter_still_defeats_fabrication(self, detection_result):
        poisoned = forged_store(
            PoisoningCampaign("facebook.com", "DE", submissions=400, client_identities=8),
            rng=11, rows=honest_rows(detection_result),
        )
        verdict = AdaptiveReputationFilter().apply_store(poisoned)
        detector = BinomialFilteringDetector(min_measurements=10)
        report = detector.detect_from_counts(verdict.success_counts())
        assert not report.detected("facebook.com", "DE")


class TestAdaptiveFilteringDetector:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaptiveFilteringDetector(min_prior=0.9, max_prior=0.5)
        with pytest.raises(ValueError):
            AdaptiveFilteringDetector(discount=0.0)

    def test_country_priors_track_baseline_quality(self):
        detector = AdaptiveFilteringDetector(min_measurements=10)
        counts = {
            ("control.org", "DE"): (100, 98),   # pristine network
            ("control.org", "IN"): (100, 75),   # flaky network
            ("target.org", "DE"): (100, 97),
            ("target.org", "IN"): (100, 70),
        }
        priors = detector.country_priors(counts)
        assert priors["DE"] > priors["IN"]
        assert detector.min_prior <= priors["IN"] <= detector.max_prior

    def test_adaptive_prior_reduces_flaky_network_false_positives(self):
        # India's baseline is 62% because of unreliable connectivity; a fixed
        # 0.7 prior flags the target, the adaptive one does not.
        counts = {
            ("control.org", "IN"): (200, 124),
            ("target.org", "IN"): (200, 118),
            ("control.org", "US"): (200, 196),
            ("target.org", "US"): (200, 195),
        }
        fixed = BinomialFilteringDetector(min_measurements=10).detect_from_counts(counts)
        adaptive = AdaptiveFilteringDetector(min_measurements=10).detect_from_counts(counts)
        assert fixed.detected("target.org", "IN")
        assert not adaptive.detected("target.org", "IN")

    def test_adaptive_detector_still_finds_real_filtering(self, detection_result):
        report = AdaptiveFilteringDetector(min_measurements=10).detect(detection_result.collection)
        expected = {
            ("youtube.com", "PK"), ("youtube.com", "IR"), ("youtube.com", "CN"),
            ("twitter.com", "CN"), ("twitter.com", "IR"),
            ("facebook.com", "CN"), ("facebook.com", "IR"),
        }
        assert expected <= report.detected_pairs()
        assert all(country in {"CN", "IR", "PK"} for _, country in report.detected_pairs())


class TestSweepGuards:
    """Bad budgets and damaged cached cells fail by name, before any scoring."""

    @pytest.mark.parametrize("bad", [(-5, 4), (30, 0)])
    def test_bad_budget_rejected_before_anything_is_made(
        self, detection_result, tmp_path, bad
    ):
        root = tmp_path / "sweep"
        root.mkdir()
        with pytest.raises(ValueError, match=re.escape(f"sweep budget {bad}")):
            detection_result.adversary_sweep(
                "facebook.com", "DE", [(100, 4), bad], executor="inline",
                spill_dir=str(root),
            )
        assert list(root.iterdir()) == []

    @pytest.mark.parametrize("text", ["[]", '"x"', "3", '{"blocks": 3}'])
    def test_json_that_is_no_manifest_re_forges_its_cell(
        self, detection_result, tmp_path, stray_files, text
    ):
        # Valid JSON that is not an object, or an object without blocks of
        # segments, is a cache miss: the cell is forged again and the
        # sweep's verdicts are unchanged.
        root = tmp_path / "sweep"
        budgets = [(100, 4), (400, 8)]
        run = {"executor": "inline", "seed": 5, "spill_dir": str(root)}
        first = detection_result.adversary_sweep("facebook.com", "DE", budgets, **run)
        victim = sorted(root.glob("cell-*/manifest.json"))[1]
        victim.write_text(text)
        assert read_manifest(victim) is None
        assert detection_result.adversary_sweep("facebook.com", "DE", budgets, **run) == first
        assert read_manifest(victim) is not None
        assert stray_files(root) == []

    @pytest.mark.parametrize(
        "damage", ["20 rows too many", "20 rows too few", "truncated", "only a day column"]
    )
    def test_resumed_sweep_names_a_bad_cached_segment(
        self, detection_result, tmp_path, damage
    ):
        root = tmp_path / "sweep"
        budgets = [(500, 4)]
        detection_result.adversary_sweep(
            "facebook.com", "DE", budgets, executor="inline", spill_dir=str(root)
        )
        (manifest_path,) = root.glob("cell-*/manifest.json")
        manifest = read_manifest(manifest_path)
        block = manifest["blocks"][0]
        (segment,) = block["segments"]
        path = Path(segment["path"])
        missing = None
        if damage == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
            declared, found = 500, None
        elif damage == "only a day column":
            with np.load(path) as data:
                day = data["day"]
            np.savez(path, day=day)
            declared, found, missing = 500, None, "measurement_id"
        else:
            shift = 20 if damage == "20 rows too many" else -20
            segment["rows"] += shift
            block["rows"] += shift
            manifest_path.write_text(json.dumps(manifest))
            declared, found = 500 + shift, 500
        with pytest.raises(SegmentRowsError) as raised:
            detection_result.adversary_sweep(
                "facebook.com", "DE", budgets, executor="inline", spill_dir=str(root)
            )
        error = raised.value
        assert (error.path, error.declared, error.found, error.missing) == (
            path, declared, found, missing
        )
        assert str(path) in str(error)
