"""Tests for origin-site integration and the end-to-end deployment driver."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.core.collection import CollectionServer
from repro.core.coordination import CoordinationServer
from repro.core.longitudinal import LongitudinalConfig
from repro.core.origin import OriginSite, client_overhead_report, snippet_overhead_bytes
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.query import (
    DISTINCT_COLUMNS,
    KEY_COLUMNS,
    NUMERIC_COLUMNS,
    grouped_success_counts,
    masked_grouped_success_counts,
    run_query,
    timing_day_series,
)
from repro.core.robustness import AdversarySweep, StoreReputationReport
from repro.core.shard import run_sharded
from repro.core.store import MeasurementStore
from repro.core.tasks import MeasurementTask, TaskType
from repro.population.world import World, WorldConfig


class TestOriginSite:
    def test_snippet_overhead_near_100_bytes(self, small_world):
        overhead = snippet_overhead_bytes(small_world.coordination_url)
        assert 50 <= overhead <= 150

    def test_origin_site_snippet_and_overhead(self, small_world):
        domain = small_world.origin_domains[0]
        origin = OriginSite(site=small_world.universe.site(domain),
                            coordination_url=small_world.coordination_url)
        assert origin.domain == domain
        assert origin.embed_snippet.startswith("<script")
        assert origin.snippet_bytes == len(origin.embed_snippet.encode())
        fraction = origin.page_overhead_fraction()
        assert 0.0 < fraction < 0.01  # a tiny fraction of the median page weight

    def test_client_overhead_report(self):
        tasks = [
            MeasurementTask.new(TaskType.IMAGE, "http://a.com/favicon.ico",
                                estimated_overhead_bytes=600),
            MeasurementTask.new(TaskType.IMAGE, "http://b.com/favicon.ico",
                                estimated_overhead_bytes=900),
            MeasurementTask.new(TaskType.INLINE_FRAME, "http://a.com/p.html",
                                probe_image_url="http://a.com/i.png",
                                estimated_overhead_bytes=80_000),
        ]
        report = client_overhead_report(tasks)
        assert report.median_bytes(TaskType.IMAGE) == 900
        assert report.summary()["inline_frame"] == 80_000
        assert report.median_bytes(TaskType.SCRIPT) == 0


class TestDeploymentConstruction:
    def test_detection_deployment_has_favicon_tasks_for_all_targets(self, detection_deployment):
        domains = {t.target_domain for t in detection_deployment.target_tasks}
        assert domains == {"facebook.com", "youtube.com", "twitter.com"}
        assert all(t.task_type is TaskType.IMAGE for t in detection_deployment.target_tasks)
        assert all(t.target_url.path == "/favicon.ico" for t in detection_deployment.target_tasks)

    def test_detection_deployment_has_no_testbed(self, detection_deployment):
        assert detection_deployment.testbed is None
        assert detection_deployment.testbed_tasks == []
        assert [p.name for p in detection_deployment.scheduler.pools] == ["targets"]

    def test_soundness_deployment_has_testbed_pool(self, soundness_deployment):
        assert soundness_deployment.testbed is not None
        pool_names = {p.name for p in soundness_deployment.scheduler.pools}
        assert pool_names == {"targets", "testbed"}
        types = {t.task_type for t in soundness_deployment.testbed_tasks}
        assert types == set(TaskType)

    def test_origin_sites_wrap_world_origins(self, detection_deployment):
        assert len(detection_deployment.origins) == len(detection_deployment.world.origin_domains)
        stripping = sum(1 for o in detection_deployment.origins if o.strips_referer)
        assert 0 < stripping < len(detection_deployment.origins)


class TestCampaign:
    def test_campaign_produces_measurements(self, detection_result):
        assert len(detection_result.collection) > 1000
        assert detection_result.visits_simulated == 4000
        assert detection_result.task_executions >= len(detection_result.collection)

    def test_measurements_span_many_countries(self, detection_result):
        assert detection_result.collection.distinct_countries() > 30

    def test_referer_stripping_fraction(self, detection_result):
        stripped = np.count_nonzero(detection_result.collection.store.column("origin") < 0)
        assert 0.4 < stripped / len(detection_result.collection) < 0.95

    def test_detection_recovers_ground_truth(self, detection_result):
        report = detection_result.detect()
        detected = report.detected_pairs()
        expected = {
            ("youtube.com", "PK"), ("youtube.com", "IR"), ("youtube.com", "CN"),
            ("twitter.com", "CN"), ("twitter.com", "IR"),
            ("facebook.com", "CN"), ("facebook.com", "IR"),
        }
        assert expected <= detected

    def test_no_false_detections_in_uncensored_countries(self, detection_result):
        detected = detection_result.detect().detected_pairs()
        for domain, country in detected:
            assert detection_result.config
            assert country in {"CN", "IR", "PK"}, (domain, country)

    def test_testbed_and_target_split(self, soundness_result):
        testbed = soundness_result.testbed_measurements()
        targets = len(soundness_result.collection) - len(testbed)
        assert testbed and targets
        assert all(m.target_domain.endswith("encore-testbed.net") for m in testbed)
        fraction = len(testbed) / (len(testbed) + targets)
        assert 0.15 < fraction < 0.45

    def test_run_campaign_visits_override(self):
        world = World(WorldConfig(seed=77, target_list_total=12, target_list_online=10,
                                  origin_site_count=2))
        deployment = EncoreDeployment(world, CampaignConfig(visits=50, include_testbed=False, seed=5))
        result = deployment.run_campaign(visits=20)
        assert result.visits_simulated == 20

    @pytest.mark.parametrize("mode", ["batch", "serial", "sharded"])
    def test_negative_visit_count_is_refused_before_any_counter_moves(self, mode, tmp_path):
        # A negative count would rewind the visit numbering, so the next
        # campaign would reuse client identities of the previous one.
        world = World(WorldConfig(seed=77, target_list_total=12, target_list_online=10,
                                  origin_site_count=2))
        deployment = EncoreDeployment(
            world, CampaignConfig(visits=50, include_testbed=False, seed=5)
        )
        sharded = (
            {"shard_executor": "inline", "worker_spill_dir": str(tmp_path / "spill")}
            if mode == "sharded" else {}
        )
        with pytest.raises(ValueError, match="visits must be non-negative"):
            deployment.run_campaign(visits=-50, mode=mode, **sharded)
        assert (deployment.visits_claimed, deployment.campaigns_run) == (0, 0)


class TestSettableValues:
    """What a caller can set, pinned: an addition or a removal is deliberate."""

    @staticmethod
    def parameters(function):
        return [name for name in inspect.signature(function).parameters if name != "self"]

    def test_campaign_config_holds_only_campaign_content(self):
        assert [field.name for field in dataclasses.fields(CampaignConfig)] == [
            "visits", "days", "day_offset", "target_domains", "favicons_only",
            "include_testbed", "testbed_fraction", "seed", "country_code",
            "plan_block_visits",
        ]

    def test_store_and_collection_server_parameters(self):
        assert self.parameters(MeasurementStore.__init__) == ["segment_rows", "spill_dir"]
        assert self.parameters(CollectionServer.__init__) == ["submit_url", "geoip", "store"]

    def test_coordination_server_parameters(self):
        assert self.parameters(CoordinationServer.__init__) == [
            "task_url", "collection_url", "mirror_urls",
        ]

    def test_run_campaign_parameters(self):
        assert self.parameters(EncoreDeployment.run_campaign) == [
            "visits", "mode", "batch_size", "progress", "num_shards",
            "worker_spill_dir", "shard_executor", "tracer",
        ]

    def test_run_sharded_parameters(self):
        assert self.parameters(run_sharded) == [
            "deployment", "visits", "num_shards", "worker_spill_dir",
            "shard_executor", "progress", "tracer",
        ]

    def test_longitudinal_config_fields(self):
        assert [field.name for field in dataclasses.fields(LongitudinalConfig)] == [
            "epochs", "days_per_epoch", "visits_per_epoch", "trailing_epochs",
            "detector", "timing_detector", "checkpoint_dir", "adaptive_baselines",
            "tracer",
        ]

    def test_adversary_sweep_parameters(self):
        assert self.parameters(AdversarySweep.__init__) == [
            "detector", "reputation", "fabricate_blocking", "executor",
            "spill_dir", "seed", "tracer",
        ]

    def test_query_kernel_parameters(self):
        query_parameters = [
            "keys", "aggregates", "mask", "exclude_automated",
            "exclude_inconclusive", "shape",
        ]
        assert self.parameters(run_query) == ["store"] + query_parameters
        assert self.parameters(MeasurementStore.query) == query_parameters

    def test_query_wrapper_parameters(self):
        assert self.parameters(grouped_success_counts) == ["store", "by_day"]
        assert self.parameters(masked_grouped_success_counts) == ["store", "mask"]
        assert self.parameters(timing_day_series) == ["store", "quantile"]
        assert self.parameters(StoreReputationReport.success_counts) == []
        assert self.parameters(CollectionServer.success_counts) == []

    def test_query_kernel_columns(self):
        assert KEY_COLUMNS == {
            "domain": "domain", "country": "country", "day": "day", "family": "family",
        }
        assert NUMERIC_COLUMNS == ("elapsed_ms",)
        assert DISTINCT_COLUMNS == ("client_ip",)
