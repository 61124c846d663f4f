"""End-to-end integration tests spanning every stage of the system."""

import numpy as np

from repro.analysis.reports import build_soundness_report
from repro.censor.mechanisms import FilteringMechanism
from repro.core.inference import BinomialFilteringDetector
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.tasks import TaskOutcome, TaskType
from repro.population.world import COLLECTION_DOMAIN, COORDINATION_DOMAIN, World, WorldConfig
from repro.web.url import URL


class TestDetectionEndToEnd:
    """The §7.2 experiment: recover known filtering from raw visits."""

    def test_detects_exactly_the_censored_pairs(self, detection_result):
        report = detection_result.detect()
        expected = {
            ("youtube.com", "PK"), ("youtube.com", "IR"), ("youtube.com", "CN"),
            ("twitter.com", "CN"), ("twitter.com", "IR"),
            ("facebook.com", "CN"), ("facebook.com", "IR"),
        }
        detected = report.detected_pairs()
        assert expected <= detected
        assert detected <= expected | {("facebook.com", "PK"), ("twitter.com", "PK")}

    def test_success_rates_reflect_censorship(self, detection_result):
        counts = detection_result.collection.success_counts()
        cn_n, cn_ok = counts[("facebook.com", "CN")]
        us_n, us_ok = counts[("facebook.com", "US")]
        cn_rate = cn_ok / cn_n
        us_rate = us_ok / us_n
        assert cn_rate < 0.2
        assert us_rate > 0.9

    def test_detection_robust_to_parameter_choice(self, detection_result):
        for prior in (0.6, 0.7, 0.8):
            report = detection_result.detect(success_prior=prior)
            assert report.detected("youtube.com", "PK")
            assert not report.detected("youtube.com", "US")


class TestSoundnessEndToEnd:
    """The §7.1 experiment: measurement tasks against the testbed."""

    def test_explicit_tasks_detect_explicit_mechanisms(self, soundness_result, soundness_deployment):
        testbed = soundness_deployment.testbed
        explicit_hosts = {
            testbed.host_for_mechanism(m).domain
            for m in FilteringMechanism
            if m.gives_explicit_failure
        }
        for m in soundness_result.testbed_measurements():
            if (
                m.task_type in (TaskType.IMAGE, TaskType.STYLE_SHEET)
                and m.target_url.host in explicit_hosts
                and not m.is_automated
                and m.outcome is not TaskOutcome.INCONCLUSIVE
            ):
                assert m.failed, f"missed filtering of {m.target_url.host} via {m.task_type}"

    def test_control_host_rarely_fails(self, soundness_result, soundness_deployment):
        control = soundness_deployment.testbed.control_host.domain
        control_measurements = [
            m for m in soundness_result.testbed_measurements()
            if m.target_url.host == control and not m.is_automated
            and m.outcome is not TaskOutcome.INCONCLUSIVE
        ]
        assert control_measurements
        failure_rate = sum(1 for m in control_measurements if m.failed) / len(control_measurements)
        assert failure_rate < 0.10

    def test_soundness_report_matches_paper_shape(self, soundness_result, soundness_deployment):
        report = build_soundness_report(
            soundness_result.collection.store, soundness_deployment.testbed
        )
        image_stats = report.for_type(TaskType.IMAGE)
        assert image_stats.false_positive_rate < 0.10
        assert image_stats.detection_rate > 0.75
        # The script task cannot see block pages or throttling, so its
        # detection rate is the lowest of the four mechanisms.
        script_stats = report.for_type(TaskType.SCRIPT)
        assert script_stats.detection_rate <= image_stats.detection_rate

    def test_detector_flags_testbed_hosts_as_filtered_everywhere_is_avoided(self, soundness_result):
        # Testbed hosts fail for every region, so the "fails here but not
        # elsewhere" rule should NOT flag them as regionally filtered.
        report = BinomialFilteringDetector(min_measurements=10).detect(soundness_result.collection)
        for detection in report.detections:
            assert not detection.domain.endswith("encore-testbed.net")


class TestInfrastructureBlocking:
    """The adversary of §3.1 may block Encore's own servers."""

    def test_blocking_coordination_server_suppresses_a_countrys_measurements(self):
        world = World(
            WorldConfig(
                seed=41, target_list_total=12, target_list_online=10, origin_site_count=3,
                extra_censored_domains={"IR": [COORDINATION_DOMAIN]},
            )
        )
        deployment = EncoreDeployment(
            world, CampaignConfig(visits=800, include_testbed=False, seed=41)
        )
        deployment.run_campaign()
        store = deployment.collection.store
        volume = {
            country: np.count_nonzero(store.row_mask(
                country_code=country, exclude_automated=False, exclude_inconclusive=False
            ))
            for country in ("IR", "US")
        }
        # Iranian clients cannot fetch tasks at all, so Iran contributes
        # (almost) nothing despite its nonzero visit share.
        assert volume["IR"] == 0
        assert volume["US"] > 0
        assert deployment.coordination.delivery_failure_rate > 0.0

    @staticmethod
    def blocked_campaign(blocked, mirrors=(), batch_size=None, visits=800, country_code=None):
        """Iran's rows, unreachable submissions and delivery failure rate of
        one campaign in which Iran blocks ``blocked``, checked equal in batch
        and serial mode (rows, ids included, too)."""
        outcomes = []
        for mode in ("batch", "serial"):
            world = World(
                WorldConfig(
                    seed=41, target_list_total=12, target_list_online=10, origin_site_count=3,
                    extra_censored_domains={"IR": list(blocked)},
                )
            )
            deployment = EncoreDeployment(
                world,
                CampaignConfig(
                    visits=visits, include_testbed=False, seed=41, country_code=country_code
                ),
            )
            deployment.coordination.mirrors = [URL.parse(url) for url in mirrors]
            deployment.run_campaign(mode=mode, batch_size=batch_size)
            store = deployment.collection.store
            outcomes.append((
                store.rows(),
                int(np.count_nonzero(store.row_mask(
                    country_code="IR", exclude_automated=False, exclude_inconclusive=False
                ))),
                deployment.collection.unreachable_submissions,
                deployment.coordination.delivery_failure_rate,
            ))
        batch, serial = outcomes
        assert batch == serial
        return batch[1:]

    def test_a_mirror_restores_task_delivery(self):
        # §8: mirroring the coordination server on an origin site raises the
        # collateral damage of blocking it.
        ir_rows, _, failure_rate = self.blocked_campaign(
            [COORDINATION_DOMAIN], mirrors=["http://origin-00.example.edu/"]
        )
        assert (ir_rows, failure_rate) == (12, 0.0)
        ir_rows, _, failure_rate = self.blocked_campaign([COORDINATION_DOMAIN])
        assert ir_rows == 0
        assert round(failure_rate, 3) == 0.012
        # An Iran-only campaign stores no row at all; batches of one visit
        # also include visits that run no task and fetch nothing.
        assert self.blocked_campaign(
            [COORDINATION_DOMAIN], batch_size=1, visits=60, country_code="IR"
        ) == (0, 0, 1.0)

    def test_blocking_the_collection_server_loses_the_submissions(self):
        ir_rows, unreachable, _ = self.blocked_campaign([COLLECTION_DOMAIN])
        assert (ir_rows, unreachable) == (0, 18)
        ir_rows, unreachable, _ = self.blocked_campaign([])
        assert (ir_rows, unreachable) == (12, 6)


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        def run():
            world = World(WorldConfig(seed=61, target_list_total=12, target_list_online=10,
                                      origin_site_count=2))
            deployment = EncoreDeployment(
                world, CampaignConfig(visits=200, include_testbed=False, seed=61)
            )
            result = deployment.run_campaign()
            return [
                (m.target_domain, m.country_code, m.outcome.value)
                for m in result.collection.store.rows()
            ]

        assert run() == run()
