"""Tests for target lists, deployment phases, and the task-generation pipeline."""

from repro.core.targets import TargetList, apply_phase, deployment_phases
from repro.core.task_generation import (
    PatternExpander,
    TargetFetcher,
    TaskGenerationLimits,
    TaskGenerator,
)
from repro.core.tasks import TaskType
from repro.web.resources import KILOBYTE
from repro.web.url import URLPattern


class TestTargetList:
    def test_high_value_defaults(self):
        target_list = TargetList.high_value()
        assert len(target_list) == 204
        assert len(target_list.online_entries) == 178

    def test_from_domains_and_urls(self):
        by_domain = TargetList.from_domains(["a.com", "b.org"])
        assert len(by_domain) == 2
        assert all(e.pattern.kind == "domain" for e in by_domain)
        by_url = TargetList.from_urls(["http://a.com/x", "http://a.com/y"])
        assert all(e.pattern.kind == "exact" for e in by_url)

    def test_restrict_to_domains(self):
        restricted = TargetList.high_value().restrict_to_domains(["facebook.com", "youtube.com"])
        assert sorted(restricted.online_domains) == ["facebook.com", "youtube.com"]

    def test_matching_entry(self):
        target_list = TargetList.from_domains(["a.com"])
        assert target_list.matching_entry("http://sub.a.com/page") is not None
        assert target_list.matching_entry("http://b.com/page") is None


class TestDeploymentPhases:
    def test_three_phases_in_order(self):
        phases = deployment_phases()
        assert [p.restriction for p in phases] == [
            "full_list", "favicons_only", "favicons_few_sites",
        ]
        assert [p.start for p in phases] == sorted(p.start for p in phases)

    def test_final_phase_restricts_to_three_social_sites(self):
        target_list = TargetList.high_value()
        final = deployment_phases()[-1]
        restricted = apply_phase(target_list, final)
        assert set(restricted.online_domains) == {"facebook.com", "youtube.com", "twitter.com"}

    def test_earlier_phases_keep_the_list(self):
        target_list = TargetList.high_value()
        for phase in deployment_phases()[:2]:
            assert len(apply_phase(target_list, phase)) == len(target_list)


class TestPipelineStages:
    def test_pattern_expander_caps_urls(self, feasibility_world):
        expander = PatternExpander(feasibility_world.search, max_urls=10)
        urls = expander.expand(URLPattern.domain("facebook.com"))
        assert 0 < len(urls) <= 10

    def test_target_fetcher_skips_failed_renders(self, feasibility_world):
        fetcher = TargetFetcher(feasibility_world.headless)
        good = feasibility_world.universe.site("facebook.com").page_urls[:3]
        hars = fetcher.fetch(list(good) + ["http://does-not-exist.example/"])
        assert len(hars) == 3

    def test_task_generator_domain_tasks_prefer_small_images(self, feasibility_world):
        fetcher = TargetFetcher(feasibility_world.headless)
        hars = fetcher.fetch(feasibility_world.universe.site("facebook.com").page_urls[:30])
        generator = TaskGenerator(TaskGenerationLimits(max_image_bytes=KILOBYTE))
        tasks = generator.domain_tasks("facebook.com", hars)
        image_tasks = [t for t in tasks if t.task_type is TaskType.IMAGE]
        assert image_tasks
        assert all(t.estimated_overhead_bytes <= KILOBYTE for t in image_tasks)

    def test_favicons_only_limits_to_favicon_image_tasks(self, feasibility_world):
        fetcher = TargetFetcher(feasibility_world.headless)
        hars = fetcher.fetch(feasibility_world.universe.site("facebook.com").page_urls[:30])
        generator = TaskGenerator(TaskGenerationLimits(favicons_only=True))
        tasks = generator.generate("facebook.com", hars)
        assert tasks
        assert all(t.task_type is TaskType.IMAGE for t in tasks)
        assert all(t.target_url.path == "/favicon.ico" for t in tasks)

    def test_page_tasks_respect_size_and_probe_limits(self, feasibility_world):
        fetcher = TargetFetcher(feasibility_world.headless)
        hars = fetcher.fetch(feasibility_world.universe.site("facebook.com").page_urls[:40])
        generator = TaskGenerator(TaskGenerationLimits())
        for har in hars:
            tasks = generator.page_tasks(har)
            if har.total_size_bytes > generator.limits.max_page_bytes:
                assert tasks == []
            for task in tasks:
                assert task.task_type is TaskType.INLINE_FRAME
                assert task.probe_image_url is not None


class TestFullPipeline:
    def test_run_produces_tasks_and_report(self, feasibility_report):
        assert feasibility_report.tasks
        assert feasibility_report.report.domains
        assert feasibility_report.urls_expanded > 0

    def test_report_covers_online_domains_only(self, feasibility_report):
        assert len(feasibility_report.report.domains) <= 60

    def test_tasks_reference_crawled_domains(self, feasibility_report):
        crawled = {d.domain for d in feasibility_report.report.domains}
        for task in feasibility_report.tasks:
            assert any(
                task.target_url.host == d or task.target_url.host.endswith("." + d) for d in crawled
            )

    def test_task_types_mix(self, feasibility_report):
        types = {t.task_type for t in feasibility_report.tasks}
        assert TaskType.IMAGE in types
        assert TaskType.STYLE_SHEET in types

    def test_tasks_for_domain_helper(self, feasibility_report):
        domain = feasibility_report.report.domains[0].domain
        for task in feasibility_report.tasks_for_domain(domain):
            assert task.target_url.host.endswith(domain)


class TestFeasibilityReport:
    def test_amenability_fractions_in_range(self, feasibility_report):
        report = feasibility_report.report
        assert 0.0 <= report.fraction_domains_measurable() <= 1.0
        assert 0.0 <= report.fraction_pages_measurable() <= 1.0

    def test_image_counts_by_size_class_are_monotone(self, feasibility_report):
        report = feasibility_report.report
        for domain in report.domains:
            assert domain.image_count_under_1kb <= domain.image_count_under_5kb <= domain.image_count_total

    def test_page_sizes_positive(self, feasibility_report):
        assert all(size > 0 for size in feasibility_report.report.page_sizes_bytes())

    def test_cacheable_images_filter_by_page_size(self, feasibility_report):
        report = feasibility_report.report
        all_pages = report.cacheable_images_per_page()
        small_pages = report.cacheable_images_per_page(100 * KILOBYTE)
        assert len(small_pages) <= len(all_pages)
