"""Measurement-task generation: Pattern Expander → Target Fetcher → Task Generator.

This is the offline pipeline of paper §5.2 (Fig. 3).  It runs ahead of any
client interaction (e.g. once per day): URL patterns from the target list are
expanded into concrete URLs via site-restricted search, each URL is rendered
by a headless browser into a HAR file, and the HARs are analysed to decide
which of the four measurement-task types can test each resource.

The same machinery, with a statistics-emitting hook, produces the feasibility
numbers of §6.1 (Figs. 4–6): how many images of which sizes each domain
hosts, how heavy each page is, and how many cacheable images each page
embeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.tasks import MeasurementTask, TaskType
from repro.datasets.herdict import TargetListEntry
from repro.web.har import HAR, merge_domain_images
from repro.web.headless import HeadlessBrowser
from repro.web.resources import KILOBYTE
from repro.web.search import SearchEngine
from repro.web.url import URL, URLPattern


@dataclass(frozen=True)
class TaskGenerationLimits:
    """Resource-size and safety limits the Task Generator enforces (§5.2).

    The defaults follow the paper: tasks should prefer images deliverable in
    roughly a single packet (the 1 KB analysis bound of Fig. 4; 5 KB is the
    permissive bound), pages loaded in hidden iframes must stay under 100 KB,
    heavy media (flash, video) disqualifies a page, and URLs with obvious
    server side effects are excluded.
    """

    max_image_bytes: int = 1 * KILOBYTE
    permissive_image_bytes: int = 5 * KILOBYTE
    max_page_bytes: int = 100 * KILOBYTE
    require_cacheable_probe: bool = True
    exclude_side_effects: bool = True
    exclude_heavy_media: bool = True
    favicons_only: bool = False
    max_urls_per_pattern: int = 50


# ----------------------------------------------------------------------
# Stage 1: Pattern Expander
# ----------------------------------------------------------------------
class PatternExpander:
    """Expands URL patterns into concrete URLs via site-restricted search."""

    def __init__(self, search_engine: SearchEngine, max_urls: int = 50) -> None:
        self._search = search_engine
        self._max_urls = max_urls

    def expand(self, pattern: URLPattern) -> list[URL]:
        """Concrete URLs matching ``pattern`` (at most ``max_urls``)."""
        return self._search.expand_pattern(pattern, limit=self._max_urls)


# ----------------------------------------------------------------------
# Stage 2: Target Fetcher
# ----------------------------------------------------------------------
class TargetFetcher:
    """Renders candidate URLs in a headless browser and records HARs."""

    def __init__(self, headless: HeadlessBrowser) -> None:
        self._headless = headless

    def fetch(self, urls: Iterable[URL]) -> list[HAR]:
        """HARs for every URL that rendered successfully."""
        hars = []
        for url in urls:
            har = self._headless.render(url)
            if har.ok:
                hars.append(har)
        return hars


# ----------------------------------------------------------------------
# Feasibility statistics (paper §6.1)
# ----------------------------------------------------------------------
@dataclass
class PageStatistics:
    """Per-page numbers behind Figs. 5 and 6."""

    url: URL
    total_size_bytes: int
    cacheable_image_count: int
    loads_heavy_media: bool
    has_side_effects: bool


@dataclass
class DomainAmenability:
    """Per-domain numbers behind Fig. 4 and the §6.1 amenability claims."""

    domain: str
    category: str
    pages_crawled: int
    image_count_total: int
    image_count_under_1kb: int
    image_count_under_5kb: int
    has_favicon: bool
    page_stats: list[PageStatistics] = field(default_factory=list)

    def measurable_with_images(self, limit_bytes: int = KILOBYTE) -> bool:
        """Can the image task measure this domain under ``limit_bytes``?"""
        if limit_bytes >= 5 * KILOBYTE:
            return self.image_count_under_5kb > 0
        if limit_bytes >= KILOBYTE:
            return self.image_count_under_1kb > 0
        return False


@dataclass
class FeasibilityReport:
    """Aggregated feasibility statistics across all crawled domains."""

    domains: list[DomainAmenability] = field(default_factory=list)

    @property
    def all_pages(self) -> list[PageStatistics]:
        return [stats for domain in self.domains for stats in domain.page_stats]

    def images_per_domain(self, limit_bytes: int | None = None) -> list[int]:
        """Image counts per domain, optionally restricted to a size class."""
        counts = []
        for domain in self.domains:
            if limit_bytes is None:
                counts.append(domain.image_count_total)
            elif limit_bytes <= KILOBYTE:
                counts.append(domain.image_count_under_1kb)
            else:
                counts.append(domain.image_count_under_5kb)
        return counts

    def page_sizes_bytes(self) -> list[int]:
        return [stats.total_size_bytes for stats in self.all_pages]

    def cacheable_images_per_page(self, max_page_bytes: int | None = None) -> list[int]:
        return [
            stats.cacheable_image_count
            for stats in self.all_pages
            if max_page_bytes is None or stats.total_size_bytes <= max_page_bytes
        ]

    def fraction_domains_measurable(self, limit_bytes: int = KILOBYTE) -> float:
        """Fraction of domains the image task can measure (paper: >50% at 1 KB)."""
        if not self.domains:
            return 0.0
        return sum(1 for d in self.domains if d.measurable_with_images(limit_bytes)) / len(
            self.domains
        )

    def fraction_pages_measurable(self, max_page_bytes: int = 100 * KILOBYTE) -> float:
        """Fraction of URLs the inline-frame task can measure (paper: <10%)."""
        pages = self.all_pages
        if not pages:
            return 0.0
        measurable = sum(
            1
            for stats in pages
            if stats.total_size_bytes <= max_page_bytes
            and stats.cacheable_image_count > 0
            and not stats.loads_heavy_media
            and not stats.has_side_effects
        )
        return measurable / len(pages)


# ----------------------------------------------------------------------
# Stage 3: Task Generator
# ----------------------------------------------------------------------
class TaskGenerator:
    """Turns HARs into measurement tasks and feasibility statistics."""

    def __init__(self, limits: TaskGenerationLimits | None = None) -> None:
        self.limits = limits or TaskGenerationLimits()

    # -- statistics ------------------------------------------------------
    def analyse_domain(
        self, domain: str, hars: list[HAR], category: str = "uncategorised"
    ) -> DomainAmenability:
        """Compute the per-domain feasibility statistics for ``domain``."""
        images = merge_domain_images(hars)
        domain_images = [
            entry for entry in images.values() if self._url_on_domain(entry.url, domain)
        ]
        page_stats = [
            PageStatistics(
                url=har.page_url,
                total_size_bytes=har.total_size_bytes,
                cacheable_image_count=len(har.cacheable_images),
                loads_heavy_media=har.loads_heavy_media(),
                has_side_effects=har.page_has_side_effects,
            )
            for har in hars
        ]
        has_favicon = any(entry.url.path == "/favicon.ico" for entry in domain_images)
        return DomainAmenability(
            domain=domain,
            category=category,
            pages_crawled=len(hars),
            image_count_total=len(domain_images),
            image_count_under_1kb=sum(
                1 for e in domain_images if e.size_bytes <= KILOBYTE
            ),
            image_count_under_5kb=sum(
                1 for e in domain_images if e.size_bytes <= 5 * KILOBYTE
            ),
            has_favicon=has_favicon,
            page_stats=page_stats,
        )

    @staticmethod
    def _url_on_domain(url: URL, domain: str) -> bool:
        return url.host == domain or url.host.endswith("." + domain)

    # -- task generation ---------------------------------------------------
    def domain_tasks(
        self, domain: str, hars: list[HAR], category: str = "uncategorised"
    ) -> list[MeasurementTask]:
        """Tasks that test filtering of the entire domain (paper §4.3.1)."""
        tasks: list[MeasurementTask] = []
        images = merge_domain_images(hars)
        candidates = [
            entry
            for entry in images.values()
            if self._url_on_domain(entry.url, domain)
            and entry.size_bytes <= self.limits.max_image_bytes
        ]
        if self.limits.favicons_only:
            candidates = [c for c in candidates if c.url.path == "/favicon.ico"]
        if candidates:
            best = min(candidates, key=lambda e: e.size_bytes)
            tasks.append(
                MeasurementTask.new(
                    TaskType.IMAGE,
                    best.url,
                    estimated_overhead_bytes=best.size_bytes,
                    category=category,
                )
            )
        if self.limits.favicons_only:
            return tasks

        stylesheets = {
            str(entry.url): entry
            for har in hars
            for entry in har.entries
            if entry.content_type is not None
            and entry.content_type.name == "STYLESHEET"
            and self._url_on_domain(entry.url, domain)
            and entry.size_bytes > 0
        }
        if stylesheets:
            sheet = min(stylesheets.values(), key=lambda e: e.size_bytes)
            tasks.append(
                MeasurementTask.new(
                    TaskType.STYLE_SHEET,
                    sheet.url,
                    estimated_overhead_bytes=sheet.size_bytes,
                    category=category,
                )
            )

        nosniff_resources = [
            entry
            for har in hars
            for entry in har.entries
            if entry.nosniff and self._url_on_domain(entry.url, domain)
        ]
        if nosniff_resources:
            target = min(nosniff_resources, key=lambda e: e.size_bytes)
            tasks.append(
                MeasurementTask.new(
                    TaskType.SCRIPT,
                    target.url,
                    estimated_overhead_bytes=target.size_bytes,
                    category=category,
                )
            )
        return tasks

    def page_tasks(self, har: HAR, category: str = "uncategorised") -> list[MeasurementTask]:
        """Inline-frame tasks that test filtering of one specific page (§4.3.2)."""
        if self.limits.favicons_only:
            return []
        if self.limits.exclude_side_effects and har.page_has_side_effects:
            return []
        if self.limits.exclude_heavy_media and har.loads_heavy_media():
            return []
        if har.total_size_bytes > self.limits.max_page_bytes:
            return []
        probes = har.cacheable_images if self.limits.require_cacheable_probe else har.images
        if not probes:
            return []
        probe = min(probes, key=lambda e: e.size_bytes)
        return [
            MeasurementTask.new(
                TaskType.INLINE_FRAME,
                har.page_url,
                probe_image_url=probe.url,
                estimated_overhead_bytes=har.total_size_bytes,
                category=category,
            )
        ]

    def generate(
        self, domain: str, hars: list[HAR], category: str = "uncategorised"
    ) -> list[MeasurementTask]:
        """All tasks (domain-level and per-page) for ``domain``."""
        tasks = self.domain_tasks(domain, hars, category)
        for har in hars:
            tasks.extend(self.page_tasks(har, category))
        return tasks


# ----------------------------------------------------------------------
# The full pipeline
# ----------------------------------------------------------------------
@dataclass
class TaskGenerationResult:
    """Output of one run of the generation pipeline."""

    tasks: list[MeasurementTask]
    report: FeasibilityReport
    urls_expanded: int

    def tasks_for_domain(self, domain: str) -> list[MeasurementTask]:
        return [t for t in self.tasks if t.target_domain == domain or t.target_url.host.endswith("." + domain)]

    def tasks_of_type(self, task_type: TaskType) -> list[MeasurementTask]:
        return [t for t in self.tasks if t.task_type is task_type]


class TaskGenerationPipeline:
    """Pattern Expander → Target Fetcher → Task Generator, end to end."""

    def __init__(
        self,
        search_engine: SearchEngine,
        headless: HeadlessBrowser,
        limits: TaskGenerationLimits | None = None,
    ) -> None:
        self.limits = limits or TaskGenerationLimits()
        self.expander = PatternExpander(search_engine, max_urls=self.limits.max_urls_per_pattern)
        self.fetcher = TargetFetcher(headless)
        self.generator = TaskGenerator(self.limits)

    def run(self, entries: Iterable[TargetListEntry]) -> TaskGenerationResult:
        """Run the pipeline over the online entries of a target list."""
        tasks: list[MeasurementTask] = []
        report = FeasibilityReport()
        urls_expanded = 0
        for entry in entries:
            if not entry.online:
                continue
            urls = self.expander.expand(entry.pattern)
            urls_expanded += len(urls)
            hars = self.fetcher.fetch(urls)
            if not hars:
                continue
            report.domains.append(
                self.generator.analyse_domain(entry.domain, hars, entry.category)
            )
            tasks.extend(self.generator.generate(entry.domain, hars, entry.category))
        return TaskGenerationResult(tasks=tasks, report=report, urls_expanded=urls_expanded)
