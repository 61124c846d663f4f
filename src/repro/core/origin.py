"""Origin sites: webmaster-side integration and overhead accounting (§6.3).

A webmaster enables Encore by adding a single line to their page that loads a
script from the coordination server.  The paper argues this is cheap — about
100 extra bytes per page, no extra origin-server connections, and measurement
tasks that run asynchronously after the page has rendered — and that
webmasters have incentives to participate (interest in measuring filtering,
plus a reciprocity agreement that adds their own site to the target list).
This module models an instrumented origin site and provides the overhead
accounting the §6.3 benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tasks import MeasurementTask, TaskType, origin_embed_html
from repro.web.resources import total_page_weight
from repro.web.sites import Site
from repro.web.url import URL


def snippet_overhead_bytes(coordination_url: URL | str) -> int:
    """Bytes the Encore snippet adds to each origin page (paper: ~100 bytes)."""
    return len(origin_embed_html(coordination_url).encode("utf-8"))


@dataclass
class OriginSite:
    """A site whose webmaster has installed Encore."""

    site: Site
    coordination_url: URL
    #: Whether this origin strips the Referer header from result submissions
    #: (3/4 of measurements in the paper arrived Referer-stripped).
    strips_referer: bool = False
    #: Whether the webmaster joined the reciprocity agreement, adding their
    #: own domain to Encore's target list (§6.3).
    reciprocity_enrolled: bool = False

    @property
    def domain(self) -> str:
        return self.site.domain

    @property
    def embed_snippet(self) -> str:
        """The one line the webmaster adds to their pages."""
        return origin_embed_html(self.coordination_url)

    @property
    def snippet_bytes(self) -> int:
        return len(self.embed_snippet.encode("utf-8"))

    def page_overhead_fraction(self) -> float:
        """Snippet bytes as a fraction of the origin's median page weight."""
        pages = self.site.pages
        if not pages:
            return 0.0
        weights = sorted(total_page_weight(page, self.site.lookup) for page in pages)
        median = weights[len(weights) // 2]
        if median == 0:
            return 0.0
        return self.snippet_bytes / median


@dataclass
class ClientOverheadReport:
    """Network overhead measurement tasks impose on clients (§6.3)."""

    per_task_bytes: dict[str, list[int]] = field(default_factory=dict)

    def add_task(self, task: MeasurementTask) -> None:
        self.per_task_bytes.setdefault(task.task_type.value, []).append(
            task.estimated_overhead_bytes
        )

    def median_bytes(self, task_type: TaskType) -> int:
        values = sorted(self.per_task_bytes.get(task_type.value, []))
        if not values:
            return 0
        return values[len(values) // 2]

    def summary(self) -> dict[str, int]:
        return {
            task_type: sorted(values)[len(values) // 2]
            for task_type, values in self.per_task_bytes.items()
            if values
        }


def client_overhead_report(tasks: list[MeasurementTask]) -> ClientOverheadReport:
    """Build a :class:`ClientOverheadReport` for a set of generated tasks."""
    report = ClientOverheadReport()
    for task in tasks:
        report.add_task(task)
    return report
