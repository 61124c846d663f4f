"""HTTP Archive (HAR) model.

The paper's Target Fetcher (§5.2, Fig. 3) renders each candidate URL in a
headless browser and records a HAR file: the set of resources the page loads,
their sizes, timings, and the headers of each request and response.  The Task
Generator then reads those HARs to decide which measurement-task types can
test each resource.  This module models the subset of the HAR 1.2 format that
the Task Generator needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.web.resources import ContentType, Resource
from repro.web.url import URL


@dataclass(frozen=True)
class HAREntry:
    """One request/response pair recorded while rendering a page."""

    url: URL
    status: int
    content_type: ContentType | None
    size_bytes: int
    time_ms: float
    cacheable: bool = False
    nosniff: bool = False

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_image(self) -> bool:
        return self.content_type is ContentType.IMAGE

    @property
    def is_cacheable_image(self) -> bool:
        return self.is_image and self.cacheable

    @classmethod
    def from_resource(cls, resource: Resource, time_ms: float) -> "HAREntry":
        """Build an entry from a successfully fetched resource."""
        return cls(
            url=resource.url,
            status=200,
            content_type=resource.content_type,
            size_bytes=resource.size_bytes,
            time_ms=time_ms,
            cacheable=resource.cacheable,
            nosniff=resource.nosniff,
        )


@dataclass
class HAR:
    """A recorded page load: the page URL plus every entry fetched for it."""

    page_url: URL
    entries: list[HAREntry] = field(default_factory=list)
    page_status: int = 200
    page_has_side_effects: bool = False

    def add(self, entry: HAREntry) -> None:
        self.entries.append(entry)

    @property
    def ok(self) -> bool:
        """True if the page itself loaded successfully."""
        return 200 <= self.page_status < 300

    @property
    def total_size_bytes(self) -> int:
        """Sum of all object sizes — the paper's "page size" (Fig. 5)."""
        return sum(entry.size_bytes for entry in self.entries)

    @property
    def total_time_ms(self) -> float:
        return sum(entry.time_ms for entry in self.entries)

    @property
    def images(self) -> list[HAREntry]:
        return [entry for entry in self.entries if entry.is_image]

    @property
    def cacheable_images(self) -> list[HAREntry]:
        """Cacheable images, excluding the page's own entry (Fig. 6)."""
        return [entry for entry in self.entries if entry.is_cacheable_image]

    def images_at_most(self, limit_bytes: int) -> list[HAREntry]:
        return [entry for entry in self.images if entry.size_bytes <= limit_bytes]

    def entries_of_type(self, content_type: ContentType) -> list[HAREntry]:
        return [entry for entry in self.entries if entry.content_type is content_type]

    def loads_heavy_media(self) -> bool:
        """True if the page loads flash or video objects (Task Generator rejects these)."""
        return any(
            entry.content_type in (ContentType.FLASH, ContentType.VIDEO)
            for entry in self.entries
        )


def merge_domain_images(hars: Iterable[HAR]) -> dict[URL, HAREntry]:
    """Collect the distinct images observed across ``hars``, keyed by URL.

    Used to compute per-domain image counts for Fig. 4: the same icon embedded
    by fifty pages counts once.
    """
    images: dict[URL, HAREntry] = {}
    for har in hars:
        for entry in har.images:
            images.setdefault(entry.url, entry)
    return images
