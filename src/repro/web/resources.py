"""Web resource model.

A :class:`Resource` is anything a Web server can return for a URL: an HTML
page, an image, a style sheet, a script, or opaque media.  Encore's task
generator (paper §5.2) decides which measurement-task types can test a
resource by inspecting exactly the attributes modelled here: content type,
size, cacheability headers, MIME-sniffing protection, and — for pages — the
set of embedded resources.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.web.url import URL

KILOBYTE = 1024
MEGABYTE = 1024 * 1024

#: Maximum size of a TCP payload Encore considers deliverable "in one packet"
#: when arguing about single-packet images (paper Fig. 4 discussion).
SINGLE_PACKET_BYTES = 1460


class ContentType(enum.Enum):
    """Coarse content types, matching what the Task Generator inspects."""

    HTML = "text/html"
    IMAGE = "image/png"
    STYLESHEET = "text/css"
    SCRIPT = "application/javascript"
    VIDEO = "video/mp4"
    FLASH = "application/x-shockwave-flash"
    FONT = "font/woff2"
    JSON = "application/json"
    OTHER = "application/octet-stream"

    @property
    def is_page(self) -> bool:
        return self is ContentType.HTML

    @property
    def is_renderable_media(self) -> bool:
        """True for content a browser renders without executing it."""
        return self in (ContentType.IMAGE, ContentType.VIDEO, ContentType.FONT)


@dataclass
class Resource:
    """A single Web resource hosted at a URL.

    Attributes:
        url: where the resource lives.
        content_type: coarse MIME classification.
        size_bytes: transfer size of the resource body.
        cacheable: whether response headers allow browser caching.
        cache_ttl_s: freshness lifetime when cacheable.
        nosniff: whether the server sends ``X-Content-Type-Options: nosniff``.
        valid_syntax: whether the body parses as its advertised type (matters
            for the script task type: an invalid script still fires ``onload``
            on Chrome if the HTTP status was 200).
        has_side_effects: whether fetching the URL mutates server state
            (paper §4.2 requires tasks to avoid such URLs).
        embedded_urls: for HTML pages, the URLs the page references.
    """

    url: URL
    content_type: ContentType
    size_bytes: int
    cacheable: bool = False
    cache_ttl_s: int = 0
    nosniff: bool = False
    valid_syntax: bool = True
    has_side_effects: bool = False
    embedded_urls: tuple[URL, ...] = ()

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("resource size must be non-negative")
        if self.cacheable and self.cache_ttl_s <= 0:
            # A cacheable resource with no TTL behaves as a session cache entry.
            self.cache_ttl_s = 3600
        if self.embedded_urls and not self.content_type.is_page:
            raise ValueError("only HTML pages may embed other resources")
        self.embedded_urls = tuple(self.embedded_urls)

    # ------------------------------------------------------------------
    # Predicates used by the Task Generator (paper Table 1 / §5.2)
    # ------------------------------------------------------------------
    @property
    def is_image(self) -> bool:
        return self.content_type is ContentType.IMAGE

    @property
    def is_stylesheet(self) -> bool:
        return self.content_type is ContentType.STYLESHEET

    @property
    def is_script(self) -> bool:
        return self.content_type is ContentType.SCRIPT

    @property
    def is_page(self) -> bool:
        return self.content_type.is_page

    def is_small_image(self, limit_bytes: int = KILOBYTE) -> bool:
        """True if the resource is an image no larger than ``limit_bytes``."""
        return self.is_image and self.size_bytes <= limit_bytes

    def fits_single_packet(self) -> bool:
        """True if the resource body fits in a single TCP segment."""
        return self.size_bytes <= SINGLE_PACKET_BYTES

    @property
    def is_heavy_media(self) -> bool:
        """True for flash/video objects the Task Generator always rejects."""
        return self.content_type in (ContentType.VIDEO, ContentType.FLASH)

    def describe(self) -> str:
        """A short human-readable description used in logs and reports."""
        return (
            f"{self.content_type.name.lower()} {self.url} "
            f"({self.size_bytes} B{', cacheable' if self.cacheable else ''})"
        )


def total_page_weight(page: Resource, resolver) -> int:
    """Total bytes a browser transfers to render ``page``.

    ``resolver`` maps a :class:`URL` to the :class:`Resource` it serves (or
    ``None`` if unknown). The page's own size is included, matching how the
    paper computes "page size" for Fig. 5 (the sum of sizes of all objects a
    page loads).
    """
    if not page.is_page:
        raise ValueError("total_page_weight requires an HTML page")
    total = page.size_bytes
    for url in page.embedded_urls:
        resource = resolver(url)
        if resource is not None:
            total += resource.size_bytes
    return total


def embedded_resources(page: Resource, resolver) -> list[Resource]:
    """Resolve and return the resources a page embeds, skipping unknown URLs."""
    if not page.is_page:
        raise ValueError("embedded_resources requires an HTML page")
    found: list[Resource] = []
    for url in page.embedded_urls:
        resource = resolver(url)
        if resource is not None:
            found.append(resource)
    return found


def cacheable_images(resources: Iterable[Resource]) -> list[Resource]:
    """Filter ``resources`` down to cacheable images (paper Fig. 6)."""
    return [r for r in resources if r.is_image and r.cacheable]
