"""The browser engine: fetching, caching, rendering, embedding semantics.

:class:`Browser` is the client-side half of the simulation.  Measurement
tasks (``repro.core.tasks``) are expressed in terms of the primitives below —
``load_image``, ``load_stylesheet``, ``load_script``, ``render_page``, and
``iframe_probe`` — whose feedback semantics mirror what real browsers expose
to an embedding page (paper §3.2, §4.3, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.browser.cache import BrowserCache
from repro.browser.events import LoadEvent
from repro.browser.profiles import BrowserProfile
from repro.netsim.errors import FetchOutcome
from repro.netsim.latency import LinkQuality
from repro.netsim.network import Network
from repro.web.resources import ContentType
from repro.web.url import URL

#: Rendering an already-cached image takes a handful of milliseconds.
CACHED_RENDER_MIN_MS = 1.0
CACHED_RENDER_MAX_MS = 15.0


@dataclass(frozen=True)
class ResourceLoad:
    """Outcome of loading one resource, as observable by page JavaScript."""

    url: URL
    event: LoadEvent
    elapsed_ms: float
    from_cache: bool = False
    outcome: FetchOutcome | None = None

    @property
    def succeeded(self) -> bool:
        return self.event is LoadEvent.LOAD


@dataclass(frozen=True)
class StyleLoad:
    """Outcome of loading a style sheet and probing its effect."""

    url: URL
    applied: bool
    conclusive: bool
    elapsed_ms: float
    outcome: FetchOutcome | None = None


@dataclass
class PageLoad:
    """Outcome of rendering an entire page (used by the iframe task)."""

    url: URL
    ok: bool
    elapsed_ms: float
    resources_loaded: list[ResourceLoad] = field(default_factory=list)


@dataclass(frozen=True)
class IframeProbe:
    """Outcome of the iframe + cached-image-probe measurement primitive."""

    page_url: URL
    probe_url: URL
    probe_time_ms: float
    iframe_elapsed_ms: float
    probe_event: LoadEvent


class Browser:
    """A simulated browser belonging to one client."""

    def __init__(
        self,
        profile: BrowserProfile,
        link: LinkQuality,
        network: Network,
        rng: np.random.Generator,
        interceptors=(),
        now_s: float = 0.0,
    ) -> None:
        self.profile = profile
        self.link = link
        self.network = network
        self.rng = rng
        self.interceptors = tuple(interceptors)
        self.cache = BrowserCache()
        self.now_s = now_s

    # ------------------------------------------------------------------
    # Low-level fetch with caching
    # ------------------------------------------------------------------
    def _advance(self, elapsed_ms: float) -> None:
        self.now_s += elapsed_ms / 1000.0

    def _cached_render_time_ms(self) -> float:
        span = CACHED_RENDER_MAX_MS - CACHED_RENDER_MIN_MS
        return CACHED_RENDER_MIN_MS + span * float(self.rng.random())

    def fetch(self, url: URL | str, use_cache: bool = True) -> tuple[FetchOutcome | None, bool, float]:
        """Fetch ``url``; returns (outcome, from_cache, elapsed_ms).

        A cache hit short-circuits the network entirely and returns
        ``(None, True, render_time)``.
        """
        parsed = url if isinstance(url, URL) else URL.parse(url)
        if use_cache:
            entry = self.cache.lookup(parsed, self.now_s)
            if entry is not None:
                elapsed = self._cached_render_time_ms()
                self._advance(elapsed)
                return None, True, elapsed
        outcome = self.network.fetch(parsed, self.link, self.rng, self.interceptors)
        self._advance(outcome.elapsed_ms)
        if outcome.succeeded_with_content and outcome.response.cacheable:
            self.cache.store(
                parsed, outcome.response.size_bytes, outcome.response.cache_ttl_s, self.now_s
            )
        return outcome, False, outcome.elapsed_ms

    # ------------------------------------------------------------------
    # Embedding primitives (what measurement tasks call)
    # ------------------------------------------------------------------
    def load_image(self, url: URL | str, use_cache: bool = True) -> ResourceLoad:
        """Embed an image with ``<img>`` and report onload/onerror.

        ``onload`` fires only if the body both arrived and rendered as an
        image, so a censor's block page (HTML served with status 200) still
        produces ``onerror`` — the property that makes the image task's
        feedback explicit (paper §4.3.1).
        """
        parsed = url if isinstance(url, URL) else URL.parse(url)
        outcome, from_cache, elapsed = self.fetch(parsed, use_cache=use_cache)
        if from_cache:
            return ResourceLoad(parsed, LoadEvent.LOAD, elapsed, from_cache=True)
        if not self.profile.reports_image_events:
            return ResourceLoad(parsed, LoadEvent.NONE, elapsed, outcome=outcome)
        renders = (
            outcome.succeeded_with_content
            and outcome.response.content_type is ContentType.IMAGE
            and not outcome.looks_like_block_page
        )
        event = LoadEvent.LOAD if renders else LoadEvent.ERROR
        return ResourceLoad(parsed, event, elapsed, outcome=outcome)

    def load_stylesheet(self, url: URL | str) -> StyleLoad:
        """Load a style sheet in a sandboxed iframe and probe its effect.

        The task checks ``getComputedStyle`` on a probe element; the check is
        conclusive only on browsers where that introspection is reliable.
        An empty sheet applies no rules, so it cannot be verified (Table 1:
        "only non-empty style sheets").
        """
        parsed = url if isinstance(url, URL) else URL.parse(url)
        outcome, from_cache, elapsed = self.fetch(parsed)
        if not self.profile.supports_computed_style_check:
            return StyleLoad(parsed, applied=False, conclusive=False, elapsed_ms=elapsed, outcome=outcome)
        if from_cache:
            return StyleLoad(parsed, applied=True, conclusive=True, elapsed_ms=elapsed)
        applied = (
            outcome.succeeded_with_content
            and outcome.response.content_type is ContentType.STYLESHEET
            and not outcome.looks_like_block_page
            and outcome.response.size_bytes > 0
        )
        return StyleLoad(parsed, applied=applied, conclusive=True, elapsed_ms=elapsed, outcome=outcome)

    def load_script(self, url: URL | str) -> ResourceLoad:
        """Embed a resource with ``<script>`` and report onload/onerror.

        Chrome fires ``onload`` whenever the fetch completed with HTTP 200,
        regardless of whether the body is valid JavaScript (paper §4.3.2);
        other browsers fire ``onload`` only when the body executes as a
        script.  Note the Chrome semantics mean a censor's block page (served
        with status 200) is indistinguishable from success for this task
        type — a fidelity the soundness analysis cares about.
        """
        parsed = url if isinstance(url, URL) else URL.parse(url)
        outcome, from_cache, elapsed = self.fetch(parsed)
        if from_cache:
            return ResourceLoad(parsed, LoadEvent.LOAD, elapsed, from_cache=True)
        if self.profile.script_onload_on_any_200:
            # Chrome cannot tell a censor's block page from the real resource:
            # any HTTP 200 response fires onload, even substituted content.
            loaded = outcome.status == 200 and outcome.response is not None
        else:
            loaded = (
                outcome.succeeded_with_content
                and outcome.response.content_type is ContentType.SCRIPT
                and outcome.response.resource is not None
                and outcome.response.resource.valid_syntax
                and not outcome.looks_like_block_page
            )
        event = LoadEvent.LOAD if loaded else LoadEvent.ERROR
        return ResourceLoad(parsed, event, elapsed, outcome=outcome)

    def render_page(self, url: URL | str, use_cache: bool = True) -> PageLoad:
        """Fetch a page and everything it embeds (what an iframe does)."""
        parsed = url if isinstance(url, URL) else URL.parse(url)
        outcome, from_cache, elapsed = self.fetch(parsed, use_cache=use_cache)
        page_load = PageLoad(url=parsed, ok=False, elapsed_ms=elapsed)
        if from_cache:
            page_load.ok = True
            return page_load
        if not outcome.succeeded_with_content or outcome.looks_like_block_page:
            return page_load
        resource = outcome.response.resource
        if resource is None or not resource.is_page:
            return page_load
        page_load.ok = True
        for embedded_url in resource.embedded_urls:
            sub_outcome, sub_cached, sub_elapsed = self.fetch(embedded_url)
            if sub_cached:
                load = ResourceLoad(embedded_url, LoadEvent.LOAD, sub_elapsed, from_cache=True)
            else:
                succeeded = sub_outcome.succeeded_with_content and not sub_outcome.looks_like_block_page
                load = ResourceLoad(
                    embedded_url,
                    LoadEvent.LOAD if succeeded else LoadEvent.ERROR,
                    sub_elapsed,
                    outcome=sub_outcome,
                )
            page_load.resources_loaded.append(load)
            page_load.elapsed_ms += sub_elapsed
        return page_load

    def iframe_probe(self, page_url: URL | str, probe_image_url: URL | str) -> IframeProbe:
        """Load ``page_url`` in a hidden iframe, then time ``probe_image_url``.

        The iframe provides no load/error feedback across origins; instead
        the task measures how long the probe image (an image the page embeds)
        takes to load afterwards.  If the page loaded, the image is in cache
        and renders within a few milliseconds (paper §4.3.2, Fig. 7).
        """
        page = page_url if isinstance(page_url, URL) else URL.parse(page_url)
        probe = probe_image_url if isinstance(probe_image_url, URL) else URL.parse(probe_image_url)
        page_load = self.render_page(page)
        probe_load = self.load_image(probe)
        return IframeProbe(
            page_url=page,
            probe_url=probe,
            probe_time_ms=probe_load.elapsed_ms,
            iframe_elapsed_ms=page_load.elapsed_ms,
            probe_event=probe_load.event,
        )
