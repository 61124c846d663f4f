"""Sites and the synthetic site generator.

The paper's feasibility analysis (§6.1, Figs. 4–6) crawls 178 potentially
censored domains and asks, per domain, how many images of which sizes they
host, how heavy their pages are, and how many cacheable images each page
embeds.  We cannot crawl the real Web offline, so this module builds a
synthetic Web whose per-domain and per-page distributions are calibrated to
the shapes the paper reports:

* ~70% of domains embed at least one image; >60% host images that fit in a
  single packet; about a third host hundreds of sub-1 KB images (Fig. 4);
* page weights spread roughly evenly over 0–2 MB with a long tail, and more
  than half of pages exceed 0.5 MB (Fig. 5);
* ~70% of pages embed at least one cacheable image and half embed five or
  more, but only ~30% of pages that weigh at most 100 KB do (Fig. 6).

Every draw flows through an explicit :class:`numpy.random.Generator`, so the
generated universe is reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.web.resources import ContentType, KILOBYTE, MEGABYTE, Resource
from repro.web.url import URL


@dataclass
class SiteProfile:
    """Sampled per-domain characteristics that drive site generation."""

    domain: str
    category: str = "uncategorised"
    has_favicon: bool = True
    hosts_images: bool = True
    image_pool_size: int = 40
    small_image_fraction: float = 0.7
    cacheable_image_fraction: float = 0.75
    page_count: int = 60
    text_only_page_fraction: float = 0.2
    uses_nosniff: bool = False
    has_stylesheets: bool = True
    side_effect_url_fraction: float = 0.05


@dataclass
class Site:
    """A single Web site: a domain plus the resources it hosts."""

    domain: str
    category: str = "uncategorised"
    resources: dict[str, Resource] = field(default_factory=dict)
    page_urls: list[URL] = field(default_factory=list)

    def add(self, resource: Resource) -> Resource:
        """Register ``resource`` on this site and return it."""
        if resource.url.host != self.domain and not resource.url.host.endswith(
            "." + self.domain
        ):
            raise ValueError(
                f"resource {resource.url} does not belong to domain {self.domain}"
            )
        self.resources[str(resource.url)] = resource
        if resource.is_page:
            self.page_urls.append(resource.url)
        return resource

    def lookup(self, url: URL | str) -> Resource | None:
        """Return the resource served at ``url``, or None for a 404."""
        return self.resources.get(str(url) if isinstance(url, URL) else url)

    @property
    def pages(self) -> list[Resource]:
        """All HTML pages hosted on this site."""
        return [self.resources[str(u)] for u in self.page_urls]

    @property
    def images(self) -> list[Resource]:
        """All images hosted on this site."""
        return [r for r in self.resources.values() if r.is_image]

    @property
    def favicon_url(self) -> URL | None:
        """The site's favicon URL, if it hosts one."""
        url = URL.parse(f"http://{self.domain}/favicon.ico")
        return url if str(url) in self.resources else None

    def images_at_most(self, limit_bytes: int) -> list[Resource]:
        """Images no larger than ``limit_bytes`` (used for Fig. 4)."""
        return [r for r in self.images if r.size_bytes <= limit_bytes]

    def resolver(self) -> Callable[[URL], Resource | None]:
        """A URL -> Resource resolver restricted to this site."""
        return self.lookup


class SiteGenerator:
    """Generates synthetic sites with paper-calibrated distributions."""

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        if isinstance(rng, np.random.Generator):
            self._rng = rng
        else:
            self._rng = np.random.default_rng(rng)

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    def sample_profile(self, domain: str, category: str = "uncategorised") -> SiteProfile:
        """Sample a :class:`SiteProfile` for ``domain``.

        The branching probabilities below are what produce the Fig. 4–6
        shapes; see the module docstring for the targets.
        """
        rng = self._rng
        # Major social-media sites are always image-rich and always expose a
        # favicon; the detection experiments (§7.2) depend on that.
        is_major_site = category == "social_media"
        hosts_images = is_major_site or rng.random() < 0.66
        if hosts_images:
            # About half of image-hosting domains (a third of all domains)
            # host hundreds of small images; the rest host a modest pool.
            if is_major_site or rng.random() < 0.48:
                image_pool_size = int(rng.integers(200, 1800))
            else:
                image_pool_size = int(rng.integers(3, 80))
            if not is_major_site and rng.random() < 0.15:
                # Some image-hosting domains serve only large photography.
                small_image_fraction = float(rng.uniform(0.0, 0.05))
            else:
                small_image_fraction = float(min(max(rng.normal(0.72, 0.15), 0.1), 0.98))
        else:
            image_pool_size = 0
            small_image_fraction = 0.0
        if hosts_images:
            has_favicon = is_major_site or rng.random() < 0.92
        else:
            has_favicon = rng.random() < 0.10
        if not is_major_site and rng.random() < 0.06:
            # Some sites disable caching on all their images.
            cacheable_image_fraction = float(rng.uniform(0.0, 0.1))
        else:
            cacheable_image_fraction = float(min(max(rng.normal(0.80, 0.08), 0.3), 0.98))
        return SiteProfile(
            domain=domain,
            category=category,
            has_favicon=has_favicon,
            hosts_images=hosts_images,
            image_pool_size=image_pool_size,
            small_image_fraction=small_image_fraction,
            cacheable_image_fraction=cacheable_image_fraction,
            page_count=int(rng.integers(30, 120)),
            text_only_page_fraction=float(min(max(rng.normal(0.13, 0.05), 0.0), 0.5)),
            uses_nosniff=rng.random() < 0.35,
            has_stylesheets=rng.random() < 0.9,
            side_effect_url_fraction=float(min(max(rng.normal(0.05, 0.03), 0.0), 0.3)),
        )

    # ------------------------------------------------------------------
    # Sites
    # ------------------------------------------------------------------
    def generate_site(
        self, domain: str, category: str = "uncategorised", profile: SiteProfile | None = None
    ) -> Site:
        """Generate a full synthetic :class:`Site` for ``domain``."""
        rng = self._rng
        profile = profile or self.sample_profile(domain, category)
        site = Site(domain=domain, category=category)
        base = URL.parse(f"http://{domain}/")

        if profile.has_favicon:
            site.add(
                Resource(
                    url=base.with_path("/favicon.ico"),
                    content_type=ContentType.IMAGE,
                    size_bytes=int(rng.integers(200, 1000)),
                    cacheable=True,
                    cache_ttl_s=86400,
                )
            )

        image_pool = self._generate_image_pool(site, base, profile)
        stylesheet_pool = self._generate_stylesheets(site, base, profile)
        script_pool = self._generate_scripts(site, base, profile)
        self._generate_pages(site, base, profile, image_pool, stylesheet_pool, script_pool)
        return site

    def generate_universe(
        self, domains: Mapping[str, str] | Iterable[str]
    ) -> dict[str, Site]:
        """Generate a site per domain.

        ``domains`` is either an iterable of domain names or a mapping of
        domain name to category label.
        """
        if isinstance(domains, Mapping):
            items = list(domains.items())
        else:
            items = [(d, "uncategorised") for d in domains]
        return {domain: self.generate_site(domain, category) for domain, category in items}

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _generate_image_pool(
        self, site: Site, base: URL, profile: SiteProfile
    ) -> list[Resource]:
        rng = self._rng
        pool: list[Resource] = []
        for index in range(profile.image_pool_size):
            if rng.random() < profile.small_image_fraction:
                # Icons, sprites, thumbnails: overwhelmingly under a few KB.
                size = int(min(max(rng.lognormal(mean=6.3, sigma=0.7), 120), 5 * KILOBYTE))
            else:
                # Photos and banners.
                size = int(
                    min(max(rng.lognormal(mean=10.5, sigma=0.9), 5 * KILOBYTE), 900 * KILOBYTE)
                )
            resource = Resource(
                url=base.with_path(f"/static/img/{index}.png"),
                content_type=ContentType.IMAGE,
                size_bytes=size,
                cacheable=rng.random() < profile.cacheable_image_fraction,
                cache_ttl_s=int(rng.integers(600, 7 * 86400)),
            )
            pool.append(site.add(resource))
        return pool

    def _generate_stylesheets(
        self, site: Site, base: URL, profile: SiteProfile
    ) -> list[Resource]:
        rng = self._rng
        if not profile.has_stylesheets:
            return []
        pool: list[Resource] = []
        for index in range(int(rng.integers(1, 6))):
            resource = Resource(
                url=base.with_path(f"/static/css/style{index}.css"),
                content_type=ContentType.STYLESHEET,
                size_bytes=int(rng.integers(1 * KILOBYTE, 80 * KILOBYTE)),
                cacheable=True,
                cache_ttl_s=86400,
            )
            pool.append(site.add(resource))
        return pool

    def _generate_scripts(
        self, site: Site, base: URL, profile: SiteProfile
    ) -> list[Resource]:
        rng = self._rng
        pool: list[Resource] = []
        for index in range(int(rng.integers(1, 8))):
            resource = Resource(
                url=base.with_path(f"/static/js/app{index}.js"),
                content_type=ContentType.SCRIPT,
                size_bytes=int(rng.integers(2 * KILOBYTE, 200 * KILOBYTE)),
                cacheable=True,
                cache_ttl_s=86400,
                nosniff=profile.uses_nosniff,
            )
            pool.append(site.add(resource))
        return pool

    def _generate_pages(
        self,
        site: Site,
        base: URL,
        profile: SiteProfile,
        image_pool: list[Resource],
        stylesheet_pool: list[Resource],
        script_pool: list[Resource],
    ) -> None:
        rng = self._rng
        favicon = site.favicon_url
        for index in range(profile.page_count):
            path = "/" if index == 0 else f"/pages/article-{index}.html"
            text_only = rng.random() < profile.text_only_page_fraction
            if text_only:
                target_weight = int(rng.integers(5 * KILOBYTE, 90 * KILOBYTE))
            else:
                # Spread page weights roughly evenly over 0–2 MB, with a
                # 10% long tail above 2 MB (paper Fig. 5).
                if rng.random() < 0.10:
                    target_weight = int(rng.uniform(2 * MEGABYTE, 8 * MEGABYTE))
                else:
                    target_weight = int(rng.uniform(120 * KILOBYTE, 2 * MEGABYTE))

            html_size = int(rng.integers(4 * KILOBYTE, 70 * KILOBYTE))
            embedded: list[URL] = []
            weight = html_size

            # Browsers fetch the favicon alongside the home page; deeper pages
            # usually find it already cached, so only the home page's HAR
            # records it.
            if favicon is not None and index == 0:
                embedded.append(favicon)

            if stylesheet_pool and not text_only:
                sheet = stylesheet_pool[int(rng.integers(0, len(stylesheet_pool)))]
                embedded.append(sheet.url)
                weight += sheet.size_bytes
            if script_pool and not text_only:
                script = script_pool[int(rng.integers(0, len(script_pool)))]
                embedded.append(script.url)
                weight += script.size_bytes

            if image_pool and not text_only:
                # Fill the page with images until we approach the target
                # weight; this yields "half of pages cache five or more
                # images" once cacheability is applied (Fig. 6).  Candidate
                # images are drawn as a random permutation so each is embedded
                # at most once.
                order = rng.permutation(len(image_pool))
                for pool_index in order:
                    if weight >= target_weight:
                        break
                    image = image_pool[int(pool_index)]
                    embedded.append(image.url)
                    weight += image.size_bytes
                # Heavy pages carry page-specific hero photography beyond the
                # shared pool; this is what pushes page weights toward the
                # paper's 0–2 MB spread (Fig. 5).
                hero_index = 0
                while weight < target_weight and hero_index < 12:
                    hero_size = int(
                        min(max(rng.lognormal(mean=11.8, sigma=0.6), 30 * KILOBYTE), 1500 * KILOBYTE)
                    )
                    hero = Resource(
                        url=base.with_path(f"/static/img/page{index}-hero{hero_index}.jpg"),
                        content_type=ContentType.IMAGE,
                        size_bytes=hero_size,
                        cacheable=rng.random() < profile.cacheable_image_fraction,
                        cache_ttl_s=int(rng.integers(600, 7 * 86400)),
                    )
                    site.add(hero)
                    embedded.append(hero.url)
                    weight += hero.size_bytes
                    hero_index += 1
            elif image_pool and text_only and rng.random() < 0.35:
                image = image_pool[int(rng.integers(0, len(image_pool)))]
                embedded.append(image.url)
                weight += image.size_bytes
            elif not image_pool and not text_only:
                # Image-less sites still ship heavy non-image assets (fonts,
                # bundled data, archives), so their pages contribute to the
                # same 0-2 MB weight spread without affecting image counts.
                asset_index = 0
                while weight < target_weight and asset_index < 12:
                    asset_size = int(
                        min(max(rng.lognormal(mean=11.8, sigma=0.6), 30 * KILOBYTE), 1500 * KILOBYTE)
                    )
                    asset = Resource(
                        url=base.with_path(f"/static/assets/page{index}-asset{asset_index}.bin"),
                        content_type=ContentType.OTHER,
                        size_bytes=asset_size,
                        cacheable=rng.random() < 0.5,
                        cache_ttl_s=int(rng.integers(600, 7 * 86400)),
                    )
                    site.add(asset)
                    embedded.append(asset.url)
                    weight += asset.size_bytes
                    asset_index += 1

            page = Resource(
                url=base.with_path(path),
                content_type=ContentType.HTML,
                size_bytes=html_size,
                cacheable=False,
                has_side_effects=rng.random() < profile.side_effect_url_fraction,
                embedded_urls=tuple(embedded),
            )
            site.add(page)
