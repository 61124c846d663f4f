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
generated universe is reproducible from a seed.  Which draws the generator
makes, with which arguments and in which order, is a contract: every row,
digest and committed artifact downstream depends on it, and
``tests/web/test_universe_pin.py`` pins the universe it builds.

A :class:`Site` keeps its resources in per-site columns, one row per hosted
URL in insertion order: the URL string, content type, size, cacheability,
TTL, ``nosniff``, the side-effect flag and, for generated pages, the rows the
page embeds.  A :class:`~repro.web.resources.Resource` is built, and cached,
only when something looks its row up, so a crawl that touches a few thousand
of a universe's ~130k resources pays for those alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.web.resources import ContentType, KILOBYTE, MEGABYTE, Resource
from repro.web.url import URL

#: Embedded rows of a resource that embeds nothing.
_NO_ROWS = np.empty(0, dtype=np.int64)


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


class Site:
    """A single Web site: a domain plus the resources it hosts.

    :meth:`add` is the only way to add a resource; ``resources`` is a
    read-only mapping from URL string to :class:`Resource`, in insertion
    order, and ``page_urls`` a read-only sequence.
    """

    def __init__(self, domain: str, category: str = "uncategorised") -> None:
        self.domain = domain
        self.category = category
        # The origin of generated rows, whose URLs are built from their keys.
        self._origin: URL | None = None
        self._prefix = ""
        # One entry per row.  A key is the row's URL string.
        self._keys: list[str] = []
        self._row_of: dict[str, int] = {}
        self._content: list[ContentType] = []
        self._size: list[int] = []
        self._cacheable: list[bool] = []
        self._ttl: list[int] = []
        self._nosniff: list[bool] = []
        self._side_effects: list[bool] = []
        self._embedded: list[np.ndarray] = []
        self._urls: list[URL | None] = []
        self._built: list[Resource | None] = []

    def __repr__(self) -> str:
        return f"Site({self.domain!r}, {self.category!r}, rows={len(self._keys)})"

    def _check_host(self, url: URL) -> None:
        if url.host != self.domain and not url.host.endswith("." + self.domain):
            raise ValueError(f"resource {url} does not belong to domain {self.domain}")

    def add(self, resource: Resource) -> Resource:
        """Register ``resource`` on this site and return it.

        Raises ValueError if its URL lies outside the site's domain or the
        site already hosts that URL.
        """
        self._check_host(resource.url)
        key = str(resource.url)
        if key in self._row_of:
            raise ValueError(f"{self.domain} already hosts {key}")
        self._append(
            [key], [resource.content_type], [resource.size_bytes], [resource.cacheable],
            [resource.cache_ttl_s], nosniff=[resource.nosniff],
            side_effects=[resource.has_side_effects],
        )
        self._urls[-1] = resource.url
        self._built[-1] = resource
        return resource

    def _generate_at(self, origin: URL) -> None:
        """Host generated rows at ``origin``: one host check covers them all."""
        self._check_host(origin)
        self._origin = origin
        self._prefix = str(origin.origin)

    def _extend(self, paths: Sequence[str], *columns, **flags) -> int:
        """Append generated rows, named by path at the site's origin.

        The other columns are :meth:`_append`'s; returns the first row.
        """
        prefix = self._prefix
        return self._append([prefix + path for path in paths], *columns, **flags)

    def _append(
        self,
        keys: Sequence[str],
        content: Sequence[ContentType],
        sizes: Sequence[int],
        cacheable: Sequence[bool],
        ttls: Sequence[int],
        *,
        nosniff: Sequence[bool] | None = None,
        side_effects: Sequence[bool] | None = None,
        embedded: Sequence[np.ndarray] | None = None,
    ) -> int:
        """Append rows; unset flags are False, and ``embedded`` holds the
        rows each page embeds."""
        first, count = len(self._keys), len(keys)
        self._keys.extend(keys)
        self._row_of.update(zip(keys, range(first, first + count)))
        self._content.extend(content)
        self._size.extend(sizes)
        self._cacheable.extend(cacheable)
        self._ttl.extend(ttls)
        self._nosniff.extend(nosniff or [False] * count)
        self._side_effects.extend(side_effects or [False] * count)
        self._embedded.extend(embedded or [_NO_ROWS] * count)
        self._urls.extend([None] * count)
        self._built.extend([None] * count)
        return first

    def _url(self, row: int) -> URL:
        url = self._urls[row]
        if url is None:
            url = self._origin.with_path(self._keys[row][len(self._prefix):])
            self._urls[row] = url
        return url

    def _resource(self, row: int) -> Resource:
        resource = self._built[row]
        if resource is None:
            resource = Resource(
                url=self._url(row),
                content_type=self._content[row],
                size_bytes=self._size[row],
                cacheable=self._cacheable[row],
                cache_ttl_s=self._ttl[row],
                nosniff=self._nosniff[row],
                has_side_effects=self._side_effects[row],
                embedded_urls=tuple(map(self._url, self._embedded[row].tolist())),
            )
            self._built[row] = resource
        return resource

    def lookup(self, url: URL | str) -> Resource | None:
        """Return the resource served at ``url``, or None for a 404."""
        row = self._row_of.get(str(url) if isinstance(url, URL) else url)
        return None if row is None else self._resource(row)

    @property
    def resources(self) -> Mapping[str, Resource]:
        """Every hosted resource by URL string, in insertion order (read-only)."""
        return _Resources(self)

    def _rows_of(self, kind: ContentType) -> list[int]:
        return [row for row, content in enumerate(self._content) if content is kind]

    @property
    def page_urls(self) -> tuple[URL, ...]:
        """The URLs of the site's HTML pages, in insertion order."""
        return tuple(map(self._url, self._rows_of(ContentType.HTML)))

    @property
    def pages(self) -> list[Resource]:
        """All HTML pages hosted on this site."""
        return [self._resource(row) for row in self._rows_of(ContentType.HTML)]

    @property
    def images(self) -> list[Resource]:
        """All images hosted on this site."""
        return [self._resource(row) for row in self._rows_of(ContentType.IMAGE)]

    @property
    def favicon_url(self) -> URL | None:
        """The site's favicon URL, if it hosts one."""
        url = URL.parse(f"http://{self.domain}/favicon.ico")
        return url if str(url) in self._row_of else None

    def images_at_most(self, limit_bytes: int) -> list[Resource]:
        """Images no larger than ``limit_bytes`` (used for Fig. 4)."""
        size = self._size
        return [
            self._resource(row)
            for row in self._rows_of(ContentType.IMAGE)
            if size[row] <= limit_bytes
        ]

    def resolver(self) -> Callable[[URL], Resource | None]:
        """A URL -> Resource resolver restricted to this site."""
        return self.lookup


class _Resources(Mapping[str, Resource]):
    """A read-only view of a site's rows that builds each Resource on access."""

    def __init__(self, site: Site) -> None:
        self._site = site

    def __getitem__(self, key: str) -> Resource:
        return self._site._resource(self._site._row_of[key])

    def __contains__(self, key: object) -> bool:
        return key in self._site._row_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._site._keys)

    def __len__(self) -> int:
        return len(self._site._keys)


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
        site._generate_at(URL.parse(f"http://{domain}/"))

        if profile.has_favicon:
            site._extend(
                ["/favicon.ico"], [ContentType.IMAGE], [int(rng.integers(200, 1000))],
                [True], [86400],
            )

        image_pool = self._generate_image_pool(site, profile)
        stylesheet_pool = self._generate_stylesheets(site, profile)
        script_pool = self._generate_scripts(site, profile)
        self._generate_pages(site, profile, image_pool, stylesheet_pool, script_pool)
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
    # Each pool helper writes its rows in one step and returns the pool as
    # (first row, sizes); the draws stay scalar and in order, because a
    # vector call over a loop's draws yields different values.
    def _generate_image_pool(
        self, site: Site, profile: SiteProfile
    ) -> tuple[int, np.ndarray]:
        random, lognormal, integers = self._rng.random, self._rng.lognormal, self._rng.integers
        count = profile.image_pool_size
        small_fraction = profile.small_image_fraction
        cacheable_fraction = profile.cacheable_image_fraction
        rows = []
        for _ in range(count):
            small = random() < small_fraction
            raw_size = lognormal(6.3, 0.7) if small else lognormal(10.5, 0.9)
            rows.append((small, raw_size, random() < cacheable_fraction, integers(600, 7 * 86400)))
        small, raw_sizes, cacheable, ttls = zip(*rows) if rows else ((),) * 4
        # Icons, sprites and thumbnails are overwhelmingly under a few KB;
        # photos and banners are larger.
        sizes = np.clip(
            raw_sizes,
            np.where(small, 120, 5 * KILOBYTE),
            np.where(small, 5 * KILOBYTE, 900 * KILOBYTE),
        ).astype(np.int64)
        first = site._extend(
            [f"/static/img/{index}.png" for index in range(count)],
            [ContentType.IMAGE] * count,
            sizes.tolist(),
            cacheable,
            np.asarray(ttls, dtype=np.int64).tolist(),
        )
        return first, sizes

    def _generate_stylesheets(self, site: Site, profile: SiteProfile) -> tuple[int, list[int]]:
        rng = self._rng
        if not profile.has_stylesheets:
            return 0, []
        count = int(rng.integers(1, 6))
        sizes = [int(rng.integers(1 * KILOBYTE, 80 * KILOBYTE)) for _ in range(count)]
        first = site._extend(
            [f"/static/css/style{index}.css" for index in range(count)],
            [ContentType.STYLESHEET] * count, sizes, [True] * count, [86400] * count,
        )
        return first, sizes

    def _generate_scripts(self, site: Site, profile: SiteProfile) -> tuple[int, list[int]]:
        rng = self._rng
        count = int(rng.integers(1, 8))
        sizes = [int(rng.integers(2 * KILOBYTE, 200 * KILOBYTE)) for _ in range(count)]
        first = site._extend(
            [f"/static/js/app{index}.js" for index in range(count)],
            [ContentType.SCRIPT] * count, sizes, [True] * count, [86400] * count,
            nosniff=[profile.uses_nosniff] * count,
        )
        return first, sizes

    def _generate_pages(
        self,
        site: Site,
        profile: SiteProfile,
        image_pool: tuple[int, np.ndarray],
        stylesheet_pool: tuple[int, list[int]],
        script_pool: tuple[int, list[int]],
    ) -> None:
        rng = self._rng
        random, integers, uniform, lognormal = rng.random, rng.integers, rng.uniform, rng.lognormal
        image_first, image_sizes = image_pool
        image_count = len(image_sizes)
        sheet_first, sheet_sizes = stylesheet_pool
        script_first, script_sizes = script_pool
        cacheable_fraction = profile.cacheable_image_fraction
        # The rows this loop writes, one (path, content type, size, cacheable,
        # TTL, side effects, embedded rows) tuple each: a page's hero images
        # or assets, then the page itself.
        first = script_first + len(script_sizes)
        rows: list[tuple] = []
        for index in range(profile.page_count):
            path = "/" if index == 0 else f"/pages/article-{index}.html"
            text_only = random() < profile.text_only_page_fraction
            if text_only:
                target_weight = int(integers(5 * KILOBYTE, 90 * KILOBYTE))
            else:
                # Spread page weights roughly evenly over 0–2 MB, with a
                # 10% long tail above 2 MB (paper Fig. 5).
                if random() < 0.10:
                    target_weight = int(uniform(2 * MEGABYTE, 8 * MEGABYTE))
                else:
                    target_weight = int(uniform(120 * KILOBYTE, 2 * MEGABYTE))

            html_size = int(integers(4 * KILOBYTE, 70 * KILOBYTE))
            weight = html_size
            # Browsers fetch the favicon alongside the home page; deeper pages
            # usually find it already cached, so only the home page's HAR
            # records it.
            head = [0] if profile.has_favicon and index == 0 else []
            filled = _NO_ROWS

            if sheet_sizes and not text_only:
                pick = int(integers(0, len(sheet_sizes)))
                head.append(sheet_first + pick)
                weight += sheet_sizes[pick]
            if script_sizes and not text_only:
                pick = int(integers(0, len(script_sizes)))
                head.append(script_first + pick)
                weight += script_sizes[pick]

            extra_first = first + len(rows)
            # Page-specific extras: (path stem, suffix, content type,
            # probability that one is cacheable).
            extras = None
            if image_count and not text_only:
                # Fill the page with images until we approach the target
                # weight; this yields "half of pages cache five or more
                # images" once cacheability is applied (Fig. 6).  Candidate
                # images are drawn as a random permutation so each is embedded
                # at most once: the first images whose running weight
                # reaches the target.
                order = rng.permutation(image_count)
                if weight < target_weight:
                    running = np.cumsum(image_sizes[order])
                    taken = min(
                        int(np.searchsorted(running, target_weight - weight)) + 1, image_count
                    )
                    filled = order[:taken] + image_first
                    weight += int(running[taken - 1])
                # Heavy pages carry page-specific hero photography beyond the
                # shared pool; this is what pushes page weights toward the
                # paper's 0–2 MB spread (Fig. 5).
                extras = (
                    f"/static/img/page{index}-hero", ".jpg", ContentType.IMAGE, cacheable_fraction
                )
            elif image_count and text_only and random() < 0.35:
                head.append(image_first + int(integers(0, image_count)))
            elif not image_count and not text_only:
                # Image-less sites still ship heavy non-image assets (fonts,
                # bundled data, archives), so their pages contribute to the
                # same 0-2 MB weight spread without affecting image counts.
                extras = (f"/static/assets/page{index}-asset", ".bin", ContentType.OTHER, 0.5)
            if extras is not None:
                stem, suffix, kind, cacheable_odds = extras
                extra_index = 0
                while weight < target_weight and extra_index < 12:
                    extra_size = int(
                        min(max(lognormal(11.8, 0.6), 30 * KILOBYTE), 1500 * KILOBYTE)
                    )
                    rows.append((
                        f"{stem}{extra_index}{suffix}", kind, extra_size,
                        random() < cacheable_odds, integers(600, 7 * 86400), False, _NO_ROWS,
                    ))
                    weight += extra_size
                    extra_index += 1

            extras_rows = np.arange(extra_first, first + len(rows))
            rows.append((
                path, ContentType.HTML, html_size, False, 0,
                random() < profile.side_effect_url_fraction,
                np.concatenate((np.asarray(head, dtype=np.int64), filled, extras_rows)),
            ))
        paths, content, sizes, cacheable, ttls, side_effects, embedded = (
            zip(*rows) if rows else ((),) * 7
        )
        site._extend(
            paths, content, sizes, cacheable, np.asarray(ttls, dtype=np.int64).tolist(),
            side_effects=side_effects, embedded=embedded,
        )
