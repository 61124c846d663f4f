"""The world model: everything a simulated Encore deployment runs inside.

A :class:`World` wires the substrates together: the synthetic Web (target
sites generated from the high-value list, origin sites, Encore's own
infrastructure domains), the network and DNS, the per-country censors, the
GeoIP database, the client factory, and the crawl-side tools (search engine
and headless browser).  Experiments, examples, and benchmarks all start by
building a ``World`` from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.browser.engine import Browser
from repro.censor.censors import CountryCensorship, build_country_censors
from repro.censor.mechanisms import Censor, FilteringMechanism
from repro.censor.policy import BlacklistPolicy
from repro.datasets.herdict import TargetListEntry, build_high_value_list, online_domains
from repro.netsim.network import Network
from repro.population.clients import Client, ClientFactory
from repro.population.geoip import GeoIPDatabase
from repro.web.headless import HeadlessBrowser
from repro.web.search import SearchEngine
from repro.web.server import WebUniverse
from repro.web.sites import Site, SiteGenerator
from repro.web.url import URL


#: Domains of Encore's own infrastructure.  The adversary of §3.1 may block
#: these to suppress measurement collection, which the robustness experiments
#: exercise.
COORDINATION_DOMAIN = "coordinator.encore-measurement.org"
COLLECTION_DOMAIN = "collector.encore-measurement.org"


@dataclass
class WorldConfig:
    """Parameters controlling world construction."""

    seed: int = 0
    #: How many origin sites host the Encore snippet.  The paper reports at
    #: least 17 volunteer deployments (§7).
    origin_site_count: int = 17
    #: Total / online sizes of the high-value target list (§6.1).
    target_list_total: int = 204
    target_list_online: int = 178
    #: Extra blocked domains per country, merged into the censor presets.
    extra_censored_domains: dict[str, list[str]] = field(default_factory=dict)
    #: Scripted censorship posture currently in force, per country:
    #: ``{country_code: {domain: "block" | "throttle"}}``.  The longitudinal
    #: engine swings this between epochs (and calls
    #: :meth:`World.refresh_timeline_censors`); keeping it in the config —
    #: JSON-serializable — means sharded workers that rebuild the world from
    #: the pickled config enforce the same epoch policy, and the campaign
    #: signature covers it.
    timeline_rules: dict[str, dict[str, str]] = field(default_factory=dict)
    #: Mechanism (by :class:`FilteringMechanism` value) timeline *block*
    #: rules are enforced with; throttle rules always use throttling.
    timeline_block_mechanism: str = "http_block_page"


class World:
    """A fully wired simulation environment."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        self.rng = np.random.default_rng(self.config.seed)

        # --- Target list and the simulated Web ---------------------------
        self.target_entries: list[TargetListEntry] = build_high_value_list(
            total=self.config.target_list_total, online=self.config.target_list_online
        )
        self.universe = WebUniverse()
        generator = SiteGenerator(rng=np.random.default_rng(self.config.seed + 1))
        self.target_sites = generator.generate_universe(online_domains(self.target_entries))
        self.universe.add_sites(self.target_sites.values())

        # --- Encore infrastructure and origin sites -----------------------
        self.origin_domains: list[str] = [
            f"origin-{index:02d}.example.edu" for index in range(self.config.origin_site_count)
        ]
        origin_generator = SiteGenerator(rng=np.random.default_rng(self.config.seed + 2))
        for domain in self.origin_domains:
            self.universe.add_site(origin_generator.generate_site(domain, category="origin"))
        self.universe.add_site(self._infrastructure_site(COORDINATION_DOMAIN))
        self.universe.add_site(self._infrastructure_site(COLLECTION_DOMAIN))

        # --- Network, censors, population ---------------------------------
        self.network = Network(self.universe)
        self.censors: dict[str, CountryCensorship] = build_country_censors(
            self.config.extra_censored_domains
        )
        self.geoip = GeoIPDatabase()
        self.clients = ClientFactory(geoip=self.geoip, rng=np.random.default_rng(self.config.seed + 3))
        if self.config.timeline_rules:
            self.refresh_timeline_censors()

        # --- Crawl-side tools ---------------------------------------------
        self.search = SearchEngine(self.universe, rng=np.random.default_rng(self.config.seed + 4))
        self.headless = HeadlessBrowser(self.universe, rng=np.random.default_rng(self.config.seed + 5))

        #: Interceptors applied to every client regardless of country
        #: (used to attach the §7.1 testbed censors).
        self.global_interceptors: list = []

    # ------------------------------------------------------------------
    @staticmethod
    def _infrastructure_site(domain: str) -> Site:
        """A minimal site for Encore's coordination / collection servers."""
        from repro.web.resources import ContentType, Resource

        site = Site(domain=domain, category="encore_infrastructure")
        base = URL.parse(f"http://{domain}/")
        site.add(
            Resource(
                url=base.with_path("/task.js"),
                content_type=ContentType.SCRIPT,
                size_bytes=2 * 1024,
                cacheable=False,
            )
        )
        site.add(
            Resource(
                url=base.with_path("/submit"),
                content_type=ContentType.JSON,
                size_bytes=64,
                cacheable=False,
            )
        )
        site.add(
            Resource(
                url=base.with_path("/"),
                content_type=ContentType.HTML,
                size_bytes=1024,
            )
        )
        return site

    # ------------------------------------------------------------------
    # Censorship plumbing
    # ------------------------------------------------------------------
    def censorship_for(self, country_code: str) -> CountryCensorship:
        """The censorship apparatus of ``country_code`` (possibly empty)."""
        return self.censors.get(country_code, CountryCensorship(country_code=country_code))

    def interceptors_for(self, client: Client) -> tuple:
        """The interceptors on ``client``'s path: country censors + globals."""
        return self.interceptors_for_country(client.country_code)

    def interceptors_for_country(self, country_code: str) -> tuple:
        """The interceptors on the path of any client in ``country_code``."""
        country = self.censorship_for(country_code)
        return tuple(country.interceptors()) + tuple(self.global_interceptors)

    def add_global_interceptor(self, interceptor) -> None:
        """Attach an interceptor to every client's path (e.g. testbed censors)."""
        self.global_interceptors.append(interceptor)

    #: Name suffixes identifying the censors managed by the timeline rules.
    _TIMELINE_BLOCK_SUFFIX = "-timeline-block"
    _TIMELINE_THROTTLE_SUFFIX = "-timeline-throttle"

    def refresh_timeline_censors(self) -> None:
        """Re-derive the per-country timeline censors from ``config.timeline_rules``.

        Each country with scripted rules carries up to two managed censors
        appended after its presets — one enforcing the hard blocks with
        ``config.timeline_block_mechanism``, one throttling — whose
        blacklists are swapped in place via
        :meth:`BlacklistPolicy.replace_domains`, so the interceptor objects
        stay stable across epochs.  Countries whose rules emptied lose their
        managed censors.  Idempotent: calling it twice with the same config
        changes nothing.
        """
        mechanism = FilteringMechanism(self.config.timeline_block_mechanism)
        suffixes = (self._TIMELINE_BLOCK_SUFFIX, self._TIMELINE_THROTTLE_SUFFIX)
        touched = set(self.config.timeline_rules) | {
            code
            for code, country in self.censors.items()
            if any(censor.name.endswith(suffixes) for censor in country.censors)
        }
        for code in sorted(touched):
            rules = self.config.timeline_rules.get(code, {})
            blocked = sorted(d for d, posture in rules.items() if posture == "block")
            throttled = sorted(d for d, posture in rules.items() if posture == "throttle")
            country = self.censors.get(code)
            if country is None:
                if not (blocked or throttled):
                    continue
                country = CountryCensorship(country_code=code)
                self.censors[code] = country
            managed = {
                censor.name: censor
                for censor in country.censors
                if censor.name.endswith(suffixes)
            }
            country.censors[:] = [
                censor for censor in country.censors if censor.name not in managed
            ]
            for domains, suffix, enforce in (
                (blocked, self._TIMELINE_BLOCK_SUFFIX, mechanism),
                (throttled, self._TIMELINE_THROTTLE_SUFFIX, FilteringMechanism.THROTTLING),
            ):
                if not domains:
                    continue
                name = f"{code.lower()}{suffix}"
                censor = managed.get(name) or Censor(
                    name=name, policy=BlacklistPolicy(), mechanism=enforce
                )
                censor.policy.replace_domains(domains)
                country.censors.append(censor)

    # ------------------------------------------------------------------
    # Client plumbing
    # ------------------------------------------------------------------
    def sample_client(self, country_code: str | None = None) -> Client:
        return self.clients.sample_client(country_code)

    def sample_client_batch(
        self,
        count: int,
        country_code: str | None = None,
        *,
        rng,
        first_id: int,
        host_base: int,
    ):
        """Sample a vectorized :class:`~repro.population.clients.ClientBatch`.

        ``rng``/``first_id``/``host_base`` are the block-keyed sampling
        arguments of :meth:`ClientFactory.sample_batch`: the batch is a pure
        function of the arguments and no world state moves.
        """
        return self.clients.sample_batch(
            count, country_code, rng=rng, first_id=first_id, host_base=host_base
        )

    def make_browser(self, client: Client, now_s: float = 0.0) -> Browser:
        """Build the simulated browser a client uses for its visit."""
        return Browser(
            profile=client.browser,
            link=client.link,
            network=self.network,
            rng=self.rng,
            interceptors=self.interceptors_for(client),
            now_s=now_s,
        )

    # ------------------------------------------------------------------
    # Ground truth helpers for evaluation
    # ------------------------------------------------------------------
    def is_filtered_for(self, url: URL | str, country_code: str) -> bool:
        """Ground truth: is ``url`` filtered for clients in ``country_code``?"""
        parsed = url if isinstance(url, URL) else URL.parse(url)
        if self.censorship_for(country_code).would_filter(parsed):
            return True
        return any(
            interceptor.would_filter(parsed)
            for interceptor in self.global_interceptors
            if hasattr(interceptor, "would_filter")
        )

    @property
    def coordination_url(self) -> URL:
        return URL.parse(f"http://{COORDINATION_DOMAIN}/task.js")

    @property
    def collection_url(self) -> URL:
        return URL.parse(f"http://{COLLECTION_DOMAIN}/submit")
