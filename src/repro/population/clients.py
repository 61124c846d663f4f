"""Clients: the browsers-and-people that perform Encore measurements.

A :class:`Client` bundles everything the rest of the system needs to know
about one visitor: where they are (country, ISP, IP address), what browser
they run, the quality of their access link, how long they dwell on the origin
page, and whether they are in fact automated crawler traffic (the paper's
§6.2 pilot found ~15% of "visits" were a campus security scanner).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.browser.profiles import MARKET_SHARE, BrowserProfile, sample_profile
from repro.datasets.countries import CountryProfile, all_countries, visit_share_distribution
from repro.netsim.latency import LinkQuality
from repro.population.geoip import GeoIPDatabase


@dataclass(frozen=True)
class Client:
    """One visitor of an origin site (a potential measurement vantage point)."""

    client_id: int
    ip_address: str
    country_code: str
    isp: str
    browser: BrowserProfile
    link: LinkQuality
    dwell_time_s: float
    is_automated: bool = False

    @property
    def can_run_task(self) -> bool:
        """Whether this visitor will execute at least one measurement task.

        Automated crawlers do not execute JavaScript (or are filtered out of
        the analysis), and near-instant bounces leave no time for the task
        script to even start; everyone else at least attempts a task (paper
        §6.2: 999 of 1,171 visits attempted one, and nearly all of the rest
        were automated traffic).
        """
        return (not self.is_automated) and self.browser.javascript_enabled and self.dwell_time_s >= 1.0

    @property
    def can_run_multiple_tasks(self) -> bool:
        """Visitors who stay over a minute can run several tasks (paper §6.2)."""
        return self.can_run_task and self.dwell_time_s >= 60.0


@dataclass
class ClientBatch:
    """A vectorized batch of sampled clients.

    Column arrays describe every visitor of a batch at once (what the batched
    campaign runner consumes); :meth:`client` materializes an individual
    :class:`Client` on demand with exactly the same attributes the scalar
    sampling path would have produced from the same draws.
    """

    client_ids: np.ndarray
    country_codes: list[str]
    ip_addresses: list[str]
    isp_indices: np.ndarray
    browser_profiles: list[BrowserProfile]
    browser_indices: np.ndarray
    links: list[LinkQuality]
    link_indices: np.ndarray
    dwell_times_s: np.ndarray
    automated: np.ndarray
    #: Per-visit link parameters, used by the vectorized fetch engine.
    rtt_ms: np.ndarray = field(default=None)
    jitter_ms: np.ndarray = field(default=None)
    loss_rate: np.ndarray = field(default=None)
    bandwidth_kbps: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.rtt_ms is None:
            self.rtt_ms = np.array([l.rtt_ms for l in self.links], dtype=float)[self.link_indices]
            self.jitter_ms = np.array([l.jitter_ms for l in self.links], dtype=float)[self.link_indices]
            self.loss_rate = np.array([l.loss_rate for l in self.links], dtype=float)[self.link_indices]
            self.bandwidth_kbps = np.array(
                [l.bandwidth_kbps for l in self.links], dtype=float
            )[self.link_indices]

    def __len__(self) -> int:
        return len(self.ip_addresses)

    def isp(self, index: int) -> str:
        return f"{self.country_codes[index].lower()}-isp-{self.isp_indices[index]}"

    def browser(self, index: int) -> BrowserProfile:
        return self.browser_profiles[self.browser_indices[index]]

    def client(self, index: int) -> Client:
        return Client(
            client_id=int(self.client_ids[index]),
            ip_address=self.ip_addresses[index],
            country_code=self.country_codes[index],
            isp=self.isp(index),
            browser=self.browser(index),
            link=self.links[self.link_indices[index]],
            dwell_time_s=float(self.dwell_times_s[index]),
            is_automated=bool(self.automated[index]),
        )

    def clients(self) -> list[Client]:
        return [self.client(i) for i in range(len(self))]

    def slice(self, start: int, stop: int) -> "ClientBatch":
        """A view of visitors ``[start, stop)`` as a smaller batch.

        The shared lookup tables (browser profiles, link presets) are reused;
        only the per-visitor columns are sliced, so the campaign runner can
        carve a planning block into batch-sized parts without resampling.
        """
        return ClientBatch(
            client_ids=self.client_ids[start:stop],
            country_codes=self.country_codes[start:stop],
            ip_addresses=self.ip_addresses[start:stop],
            isp_indices=self.isp_indices[start:stop],
            browser_profiles=self.browser_profiles,
            browser_indices=self.browser_indices[start:stop],
            links=self.links,
            link_indices=self.link_indices[start:stop],
            dwell_times_s=self.dwell_times_s[start:stop],
            automated=self.automated[start:stop],
            rtt_ms=self.rtt_ms[start:stop],
            jitter_ms=self.jitter_ms[start:stop],
            loss_rate=self.loss_rate[start:stop],
            bandwidth_kbps=self.bandwidth_kbps[start:stop],
        )


class ClientFactory:
    """Samples clients according to the country / browser / link models."""

    #: Fraction of raw visits that are automated traffic (the paper's pilot
    #: saw 1,171 visits of which 999 ran tasks; most of the rest were a
    #: campus security scanner).
    AUTOMATED_FRACTION = 0.145

    def __init__(
        self,
        geoip: GeoIPDatabase | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.geoip = geoip or GeoIPDatabase()
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._ids = itertools.count(1)
        self._codes, self._shares = visit_share_distribution()
        self._profiles: dict[str, CountryProfile] = {c.code: c for c in all_countries()}
        # --- Lookup tables for vectorized batch sampling -------------------
        self._shares_array = np.asarray(self._shares, dtype=float)
        self._code_index = {code: i for i, code in enumerate(self._codes)}
        self._browser_families = list(MARKET_SHARE)
        browser_shares = np.array([MARKET_SHARE[f] for f in self._browser_families], dtype=float)
        self._browser_shares = browser_shares / browser_shares.sum()
        self._browser_profiles = [BrowserProfile.for_family(f) for f in self._browser_families]
        # Distinct link mixes (there are only a handful across all countries):
        # mix tuple -> (mix id, preset index offsets, cumulative probabilities).
        self._link_presets: list[LinkQuality] = []
        self._mix_ids: dict[tuple, int] = {}
        self._mix_offsets: list[np.ndarray] = []
        self._mix_cdfs: list[np.ndarray] = []
        self._country_mix_id = np.empty(len(self._codes), dtype=np.int64)
        for i, code in enumerate(self._codes):
            mix = self._profiles[code].link_mix
            mix_id = self._mix_ids.get(mix)
            if mix_id is None:
                mix_id = len(self._mix_ids)
                self._mix_ids[mix] = mix_id
                presets = self._profiles[code].link_presets()
                offsets = []
                for preset, _ in presets:
                    offsets.append(len(self._link_presets))
                    self._link_presets.append(preset)
                probs = np.array([p for _, p in presets], dtype=float)
                self._mix_offsets.append(np.asarray(offsets, dtype=np.int64))
                self._mix_cdfs.append(np.cumsum(probs / probs.sum()))
            self._country_mix_id[i] = mix_id

    # ------------------------------------------------------------------
    def _sample_country(self) -> CountryProfile:
        index = int(self._rng.choice(len(self._codes), p=self._shares))
        return self._profiles[self._codes[index]]

    def _sample_link(self, profile: CountryProfile) -> LinkQuality:
        presets = profile.link_presets()
        probs = np.array([p for _, p in presets], dtype=float)
        probs = probs / probs.sum()
        index = int(self._rng.choice(len(presets), p=probs))
        return presets[index][0]

    def _sample_dwell_time_s(self) -> float:
        """Dwell-time distribution matching §6.2: ~45% stay >10 s, ~35% >60 s.

        A three-component mixture: bounce (< 10 s), medium (10–60 s), long
        (> 60 s) with weights 0.55 / 0.10 / 0.35.
        """
        roll = self._rng.random()
        if roll < 0.55:
            return float(self._rng.uniform(0.5, 10.0))
        if roll < 0.65:
            return float(self._rng.uniform(10.0, 60.0))
        return float(self._rng.uniform(60.0, 900.0))

    def _sample_isp(self, profile: CountryProfile) -> str:
        index = int(self._rng.integers(1, 5))
        return f"{profile.code.lower()}-isp-{index}"

    # ------------------------------------------------------------------
    def sample_client(self, country_code: str | None = None) -> Client:
        """Sample one visitor, optionally pinned to a country."""
        profile = self._profiles[country_code] if country_code else self._sample_country()
        return Client(
            client_id=next(self._ids),
            ip_address=self.geoip.allocate_ip(profile.code, self._rng),
            country_code=profile.code,
            isp=self._sample_isp(profile),
            browser=sample_profile(self._rng),
            link=self._sample_link(profile),
            dwell_time_s=self._sample_dwell_time_s(),
            is_automated=bool(self._rng.random() < self.AUTOMATED_FRACTION),
        )

    def sample_clients(self, count: int, country_code: str | None = None) -> list[Client]:
        """Sample ``count`` visitors."""
        return [self.sample_client(country_code) for _ in range(count)]

    # ------------------------------------------------------------------
    def sample_batch(
        self,
        count: int,
        country_code: str | None = None,
        *,
        rng: np.random.Generator,
        first_id: int,
        host_base: int,
    ) -> ClientBatch:
        """Sample ``count`` visitors at once with vectorized draws.

        Field distributions are identical to :meth:`sample_client`'s (same
        country shares, link mixes, dwell mixture, browser market shares, and
        automated-traffic fraction); each field is drawn as one bulk RNG call
        instead of ``count`` scalar calls, which is where the batched
        campaign runner gets most of its sampling speedup.

        The field streams are spawned from ``rng``, client ids are numbered
        from ``first_id``, and IP addresses are taken at the visitors'
        *global visit indices* (``host_base`` onward) inside each country's
        space via :meth:`GeoIPDatabase.ips_at`; together they make the batch
        a pure function of its arguments, with no factory state consumed —
        the property block-keyed and sharded campaigns are built on.
        """
        (country_rng, isp_rng, browser_rng, link_rng,
         roll_rng, span_rng, automated_rng) = rng.spawn(7)
        if country_code is not None:
            country_idx = np.full(count, self._code_index[country_code], dtype=np.int64)
        else:
            country_idx = country_rng.choice(len(self._codes), size=count, p=self._shares_array)
        codes = [self._codes[i] for i in country_idx]

        # IPs: the addresses at the visitors' global visit indices, read
        # without touching shared state.
        ips: list[str | None] = [None] * count
        for code_id in np.unique(country_idx):
            where = np.flatnonzero(country_idx == code_id)
            allocated = self.geoip.ips_at(
                self._codes[code_id], (host_base + where).tolist()
            )
            for position, address in zip(where, allocated):
                ips[position] = address

        isp_idx = isp_rng.integers(1, 5, size=count)
        browser_idx = browser_rng.choice(
            len(self._browser_families), size=count, p=self._browser_shares
        )

        # Link quality: group by link mix and pick within each mix's CDF.
        mix_ids = self._country_mix_id[country_idx]
        link_u = link_rng.random(count)
        link_idx = np.empty(count, dtype=np.int64)
        for mix_id in np.unique(mix_ids):
            where = mix_ids == mix_id
            cdf = self._mix_cdfs[mix_id]
            picks = np.minimum(np.searchsorted(cdf, link_u[where], side="right"), len(cdf) - 1)
            link_idx[where] = self._mix_offsets[mix_id][picks]

        # Dwell times: the same three-component mixture as _sample_dwell_time_s.
        rolls = roll_rng.random(count)
        span_u = span_rng.random(count)
        dwell = np.select(
            [rolls < 0.55, rolls < 0.65],
            [0.5 + span_u * (10.0 - 0.5), 10.0 + span_u * (60.0 - 10.0)],
            default=60.0 + span_u * (900.0 - 60.0),
        )
        automated = automated_rng.random(count) < self.AUTOMATED_FRACTION
        ids = np.arange(first_id, first_id + count, dtype=np.int64)

        return ClientBatch(
            client_ids=ids,
            country_codes=codes,
            ip_addresses=ips,
            isp_indices=isp_idx,
            browser_profiles=self._browser_profiles,
            browser_indices=browser_idx,
            links=self._link_presets,
            link_indices=link_idx,
            dwell_times_s=dwell,
            automated=automated,
        )
