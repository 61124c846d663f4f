"""Robustness against measurement poisoning (paper §8), on the columnar store.

"Attackers may attempt to submit poisoned measurement results to alter the
conclusions that Encore draws about censorship.  We could try to employ
reputation systems to thwart such attacks, although it would be practically
impossible to completely prevent such poisoning from untrusted clients."

This module implements both sides of that sentence so the trade-off can be
studied at campaign scale:

* :class:`PoisoningAttacker` fabricates submissions designed to invent (or
  hide) censorship in a chosen country.  :meth:`PoisoningAttacker.forge_columns`
  is the native path: it emits a
  :class:`~repro.core.collection.ColumnarRecords` payload (dictionary-encoded
  value tables + index arrays) that ingests straight into a
  :class:`~repro.core.store.MeasurementStore` — spilled or resident — with
  zero per-row Python work, and is pinned row-for-row identical to the
  readable :meth:`~PoisoningAttacker.forge_measurements` row builder for a
  fixed rng.
* :class:`ReputationFilter` applies the practical defences a collection
  server actually has — per-client submission rate limits and down-weighting
  of dominant clients whose verdicts contradict their region's peers — as
  columnar group-bys; :meth:`ReputationFilter.apply_store` runs straight on a
  store, and its :class:`StoreReputationReport` re-runs detection over only
  the surviving rows (:meth:`StoreReputationReport.success_counts`) without
  materializing any of them.
* :class:`AdversarySweep` drives attack-budget × identity grids end-to-end on
  the store path: each grid cell's forged corpus is sealed into ``.npz``
  segments plus a JSON manifest (the same seal/manifest/adopt machinery
  :mod:`repro.core.shard` uses for sharded campaigns, optionally fanned out
  across worker processes), merged with the honest store by zero-copy
  segment adoption into a per-cell poisoned store, and scored with the
  binomial detector before and after reputation filtering.  Adoption also
  hands each cell the honest corpus's client identity codes
  (:meth:`~repro.core.store.MeasurementStore.client_codes`), encoded once
  for the whole grid, so a cell's filter encodes only its forged rows.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.collection import CollectionServer, ColumnarRecords, Measurement
from repro.core.inference import BinomialFilteringDetector
from repro.core.query import masked_grouped_success_counts
from repro.core.shard import (
    MANIFEST_NAME,
    StoreMerger,
    available_cpu_count,
    manifest_segments_exist,
    read_manifest,
    segment_row_counts,
    serialize_value_tables,
    write_manifest,
)
from repro.core.store import (
    OUTCOME_FAILURE,
    DictColumn,
    GroupedCounts,
    MeasurementStore,
)
from repro.core.tasks import TaskOutcome, TaskType
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_TRACER
from repro.population.geoip import GeoIPDatabase
from repro.web.url import URL


@dataclass
class PoisoningCampaign:
    """What an attacker wants the data to say."""

    target_domain: str
    country_code: str
    #: ``fabricate_blocking`` floods failure reports to invent censorship;
    #: otherwise the attacker floods success reports to mask real censorship.
    fabricate_blocking: bool = True
    #: How many fake submissions the attacker sends.
    submissions: int = 500
    #: How many distinct client identities (IP addresses) the attacker controls.
    client_identities: int = 10


class PoisoningAttacker:
    """Fabricates measurement submissions and injects them into a collection.

    Both forge paths draw from the same attacker state (rng stream, GeoIP
    identity counters, measurement-id counter) in the same order, so for a
    fixed rng :meth:`forge_columns` is row-for-row identical to
    :meth:`forge_measurements` — an equivalence the tests pin.
    """

    #: First forged measurement-id ordinal (far above any campaign's ids).
    FIRST_FORGED_ID = 10_000_000

    def __init__(self, geoip: GeoIPDatabase | None = None,
                 rng: np.random.Generator | int | None = None) -> None:
        self.geoip = geoip or GeoIPDatabase()
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._next_id = self.FIRST_FORGED_ID

    def _draw(self, campaign: PoisoningCampaign, rng: np.random.Generator | None):
        """The shared per-campaign draws, consumed identically by both paths."""
        rng = rng if rng is not None else self._rng
        n = campaign.submissions
        identities = self.geoip.allocate_ips(
            campaign.country_code, max(1, campaign.client_identities)
        )
        first_id = self._next_id
        self._next_id += n
        ids = np.char.add(
            "forged-", np.arange(first_id, first_id + n, dtype=np.int64).astype(np.str_)
        )
        elapsed = rng.uniform(10.0, 200.0, size=n)
        day = rng.integers(0, 30, size=n)
        outcome = TaskOutcome.FAILURE if campaign.fabricate_blocking else TaskOutcome.SUCCESS
        url = URL.parse(f"http://{campaign.target_domain}/favicon.ico")
        return ids, identities, elapsed, day, outcome, url

    def forge_measurements(
        self, campaign: PoisoningCampaign, *, rng: np.random.Generator | None = None
    ) -> list[Measurement]:
        """The fake measurements for ``campaign``, as materialized rows.

        The readable row-builder reference; :meth:`forge_columns` produces
        the same corpus without constructing any of these objects.
        """
        ids, identities, elapsed, day, outcome, url = self._draw(campaign, rng)
        k = len(identities)
        isp = f"{campaign.country_code.lower()}-attacker"
        return [
            Measurement(
                measurement_id=measurement_id,
                task_type=TaskType.IMAGE,
                target_url=url,
                target_domain=campaign.target_domain,
                outcome=outcome,
                elapsed_ms=elapsed_ms,
                client_ip=identities[index % k],
                country_code=campaign.country_code,
                isp=isp,
                browser_family="chrome",
                origin_domain=None,
                day=day_of_row,
            )
            for index, (measurement_id, elapsed_ms, day_of_row) in enumerate(
                zip(ids.tolist(), elapsed.tolist(), day.tolist())
            )
        ]

    def forge_columns(
        self, campaign: PoisoningCampaign, *, rng: np.random.Generator | None = None
    ) -> ColumnarRecords:
        """The fake submissions for ``campaign`` as a columnar payload.

        Everything repeated travels as a :class:`DictColumn` value table —
        the Sybil identities are the "visits", sharing one index array
        between ``client_ip`` and ``country_code`` exactly like the batch
        executor's payloads — so the corpus ingests into a store (via
        :meth:`ColumnarRecords.append_to` or
        :meth:`CollectionServer.ingest_columns`) with zero per-row Python
        work.
        """
        ids, identities, elapsed, day, outcome, url = self._draw(campaign, rng)
        n = campaign.submissions
        k = len(identities)
        identity_of_row = np.arange(n, dtype=np.int64) % k
        constant = np.zeros(n, dtype=np.int64)
        return ColumnarRecords(
            measurement_id=ids,
            task_type=DictColumn((TaskType.IMAGE,), constant),
            target_url=DictColumn((url,), constant),
            target_domain=DictColumn((campaign.target_domain,), constant),
            outcome=DictColumn((outcome,), constant),
            elapsed_ms=elapsed,
            probe_time_ms=np.full(n, np.nan),
            client_ip=DictColumn(np.asarray(identities, dtype=np.str_), identity_of_row),
            country_code=DictColumn([campaign.country_code] * k, identity_of_row),
            isp=DictColumn((f"{campaign.country_code.lower()}-attacker",), constant),
            browser_family=DictColumn(("chrome",), constant),
            origin_domain=DictColumn((None,), constant),
            day=day,
            is_automated=np.zeros(n, dtype=bool),
        )

    def inject(self, collection: CollectionServer, campaign: PoisoningCampaign) -> int:
        """Forge and ingest ``campaign``'s submissions; returns how many.

        Rides the columnar path end to end: the collection server geolocates
        the Sybil identity table (one lookup per identity, not per row) and
        appends the columns to its store.
        """
        return collection.ingest_columns(self.forge_columns(campaign))


@dataclass
class ReputationReport:
    """What the filter kept, what it dropped, and why."""

    kept: list[Measurement] = field(default_factory=list)
    dropped_rate_limited: int = 0
    dropped_low_reputation: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_rate_limited + self.dropped_low_reputation


@dataclass
class StoreReputationReport:
    """A reputation verdict over a columnar store: a row mask plus drop tallies.

    The store-native sibling of :class:`ReputationReport`: nothing is
    materialized until asked, so filtering a spilled or multi-worker merged
    corpus stays cheap.
    """

    store: MeasurementStore
    keep_mask: np.ndarray
    dropped_rate_limited: int = 0
    dropped_low_reputation: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_rate_limited + self.dropped_low_reputation

    @property
    def kept_indices(self) -> np.ndarray:
        return np.flatnonzero(self.keep_mask)

    def kept_measurements(self) -> list[Measurement]:
        return self.store.rows(self.kept_indices)

    def success_counts(self, exclude_automated: bool = True) -> GroupedCounts:
        """Per-(domain, country) totals over only the kept rows.

        Feed this to ``BinomialFilteringDetector.detect_from_counts`` to
        re-run detection on the filtered corpus — the store-path equivalent
        of detecting over ``report.kept`` — without materializing a row.
        """
        return masked_grouped_success_counts(
            self.store, self.keep_mask, exclude_automated=exclude_automated
        )


class ReputationFilter:
    """Practical defences against poisoned submissions.

    Two mechanisms, both of which a real collection server can apply without
    trusting clients:

    * **Rate limiting** — a single client IP contributing far more
      submissions per (domain, country) than its peers is capped at
      ``max_submissions_per_client``; an attacker must therefore control many
      addresses to move the aggregate.
    * **Minority down-weighting** — if a client's verdicts for a (domain,
      country) pair disagree with the verdict of the majority of *other
      clients* in that pair by more than the pair's disagreement threshold
      and that client contributes more than ``suspicious_share`` of the
      pair's submissions, the client's submissions are dropped.  Honest
      regional censorship is unaffected because there the majority of
      clients agree.

    The disagreement threshold is per-country via the
    :meth:`_country_thresholds` hook — the filter-side mirror of the
    detector's ``_cell_priors`` — which the base class pins to the constant
    ``disagreement_threshold`` and :class:`AdaptiveReputationFilter` derives
    from each country's background failure rate.
    """

    def __init__(self, max_submissions_per_client: int = 10,
                 suspicious_share: float = 0.2,
                 disagreement_threshold: float = 0.5) -> None:
        if max_submissions_per_client < 1:
            raise ValueError("max_submissions_per_client must be positive")
        if not 0.0 < suspicious_share <= 1.0:
            raise ValueError("suspicious_share must be in (0, 1]")
        if not 0.0 < disagreement_threshold <= 1.0:
            raise ValueError("disagreement_threshold must be in (0, 1]")
        self.max_submissions_per_client = max_submissions_per_client
        self.suspicious_share = suspicious_share
        self.disagreement_threshold = disagreement_threshold

    # ------------------------------------------------------------------
    def _country_thresholds(
        self, country_rows: np.ndarray, country_fails: np.ndarray
    ) -> np.ndarray:
        """Per-country disagreement thresholds; the adaptive subclass overrides.

        ``country_rows``/``country_fails`` are the corpus's per-country
        submission and failure tallies, in country-code order; the base
        filter ignores them and applies one constant.
        """
        return np.full(len(country_rows), self.disagreement_threshold)

    # ------------------------------------------------------------------
    def apply(self, measurements: list[Measurement]) -> ReputationReport:
        """Filter ``measurements`` and report what was kept and dropped.

        Implemented as columnar group-bys over (domain, country, client)
        keys — identical verdicts to the readable per-row
        :meth:`apply_reference` walk (an equivalence the tests pin), at
        array speed.
        """
        if not measurements:
            return ReputationReport()
        _, domain = np.unique(
            np.asarray([m.target_domain for m in measurements], dtype=np.str_),
            return_inverse=True,
        )
        countries, country = np.unique(
            np.asarray([m.country_code for m in measurements], dtype=np.str_),
            return_inverse=True,
        )
        _, ip = np.unique(
            np.asarray([m.client_ip for m in measurements], dtype=np.str_),
            return_inverse=True,
        )
        failed = np.asarray([m.failed for m in measurements], dtype=bool)
        pair = domain.astype(np.int64) * len(countries) + country
        keep, dropped_rate, dropped_rep = self._columnar_verdict(
            pair, ip, failed, len(countries),
            self._threshold_table(country, failed, len(countries)),
        )
        return ReputationReport(
            kept=[m for m, kept in zip(measurements, keep.tolist()) if kept],
            dropped_rate_limited=dropped_rate,
            dropped_low_reputation=dropped_rep,
        )

    def apply_store(
        self, collection: "MeasurementStore | CollectionServer"
    ) -> StoreReputationReport:
        """Judge every row of a columnar store (or a collection server).

        Runs the same group-by verdict straight over the store's
        dictionary-code columns and its cached
        :meth:`~repro.core.store.MeasurementStore.client_codes` — no
        :class:`Measurement` is ever built, so this is the natural path for
        spilled or multi-worker merged corpora.  The store is left as it
        is: the verdict is a keep mask plus drop tallies.
        """
        store = collection.store if isinstance(collection, CollectionServer) else collection
        if len(store) == 0:
            return StoreReputationReport(store, np.zeros(0, dtype=bool))
        domain = store.column("domain").astype(np.int64)
        country = store.column("country").astype(np.int64)
        ip = store.client_codes()
        failed = store.column("outcome") == OUTCOME_FAILURE
        n_countries = int(country.max()) + 1
        pair = domain * n_countries + country
        keep, dropped_rate, dropped_rep = self._columnar_verdict(
            pair, ip, failed, n_countries,
            self._threshold_table(country, failed, n_countries),
        )
        return StoreReputationReport(
            store=store,
            keep_mask=keep,
            dropped_rate_limited=dropped_rate,
            dropped_low_reputation=dropped_rep,
        )

    def _threshold_table(
        self, country: np.ndarray, failed: np.ndarray, n_countries: int
    ) -> np.ndarray:
        """Per-country-code disagreement thresholds for this corpus."""
        rows = np.bincount(country, minlength=n_countries)
        fails = np.bincount(country[failed], minlength=n_countries)
        return np.asarray(
            self._country_thresholds(rows, fails), dtype=np.float64
        )

    def _columnar_verdict(
        self, pair: np.ndarray, ip: np.ndarray, failed: np.ndarray,
        n_countries: int, thresholds: np.ndarray,
    ) -> tuple[np.ndarray, int, int]:
        """(keep mask, rate-limited drops, reputation drops) for coded rows.

        ``pair`` encodes (domain, country) and ``ip`` the client identity as
        integer codes (``pair % n_countries`` recovers the country, which
        selects each pair's disagreement threshold from ``thresholds``);
        both passes of the reference walk become grouped reductions over a
        combined ``pair * n_clients + ip`` key.
        """
        n = len(pair)
        n_ips = int(ip.max()) + 1
        key = pair * n_ips + ip

        # Pass 1: per-client rate limiting = "keep each key's first
        # ``max_submissions_per_client`` occurrences, in arrival order".
        # A stable sort groups the keys without losing arrival order, so the
        # occurrence rank is the position within the sorted run.
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        run_starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        run_lengths = np.diff(np.r_[run_starts, n])
        occurrence = np.empty(n, dtype=np.int64)
        occurrence[order] = np.arange(n) - np.repeat(run_starts, run_lengths)
        keep = occurrence < self.max_submissions_per_client
        dropped_rate = int(n - np.count_nonzero(keep))

        # Pass 2 over the rate-limited survivors: per (pair, client) counts,
        # per-pair medians, dominance, and the minority-verdict test.
        survivors = np.flatnonzero(keep)
        triple_keys, triple_of_row, triple_rows = np.unique(
            key[survivors], return_inverse=True, return_counts=True
        )
        pair_of_triple = triple_keys // n_ips
        unique_pairs, pair_of = np.unique(pair_of_triple, return_inverse=True)
        pair_thresholds = thresholds[unique_pairs % n_countries]
        n_pairs = pair_of.max() + 1 if len(pair_of) else 0
        clients_per_pair = np.bincount(pair_of, minlength=n_pairs)
        rows_per_pair = np.bincount(
            pair_of, weights=triple_rows, minlength=n_pairs
        ).astype(np.int64)

        # Median client volume per pair: sort the per-client counts within
        # each pair and take the element at ``len // 2``, exactly like the
        # reference's ``counts[len(counts) // 2]``.
        by_pair_then_count = np.lexsort((triple_rows, pair_of))
        pair_starts = np.r_[0, np.cumsum(clients_per_pair)[:-1]]
        median_rows = triple_rows[by_pair_then_count][
            pair_starts + clients_per_pair // 2
        ]

        dominant = (
            triple_rows / rows_per_pair[pair_of] > self.suspicious_share
        ) | (triple_rows > np.maximum(3, 5 * median_rows[pair_of]))

        fails_per_triple = np.bincount(
            triple_of_row, weights=failed[survivors]
        ).astype(np.int64)
        baseline_rows = np.bincount(
            pair_of, weights=np.where(dominant, 0, triple_rows), minlength=n_pairs
        ).astype(np.int64)
        baseline_fails = np.bincount(
            pair_of, weights=np.where(dominant, 0, fails_per_triple), minlength=n_pairs
        ).astype(np.int64)
        baseline_rate = np.divide(
            baseline_fails,
            baseline_rows,
            out=np.zeros(n_pairs, dtype=np.float64),
            where=baseline_rows > 0,
        )
        own_rate = fails_per_triple / triple_rows
        suspicious = (
            dominant
            & (clients_per_pair[pair_of] >= 2)
            & (baseline_rows[pair_of] > 0)
            & (np.abs(own_rate - baseline_rate[pair_of]) > pair_thresholds[pair_of])
        )
        dropped_rows = suspicious[triple_of_row]
        keep[survivors[dropped_rows]] = False
        return keep, dropped_rate, int(np.count_nonzero(dropped_rows))

    # ------------------------------------------------------------------
    def apply_reference(self, measurements: list[Measurement]) -> ReputationReport:
        """The readable per-row reference implementation of :meth:`apply`.

        Kept verbatim from the original filter (the 0.5 constant became the
        per-country threshold lookup when the adaptive hook landed): the
        equivalence tests pin that the columnar verdict matches this walk
        row for row.
        """
        report = ReputationReport()
        thresholds = self.country_thresholds(measurements)

        # Pass 1: per-client rate limiting within each (domain, country) pair.
        per_client_counts: Counter = Counter()
        rate_limited: list[Measurement] = []
        for m in measurements:
            key = (m.target_domain, m.country_code, m.client_ip)
            per_client_counts[key] += 1
            if per_client_counts[key] > self.max_submissions_per_client:
                report.dropped_rate_limited += 1
            else:
                rate_limited.append(m)

        # Pass 2: drop dominant clients whose verdicts contradict their peers.
        by_pair: dict[tuple[str, str], list[Measurement]] = defaultdict(list)
        for m in rate_limited:
            by_pair[(m.target_domain, m.country_code)].append(m)

        suspicious_clients: set[tuple[str, str, str]] = set()
        for (domain, country), pair_measurements in by_pair.items():
            total = len(pair_measurements)
            by_client: dict[str, list[Measurement]] = defaultdict(list)
            for m in pair_measurements:
                by_client[m.client_ip].append(m)
            if len(by_client) < 2:
                continue
            counts = sorted(len(own) for own in by_client.values())
            median_count = counts[len(counts) // 2]

            # A client is "dominant" if it supplies an outsized share of the
            # pair's submissions, either relative to the pair total or
            # relative to what a typical client contributes.  The honest
            # baseline is formed from the *non-dominant* clients so that a
            # flood of Sybil identities cannot vote itself into the majority.
            def is_dominant(own: list[Measurement]) -> bool:
                return (
                    len(own) / total > self.suspicious_share
                    or len(own) > max(3, 5 * median_count)
                )

            baseline = [
                m
                for client_ip, own in by_client.items()
                if not is_dominant(own)
                for m in own
            ]
            if not baseline:
                continue
            baseline_failure_rate = sum(1 for m in baseline if m.failed) / len(baseline)
            for client_ip, own in by_client.items():
                if not is_dominant(own):
                    continue
                own_failure_rate = sum(1 for m in own if m.failed) / len(own)
                if abs(own_failure_rate - baseline_failure_rate) > thresholds[country]:
                    suspicious_clients.add((domain, country, client_ip))

        for m in rate_limited:
            if (m.target_domain, m.country_code, m.client_ip) in suspicious_clients:
                report.dropped_low_reputation += 1
            else:
                report.kept.append(m)
        return report

    def country_thresholds(self, measurements: list[Measurement]) -> dict[str, float]:
        """The per-country disagreement thresholds this corpus would get.

        The row-level view of the :meth:`_country_thresholds` hook, used by
        the reference walk (and handy for inspecting what the adaptive
        subclass decided); per-country values are identical to what the
        columnar verdict applies.
        """
        codes = sorted({m.country_code for m in measurements})
        if not codes:
            return {}
        index = {code: i for i, code in enumerate(codes)}
        rows = np.zeros(len(codes), dtype=np.int64)
        fails = np.zeros(len(codes), dtype=np.int64)
        for m in measurements:
            i = index[m.country_code]
            rows[i] += 1
            if m.failed:
                fails[i] += 1
        thresholds = np.asarray(self._country_thresholds(rows, fails), dtype=np.float64)
        return dict(zip(codes, thresholds.tolist()))

    def filtered_measurements(self, measurements: list[Measurement]) -> list[Measurement]:
        """Just the measurements that survive filtering."""
        return self.apply(measurements).kept


class AdaptiveReputationFilter(ReputationFilter):
    """Per-country disagreement thresholds (ROADMAP follow-up to §8 defences).

    The fixed filter judges a dominant client "contradictory" when its
    failure rate strays more than 0.5 from its peers' — conservative in
    pristine countries and trigger-happy in countries whose networks fail a
    lot on their own (where honest heavy contributors naturally scatter).
    Mirroring :class:`~repro.core.inference.AdaptiveFilteringDetector`'s
    ``_cell_priors`` hook, this subclass derives each country's threshold
    from its background failure rate: ``clamp(margin + failure_rate,
    min_threshold, max_threshold)`` — the flakier the country's baseline,
    the more disagreement a dominant client is allowed before being
    dropped.  Countries with no submissions get ``min_threshold``.
    """

    def __init__(
        self,
        max_submissions_per_client: int = 10,
        suspicious_share: float = 0.2,
        min_threshold: float = 0.5,
        max_threshold: float = 0.85,
        margin: float = 0.45,
    ) -> None:
        super().__init__(
            max_submissions_per_client=max_submissions_per_client,
            suspicious_share=suspicious_share,
            disagreement_threshold=min_threshold,
        )
        if not 0.0 < min_threshold <= max_threshold <= 1.0:
            raise ValueError("need 0 < min_threshold <= max_threshold <= 1")
        if not 0.0 < margin < 1.0:
            raise ValueError("margin must be in (0, 1)")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.margin = margin

    def _country_thresholds(
        self, country_rows: np.ndarray, country_fails: np.ndarray
    ) -> np.ndarray:
        failure_rate = np.divide(
            country_fails,
            country_rows,
            out=np.zeros(len(country_rows), dtype=np.float64),
            where=country_rows > 0,
        )
        return np.clip(self.margin + failure_rate, self.min_threshold, self.max_threshold)


# ----------------------------------------------------------------------
# Attack-budget sweeps on the store path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One grid cell's verdicts: an attack budget and what the defences saw."""

    submissions: int
    identities: int
    #: Rows the attacker actually forged (== ``submissions``).
    forged: int
    #: Rows in the cell's poisoned store (honest corpus + forged).
    poisoned_rows: int
    #: (domain, country) pairs the undefended detector flags.
    naive_pairs: frozenset[tuple[str, str]]
    #: (domain, country) pairs still flagged after reputation filtering.
    defended_pairs: frozenset[tuple[str, str]]
    dropped_rate_limited: int
    dropped_low_reputation: int
    #: The detection the attacker tried to fabricate (or mask).
    target_pair: tuple[str, str]
    #: The attack's direction: ``True`` floods failures to *invent* the
    #: target detection, ``False`` floods successes to *mask* a real one.
    fabricate_blocking: bool = True

    @property
    def naive_fooled(self) -> bool:
        """Whether the undefended detector flags the fabricated target pair."""
        return self.target_pair in self.naive_pairs

    @property
    def defended_fooled(self) -> bool:
        """Whether the fabricated pair survives reputation filtering."""
        return self.target_pair in self.defended_pairs

    @property
    def naive_masked(self) -> bool:
        """Whether the undefended detector lost the (real) target detection."""
        return self.target_pair not in self.naive_pairs

    @property
    def defended_masked(self) -> bool:
        """Whether the target detection stays lost after reputation filtering."""
        return self.target_pair not in self.defended_pairs

    @property
    def attack_succeeded_naive(self) -> bool:
        """Did the attack achieve its goal against the undefended detector?"""
        return self.naive_fooled if self.fabricate_blocking else self.naive_masked

    @property
    def attack_succeeded_defended(self) -> bool:
        """Did the attack achieve its goal despite reputation filtering?"""
        return self.defended_fooled if self.fabricate_blocking else self.defended_masked

    def detections_survive(self, expected) -> bool:
        """Whether every expected real detection is still flagged after filtering."""
        return set(expected) <= set(self.defended_pairs)


def _forge_cell(payload: dict) -> str:
    """Worker entrypoint: forge one cell's corpus, seal it, commit a manifest.

    The forged columns ingest into a cell-private store that spills one or
    more ``.npz`` segments under the cell directory; the manifest — segment
    paths, value tables, counters — is written last via an atomic rename,
    exactly like a campaign shard's, and only its path crosses the process
    boundary.
    """
    campaign = PoisoningCampaign(
        target_domain=payload["target_domain"],
        country_code=payload["country_code"],
        fabricate_blocking=payload["fabricate_blocking"],
        submissions=payload["submissions"],
        client_identities=payload["identities"],
    )
    attacker = PoisoningAttacker(rng=np.random.default_rng(payload["entropy"]))
    cell_dir = Path(payload["cell_dir"])
    if cell_dir.exists():
        # No valid manifest means whatever sits here is a dead attempt's
        # partial output; clear it rather than adopting orphaned segments.
        shutil.rmtree(cell_dir)
    cell_dir.mkdir(parents=True, exist_ok=True)
    store = MeasurementStore(spill_dir=cell_dir)
    attacker.forge_columns(campaign).append_to(store)
    store.spill()
    manifest = {
        "signature": payload["signature"],
        "shard_index": payload["cell"],
        "blocks": [
            {
                "block": 0,
                "rows": len(store),
                "segments": [
                    {"path": str(path), "rows": rows}
                    for path, rows in segment_row_counts(store.segment_files, len(store))
                ],
            }
        ],
        "value_tables": serialize_value_tables(store.value_tables()),
        "counters": {"stored": len(store)},
    }
    return str(write_manifest(cell_dir, manifest))


class AdversarySweep:
    """Attack-budget × identity grids, end-to-end on the columnar store path.

    For each ``(submissions, identities)`` budget the sweep forges a
    poisoning corpus (deterministically from ``(seed, cell index)``), seals
    it into spilled segments plus a manifest with the same machinery shard
    workers use, builds a per-cell poisoned store by **segment adoption** —
    the honest store's segments are shared zero-copy, the forged segments
    merged through a :class:`~repro.core.shard.StoreMerger` — and scores the
    cell: what the binomial detector flags on the raw poisoned store, and
    what it still flags after :meth:`ReputationFilter.apply_store`.  No
    :class:`Measurement` row is ever materialized.

    ``fabricate_blocking=False`` runs the *masking* direction of §8: each
    budget floods success reports over a real detection (point
    ``target_domain``/``country_code`` at a pair the honest campaign
    detects), and :attr:`SweepCell.naive_masked` /
    :attr:`SweepCell.defended_masked` answer whether the detection
    disappeared — before and after reputation filtering.

    ``executor="process"`` fans the forging out over worker processes (one
    per pending cell, capped at the CPU count); ``"inline"`` runs them
    sequentially in-process — same results, used by tests and 1-core hosts.
    With a persistent ``spill_dir``, re-running the sweep adopts cells whose
    manifest already matches instead of re-forging them (the same
    cache-or-recompute contract as sharded campaign resume).
    """

    def __init__(
        self,
        detector: BinomialFilteringDetector | None = None,
        reputation: ReputationFilter | None = None,
        *,
        fabricate_blocking: bool = True,
        executor: str = "process",
        num_workers: int | None = None,
        spill_dir: str | Path | None = None,
        seed: int = 0,
        tracer=None,
    ) -> None:
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown sweep executor {executor!r}")
        self.detector = detector if detector is not None else BinomialFilteringDetector()
        self.reputation = reputation if reputation is not None else ReputationFilter()
        self.fabricate_blocking = fabricate_blocking
        self.executor = executor
        self.num_workers = num_workers
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    def run(
        self,
        collection: MeasurementStore | CollectionServer,
        target_domain: str,
        country_code: str,
        budgets: Sequence[tuple[int, int]],
    ) -> list[SweepCell]:
        """Score every ``(submissions, identities)`` budget against ``collection``."""
        store = collection.store if isinstance(collection, CollectionServer) else collection
        budgets = [(int(submissions), int(identities)) for submissions, identities in budgets]
        temporary = self.spill_dir is None
        root = (
            Path(tempfile.mkdtemp(prefix="adversary-sweep-")) if temporary else self.spill_dir
        )
        root.mkdir(parents=True, exist_ok=True)
        try:
            with self.tracer.span(
                "sweep", cells=len(budgets), target=target_domain
            ):
                manifests, payloads = self._plan_cells(
                    root, target_domain, country_code, budgets
                )
                if payloads:
                    with self.tracer.span("forge", cells=len(payloads)):
                        self._forge_pending(manifests, payloads)
                    get_registry().counter("sweep.cells_forged").add(len(payloads))
                cells = []
                for index, (submissions, identities) in enumerate(budgets):
                    with self.tracer.span(
                        "score",
                        cell=index,
                        submissions=submissions,
                        identities=identities,
                        resumed=index not in payloads,
                    ):
                        cells.append(
                            self._score_cell(
                                store, manifests[index], submissions, identities,
                                (target_domain, country_code),
                            )
                        )
                return cells
        finally:
            if temporary:
                # Verdicts only leave this method — the per-cell stores (and
                # with them the forged segments) are never needed again.
                shutil.rmtree(root, ignore_errors=True)

    # ------------------------------------------------------------------
    def _plan_cells(self, root, target_domain, country_code, budgets):
        """Split the grid into already-forged manifests and pending payloads."""
        manifests: dict[int, dict] = {}
        payloads: dict[int, dict] = {}
        for index, (submissions, identities) in enumerate(budgets):
            signature = {
                "kind": "adversary-sweep",
                "target_domain": target_domain,
                "country_code": country_code,
                "fabricate_blocking": self.fabricate_blocking,
                "submissions": submissions,
                "identities": identities,
                "seed": self.seed,
                "cell": index,
            }
            cell_dir = root / f"cell-{index:03d}-s{submissions}-k{identities}"
            manifest = read_manifest(cell_dir / MANIFEST_NAME)
            if (
                manifest is not None
                and manifest.get("signature") == signature
                and manifest_segments_exist(manifest)
            ):
                manifests[index] = manifest
            else:
                payloads[index] = {
                    "cell": index,
                    "cell_dir": str(cell_dir),
                    "signature": signature,
                    "target_domain": target_domain,
                    "country_code": country_code,
                    "fabricate_blocking": self.fabricate_blocking,
                    "submissions": submissions,
                    "identities": identities,
                    "entropy": [self.seed, index],
                }
        return manifests, payloads

    def _forge_pending(self, manifests: dict[int, dict], payloads: dict[int, dict]) -> None:
        """Forge the cells with no adoptable manifest, inline or fanned out."""
        if self.executor == "inline":
            for index, payload in payloads.items():
                with self.tracer.span("forge.cell", cell=index):
                    manifests[index] = self._committed_manifest(_forge_cell(payload))
            return
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        workers = (
            self.num_workers
            if self.num_workers is not None
            else min(len(payloads), available_cpu_count())
        )
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = {
                pool.submit(_forge_cell, payload): index
                for index, payload in payloads.items()
            }
            for future in as_completed(futures):
                manifests[futures[future]] = self._committed_manifest(future.result())

    @staticmethod
    def _committed_manifest(path: str) -> dict:
        manifest = read_manifest(path)
        if manifest is None:
            raise RuntimeError(f"forge worker committed no readable manifest at {path}")
        return manifest

    def _score_cell(
        self,
        honest: MeasurementStore,
        manifest: dict,
        submissions: int,
        identities: int,
        target_pair: tuple[str, str],
    ) -> SweepCell:
        """Merge one cell's poisoned store and run both detection passes."""
        poisoned = MeasurementStore()
        poisoned.adopt_segments_from(honest)
        StoreMerger(poisoned).merge([manifest])
        naive = self.detector.detect(poisoned).detected_pairs()
        verdict = self.reputation.apply_store(poisoned)
        defended = self.detector.detect_from_counts(
            verdict.success_counts()
        ).detected_pairs()
        return SweepCell(
            submissions=submissions,
            identities=identities,
            forged=int(manifest["counters"]["stored"]),
            poisoned_rows=len(poisoned),
            naive_pairs=frozenset(naive),
            defended_pairs=frozenset(defended),
            dropped_rate_limited=verdict.dropped_rate_limited,
            dropped_low_reputation=verdict.dropped_low_reputation,
            target_pair=target_pair,
            fabricate_blocking=self.fabricate_blocking,
        )
