"""Filtering detection: the binomial hypothesis test of §7.2.

Individual measurement failures are weak evidence — clients suffer transient
connectivity problems, browsers misbehave, sites go offline.  The paper
therefore models each measurement's success as a Bernoulli trial with
parameter ``p = 0.7`` (in the absence of filtering, clients should succeed at
least 70% of the time) and, for each resource and region, runs a one-sided
binomial test: the resource is considered filtered in region ``r`` if the
observed success count is improbably low at significance 0.05 — *and* the
same test does not fail in other regions, which rules out the resource simply
being down for everyone.

The detector consumes the query kernel's per-(domain, country)
:class:`~repro.core.query.QueryResult` (what ``grouped_success_counts``
returns) and evaluates the binomial lower tail for *every* cell in one
vectorized, SciPy-free pass over a ragged term matrix; a plain
``{(domain, country): (n, s)}`` dict is accepted everywhere too.

The two longitudinal detectors below each compute their own per-day
statistic over a :class:`~repro.core.store.DaySeries` and hand its
increments to one online CUSUM walk, :func:`_cusum_scan`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.collection import CollectionServer
from repro.core.query import QueryResult, grouped_success_counts
from repro.core.store import DaySeries, MeasurementStore
from repro.obs.metrics import get_registry


def binomial_cdf(successes: int, trials: int, p: float) -> float:
    """P[Binomial(trials, p) <= successes], computed in log space.

    Exact summation is cheap for the trial counts Encore sees (hundreds to a
    few thousand per region) and avoids a SciPy dependency in the core
    library.  This is the scalar reference; :func:`binomial_cdf_cells`
    evaluates many cells at once from the same log-factorial table.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if successes < 0:
        return 0.0
    if successes >= trials:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    log_fact = _log_factorials(trials)
    log_n_fact = float(log_fact[trials])
    total = 0.0
    for k in range(successes + 1):
        log_term = (
            log_n_fact
            - float(log_fact[k])
            - float(log_fact[trials - k])
            + k * log_p
            + (trials - k) * log_q
        )
        total += math.exp(log_term)
    return min(1.0, total)


#: Cached ``log(i!)`` table (``_LOG_FACTORIALS[i] == lgamma(i + 1)``), grown
#: geometrically so repeated detections share one table.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(max_n: int) -> np.ndarray:
    global _LOG_FACTORIALS
    if len(_LOG_FACTORIALS) <= max_n:
        size = max(max_n + 1, 2 * len(_LOG_FACTORIALS))
        old = _LOG_FACTORIALS
        # Extend the cached prefix instead of rebuilding the whole table:
        # log(i!) = log((m-1)!) + sum(log m .. log i), accumulated in
        # extended precision so the running sum stays within ~1 ulp of
        # math.lgamma however far the table grows.
        increments = np.log(np.arange(len(old), size, dtype=np.longdouble))
        extension = np.longdouble(old[-1]) + np.cumsum(increments)
        _LOG_FACTORIALS = np.concatenate([old, extension.astype(np.float64)])
    return _LOG_FACTORIALS


def binomial_cdf_cells(successes, trials, p) -> np.ndarray:
    """Vectorized :func:`binomial_cdf` over many (successes, trials, p) cells.

    Builds one ragged term vector — cell ``i`` contributes ``successes[i]+1``
    log-space terms — and reduces it with a single ``np.add.reduceat``, so
    the whole detection table is evaluated in one pass without SciPy.
    """
    s = np.asarray(successes, dtype=np.int64)
    n = np.asarray(trials, dtype=np.int64)
    p = np.broadcast_to(np.asarray(p, dtype=np.float64), s.shape)
    if np.any(n < 0):
        raise ValueError("trials must be non-negative")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p must be in [0, 1]")
    out = np.ones(len(s), dtype=np.float64)
    out[s < 0] = 0.0
    out[(p == 1.0) & (s < n)] = 0.0
    interior = (s >= 0) & (s < n) & (p > 0.0) & (p < 1.0)
    cells = np.flatnonzero(interior)
    if len(cells) == 0:
        return out
    si, ni, pi = s[cells], n[cells], p[cells]
    terms_per_cell = si + 1
    offsets = np.concatenate(([0], np.cumsum(terms_per_cell)[:-1]))
    total_terms = int(terms_per_cell.sum())
    cell_of_term = np.repeat(np.arange(len(cells)), terms_per_cell)
    k = np.arange(total_terms) - offsets[cell_of_term]
    log_fact = _log_factorials(int(ni.max()))
    log_p = np.log(pi)
    log_q = np.log1p(-pi)
    n_of_term = ni[cell_of_term]
    terms = np.exp(
        log_fact[n_of_term]
        - log_fact[k]
        - log_fact[n_of_term - k]
        + k * log_p[cell_of_term]
        + (n_of_term - k) * log_q[cell_of_term]
    )
    out[cells] = np.minimum(1.0, np.add.reduceat(terms, offsets))
    return out


@dataclass(frozen=True)
class RegionStatistics:
    """Per-(domain, region) measurement counts and the test's p-value."""

    domain: str
    country_code: str
    measurements: int
    successes: int
    p_value: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.measurements if self.measurements else 0.0


@dataclass(frozen=True)
class FilteringDetection:
    """A resource the detector considers filtered in a region."""

    domain: str
    country_code: str
    measurements: int
    successes: int
    p_value: float
    corroborating_regions: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.measurements if self.measurements else 0.0


@dataclass
class DetectionReport:
    """All region statistics plus the detections they support."""

    statistics: list[RegionStatistics] = field(default_factory=list)
    detections: list[FilteringDetection] = field(default_factory=list)

    def detected(self, domain: str, country_code: str) -> bool:
        return any(
            d.domain == domain and d.country_code == country_code for d in self.detections
        )

    def detections_for_domain(self, domain: str) -> list[FilteringDetection]:
        return [d for d in self.detections if d.domain == domain]

    def detected_pairs(self) -> set[tuple[str, str]]:
        return {(d.domain, d.country_code) for d in self.detections}


def _cells(counts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(domains, countries, totals, successes)`` sorted by (domain, country).

    ``counts`` is a success-count :class:`QueryResult` or a
    ``{(domain, country): (n, successes)}`` mapping.
    """
    if isinstance(counts, QueryResult):
        return (
            counts.key("domain"), counts.key("country"),
            counts.value("count"), counts.value("success_count"),
        )
    rows = sorted((d, c, n, s) for (d, c), (n, s) in counts.items())
    domains, countries, totals, successes = zip(*rows) if rows else ((),) * 4
    return (
        np.asarray(domains, dtype=np.str_), np.asarray(countries, dtype=np.str_),
        np.asarray(totals, dtype=np.int64), np.asarray(successes, dtype=np.int64),
    )


class BinomialFilteringDetector:
    """The detection algorithm of §7.2, vectorized over all cells at once."""

    def __init__(
        self,
        success_prior: float = 0.7,
        significance: float = 0.05,
        min_measurements: int = 10,
    ) -> None:
        if not 0.0 < success_prior < 1.0:
            raise ValueError("success prior must be in (0, 1)")
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must be in (0, 1)")
        if min_measurements < 1:
            raise ValueError("min_measurements must be positive")
        self.success_prior = success_prior
        self.significance = significance
        self.min_measurements = min_measurements

    # ------------------------------------------------------------------
    def _cell_priors(
        self,
        domains: np.ndarray,
        countries: np.ndarray,
        totals: np.ndarray,
        successes: np.ndarray,
    ) -> np.ndarray:
        """Per-cell success prior; the adaptive subclass overrides this."""
        return np.full(len(totals), self.success_prior)

    def _scored_cells(self, counts):
        """(domains, countries, n, successes, priors, p_values) for scored cells.

        Cells below ``min_measurements`` are dropped; the rest are scored
        with one vectorized binomial-tail evaluation.
        """
        domains, countries, totals, successes = _cells(counts)
        keep = totals >= self.min_measurements
        domains = domains[keep]
        countries = countries[keep]
        totals = totals[keep]
        successes = successes[keep]
        priors = np.asarray(
            self._cell_priors(domains, countries, totals, successes), dtype=np.float64
        )
        p_values = binomial_cdf_cells(successes, totals, priors)
        return domains, countries, totals, successes, priors, p_values

    @staticmethod
    def _statistics_from_cells(domains, countries, totals, successes, p_values):
        return [
            RegionStatistics(
                domain=str(domain),
                country_code=str(country),
                measurements=int(n),
                successes=int(s),
                p_value=float(p_value),
            )
            for domain, country, n, s, p_value in zip(
                domains, countries, totals, successes, p_values
            )
        ]

    def region_statistics(self, counts) -> list[RegionStatistics]:
        """Per-region statistics from query cells (or a counts dict)."""
        domains, countries, totals, successes, _, p_values = self._scored_cells(counts)
        return self._statistics_from_cells(domains, countries, totals, successes, p_values)

    def _decide(self, domains, totals, successes, priors, p_values):
        """(detected mask, corroborating regions per cell) for scored cells.

        The decision step every detection path shares: a cell is detected
        when its test fails and another region of its domain corroborates.
        """
        failing = p_values <= self.significance
        # A corroborating region must not merely "not fail the test" (a
        # handful of measurements never fails it); it must actually show the
        # resource loading at or above the modelled success rate.
        passing = ~failing & (successes / totals >= priors)
        _, domain_of = np.unique(domains, return_inverse=True)
        corroborating = np.bincount(domain_of, weights=passing).astype(np.int64)[domain_of]
        # With nothing corroborating, the resource looks broken everywhere
        # (likely a site outage, not regional filtering).
        return failing & (corroborating > 0), corroborating

    def detect_from_counts(self, counts) -> DetectionReport:
        """Run the test over per-region counts (query cells or a counts dict)."""
        domains, countries, totals, successes, priors, p_values = self._scored_cells(counts)
        stats = self._statistics_from_cells(domains, countries, totals, successes, p_values)
        report = DetectionReport(statistics=stats)
        if not stats:
            return report
        detected, corroborating = self._decide(domains, totals, successes, priors, p_values)
        report.detections = [
            FilteringDetection(
                domain=stats[cell].domain,
                country_code=stats[cell].country_code,
                measurements=stats[cell].measurements,
                successes=stats[cell].successes,
                p_value=stats[cell].p_value,
                corroborating_regions=int(corroborating[cell]),
            )
            for cell in np.flatnonzero(detected).tolist()
        ]
        return report

    # ------------------------------------------------------------------
    def detect(self, collection: "CollectionServer | MeasurementStore") -> DetectionReport:
        """Run the test over every row of a collection server or a store.

        A :class:`~repro.core.collection.CollectionServer` is scored through
        its store, and a bare :class:`~repro.core.store.MeasurementStore`
        (the adversarial sweep scores poisoned stores directly) as is.
        Anything else raises :class:`TypeError`: a reputation verdict's kept
        rows are scored with ``detect_from_counts(verdict.success_counts())``.
        """
        store = collection.store if isinstance(collection, CollectionServer) else collection
        if not isinstance(store, MeasurementStore):
            raise TypeError(
                "detect() takes a CollectionServer or a MeasurementStore, "
                f"not {type(collection).__name__}"
            )
        return self.detect_from_counts(grouped_success_counts(store))


# ----------------------------------------------------------------------
# Online change-point detection over day-bucketed success rates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CensorshipEvent:
    """A detected change in a (domain, country) pair's filtering state.

    ``kind`` is ``"onset"`` (the success rate collapsed — filtering began)
    or ``"offset"`` (it recovered — filtering ended).  ``change_day`` is the
    CUSUM change-point estimate: the day the statistic's final excursion
    left zero.  ``detected_day`` is when the statistic crossed the decision
    threshold, so ``detection_lag`` is how many simulated days of data the
    detector needed before it could call the change.
    """

    domain: str
    country_code: str
    kind: str
    change_day: int
    detected_day: int
    statistic: float
    confidence: float

    @property
    def detection_lag(self) -> int:
        return self.detected_day - self.change_day


@dataclass
class CusumState:
    """Resumable state of an online CUSUM scan over day-bucketed counts.

    ``days_processed`` is the scan watermark (day columns ``0 ..
    days_processed - 1`` have been consumed); ``cells`` maps each (domain,
    country) pair to its ``(censored, statistic, excursion_day)`` machine
    state; ``baselines`` optionally pins a per-country healthy success rate
    (seeded from :meth:`AdaptiveFilteringDetector.country_priors`) that
    replaces the detector's global ``healthy_rate`` for that country's
    cells; ``events`` accumulates everything emitted so far, in the same
    ``(detected_day, domain, country, kind)`` order a cold full scan
    produces.  The state round-trips through JSON bit-exactly (Python's
    ``repr``-based float serialization is lossless).
    """

    days_processed: int = 0
    baselines: dict[str, float] | None = None
    cells: dict[tuple[str, str], tuple[bool, float, int]] = field(default_factory=dict)
    events: list[CensorshipEvent] = field(default_factory=list)

    def to_payload(self) -> dict:
        """A JSON-serializable snapshot (see :meth:`from_payload`)."""
        return {
            "days_processed": self.days_processed,
            "baselines": self.baselines,
            "cells": [
                [domain, country, bool(censored), float(stat), int(excursion)]
                for (domain, country), (censored, stat, excursion) in sorted(
                    self.cells.items()
                )
            ],
            "events": [
                {
                    "domain": e.domain,
                    "country_code": e.country_code,
                    "kind": e.kind,
                    "change_day": e.change_day,
                    "detected_day": e.detected_day,
                    "statistic": e.statistic,
                    "confidence": e.confidence,
                }
                for e in self.events
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CusumState":
        baselines = payload.get("baselines")
        return cls(
            days_processed=int(payload["days_processed"]),
            baselines=None if baselines is None else {
                str(country): float(rate) for country, rate in baselines.items()
            },
            cells={
                (str(domain), str(country)): (bool(censored), float(stat), int(excursion))
                for domain, country, censored, stat, excursion in payload["cells"]
            },
            events=[CensorshipEvent(**event) for event in payload["events"]],
        )

    def save(self, path: str | Path, signature: str | None = None) -> None:
        """Checkpoint to ``path`` atomically via ``shard.write_json_atomic``.

        ``signature`` names what produced this state (detector tuning +
        campaign identity); :meth:`load` refuses a checkpoint whose
        signature does not match, so a retuned monitor never silently
        resumes from another configuration's state.
        """
        # Local import: shard pulls in the whole runner/netsim stack, which
        # this leaf module should not load just to be importable.
        from repro.core.shard import write_json_atomic

        write_json_atomic(path, {"signature": signature, "state": self.to_payload()})

    @classmethod
    def load(cls, path: str | Path, signature: str | None = None) -> "CusumState":
        with open(path) as handle:
            payload = json.load(handle)
        if signature is not None and payload.get("signature") != signature:
            raise ValueError(
                f"checkpoint {path} was written under signature "
                f"{payload.get('signature')!r}, not {signature!r}"
            )
        return cls.from_payload(payload["state"])


def _confidence(statistic: float, threshold: float) -> float:
    """Threshold overshoot mapped to [0.5, 1.0]."""
    return min(1.0, statistic / (2.0 * threshold))


def _sorted(events: list[CensorshipEvent]) -> list[CensorshipEvent]:
    """Events in cold-full-scan order: ``(detected_day, domain, country, kind)``."""
    events.sort(key=lambda e: (e.detected_day, e.domain, e.country_code, e.kind))
    return events


def _cusum_scan(
    domains, countries, start, active, clear_step, alarm_step, kinds, threshold,
    cells=None,
) -> list[CensorshipEvent]:
    """The two-state online CUSUM over day columns ``start ..``, all cells at once.

    Column ``j`` of the ``(cells, days)`` matrices is day ``start + j``:
    ``active`` marks the cell-days that carry evidence, and ``clear_step``
    and ``alarm_step`` hold each cell-day's increment in the clear and the
    alarmed state.  An active day moves ``S ← max(0, S + increment)``; the
    day ``S`` leaves zero starts an excursion (the change-point estimate),
    and crossing ``threshold`` emits ``kinds[0]`` (clear → alarmed) or
    ``kinds[1]`` (back), flips the state and resets ``S``.  Inactive days
    carry ``S`` unchanged.  ``cells`` carries each pair's ``(alarmed, S,
    excursion_day)`` across calls.  Only threshold crossings drop to
    per-cell Python; :func:`_cusum_walk` is the one-cell scalar twin.
    """
    n_cells = len(domains)
    pairs = list(zip(domains.tolist(), countries.tolist()))
    alarmed = np.zeros(n_cells, dtype=bool)
    stat = np.zeros(n_cells, dtype=np.float64)
    excursion = np.zeros(n_cells, dtype=np.int64)
    if cells:
        for index, pair in enumerate(pairs):
            carried = cells.get(pair)
            if carried is not None:
                alarmed[index], stat[index], excursion[index] = carried
    events: list[CensorshipEvent] = []
    for column in range(active.shape[1]):
        on = active[:, column]
        if not on.any():
            continue
        day = start + column
        increment = np.where(alarmed, alarm_step[:, column], clear_step[:, column])
        new_stat = np.maximum(0.0, stat + increment)
        started = on & (stat == 0.0) & (new_stat > 0.0)
        excursion[started] = day
        stat = np.where(on, new_stat, stat)
        for cell in np.flatnonzero(on & (stat >= threshold)).tolist():
            statistic = float(stat[cell])
            events.append(
                CensorshipEvent(
                    domain=str(domains[cell]),
                    country_code=str(countries[cell]),
                    kind=kinds[int(alarmed[cell])],
                    change_day=int(excursion[cell]),
                    detected_day=day,
                    statistic=statistic,
                    confidence=_confidence(statistic, threshold),
                )
            )
            alarmed[cell] = ~alarmed[cell]
            stat[cell] = 0.0
    if cells is not None:
        for index, pair in enumerate(pairs):
            cells[pair] = (bool(alarmed[index]), float(stat[index]), int(excursion[index]))
    return _sorted(events)


def _cusum_walk(domain, country, steps, kinds, threshold) -> list[CensorshipEvent]:
    """One cell's CUSUM walk from the clear state: :func:`_cusum_scan`'s scalar twin.

    ``steps`` yields ``(day, clear_step, alarm_step)`` for the cell's
    active days in day order.
    """
    alarmed = False
    stat = 0.0
    excursion = 0
    events: list[CensorshipEvent] = []
    for day, clear_step, alarm_step in steps:
        new_stat = max(0.0, stat + (alarm_step if alarmed else clear_step))
        if stat == 0.0 and new_stat > 0.0:
            excursion = day
        stat = new_stat
        if stat >= threshold:
            events.append(
                CensorshipEvent(
                    domain=domain,
                    country_code=country,
                    kind=kinds[alarmed],
                    change_day=excursion,
                    detected_day=day,
                    statistic=float(stat),
                    confidence=_confidence(float(stat), threshold),
                )
            )
            alarmed = not alarmed
            stat = 0.0
    return events


class CusumChangePointDetector:
    """Online CUSUM over per-day filtered success rates (longitudinal §7.2).

    For every (domain, country) pair of a :class:`DaySeries` of success
    counts, the detector walks the day axis with the two-state machine of
    :func:`_cusum_scan`.  While *clear*, the increment is ``healthy_rate −
    drift − rate_d`` — evidence the daily success rate fell below the
    healthy baseline — and crossing ``threshold`` emits an **onset**; while
    *censored*, it is ``rate_d − censored_rate − drift`` and the crossing
    emits an **offset** on recovery.  Days with fewer than
    ``min_daily_measurements`` filtered measurements carry the statistic
    unchanged (an empty day is no evidence either way).

    :meth:`detect_events` scans all cells at once, one numpy pass per day
    column; :meth:`detect_events_reference` computes each cell's rates in
    scalar Python and walks them with :func:`_cusum_walk`.  Both produce
    the same increments in the same order, so their events are identical —
    statistics and confidences bit-for-bit — an equivalence the tests pin.

    The scan is resumable: :meth:`initial_state` builds a
    :class:`CusumState` and :meth:`resume` advances it over only the day
    columns it has not seen yet.  Because each day's update is the same
    float64 operation sequence either way, a scan split across any number
    of resume calls emits events bit-identical to one cold full scan — the
    property that lets an always-on monitor fold in one epoch per wakeup,
    and a restarted monitor rebuild its state by advancing a fresh state
    over the epochs it adopts.
    """

    KINDS = ("onset", "offset")

    def __init__(
        self,
        healthy_rate: float = 0.7,
        censored_rate: float = 0.15,
        drift: float = 0.05,
        threshold: float = 1.0,
        min_daily_measurements: int = 5,
    ) -> None:
        if not 0.0 < censored_rate < healthy_rate < 1.0:
            raise ValueError("need 0 < censored_rate < healthy_rate < 1")
        if drift < 0.0:
            raise ValueError("drift must be non-negative")
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if min_daily_measurements < 1:
            raise ValueError("min_daily_measurements must be positive")
        self.healthy_rate = healthy_rate
        self.censored_rate = censored_rate
        self.drift = drift
        self.threshold = threshold
        self.min_daily_measurements = min_daily_measurements

    # ------------------------------------------------------------------
    def config_key(self) -> tuple:
        """Hashable identity of this detector's tuning.

        What result caches key on, so retuning a detector can never be
        served another configuration's events.
        """
        return (
            type(self).__name__,
            self.healthy_rate,
            self.censored_rate,
            self.drift,
            self.threshold,
            self.min_daily_measurements,
        )

    def _healthy_rate_for(self, country: str, baselines: dict[str, float] | None) -> float:
        if baselines is None:
            return self.healthy_rate
        return baselines.get(country, self.healthy_rate)

    def seeded_baselines(
        self, counts, detector: "AdaptiveFilteringDetector | None" = None
    ) -> dict[str, float]:
        """Per-country healthy baselines from the adaptive detector's priors.

        Countries with unreliable networks never sustain the global
        ``healthy_rate``; seeding each country's baseline from
        :meth:`AdaptiveFilteringDetector.country_priors` keeps the clear-state
        CUSUM from drifting upward on ordinary flakiness there.  Baselines
        are floored at ``censored_rate + 2 * drift`` so the clear and
        censored targets can never cross.
        """
        adaptive = detector if detector is not None else AdaptiveFilteringDetector()
        floor = self.censored_rate + 2.0 * self.drift
        return {
            country: max(float(prior), floor)
            for country, prior in adaptive.country_priors(counts).items()
        }

    def initial_state(self, baselines: dict[str, float] | None = None) -> CusumState:
        """A fresh :class:`CusumState` (optionally with per-country baselines)."""
        return CusumState(
            baselines=None if baselines is None else dict(baselines)
        )

    def detect_events(
        self,
        day_counts: DaySeries,
        baselines: dict[str, float] | None = None,
    ) -> list[CensorshipEvent]:
        """Scan every (domain, country) pair's day series, vectorized.

        A cold full scan: equivalent to :meth:`resume` from a fresh
        :meth:`initial_state`, which is exactly how it is implemented.
        """
        return self.resume(self.initial_state(baselines), day_counts)

    def resume(self, state: CusumState, day_counts: DaySeries) -> list[CensorshipEvent]:
        """Advance ``state`` over the day columns it has not consumed yet.

        ``day_counts`` is the cumulative corpus (its day axis keeps growing
        as epochs append); anything with ``n_days`` and ``cell_series()``
        works.  Only columns ``state.days_processed .. day_counts.n_days -
        1`` are scanned, so per-call cost is proportional to the *new*
        days, not history.  Returns the newly emitted events (also appended
        to ``state.events``, which stays in cold-full-scan order because
        resumed events can only be detected on later days).
        """
        domains, countries, totals, successes = day_counts.cell_series()
        n_cells, n_days = totals.shape
        start = state.days_processed
        if n_cells == 0 or start >= n_days:
            state.days_processed = max(state.days_processed, day_counts.n_days)
            return []
        get_registry().counter("cusum.cells_scanned").add(n_cells * (n_days - start))
        n = totals[:, start:]
        active = n >= self.min_daily_measurements
        rate = np.divide(successes[:, start:], n, out=np.zeros(n.shape), where=active)
        clear_target = np.array(
            [self._healthy_rate_for(country, state.baselines) - self.drift
             for country in countries.tolist()],
            dtype=np.float64,
        )
        events = _cusum_scan(
            domains, countries, start, active,
            clear_target[:, None] - rate, rate - (self.censored_rate + self.drift),
            self.KINDS, self.threshold, state.cells,
        )
        state.days_processed = n_days
        state.events.extend(events)
        return events

    def detect_events_reference(
        self,
        day_counts: DaySeries,
        baselines: dict[str, float] | None = None,
    ) -> list[CensorshipEvent]:
        """The scalar per-cell reference; events identical to the fast path."""
        domains, countries, totals, successes = day_counts.cell_series()
        censored_target = self.censored_rate + self.drift
        events: list[CensorshipEvent] = []
        for cell in range(totals.shape[0]):
            country = str(countries[cell])
            clear_target = self._healthy_rate_for(country, baselines) - self.drift
            steps = []
            for day in range(totals.shape[1]):
                n = totals[cell, day]
                if n >= self.min_daily_measurements:
                    rate = successes[cell, day] / n
                    steps.append((day, clear_target - rate, rate - censored_target))
            events += _cusum_walk(
                str(domains[cell]), country, steps, self.KINDS, self.threshold
            )
        return _sorted(events)


class TimingCusumDetector:
    """Online CUSUM over per-day ``elapsed_ms`` quantiles — throttle detection.

    Bandwidth throttling is the censorship signature success rates cannot
    see: a throttled exchange still *completes*, just slowly (§1's subtle
    filtering; ``THROTTLE_FACTOR`` stretches the transfer time), so
    :class:`CusumChangePointDetector` scanning success rates stays silent.
    This detector scans the timing side of the same corpus: a
    :class:`DaySeries` of per-(domain, country) daily ``elapsed_ms``
    quantiles, produced by the query kernel
    (:func:`repro.core.query.timing_day_series`).

    Each cell seeds its own healthy baseline — the median of its qualifying
    daily quantiles over the first ``baseline_days`` days — because absolute
    timings vary per (domain, country) with object size and link quality,
    unlike success rates which share a global healthy level.  Its statistic
    is the *ratio* ``r_d = q_d / baseline``, walked by the same two-state
    machine as the success rate (:func:`_cusum_scan`): while *clear* the
    increment is ``r_d − 1 − drift`` — evidence the day ran slower than
    baseline — and crossing ``threshold`` emits a ``"throttle-onset"``;
    while *throttled* it is ``slowdown − drift − r_d`` and the crossing
    emits a ``"throttle-offset"`` on recovery.  Days with fewer than
    ``min_daily_measurements`` measurements (including the NaN no-data
    days) carry the statistic unchanged, and a cell with no qualifying
    baseline day never alarms — no baseline, no evidence.  The scan starts
    *after* the baseline window: those days are the presumed-healthy
    training period, so their noise can neither accumulate evidence nor
    pollute a change-point estimate.

    :meth:`detect_events` is the vectorized scan (one numpy pass per day
    column); :meth:`detect_events_reference` computes each cell's baseline
    and ratios in scalar Python and walks them with :func:`_cusum_walk`;
    their events are identical bit-for-bit, which the tests pin.
    """

    KINDS = ("throttle-onset", "throttle-offset")

    def __init__(
        self,
        slowdown: float = 3.0,
        drift: float = 0.25,
        threshold: float = 2.0,
        min_daily_measurements: int = 5,
        baseline_days: int = 5,
    ) -> None:
        if slowdown <= 1.0:
            raise ValueError("slowdown must exceed 1 (a >1x throttled/healthy ratio)")
        if drift < 0.0:
            raise ValueError("drift must be non-negative")
        if slowdown - drift <= 1.0 + drift:
            raise ValueError("need slowdown - drift > 1 + drift (targets must not cross)")
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if min_daily_measurements < 1:
            raise ValueError("min_daily_measurements must be positive")
        if baseline_days < 1:
            raise ValueError("baseline_days must be positive")
        self.slowdown = slowdown
        self.drift = drift
        self.threshold = threshold
        self.min_daily_measurements = min_daily_measurements
        self.baseline_days = baseline_days

    # ------------------------------------------------------------------
    def config_key(self) -> tuple:
        """Hashable identity of this detector's tuning (caches key on it)."""
        return (
            type(self).__name__,
            self.slowdown,
            self.drift,
            self.threshold,
            self.min_daily_measurements,
            self.baseline_days,
        )

    def _baselines(self, counts: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-cell healthy timing baselines (NaN = cell never alarms).

        The median of the cell's qualifying daily quantiles over the first
        ``baseline_days`` days; days below ``min_daily_measurements`` (or
        with no data at all) contribute nothing.
        """
        window = values[:, : self.baseline_days].copy()
        window[counts[:, : self.baseline_days] < self.min_daily_measurements] = np.nan
        baselines = np.full(len(window), np.nan)
        has_baseline = ~np.isnan(window).all(axis=1)
        if has_baseline.any():
            baselines[has_baseline] = np.nanmedian(window[has_baseline], axis=1)
        return baselines

    def detect_events(self, timing_series: DaySeries) -> list[CensorshipEvent]:
        """Scan every (domain, country) pair's daily quantile series, vectorized.

        ``timing_series`` is a :class:`DaySeries` of quantiles (anything
        with ``cell_series()`` returning ``(domains, countries, counts,
        values)`` matrices works).
        """
        domains, countries, counts, values = timing_series.cell_series()
        n_cells, n_days = counts.shape
        if n_cells == 0 or n_days == 0:
            return []
        get_registry().counter("timing_cusum.cells_scanned").add(n_cells * n_days)
        baselines = self._baselines(counts, values)
        start = self.baseline_days
        active = ~np.isnan(baselines)[:, None] & (
            counts[:, start:] >= self.min_daily_measurements
        )
        ratio = np.divide(
            values[:, start:], baselines[:, None], out=np.ones(active.shape), where=active
        )
        return _cusum_scan(
            domains, countries, start, active,
            ratio - (1.0 + self.drift), (self.slowdown - self.drift) - ratio,
            self.KINDS, self.threshold,
        )

    def detect_events_reference(self, timing_series: DaySeries) -> list[CensorshipEvent]:
        """The scalar per-cell reference; events identical to the fast path."""
        domains, countries, counts, values = timing_series.cell_series()
        clear_target = 1.0 + self.drift
        throttled_target = self.slowdown - self.drift
        events: list[CensorshipEvent] = []
        for cell in range(counts.shape[0]):
            window = [
                float(values[cell, day])
                for day in range(min(self.baseline_days, counts.shape[1]))
                if counts[cell, day] >= self.min_daily_measurements
            ]
            if not window:
                continue
            baseline = float(np.median(window))
            steps = []
            for day in range(self.baseline_days, counts.shape[1]):
                if counts[cell, day] >= self.min_daily_measurements:
                    ratio = float(values[cell, day]) / baseline
                    steps.append((day, ratio - clear_target, throttled_target - ratio))
            events += _cusum_walk(
                str(domains[cell]), str(countries[cell]), steps, self.KINDS, self.threshold
            )
        return _sorted(events)


class AdaptiveFilteringDetector(BinomialFilteringDetector):
    """Per-country success priors (the paper's proposed enhancement, §7.2).

    The paper notes that "possible enhancements include dynamically tuning
    model parameters to account for differing false positive rates in each
    country": a fixed prior of 0.7 is conservative for well-connected
    countries and optimistic for countries with unreliable networks.  This
    detector estimates each country's baseline success rate from the country's
    *best-performing* domains — resources presumed reachable there — and uses
    a discounted version of that baseline as the country-specific prior,
    clamped to ``[min_prior, max_prior]``.
    """

    def __init__(
        self,
        significance: float = 0.05,
        min_measurements: int = 10,
        min_prior: float = 0.5,
        max_prior: float = 0.9,
        discount: float = 0.9,
    ) -> None:
        super().__init__(
            success_prior=(min_prior + max_prior) / 2.0,
            significance=significance,
            min_measurements=min_measurements,
        )
        if not 0.0 < min_prior <= max_prior < 1.0:
            raise ValueError("need 0 < min_prior <= max_prior < 1")
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self.min_prior = min_prior
        self.max_prior = max_prior
        self.discount = discount

    def country_priors(self, counts) -> dict[str, float]:
        """Estimate each country's baseline success probability.

        The baseline is the country's highest per-domain success rate among
        domains with enough measurements (a censored domain cannot raise it,
        and network flakiness lowers it for every domain equally), discounted
        and clamped to the configured bounds.
        """
        _, countries, totals, successes = _cells(counts)
        keep = totals >= self.min_measurements
        best = self._best_rates(countries[keep], totals[keep], successes[keep])
        return {
            country: float(min(self.max_prior, max(self.min_prior, rate * self.discount)))
            for country, rate in best.items()
        }

    @staticmethod
    def _best_rates(countries: np.ndarray, totals: np.ndarray, successes: np.ndarray):
        """Per-country maximum success rate over the given (kept) cells."""
        best: dict[str, float] = {}
        rates = successes / totals if len(totals) else totals
        for country, rate in zip(countries.tolist(), np.asarray(rates).tolist()):
            if rate > best.get(country, -1.0):
                best[country] = rate
        return best

    def _cell_priors(
        self,
        domains: np.ndarray,
        countries: np.ndarray,
        totals: np.ndarray,
        successes: np.ndarray,
    ) -> np.ndarray:
        best = self._best_rates(countries, totals, successes)
        return np.array(
            [
                min(self.max_prior, max(self.min_prior, best[country] * self.discount))
                if country in best
                else self.success_prior
                for country in countries.tolist()
            ],
            dtype=np.float64,
        )
