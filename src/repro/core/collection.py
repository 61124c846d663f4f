"""The collection server and measurement records (paper §5.5).

After running a task, a client submits the result — success or failure,
timing, and the measurement ID — with an AJAX request to the collection
server.  Submission is itself a network operation the censor can block, so
the campaign runner models it as a fetch through the client's path and hands
the server only the submissions that arrived, as one
:class:`ColumnarRecords` payload per batch.  Each record carries what the
server can observe about the submitter: the source IP (which the server
geolocates), the browser family, and the Referer header unless the origin
site strips it (the paper notes 3/4 of measurements arrived with the Referer
stripped, obscuring which origin delivered them).

Internally the server keeps the corpus in a columnar
:class:`~repro.core.store.MeasurementStore` (struct of arrays) rather than a
Python list of records; :class:`Measurement` survives as the row view
:meth:`~repro.core.store.MeasurementStore.rows` materializes on demand.  The server's own surface — :meth:`success_counts`, the distinct
counters and :meth:`summary` — is a handful of ``query()`` calls; anything
else reads the store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.query import Count, distinct_ip_count, grouped_success_counts
from repro.core.store import DictColumn, MeasurementStore
from repro.core.tasks import TaskOutcome, TaskType
from repro.population.geoip import GeoIPDatabase
from repro.web.url import URL


@dataclass(frozen=True)
class Measurement:
    """One measurement as stored by the collection server.

    Rows live columnar inside :class:`~repro.core.store.MeasurementStore`;
    instances of this dataclass are the materialized row view, constructed on
    demand and field-for-field identical to what the original row-list
    server stored.
    """

    measurement_id: str
    task_type: TaskType
    target_url: URL
    target_domain: str
    outcome: TaskOutcome
    elapsed_ms: float
    client_ip: str
    country_code: str
    isp: str
    browser_family: str
    origin_domain: str | None
    day: int
    probe_time_ms: float | None = None
    is_automated: bool = False

    @property
    def succeeded(self) -> bool:
        return self.outcome is TaskOutcome.SUCCESS

    @property
    def failed(self) -> bool:
        return self.outcome is TaskOutcome.FAILURE


@dataclass
class ColumnarRecords:
    """Already-delivered submissions as columns, ready for zero-copy ingestion.

    The one form in which submissions reach the collection server: both
    campaign executors and the poisoning attacker produce it.  A column is
    either a plain per-row sequence or, for values that repeat (task
    attributes, per-visit client attributes, per-origin Referer stripping),
    a :class:`~repro.core.store.DictColumn` value table plus index array.
    ``client_ip`` and ``country_code`` must share one ``indices`` array (one
    entry per submitting visit), which is what lets the collection server
    geolocate each *visit* once instead of each row.  ``origin_domain``
    values already have Referer stripping applied (``None`` where the origin
    strips).
    """

    measurement_id: DictColumn | Sequence[str]
    task_type: DictColumn | Sequence[TaskType]
    target_url: DictColumn | Sequence[URL]
    target_domain: DictColumn | Sequence[str]
    outcome: DictColumn
    elapsed_ms: np.ndarray
    probe_time_ms: np.ndarray
    client_ip: DictColumn
    country_code: DictColumn
    isp: DictColumn
    browser_family: DictColumn
    origin_domain: DictColumn
    day: np.ndarray
    is_automated: np.ndarray

    def __len__(self) -> int:
        return len(self.elapsed_ms)

    def append_to(self, store: MeasurementStore) -> int:
        """Append these columns to a bare store, with zero per-row work.

        No geolocation happens here — ``country_code`` is stored as given.
        :meth:`CollectionServer.ingest_columns` resolves countries first and
        then lands on this method; forged corpora and replay tooling append
        straight to a store through it.
        """
        return store.append_columns(
            measurement_id=self.measurement_id,
            task_type=self.task_type,
            target_url=self.target_url,
            target_domain=self.target_domain,
            outcome=self.outcome,
            elapsed_ms=self.elapsed_ms,
            probe_time_ms=self.probe_time_ms,
            client_ip=self.client_ip,
            country_code=self.country_code,
            isp=self.isp,
            browser_family=self.browser_family,
            origin_domain=self.origin_domain,
            day=self.day,
            is_automated=self.is_automated,
        )


class CollectionServer:
    """Receives, geolocates, and stores measurement submissions.

    Rows land in ``store``, or in a fresh in-memory store if none is given.
    """

    #: Fraction of origin sites configured to strip the Referer header when
    #: their visitors submit results (paper §7: 3/4 of measurements).
    REFERER_STRIP_FRACTION = 0.75

    def __init__(
        self,
        submit_url: URL | str,
        geoip: GeoIPDatabase | None = None,
        store: MeasurementStore | None = None,
    ) -> None:
        self.submit_url = submit_url if isinstance(submit_url, URL) else URL.parse(submit_url)
        self.geoip = geoip or GeoIPDatabase()
        # ``is not None``: a freshly built store is empty and therefore falsy,
        # but it is still the store the caller wants measurements to land in.
        self.store = store if store is not None else MeasurementStore()
        self.unreachable_submissions = 0

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def ingest_columns(self, columns: ColumnarRecords, unreachable: int = 0) -> int:
        """Zero-copy bulk ingestion of an executor's column payload.

        The only per-element work left at this layer is geolocation, and it
        runs over the *visit* table (``client_ip.values``), not the rows:
        each submitting visit is looked up once and the resolved country is
        broadcast through the shared index array.
        """
        self.unreachable_submissions += unreachable
        if len(columns) == 0:
            return 0
        located = self.geoip.lookup_batch(columns.client_ip.values)
        resolved = DictColumn(
            [
                found if found is not None else fallback
                for found, fallback in zip(located, columns.country_code.values)
            ],
            columns.client_ip.indices,
        )
        return replace(columns, country_code=resolved).append_to(self.store)

    # ------------------------------------------------------------------
    # Query API used by the analysis
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.store)

    def distinct_ips(self) -> int:
        return distinct_ip_count(self.store)

    def distinct_countries(self) -> int:
        """Countries with at least one row (every row counts)."""
        return len(self.store.query(
            ("country",), (Count(),), exclude_automated=False, exclude_inconclusive=False,
        ))

    def success_counts(
        self, exclude_automated: bool = True
    ) -> dict[tuple[str, str], tuple[int, int]]:
        """Per (domain, country): (total measurements, successes).

        This is exactly the input the binomial detection test consumes; the
        detector itself prefers the grouped-array form (the query kernel's
        ``grouped_success_counts``) and skips this dict entirely.
        """
        return grouped_success_counts(
            self.store, exclude_automated
        ).as_dict()

    def summary(self) -> dict[str, float]:
        """Campaign-scale headline numbers (paper §7)."""
        return {
            "measurements": float(len(self.store)),
            "distinct_ips": float(self.distinct_ips()),
            "countries": float(self.distinct_countries()),
            "unreachable_submissions": float(self.unreachable_submissions),
        }
