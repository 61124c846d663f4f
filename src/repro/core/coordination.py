"""The coordination server (paper §5.4).

Origin pages reference a script hosted on the coordination server; when a
client renders the page, its browser fetches that script, which contains the
measurement task the scheduler picked for this client.  Because the censor
may block the coordination server itself (the second adversary capability of
§3.1), task delivery is modelled as a real fetch through the client's network
path: a client that cannot reach the coordination domain simply contributes
no measurements.

The server can also be mirrored across several domains, which raises the
collateral damage of blocking it (paper §8); delivery succeeds if any mirror
is reachable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.browser.engine import Browser
from repro.core.scheduler import ScheduleDecision, Scheduler
from repro.core.tasks import MeasurementTask, measurement_snippet_js
from repro.population.clients import Client
from repro.web.url import URL


@dataclass
class DeliveryRecord:
    """Bookkeeping about one attempted task delivery."""

    client: Client
    reachable: bool
    mirror_used: str | None
    tasks_delivered: int


class CoordinationServer:
    """Generates and delivers measurement tasks to clients."""

    def __init__(
        self,
        scheduler: Scheduler,
        task_url: URL | str,
        collection_url: URL | str,
        mirror_urls: list[URL | str] | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.task_url = task_url if isinstance(task_url, URL) else URL.parse(task_url)
        self.collection_url = (
            collection_url if isinstance(collection_url, URL) else URL.parse(collection_url)
        )
        self.mirrors: list[URL] = [
            url if isinstance(url, URL) else URL.parse(url) for url in (mirror_urls or [])
        ]
        self.delivery_log: list[DeliveryRecord] = []
        #: Aggregate counters maintained by the batched campaign runner, which
        #: skips per-visit :class:`DeliveryRecord` objects for throughput.
        self.batched_deliveries_attempted = 0
        self.batched_deliveries_failed = 0

    # ------------------------------------------------------------------
    @property
    def all_delivery_urls(self) -> list[URL]:
        return [self.task_url] + self.mirrors

    def _reachable_mirror(self, browser: Browser) -> URL | None:
        """The first delivery URL the client can actually fetch, if any."""
        for url in self.all_delivery_urls:
            outcome, from_cache, _ = browser.fetch(url, use_cache=False)
            if from_cache or (outcome is not None and outcome.succeeded_with_content):
                return url
        return None

    # ------------------------------------------------------------------
    def deliver(self, client: Client, browser: Browser) -> ScheduleDecision:
        """Deliver tasks to ``client``: schedule, then fetch the task script.

        Returns the scheduling decision with an empty task list if the client
        cannot reach any delivery URL (or was never going to run a task).
        """
        decision = self.scheduler.schedule(client)
        if not decision.tasks:
            self.delivery_log.append(
                DeliveryRecord(client=client, reachable=True, mirror_used=None, tasks_delivered=0)
            )
            return decision
        mirror = self._reachable_mirror(browser)
        if mirror is None:
            # The censor (or an outage) blocked access to every delivery URL;
            # the client runs nothing.
            self.delivery_log.append(
                DeliveryRecord(client=client, reachable=False, mirror_used=None, tasks_delivered=0)
            )
            decision.tasks = []
            return decision
        self.delivery_log.append(
            DeliveryRecord(
                client=client,
                reachable=True,
                mirror_used=str(mirror),
                tasks_delivered=len(decision.tasks),
            )
        )
        return decision

    def render_task_script(self, tasks: list[MeasurementTask]) -> str:
        """The JavaScript the server would send for ``tasks`` (Appendix A style)."""
        return "\n".join(measurement_snippet_js(task, self.collection_url) for task in tasks)

    # ------------------------------------------------------------------
    def note_batch_deliveries(self, attempted: int, failed: int) -> None:
        """Fold a batch of delivery outcomes into the aggregate counters.

        ``attempted`` counts visits whose schedule produced tasks (the only
        visits that fetch the task script); ``failed`` the subset that could
        not reach any delivery URL — the same population the per-visit
        :attr:`delivery_log` bookkeeping considers.
        """
        if failed > attempted or attempted < 0 or failed < 0:
            raise ValueError("invalid delivery counts")
        self.batched_deliveries_attempted += attempted
        self.batched_deliveries_failed += failed

    @property
    def delivery_failure_rate(self) -> float:
        """Fraction of deliveries that failed because the server was unreachable."""
        attempted = [r for r in self.delivery_log if r.tasks_delivered > 0 or not r.reachable]
        total = len(attempted) + self.batched_deliveries_attempted
        if not total:
            return 0.0
        failures = sum(1 for r in attempted if not r.reachable) + self.batched_deliveries_failed
        return failures / total
