"""The coordination server (paper §5.4).

Origin pages reference a script hosted on the coordination server; when a
client renders the page, its browser fetches that script, which contains the
measurement task the scheduler picked for this client.  Because the censor
may block the coordination server itself (the second adversary capability of
§3.1), the campaign runner lays out task delivery as real fetches through
the client's network path, one per delivery URL: a client that cannot reach
any of them contributes no measurements.

The server can also be mirrored across several domains, which raises the
collateral damage of blocking it (paper §8); delivery succeeds if any mirror
is reachable.  The server itself only names the delivery URLs and counts
the runner's delivery outcomes.
"""

from __future__ import annotations

from repro.core.tasks import MeasurementTask, measurement_snippet_js
from repro.web.url import URL


class CoordinationServer:
    """Names the task-delivery URLs and counts the runner's delivery outcomes."""

    def __init__(
        self,
        task_url: URL | str,
        collection_url: URL | str,
        mirror_urls: list[URL | str] | None = None,
    ) -> None:
        self.task_url = task_url if isinstance(task_url, URL) else URL.parse(task_url)
        self.collection_url = (
            collection_url if isinstance(collection_url, URL) else URL.parse(collection_url)
        )
        self.mirrors: list[URL] = [
            url if isinstance(url, URL) else URL.parse(url) for url in (mirror_urls or [])
        ]
        #: Delivery outcomes folded in by :meth:`note_batch_deliveries`.
        self.batched_deliveries_attempted = 0
        self.batched_deliveries_failed = 0

    # ------------------------------------------------------------------
    @property
    def all_delivery_urls(self) -> list[URL]:
        """The task URL, then its mirrors: the order a client tries them in."""
        return [self.task_url] + self.mirrors

    def render_task_script(self, tasks: list[MeasurementTask]) -> str:
        """The JavaScript the server would send for ``tasks`` (Appendix A style)."""
        return "\n".join(measurement_snippet_js(task, self.collection_url) for task in tasks)

    # ------------------------------------------------------------------
    def note_batch_deliveries(self, attempted: int, failed: int) -> None:
        """Fold a batch of delivery outcomes into the aggregate counters.

        ``attempted`` counts visits whose schedule produced tasks (the only
        visits that fetch the task script); ``failed`` the subset that could
        not reach any delivery URL.
        """
        if failed > attempted or attempted < 0 or failed < 0:
            raise ValueError("invalid delivery counts")
        self.batched_deliveries_attempted += attempted
        self.batched_deliveries_failed += failed

    @property
    def delivery_failure_rate(self) -> float:
        """Fraction of deliveries that failed because the server was unreachable."""
        if not self.batched_deliveries_attempted:
            return 0.0
        return self.batched_deliveries_failed / self.batched_deliveries_attempted
