"""Batched campaign execution: the fast path for §7-scale experiments.

The paper's value comes from scale — a seven-month deployment collecting
141,626 measurements from 88,260 clients (§7).  This module executes
campaigns in vectorized batches:

1. **Plan.**  A batch of visitors is sampled from the
   :class:`~repro.population.world.World` with one bulk RNG call per client
   attribute (:meth:`ClientFactory.sample_batch`), together with per-visit
   origin sites and campaign days.
2. **Schedule.**  :meth:`Scheduler.assign_batch` assigns tasks to the whole
   batch straight off its column arrays and emits one ``(visit, task)`` row
   per scheduled task; ``mode="serial"`` calls the scalar
   :meth:`Scheduler.schedule` once per visitor and flattens its decisions
   into the same rows.
3. **Compile.**  :func:`compile_program` turns the rows into one columnar
   *fetch program*: one slot per network fetch (task-script delivery, task
   target loads, iframe sub-resources and probes, result submissions), laid
   out with ``np.repeat``/``cumsum`` from per-task slot templates, plus
   per-row and per-visit slot indices.  Censors are deterministic per
   (country, URL), so each slot's censorship verdict is resolved once and
   cached; only packet loss, jitter, and give-up decisions stay stochastic,
   and those are pre-drawn as a fixed-layout uniform matrix
   (:data:`DRAWS_PER_SLOT` columns per slot).
4. **Execute.**  Both modes read the same program.  ``mode="batch"``
   evaluates all slots with vectorized numpy passes and assembles rows by
   index arithmetic over the row columns (only visits with within-visit
   cache reuse take a scalar walk); ``mode="serial"`` is the readable
   reference implementation that walks the program one visit at a time,
   re-deriving every censorship verdict from the interceptor objects.  Both
   consume the same pre-drawn randomness, so for a fixed seed they produce
   *identical* measurements — an invariant pinned by
   ``tests/core/test_runner_equivalence.py``.
5. **Collect.**  Both executors hand the
   :class:`~repro.core.collection.CollectionServer` the same
   :class:`~repro.core.collection.ColumnarRecords` payload (per-row columns
   plus per-visit client columns), which :meth:`ingest_columns` appends to
   the struct-of-arrays :class:`~repro.core.store.MeasurementStore` without
   constructing per-row ``Measurement`` objects; the delivery slots' outcomes
   feed the coordination server's counters, and a per-batch progress hook
   makes long campaigns observable.  A killed campaign is resumed by the
   sharded path (:mod:`repro.core.shard`): its workers drive this same
   plan → execute → ingest loop one planning block at a time and commit
   each shard's rows into the directory the caller names.

Planning is **block-keyed**: visits are planned in fixed-size blocks
(``CampaignConfig.plan_block_visits``) whose randomness — client sampling,
scheduling, origins, days, the pre-drawn uniform matrix — derives from
``(seed, epoch, block_index)`` alone, with client IPs/ids indexed by global
visit position, and the task ids the blocks schedule are minted from the
configuration too.  Campaign content is therefore invariant to batch size
(batches are just progress/ingestion groupings sliced out of blocks), and
any process can plan any block independently — the foundation of the
:mod:`repro.core.shard` multi-process execution path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.browser.engine import CACHED_RENDER_MAX_MS, CACHED_RENDER_MIN_MS
from repro.core.collection import ColumnarRecords
from repro.core.store import DictColumn
from repro.obs.clock import monotonic
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_TRACER, progress_listener
from repro.population.clients import Client, ClientBatch
from repro.core.tasks import (
    CACHED_PROBE_THRESHOLD_MS,
    MeasurementTask,
    TaskOutcome,
    TaskType,
)
from repro.netsim.dns import DNS_TIMEOUT_PENALTY_MS, DNSAction
from repro.netsim.http import (
    HTTPAction,
    LOSS_GIVEUP_PROBABILITY as HTTP_GIVEUP_PROBABILITY,
    REQUEST_TIMEOUT_MS,
    THROTTLE_FACTOR,
)
from repro.netsim.latency import rtt_from_uniform
from repro.netsim.tcp import (
    CONNECT_TIMEOUT_MS,
    LOSS_GIVEUP_PROBABILITY as TCP_GIVEUP_PROBABILITY,
    RETRANSMIT_PENALTY_MAX_MS,
    TCPAction,
)
from repro.web.url import URL

# ----------------------------------------------------------------------
# Slot encoding
# ----------------------------------------------------------------------
#: Uniform draws pre-allocated per fetch slot: cached-render time, DNS RTT
#: jitter, TCP loss / give-up / retransmit, TCP RTT jitter, HTTP loss /
#: give-up, HTTP RTT jitter.  Unused columns (e.g. the retransmit draw of a
#: lossless fetch) are simply never consumed, which is what keeps the layout
#: identical between the serial and vectorized executors.
DRAWS_PER_SLOT = 9

KIND_COORD = 0     #: task-script delivery fetch (one per delivery URL)
KIND_TARGET = 1    #: image / style-sheet / script task target fetch
KIND_PAGE = 2      #: inline-frame page fetch
KIND_EMBEDDED = 3  #: resource embedded by an inline-frame page
KIND_PROBE = 4     #: the probe image timed after an inline-frame load
KIND_SUBMIT = 5    #: result submission to the collection server

# Verdict stage codes (first non-PASS interceptor action per stage).
DNS_PASS, DNS_NXDOMAIN, DNS_TIMEOUT, DNS_INJECT = 0, 1, 2, 3
TCP_PASS, TCP_DROP, TCP_RESET = 0, 1, 2
HTTP_PASS, HTTP_DROP, HTTP_RESET, HTTP_BLOCK, HTTP_THROTTLE = 0, 1, 2, 3, 4

_DNS_CODE = {
    DNSAction.NXDOMAIN: DNS_NXDOMAIN,
    DNSAction.TIMEOUT: DNS_TIMEOUT,
    DNSAction.INJECT: DNS_INJECT,
}
_TCP_CODE = {TCPAction.DROP: TCP_DROP, TCPAction.RESET: TCP_RESET}
_HTTP_CODE = {
    HTTPAction.DROP: HTTP_DROP,
    HTTPAction.RESET: HTTP_RESET,
    HTTPAction.BLOCK_PAGE: HTTP_BLOCK,
    HTTPAction.THROTTLE: HTTP_THROTTLE,
}

_OUTCOMES = (TaskOutcome.SUCCESS, TaskOutcome.FAILURE, TaskOutcome.INCONCLUSIVE)
OUT_SUCCESS, OUT_FAILURE, OUT_INCONCLUSIVE = 0, 1, 2

BLOCK_PAGE_SIZE_BYTES = 2048


# ----------------------------------------------------------------------
# URL response table and censorship verdict cache
# ----------------------------------------------------------------------
class UrlTable:
    """Deterministic per-URL server facts, resolved once per run.

    What a server answers for a URL (status, content type, size, caching
    headers) carries no randomness, so the runner resolves each URL through
    the same DNS records and :meth:`WebServer.handle` the browser path uses
    and keeps the answers in columns the executors index by URL id.
    """

    def __init__(self, world) -> None:
        self._world = world
        self._ids: dict[str, int] = {}
        self.urls: list[URL] = []
        self.hosts: list[str] = []
        self.server_known: list[bool] = []
        self.status: list[int] = []
        self.resp_ok: list[bool] = []
        self.content_type: list[object] = []
        self.size_bytes: list[int] = []
        self.cacheable: list[bool] = []
        self.is_page: list[bool] = []
        self.embedded: list[tuple[URL, ...]] = []

    def __len__(self) -> int:
        return len(self.urls)

    def url_id(self, url: URL) -> int:
        key = str(url)
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        index = len(self.urls)
        self._ids[key] = index
        self.urls.append(url)
        self.hosts.append(url.host)
        ip = self._world.network.dns.authoritative_ip(url.host)
        server = self._world.universe.server_for_ip(ip) if ip else None
        self.server_known.append(server is not None)
        if server is None:
            response = None
        else:
            response = server.handle(url)
        if response is None:
            self.status.append(0)
            self.resp_ok.append(False)
            self.content_type.append(None)
            self.size_bytes.append(0)
            self.cacheable.append(False)
            self.is_page.append(False)
            self.embedded.append(())
        else:
            resource = response.resource
            self.status.append(response.status)
            self.resp_ok.append(response.ok)
            self.content_type.append(response.content_type)
            self.size_bytes.append(response.size_bytes)
            self.cacheable.append(response.cacheable)
            self.is_page.append(resource is not None and resource.is_page)
            self.embedded.append(tuple(resource.embedded_urls) if resource is not None else ())
        return index


class VerdictCache:
    """First-non-PASS censor actions per (interceptor chain, URL).

    Every censor in the model is deterministic — a blacklist policy plus a
    mechanism — so the action each connection stage suffers depends only on
    the interceptor chain on the client's path and the URL.  Most countries
    share the same chain (no national censors, globals only), so keying by
    chain identity instead of country collapses ~170 countries onto a
    handful of walks.  The serial executor recomputes these walks per fetch
    as the reference; the batch executor asks this cache.
    """

    def __init__(self, world, urls: UrlTable) -> None:
        self._world = world
        self._urls = urls
        #: country -> identity key of its interceptor chain
        self._chains: dict[str, tuple] = {}
        self._cache: dict[tuple, tuple[int, int, int]] = {}

    def _chain(self, country_code: str) -> tuple:
        chain = self._chains.get(country_code)
        if chain is None:
            interceptors = self._world.interceptors_for_country(country_code)
            chain = (tuple(id(i) for i in interceptors), interceptors)
            self._chains[country_code] = chain
        return chain

    def verdict(self, country_code: str, url_id: int) -> tuple[int, int, int]:
        chain_key, interceptors = self._chain(country_code)
        key = (chain_key, url_id)
        cached = self._cache.get(key)
        if cached is None:
            cached = compute_verdict(
                interceptors,
                self._urls.urls[url_id],
                self._urls.hosts[url_id],
                self._urls.server_known[url_id],
            )
            self._cache[key] = cached
        return cached


def compute_verdict(interceptors, url: URL, host: str, server_known: bool) -> tuple[int, int, int]:
    """(dns, tcp, http) stage codes for a fetch of ``url`` on this path.

    Mirrors the stage walks of :meth:`DNSResolver.resolve`,
    :meth:`TCPConnectionModel.connect`, and :meth:`HTTPExchangeModel.exchange`:
    the first interceptor that does anything other than PASS decides a stage.
    """
    dns_code = DNS_PASS
    for interceptor in interceptors:
        action = interceptor.intercept_dns(host)
        if action is not DNSAction.PASS:
            dns_code = _DNS_CODE[action]
            break
    if dns_code == DNS_PASS and not server_known:
        dns_code = DNS_NXDOMAIN
    tcp_code = TCP_PASS
    for interceptor in interceptors:
        action = interceptor.intercept_tcp("", host)
        if action is not TCPAction.PASS:
            tcp_code = _TCP_CODE[action]
            break
    http_code = HTTP_PASS
    for interceptor in interceptors:
        action = interceptor.intercept_http(url)
        if action is not HTTPAction.PASS:
            http_code = _HTTP_CODE[action]
            break
    return dns_code, tcp_code, http_code


# ----------------------------------------------------------------------
# Fetch program
# ----------------------------------------------------------------------
#: Task-type codes stored per TARGET slot so outcomes vectorize.
TASK_NONE, TASK_IMAGE, TASK_STYLE, TASK_SCRIPT = 0, 1, 2, 3

_TASK_CODE = {
    TaskType.IMAGE: TASK_IMAGE,
    TaskType.STYLE_SHEET: TASK_STYLE,
    TaskType.SCRIPT: TASK_SCRIPT,
}


@dataclass
class FetchProgram:
    """The compiled fetches of one batch of visits, as columns.

    Slots, one per network fetch in fetch order: ``visit``, ``kind``,
    ``url_id``, ``use_cache`` and ``task_code``.  Rows, one per scheduled
    task in visit order: ``row_visit``, ``row_task`` (an index into
    ``tasks``), and the row's ``main_slot`` (target or inline-frame page
    fetch), ``submit_slot`` and ``probe_slot`` (-1 unless an inline frame,
    whose embedded fetches are the slots between its page and its probe).
    Per visit, ``row_bounds`` and ``slot_bounds`` (length ``visits + 1``)
    delimit its rows and slots; a visit with rows starts with its delivery
    fetches, which end at its first row's main slot.  ``cache_visit`` marks
    the visits with within-visit reuse of a cacheable resource (an inline
    frame, or a cacheable target fetched twice); they take the scalar
    cache-aware walk even in batch mode.
    """

    tasks: Sequence[MeasurementTask]
    visit: np.ndarray
    kind: np.ndarray
    url_id: np.ndarray
    use_cache: np.ndarray
    task_code: np.ndarray
    row_visit: np.ndarray
    row_task: np.ndarray
    main_slot: np.ndarray
    submit_slot: np.ndarray
    probe_slot: np.ndarray
    row_bounds: np.ndarray
    slot_bounds: np.ndarray
    cache_visit: np.ndarray

    def __len__(self) -> int:
        return len(self.visit)


def compile_program(
    urls: UrlTable,
    tasks: Sequence[MeasurementTask],
    row_visit: np.ndarray,
    row_task: np.ndarray,
    visits: int,
    delivery_url_ids: Sequence[int],
    submit_url_id: int,
) -> FetchProgram:
    """Lay out every fetch the batch's ``(visit, task)`` rows perform.

    A visit with rows fetches the task script from each delivery URL, then
    runs its rows in order, each laid out by its task's template: the target
    fetch, or an inline frame's page, embedded, and probe fetches, then the
    result submission.  A visit with no rows contributes no slots: the task
    script is only fetched when there is a task to deliver, and these
    delivery slots are the only place task delivery is modelled.  Templates
    are resolved once per task in order of first appearance, so URL ids
    register in fetch order; the layout is ``np.repeat``/``cumsum``
    arithmetic over the templates.
    """
    # Template 0 is the delivery fetches; template 1 + k is task k's slots.
    kinds = [KIND_COORD] * len(delivery_url_ids)
    url_ids = list(delivery_url_ids)
    uses_cache = [False] * len(kinds)
    codes = [TASK_NONE] * len(kinds)
    used, first = np.unique(row_task, return_index=True)
    order = used[np.argsort(first)]
    starts = [0]
    repeat_keys = []
    for task in [tasks[k] for k in order.tolist()]:
        starts.append(len(kinds))
        target_id = urls.url_id(task.target_url)
        if task.task_type is TaskType.INLINE_FRAME:
            embedded = [urls.url_id(u) for u in urls.embedded[target_id]]
            kinds += [KIND_PAGE, *[KIND_EMBEDDED] * len(embedded), KIND_PROBE, KIND_SUBMIT]
            url_ids += [target_id, *embedded, urls.url_id(task.probe_image_url), submit_url_id]
            uses_cache += [True] * (len(embedded) + 2) + [False]
            codes += [TASK_NONE] * (len(embedded) + 3)
            repeat_keys.append(-1)
        else:
            kinds += [KIND_TARGET, KIND_SUBMIT]
            url_ids += [target_id, submit_url_id]
            uses_cache += [True, False]
            codes += [_TASK_CODE[task.task_type], TASK_NONE]
            repeat_keys.append(target_id if urls.cacheable[target_id] else -1)
    templates = np.concatenate(([0], order + 1))
    bounds = np.asarray(starts + [len(kinds)], dtype=np.int64)
    t_start = np.zeros(len(tasks) + 1, dtype=np.int64)
    t_len = np.zeros(len(tasks) + 1, dtype=np.int64)
    t_key = np.full(len(tasks) + 1, -1, dtype=np.int64)
    t_start[templates], t_len[templates] = bounds[:-1], np.diff(bounds)
    t_key[order + 1] = repeat_keys
    kind_t = np.asarray(kinds, dtype=np.int8)

    # Segments in fetch order: each visit with rows contributes the delivery
    # template, then one template per row.
    row_bounds = np.searchsorted(row_visit, np.arange(visits + 1))
    rows_per_visit = np.diff(row_bounds)
    has_rows = rows_per_visit > 0
    row_segment = np.arange(len(row_visit)) + np.cumsum(has_rows)[row_visit]
    segment = np.zeros(len(row_visit) + int(np.count_nonzero(has_rows)), dtype=np.int64)
    segment[row_segment] = row_task + 1
    seg_len = t_len[segment]
    seg_start = np.cumsum(seg_len) - seg_len
    source = np.repeat(t_start[segment] - seg_start, seg_len) + np.arange(int(seg_len.sum()))
    slot_visit = np.repeat(np.repeat(np.arange(visits), rows_per_visit + has_rows), seg_len)
    main_slot = seg_start[row_segment]
    submit_slot = main_slot + t_len[row_task + 1] - 1
    iframe = kind_t[t_start[row_task + 1]] == KIND_PAGE

    # Inline frames always take the cache-aware walk (the probe's verdict
    # hinges on what the page render cached), and so does a visit that
    # fetches one cacheable target twice.
    cache_visit = np.zeros(visits, dtype=bool)
    cache_visit[row_visit[iframe]] = True
    key = t_key[row_task + 1]
    keyed = key >= 0
    pairs, repeats = np.unique(row_visit[keyed] * len(urls) + key[keyed], return_counts=True)
    cache_visit[pairs[repeats > 1] // len(urls)] = True
    return FetchProgram(
        tasks=tasks,
        visit=slot_visit,
        kind=kind_t[source],
        url_id=np.asarray(url_ids, dtype=np.int64)[source],
        use_cache=np.asarray(uses_cache, dtype=bool)[source],
        task_code=np.asarray(codes, dtype=np.int8)[source],
        row_visit=row_visit,
        row_task=row_task,
        main_slot=main_slot,
        submit_slot=submit_slot,
        probe_slot=np.where(iframe, submit_slot - 1, -1),
        row_bounds=row_bounds,
        slot_bounds=np.searchsorted(slot_visit, np.arange(visits + 1)),
        cache_visit=cache_visit,
    )


# ----------------------------------------------------------------------
# Derived randomness
# ----------------------------------------------------------------------
@dataclass
class SlotDraws:
    """Per-slot stochastic values derived from the pre-drawn uniforms.

    Derived once, vectorized, and consumed by both executors — which is what
    makes their floating-point results bit-identical.
    """

    cached_render_ms: np.ndarray
    rtt_dns_ms: np.ndarray
    tcp_lost: np.ndarray
    tcp_giveup: np.ndarray
    retransmit_ms: np.ndarray
    rtt_tcp_ms: np.ndarray
    http_lost: np.ndarray
    http_giveup: np.ndarray
    rtt_http_ms: np.ndarray
    bytes_per_ms: np.ndarray


def derive_slot_draws(
    uniforms: np.ndarray,
    rtt_ms: np.ndarray,
    jitter_ms: np.ndarray,
    loss_rate: np.ndarray,
    bandwidth_kbps: np.ndarray,
) -> SlotDraws:
    """Turn the raw uniform matrix into the values the fetch model consumes."""
    span = CACHED_RENDER_MAX_MS - CACHED_RENDER_MIN_MS
    return SlotDraws(
        cached_render_ms=CACHED_RENDER_MIN_MS + span * uniforms[:, 0],
        rtt_dns_ms=rtt_from_uniform(rtt_ms, jitter_ms, uniforms[:, 1]),
        tcp_lost=uniforms[:, 2] < loss_rate,
        tcp_giveup=uniforms[:, 3] < TCP_GIVEUP_PROBABILITY,
        retransmit_ms=RETRANSMIT_PENALTY_MAX_MS * uniforms[:, 4],
        rtt_tcp_ms=rtt_from_uniform(rtt_ms, jitter_ms, uniforms[:, 5]),
        http_lost=uniforms[:, 6] < loss_rate,
        http_giveup=uniforms[:, 7] < HTTP_GIVEUP_PROBABILITY,
        rtt_http_ms=rtt_from_uniform(rtt_ms, jitter_ms, uniforms[:, 8]),
        bytes_per_ms=bandwidth_kbps * 1000.0 / 8.0 / 1000.0,
    )


# ----------------------------------------------------------------------
# Batch plan + results
# ----------------------------------------------------------------------
@dataclass
class BatchPlan:
    """Everything one batch of visits needs before execution."""

    start_visit: int
    client_batch: ClientBatch
    origin_indices: np.ndarray
    days: np.ndarray
    program: FetchProgram
    draws: SlotDraws


@dataclass
class PlanContext:
    """Shared state of one campaign's planning: URL facts plus the campaign key.

    Built once per campaign run (or once per shard worker) and threaded
    through every block plan.  ``assignment_counts`` accumulates the scoped
    schedulers' per-block counts so the campaign-wide replication report can
    be reconstructed by whoever owns the deployment's scheduler.
    """

    epoch: int
    visits: int
    block_visits: int
    urls: UrlTable
    verdicts: VerdictCache
    delivery_url_ids: list[int]
    submit_url_id: int
    #: Global visit index this campaign's numbering starts at (client ids,
    #: per-country IP hosts) — nonzero when earlier campaigns on the same
    #: deployment already claimed their ranges.
    visit_base: int = 0
    assignment_counts: Counter = field(default_factory=Counter)

    @property
    def block_count(self) -> int:
        return (self.visits + self.block_visits - 1) // self.block_visits

    def count_assignments(self, counts: dict[str, int]) -> None:
        self.assignment_counts.update(counts)


@dataclass
class _BlockPlan:
    """One fully planned block: the unit whose randomness is self-contained."""

    index: int
    start: int
    count: int
    client_batch: ClientBatch
    origin_indices: np.ndarray
    days: np.ndarray
    program: FetchProgram
    uniforms: np.ndarray


@dataclass
class BatchOutcome:
    """What executing one batch produced.

    Both executors emit the same column payload, which the collection server
    ingests without per-row work; a batch that stores no row emits a
    zero-length one.
    """

    columns: ColumnarRecords
    unreachable_submissions: int
    deliveries_attempted: int
    deliveries_failed: int


@dataclass(frozen=True)
class BatchProgress:
    """Progress/checkpoint information passed to the per-batch hook."""

    batch_index: int
    batch_count: int
    visits_completed: int
    visits_total: int
    measurements_added: int
    measurements_total: int
    duration_s: float


# ----------------------------------------------------------------------
# The campaign runner
# ----------------------------------------------------------------------
class CampaignRunner:
    """Executes a deployment's campaign in batches.

    ``mode="batch"`` is the vectorized fast path; ``mode="serial"`` is the
    scalar reference implementation with identical results for a fixed seed.
    """

    MODES = ("batch", "serial")
    DEFAULT_BATCH_SIZE = 8192

    def __init__(
        self,
        deployment,
        mode: str = "batch",
        batch_size: int | None = None,
        progress: Callable[[BatchProgress], None] | None = None,
        tracer=None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown campaign mode {mode!r}")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch size must be positive")
        self.deployment = deployment
        self.mode = mode
        self.batch_size = batch_size or self.DEFAULT_BATCH_SIZE
        self.progress = progress
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: (campaign key, plan) of the most recently planned block — adjacent
        #: batches share boundary blocks.  Keyed on (epoch, visits) too, so a
        #: runner reused for a second campaign never serves a stale plan.
        self._block_cache: tuple[tuple, _BlockPlan] | None = None

    # ------------------------------------------------------------------
    def run(self, visits: int | None = None):
        """Run ``visits`` origin-site visits and return a ``CampaignResult``."""
        from repro.core.pipeline import CampaignResult  # local: avoids a cycle

        deployment = self.deployment
        config = deployment.config
        visits = visits if visits is not None else config.visits
        if visits < 0:
            raise ValueError("visits must be non-negative")
        batch_count = (visits + self.batch_size - 1) // self.batch_size
        epoch = deployment.next_campaign_epoch()
        ctx = self.plan_context(visits, epoch, deployment.claim_visit_range(visits))

        executions = 0
        started = monotonic()
        # Progress and telemetry share one code path: the runner emits
        # "batch" events on the tracer's stream and the legacy callback
        # rides them as a listener (NullTracer still dispatches listeners).
        listener = None
        if self.progress is not None:
            listener = progress_listener(self.progress, "batch", BatchProgress)
            self.tracer.add_listener(listener)
        try:
            for batch_index in range(batch_count):
                start = batch_index * self.batch_size
                end = min(start + self.batch_size, visits)
                stored_in_batch = 0
                for plan in self.plan_parts(ctx, start, end):
                    with self.tracer.span("execute", batch=batch_index):
                        outcome = self.execute_plan(ctx, plan)
                    with self.tracer.span("ingest", batch=batch_index):
                        stored_in_batch += deployment.collection.ingest_columns(
                            outcome.columns, outcome.unreachable_submissions
                        )
                    deployment.coordination.note_batch_deliveries(
                        outcome.deliveries_attempted, outcome.deliveries_failed
                    )
                executions += stored_in_batch
                self.tracer.event(
                    "batch",
                    batch_index=batch_index,
                    batch_count=batch_count,
                    visits_completed=end,
                    visits_total=visits,
                    measurements_added=stored_in_batch,
                    measurements_total=len(deployment.collection),
                    duration_s=monotonic() - started,
                )
        finally:
            if listener is not None:
                self.tracer.remove_listener(listener)
        deployment.scheduler.absorb_counts(ctx.assignment_counts)
        return CampaignResult(
            config=config,
            collection=deployment.collection,
            coordination=deployment.coordination,
            visits_simulated=visits,
            task_executions=executions,
            feasibility=deployment.feasibility,
            mode=self.mode,
        )

    # ------------------------------------------------------------------
    # Planning: block-keyed randomness
    # ------------------------------------------------------------------
    def plan_context(self, visits: int, epoch: int, visit_base: int = 0) -> PlanContext:
        """Resolve the campaign-constant planning state (URL facts, key)."""
        deployment = self.deployment
        urls = UrlTable(deployment.world)
        block_visits = deployment.config.plan_block_visits
        if block_visits < 1:
            raise ValueError("plan_block_visits must be positive")
        return PlanContext(
            epoch=epoch,
            visits=visits,
            block_visits=block_visits,
            visit_base=visit_base,
            urls=urls,
            verdicts=VerdictCache(deployment.world, urls),
            delivery_url_ids=[
                urls.url_id(url) for url in deployment.coordination.all_delivery_urls
            ],
            submit_url_id=urls.url_id(deployment.collection.submit_url),
        )

    def _plan_block(self, ctx: PlanContext, block_index: int) -> _BlockPlan:
        """Plan one block of visits from its own derived RNG substreams.

        Every random quantity a block consumes — client sampling, task
        scheduling, origin/day assignment, the per-slot uniform matrix — is
        drawn from generators seeded ``[seed, stream, epoch, block_index]``,
        and the block's client IPs/ids are indexed by global visit position.
        A block is therefore a pure function of ``(config, epoch,
        block_index)``: any process can plan any block independently and get
        byte-identical results, which is what makes process-sharded
        campaigns merge back into exactly the single-process campaign.
        """
        cache_key = (ctx.epoch, ctx.visits, block_index)
        cached = self._block_cache
        if cached is not None and cached[0] == cache_key:
            return cached[1]
        with self.tracer.span("plan", block=block_index):
            block = self._plan_block_fresh(ctx, block_index)
        get_registry().counter("runner.blocks_planned").add(1)
        self._block_cache = (cache_key, block)
        return block

    def _plan_block_fresh(self, ctx: PlanContext, block_index: int) -> _BlockPlan:
        """The uncached planning work of :meth:`_plan_block`."""
        deployment = self.deployment
        config = deployment.config
        seed, epoch = config.seed, ctx.epoch
        start = block_index * ctx.block_visits
        count = min(ctx.block_visits, ctx.visits - start)
        batch = deployment.world.sample_client_batch(
            count,
            config.country_code,
            rng=np.random.default_rng([seed, 127, epoch, block_index]),
            first_id=ctx.visit_base + start + 1,
            host_base=ctx.visit_base + start,
        )
        origin_indices = np.random.default_rng(
            [seed, 101, epoch, block_index]
        ).integers(0, len(deployment.origins), size=count)
        days = np.random.default_rng(
            [seed, 103, epoch, block_index]
        ).integers(0, config.days, size=count)
        if config.day_offset:
            # The longitudinal engine shifts each epoch's day window; the
            # draws themselves are unchanged, so campaign content is the
            # same campaign translated in time.
            days = days + config.day_offset
        scoped = deployment.scheduler.scoped(
            np.random.default_rng([seed, 131, epoch, block_index])
        )
        tasks = scoped.all_tasks
        if self.mode == "serial":
            # The scalar reference: one schedule() call per visitor object.
            decisions = [scoped.schedule(client) for client in batch.clients()]
            index = {id(task): i for i, task in enumerate(tasks)}
            row_visit = [v for v, d in enumerate(decisions) for _ in d.tasks]
            row_task = [index[id(t)] for d in decisions for t in d.tasks]
        else:
            # Batch mode schedules straight off the column arrays into rows;
            # per-visit Client objects are never materialized.
            row_visit, row_task, _ = scoped.assign_batch(batch)
        ctx.count_assignments(scoped.assignment_counts)
        program = compile_program(
            ctx.urls, tasks, np.asarray(row_visit, dtype=np.int64),
            np.asarray(row_task, dtype=np.int64), count,
            ctx.delivery_url_ids, ctx.submit_url_id,
        )
        uniforms = np.random.default_rng(
            [seed, 211, epoch, block_index]
        ).random((len(program), DRAWS_PER_SLOT))
        block = _BlockPlan(
            index=block_index,
            start=start,
            count=count,
            client_batch=batch,
            origin_indices=origin_indices,
            days=days,
            program=program,
            uniforms=uniforms,
        )
        return block

    def _slice_block(self, ctx: PlanContext, block: _BlockPlan, lo: int, hi: int) -> BatchPlan:
        """The executable plan for absolute visits ``[lo, hi)`` of ``block``.

        A full-block slice reuses the block's compiled program and draws; a
        partial slice (a batch boundary that cuts through the block)
        recompiles the program of the block's row slice — the slot layout of
        a visit depends only on its own rows, so the sub-program is exactly
        the corresponding slot range of the block program, and the pre-drawn
        uniform rows are sliced to match.
        """
        l0, l1 = lo - block.start, hi - block.start
        if l0 == 0 and l1 == block.count:
            batch = block.client_batch
            program = block.program
            uniforms = block.uniforms
        else:
            batch = block.client_batch.slice(l0, l1)
            whole = block.program
            r0, r1 = whole.row_bounds[l0], whole.row_bounds[l1]
            program = compile_program(
                ctx.urls, whole.tasks, whole.row_visit[r0:r1] - l0,
                whole.row_task[r0:r1], l1 - l0, ctx.delivery_url_ids, ctx.submit_url_id,
            )
            uniforms = block.uniforms[whole.slot_bounds[l0]:whole.slot_bounds[l1]]
        visit_idx = program.visit
        draws = derive_slot_draws(
            uniforms,
            batch.rtt_ms[visit_idx],
            batch.jitter_ms[visit_idx],
            batch.loss_rate[visit_idx],
            batch.bandwidth_kbps[visit_idx],
        )
        return BatchPlan(
            start_visit=lo,
            client_batch=batch,
            origin_indices=block.origin_indices[l0:l1],
            days=block.days[l0:l1],
            program=program,
            draws=draws,
        )

    def plan_parts(self, ctx: PlanContext, start: int, end: int) -> Iterable[BatchPlan]:
        """Executable plans covering visits ``[start, end)``, one per block piece."""
        B = ctx.block_visits
        visit = start
        while visit < end:
            block = self._plan_block(ctx, visit // B)
            hi = min(end, block.start + block.count)
            yield self._slice_block(ctx, block, visit, hi)
            visit = hi

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_plan(self, ctx: PlanContext, plan: BatchPlan) -> BatchOutcome:
        if self.mode == "serial":
            return SerialExecutor(
                self.deployment, ctx.urls, ctx.submit_url_id
            ).execute(plan)
        return BatchExecutor(
            self.deployment, ctx.urls, ctx.verdicts, ctx.submit_url_id
        ).execute(plan)


# ----------------------------------------------------------------------
# Serial reference executor
# ----------------------------------------------------------------------
class _SlotResult:
    """Scalar fetch result, mirroring what the vectorized pass records."""

    __slots__ = ("completed", "ok", "status", "has_response", "is_block",
                 "from_cache", "elapsed")

    def __init__(self) -> None:
        self.completed = False
        self.ok = False
        self.status = 0
        self.has_response = False
        self.is_block = False
        self.from_cache = False
        self.elapsed = 0.0


class SerialExecutor:
    """The reference implementation: one visit at a time, one fetch at a time.

    Walks each visit's fetch program in order, re-deriving the censor action
    at every stage from the interceptor objects on the client's path (the
    way :meth:`Network.fetch` consults them), and consuming the same derived
    draw columns the vectorized executor reads.
    """

    def __init__(self, deployment, urls: UrlTable, submit_url_id: int) -> None:
        self.deployment = deployment
        self.urls = urls
        self.submit_url_id = submit_url_id

    # -- one network fetch ------------------------------------------------
    def _fetch(self, slot: int, url_id: int, interceptors, draws: SlotDraws,
               cached_urls: set[int], use_cache: bool) -> _SlotResult:
        urls = self.urls
        result = _SlotResult()
        if use_cache and url_id in cached_urls:
            result.from_cache = True
            result.elapsed = draws.cached_render_ms[slot]
            return result
        verdict = compute_verdict(
            interceptors, urls.urls[url_id], urls.hosts[url_id], urls.server_known[url_id]
        )
        dns_code, tcp_code, http_code = verdict
        elapsed = draws.rtt_dns_ms[slot]
        if dns_code == DNS_TIMEOUT:
            result.elapsed = elapsed + DNS_TIMEOUT_PENALTY_MS
            return result
        if dns_code == DNS_NXDOMAIN:
            result.elapsed = elapsed
            return result
        sinkholed = dns_code == DNS_INJECT
        # TCP stage.
        if tcp_code == TCP_DROP:
            result.elapsed = elapsed + CONNECT_TIMEOUT_MS
            return result
        if tcp_code == TCP_RESET:
            result.elapsed = elapsed + draws.rtt_tcp_ms[slot]
            return result
        if draws.tcp_lost[slot] and draws.tcp_giveup[slot]:
            result.elapsed = elapsed + CONNECT_TIMEOUT_MS
            return result
        elapsed = elapsed + draws.rtt_tcp_ms[slot]
        if draws.tcp_lost[slot]:
            elapsed = elapsed + draws.retransmit_ms[slot]
        # HTTP stage.
        if http_code == HTTP_DROP:
            result.elapsed = elapsed + REQUEST_TIMEOUT_MS
            return result
        if http_code == HTTP_RESET:
            result.elapsed = elapsed + draws.rtt_http_ms[slot]
            return result
        if http_code == HTTP_BLOCK:
            result.completed = True
            result.status = 200
            result.has_response = True
            result.is_block = True
            result.elapsed = (
                elapsed
                + draws.rtt_http_ms[slot]
                + BLOCK_PAGE_SIZE_BYTES / draws.bytes_per_ms[slot]
            )
            return result
        server_reachable = urls.server_known[url_id] and not sinkholed
        if http_code == HTTP_THROTTLE:
            if not server_reachable:
                result.elapsed = elapsed + REQUEST_TIMEOUT_MS
                return result
            exchange = (
                draws.rtt_http_ms[slot]
                + urls.size_bytes[url_id] / draws.bytes_per_ms[slot] * THROTTLE_FACTOR
            )
            if exchange >= REQUEST_TIMEOUT_MS:
                result.elapsed = elapsed + REQUEST_TIMEOUT_MS
                return result
            result.completed = True
            result.status = urls.status[url_id]
            result.has_response = True
            result.ok = urls.resp_ok[url_id]
            result.elapsed = elapsed + exchange
            return result
        # PASS.
        if not server_reachable:
            result.elapsed = elapsed + REQUEST_TIMEOUT_MS
            return result
        if draws.http_lost[slot] and draws.http_giveup[slot]:
            result.elapsed = elapsed + REQUEST_TIMEOUT_MS
            return result
        result.completed = True
        result.status = urls.status[url_id]
        result.has_response = True
        result.ok = urls.resp_ok[url_id]
        result.elapsed = (
            elapsed
            + draws.rtt_http_ms[slot]
            + urls.size_bytes[url_id] / draws.bytes_per_ms[slot]
        )
        return result

    # -- one whole visit ---------------------------------------------------
    def execute(self, plan: BatchPlan) -> BatchOutcome:
        deployment = self.deployment
        urls = self.urls
        program = plan.program
        draws = plan.draws
        world = deployment.world
        origins = deployment.origins
        # Per-row columns, and a table of the visits that store a row: a
        # visit joins it with its first stored row, and ``visit_of_row``
        # indexes it.
        row_tasks: list[MeasurementTask] = []
        outcome_codes: list[int] = []
        elapsed_ms: list[float] = []
        probe_ms: list[float] = []
        days: list[int] = []
        visit_of_row: list[int] = []
        stored_clients: list[Client] = []
        stored_origins: list[str | None] = []
        unreachable = 0
        attempted = 0
        failed = 0
        supports_probe = CACHED_PROBE_THRESHOLD_MS
        url_ids, use_cache = program.url_id.tolist(), program.use_cache.tolist()
        row_bounds, slot_bounds = program.row_bounds.tolist(), program.slot_bounds.tolist()
        main_slots, probe_slots, submit_slots = (
            program.main_slot.tolist(), program.probe_slot.tolist(), program.submit_slot.tolist()
        )
        for visit in range(len(plan.client_batch)):
            rows = range(row_bounds[visit], row_bounds[visit + 1])
            if not rows:
                continue
            attempted += 1
            client = plan.client_batch.client(visit)
            interceptors = world.interceptors_for(client)
            cached_urls: set[int] = set()

            def run_slot(slot: int) -> _SlotResult:
                url_id = url_ids[slot]
                result = self._fetch(
                    slot, url_id, interceptors, draws, cached_urls, use_cache[slot]
                )
                if (
                    not result.from_cache
                    and result.ok
                    and not result.is_block
                    and urls.cacheable[url_id]
                ):
                    cached_urls.add(url_id)
                return result

            delivered = False
            for slot in range(slot_bounds[visit], main_slots[rows[0]]):
                coord = run_slot(slot)
                if coord.ok and not coord.is_block:
                    delivered = True
                    break
            if not delivered:
                failed += 1
                continue
            origin = origins[plan.origin_indices[visit]]
            day = int(plan.days[visit])
            browser_profile = client.browser
            for row in rows:
                task = program.tasks[program.row_task[row]]
                main_slot, probe_slot = main_slots[row], probe_slots[row]
                probe_time = np.nan
                if task.task_type is TaskType.INLINE_FRAME:
                    page = run_slot(main_slot)
                    page_ok = page.from_cache or (
                        page.ok and not page.is_block and urls.is_page[url_ids[main_slot]]
                    )
                    page_elapsed = page.elapsed
                    if page_ok and not page.from_cache:
                        for embedded_slot in range(main_slot + 1, probe_slot):
                            embedded = run_slot(embedded_slot)
                            page_elapsed = page_elapsed + embedded.elapsed
                    probe = run_slot(probe_slot)
                    probe_type = urls.content_type[url_ids[probe_slot]]
                    probe_renders = (
                        probe.ok and not probe.is_block
                        and probe_type is not None and probe_type.name == "IMAGE"
                    )
                    probe_error = (
                        not probe.from_cache
                        and browser_profile.reports_image_events
                        and not probe_renders
                    )
                    probe_time = float(probe.elapsed)
                    if probe_error:
                        outcome_code = OUT_FAILURE
                    elif probe.elapsed <= supports_probe:
                        outcome_code = OUT_SUCCESS
                    else:
                        outcome_code = OUT_FAILURE
                    elapsed_total = float(page_elapsed + probe.elapsed)
                else:
                    load = run_slot(main_slot)
                    outcome_code = _scalar_task_outcome(
                        task.task_type, load, urls, url_ids[main_slot], browser_profile
                    )
                    elapsed_total = float(load.elapsed)
                submission = run_slot(submit_slots[row])
                if not (submission.ok and not submission.is_block):
                    unreachable += 1
                    continue
                if not stored_clients or stored_clients[-1] is not client:
                    stored_clients.append(client)
                    # An origin that strips the Referer hides itself.
                    stored_origins.append(None if origin.strips_referer else origin.domain)
                visit_of_row.append(len(stored_clients) - 1)
                row_tasks.append(task)
                outcome_codes.append(outcome_code)
                elapsed_ms.append(elapsed_total)
                probe_ms.append(probe_time)
                days.append(day)
        visit_index = np.asarray(visit_of_row, dtype=np.int64)
        columns = ColumnarRecords(
            measurement_id=[task.measurement_id for task in row_tasks],
            task_type=[task.task_type for task in row_tasks],
            target_url=[task.target_url for task in row_tasks],
            target_domain=[task.target_domain for task in row_tasks],
            outcome=DictColumn(_OUTCOMES, np.asarray(outcome_codes, dtype=np.int64)),
            elapsed_ms=np.asarray(elapsed_ms, dtype=np.float64),
            probe_time_ms=np.asarray(probe_ms, dtype=np.float64),
            client_ip=DictColumn([c.ip_address for c in stored_clients], visit_index),
            country_code=DictColumn([c.country_code for c in stored_clients], visit_index),
            isp=DictColumn([c.isp for c in stored_clients], visit_index),
            browser_family=DictColumn(
                [c.browser.family.value for c in stored_clients], visit_index
            ),
            origin_domain=DictColumn(stored_origins, visit_index),
            day=np.asarray(days, dtype=np.int64),
            is_automated=np.asarray(
                [c.is_automated for c in stored_clients], dtype=bool
            )[visit_index],
        )
        return BatchOutcome(
            columns=columns,
            unreachable_submissions=unreachable,
            deliveries_attempted=attempted,
            deliveries_failed=failed,
        )


def _first_appearances(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``codes`` (each below ``size``) in order of first
    appearance, and each code's position in that order."""
    used, first = np.unique(codes, return_index=True)
    order = used[np.argsort(first)]
    position = np.empty(size, dtype=np.int64)
    position[order] = np.arange(len(order))
    return order, position


def _scalar_task_outcome(task_type: TaskType, load: _SlotResult, urls: UrlTable,
                         url_id: int, browser_profile) -> int:
    """Outcome of an explicit-feedback task, mirroring ``execute_task``."""
    content_type = urls.content_type[url_id]
    type_name = content_type.name if content_type is not None else ""
    if task_type is TaskType.IMAGE:
        if not browser_profile.reports_image_events:
            return OUT_INCONCLUSIVE
        if load.from_cache:
            return OUT_SUCCESS
        renders = load.ok and not load.is_block and type_name == "IMAGE"
        return OUT_SUCCESS if renders else OUT_FAILURE
    if task_type is TaskType.STYLE_SHEET:
        if not browser_profile.supports_computed_style_check:
            return OUT_INCONCLUSIVE
        if load.from_cache:
            return OUT_SUCCESS
        applied = (
            load.ok and not load.is_block and type_name == "STYLESHEET"
            and urls.size_bytes[url_id] > 0
        )
        return OUT_SUCCESS if applied else OUT_FAILURE
    if task_type is TaskType.SCRIPT:
        if not browser_profile.supports_script_task:
            return OUT_INCONCLUSIVE
        if load.from_cache:
            return OUT_SUCCESS
        # Chrome fires onload for any completed HTTP 200 — block pages
        # included (paper §4.3.2).
        loaded = load.status == 200 and load.has_response
        return OUT_SUCCESS if loaded else OUT_FAILURE
    raise ValueError(f"not an explicit-feedback task type: {task_type!r}")


# ----------------------------------------------------------------------
# Vectorized executor
# ----------------------------------------------------------------------
class BatchExecutor:
    """Evaluates a whole batch's fetch program with vectorized numpy passes.

    Produces results identical to :class:`SerialExecutor`'s for the same
    :class:`BatchPlan`: censorship verdicts come from the
    :class:`VerdictCache` instead of per-fetch interceptor walks, elapsed
    times accumulate with the same staged additions over the same derived
    draws, and the handful of visits with within-visit cache interactions
    (inline frames) fall back to a scalar walk over the precomputed slot
    results.
    """

    def __init__(self, deployment, urls: UrlTable, verdicts: VerdictCache,
                 submit_url_id: int) -> None:
        self.deployment = deployment
        self.urls = urls
        self.verdicts = verdicts
        self.submit_url_id = submit_url_id

    # ------------------------------------------------------------------
    def execute(self, plan: BatchPlan) -> BatchOutcome:
        program = plan.program
        draws = plan.draws
        urls = self.urls
        batch = plan.client_batch
        n = len(program)
        attempted = int(np.count_nonzero(np.diff(program.row_bounds)))

        visit, kind, url_id = program.visit, program.kind, program.url_id

        # --- Per-slot URL facts -----------------------------------------
        status_table = np.asarray(urls.status, dtype=np.int64)
        ok_table = np.asarray(urls.resp_ok, dtype=bool)
        size_table = np.asarray(urls.size_bytes, dtype=np.float64)
        known_table = np.asarray(urls.server_known, dtype=bool)
        page_table = np.asarray(urls.is_page, dtype=bool)
        image_table = np.asarray(
            [c is not None and c.name == "IMAGE" for c in urls.content_type], dtype=bool
        )
        style_table = np.asarray(
            [c is not None and c.name == "STYLESHEET" for c in urls.content_type], dtype=bool
        )
        slot_status = status_table[url_id]
        slot_resp_ok = ok_table[url_id]
        slot_size = size_table[url_id]
        slot_known = known_table[url_id]

        # --- Per-slot censorship verdicts -------------------------------
        dns_code, tcp_code, http_code = self._slot_verdicts(batch, visit, url_id)

        # --- The vectorized fetch pass (no within-visit caching) --------
        completed = np.zeros(n, dtype=bool)
        ok = np.zeros(n, dtype=bool)
        status = np.zeros(n, dtype=np.int64)
        has_response = np.zeros(n, dtype=bool)
        is_block = np.zeros(n, dtype=bool)

        elapsed = draws.rtt_dns_ms.copy()
        elapsed[dns_code == DNS_TIMEOUT] += DNS_TIMEOUT_PENALTY_MS
        alive = (dns_code == DNS_PASS) | (dns_code == DNS_INJECT)

        tcp_drop = alive & (tcp_code == TCP_DROP)
        elapsed[tcp_drop] += CONNECT_TIMEOUT_MS
        tcp_reset = alive & (tcp_code == TCP_RESET)
        elapsed[tcp_reset] += draws.rtt_tcp_ms[tcp_reset]
        alive &= tcp_code == TCP_PASS
        tcp_lost_giveup = alive & draws.tcp_lost & draws.tcp_giveup
        elapsed[tcp_lost_giveup] += CONNECT_TIMEOUT_MS
        alive &= ~tcp_lost_giveup
        elapsed[alive] += draws.rtt_tcp_ms[alive]
        retransmitted = alive & draws.tcp_lost
        elapsed[retransmitted] += draws.retransmit_ms[retransmitted]

        http_drop = alive & (http_code == HTTP_DROP)
        elapsed[http_drop] += REQUEST_TIMEOUT_MS
        http_reset = alive & (http_code == HTTP_RESET)
        elapsed[http_reset] += draws.rtt_http_ms[http_reset]
        blocked = alive & (http_code == HTTP_BLOCK)
        # Two separate adds, mirroring the serial reference's left-to-right
        # accumulation so the float results stay bit-identical.
        elapsed[blocked] += draws.rtt_http_ms[blocked]
        elapsed[blocked] += BLOCK_PAGE_SIZE_BYTES / draws.bytes_per_ms[blocked]
        completed[blocked] = True
        status[blocked] = 200
        has_response[blocked] = True
        is_block[blocked] = True

        reachable = slot_known & (dns_code != DNS_INJECT)
        throttled = alive & (http_code == HTTP_THROTTLE)
        throttle_dead = throttled & ~reachable
        elapsed[throttle_dead] += REQUEST_TIMEOUT_MS
        throttle_live = throttled & reachable
        exchange = np.zeros(n, dtype=np.float64)
        exchange[throttle_live] = (
            draws.rtt_http_ms[throttle_live]
            + slot_size[throttle_live] / draws.bytes_per_ms[throttle_live] * THROTTLE_FACTOR
        )
        throttle_timeout = throttle_live & (exchange >= REQUEST_TIMEOUT_MS)
        elapsed[throttle_timeout] += REQUEST_TIMEOUT_MS
        throttle_done = throttle_live & ~throttle_timeout
        elapsed[throttle_done] += exchange[throttle_done]
        completed[throttle_done] = True
        status[throttle_done] = slot_status[throttle_done]
        has_response[throttle_done] = True
        ok[throttle_done] = slot_resp_ok[throttle_done]

        passing = alive & (http_code == HTTP_PASS)
        pass_dead = passing & ~reachable
        elapsed[pass_dead] += REQUEST_TIMEOUT_MS
        pass_lost = passing & reachable & draws.http_lost & draws.http_giveup
        elapsed[pass_lost] += REQUEST_TIMEOUT_MS
        pass_done = passing & reachable & ~(draws.http_lost & draws.http_giveup)
        elapsed[pass_done] += draws.rtt_http_ms[pass_done]
        elapsed[pass_done] += slot_size[pass_done] / draws.bytes_per_ms[pass_done]
        completed[pass_done] = True
        status[pass_done] = slot_status[pass_done]
        has_response[pass_done] = True
        ok[pass_done] = slot_resp_ok[pass_done]

        # --- Delivery ----------------------------------------------------
        # Only visits with rows have delivery slots.
        delivered = np.zeros(len(batch), dtype=bool)
        delivered[visit[(kind == KIND_COORD) & ok]] = True
        failed = attempted - int(np.count_nonzero(delivered))

        # --- Vectorized outcomes for explicit-feedback target slots -----
        task_code = program.task_code
        reports_t, style_sup_t, script_sup_t = self._capability_arrays(batch)
        reports = reports_t[visit]
        style_sup = style_sup_t[visit]
        script_sup = script_sup_t[visit]
        outcome_code = np.full(n, -1, dtype=np.int8)
        img = task_code == TASK_IMAGE
        outcome_code[img] = np.where(
            reports[img],
            np.where(ok[img] & image_table[url_id[img]], OUT_SUCCESS, OUT_FAILURE),
            OUT_INCONCLUSIVE,
        )
        sty = task_code == TASK_STYLE
        outcome_code[sty] = np.where(
            style_sup[sty],
            np.where(
                ok[sty] & style_table[url_id[sty]] & (slot_size[sty] > 0),
                OUT_SUCCESS,
                OUT_FAILURE,
            ),
            OUT_INCONCLUSIVE,
        )
        scr = task_code == TASK_SCRIPT
        outcome_code[scr] = np.where(
            script_sup[scr],
            np.where((status[scr] == 200) & has_response[scr], OUT_SUCCESS, OUT_FAILURE),
            OUT_INCONCLUSIVE,
        )

        # --- Row assembly by index ----------------------------------------
        # Rows are described by index arrays — which delivered visit, which
        # task-table entry, which slot — and everything repeated (task
        # attributes, per-visit client attributes, per-origin stripping)
        # stays in small value tables that the store expands by fancy-index.
        # Rows of cache visits are overwritten by the scalar cache-aware walk.
        row_bounds = program.row_bounds
        out_rows = outcome_code[program.main_slot].astype(np.int64)
        elapsed_rows = elapsed[program.main_slot]
        probe_rows = np.full(len(out_rows), np.nan)
        slot_cacheable = np.asarray(urls.cacheable, dtype=bool)[url_id]
        for v in np.flatnonzero(program.cache_visit & delivered).tolist():
            r0, r1 = row_bounds[v], row_bounds[v + 1]
            walked = self._cache_aware_rows(
                program, range(r0, r1), batch.browser(v), draws, elapsed, ok, status,
                has_response, is_block, slot_cacheable, image_table, page_table,
            )
            out_rows[r0:r1], elapsed_rows[r0:r1], probe_rows[r0:r1] = zip(*walked)
        kept = np.flatnonzero(delivered[program.row_visit])

        # A submission reaches the server iff its fetch succeeded; the rest
        # are tallied as unreachable, exactly like the serial walk.
        sent = ok[program.submit_slot[kept]]
        unreachable = int(len(sent) - np.count_nonzero(sent))
        kept = kept[sent]

        # The value tables hold only what stored rows use, in the serial
        # walk's order: tasks and origins by first stored row, client values
        # per visit that stored a row, in visit order.
        task_rows = program.row_task[kept]
        order, table_index = _first_appearances(task_rows, len(program.tasks))
        table = [program.tasks[k] for k in order.tolist()]
        task_arr = table_index[task_rows]
        row_visits = program.row_visit[kept]
        stores = np.zeros(len(delivered), dtype=bool)
        stores[row_visits] = True
        stored = np.flatnonzero(stores)
        pos_arr = (np.cumsum(stores) - 1)[row_visits]
        stored_visits = stored.tolist()
        origins = self.deployment.origins
        family_names = [p.family.value for p in batch.browser_profiles]
        row_origins = np.asarray(plan.origin_indices, dtype=np.int64)[row_visits]
        origin_order, origin_index = _first_appearances(row_origins, len(origins))
        origin_values = [
            None if origins[k].strips_referer else origins[k].domain
            for k in origin_order.tolist()
        ]
        columns = ColumnarRecords(
            measurement_id=DictColumn([t.measurement_id for t in table], task_arr),
            task_type=DictColumn([t.task_type for t in table], task_arr),
            target_url=DictColumn([t.target_url for t in table], task_arr),
            target_domain=DictColumn([t.target_domain for t in table], task_arr),
            outcome=DictColumn(_OUTCOMES, out_rows[kept]),
            elapsed_ms=elapsed_rows[kept],
            probe_time_ms=probe_rows[kept],
            client_ip=DictColumn(
                np.asarray(batch.ip_addresses, dtype=np.str_)[stored], pos_arr
            ),
            country_code=DictColumn(
                [batch.country_codes[v] for v in stored_visits], pos_arr
            ),
            isp=DictColumn([batch.isp(v) for v in stored_visits], pos_arr),
            browser_family=DictColumn(
                np.asarray(family_names, dtype=np.str_)[
                    np.asarray(batch.browser_indices, dtype=np.int64)[stored]
                ],
                pos_arr,
            ),
            origin_domain=DictColumn(origin_values, origin_index[row_origins]),
            day=np.asarray(plan.days, dtype=np.int64)[stored][pos_arr],
            is_automated=np.asarray(batch.automated, dtype=bool)[stored][pos_arr],
        )
        return BatchOutcome(
            columns=columns,
            unreachable_submissions=unreachable,
            deliveries_attempted=attempted,
            deliveries_failed=failed,
        )

    # ------------------------------------------------------------------
    def _slot_verdicts(self, batch, visit: np.ndarray, url_id: np.ndarray):
        """(dns, tcp, http) code arrays for every slot via the verdict cache."""
        country_ids: dict[str, int] = {}
        codes: list[str] = []
        per_visit = np.empty(len(batch), dtype=np.int64)
        for index, code in enumerate(batch.country_codes):
            cid = country_ids.get(code)
            if cid is None:
                cid = len(codes)
                country_ids[code] = cid
                codes.append(code)
            per_visit[index] = cid
        n_urls = len(self.urls)
        keys = per_visit[visit] * n_urls + url_id
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        dns_u = np.empty(len(unique_keys), dtype=np.int8)
        tcp_u = np.empty(len(unique_keys), dtype=np.int8)
        http_u = np.empty(len(unique_keys), dtype=np.int8)
        for index, key in enumerate(unique_keys):
            country = codes[int(key) // n_urls]
            dns_c, tcp_c, http_c = self.verdicts.verdict(country, int(key) % n_urls)
            dns_u[index] = dns_c
            tcp_u[index] = tcp_c
            http_u[index] = http_c
        return dns_u[inverse], tcp_u[inverse], http_u[inverse]

    @staticmethod
    def _capability_arrays(batch):
        profiles = batch.browser_profiles
        reports = np.asarray([p.reports_image_events for p in profiles], dtype=bool)
        style = np.asarray([p.supports_computed_style_check for p in profiles], dtype=bool)
        script = np.asarray([p.supports_script_task for p in profiles], dtype=bool)
        idx = batch.browser_indices
        return reports[idx], style[idx], script[idx]

    # ------------------------------------------------------------------
    def _cache_aware_rows(
        self, program, rows, profile, draws, elapsed, ok, status,
        has_response, is_block, slot_cacheable, image_table, page_table,
    ):
        """Scalar walk over one visit's rows with within-visit cache interactions.

        Uses the vectorized pass's per-slot results as the no-cache baseline
        and overlays browser-cache hits in fetch order, exactly as the serial
        reference does.  Returns ``(outcome code, elapsed, probe time or
        NaN)`` per row.
        """
        url_id = program.url_id
        cached: set[int] = set()
        walked = []

        def slot_result(slot: int) -> _SlotResult:
            result = _SlotResult()
            uid = int(url_id[slot])
            if uid in cached:
                result.from_cache = True
                result.elapsed = draws.cached_render_ms[slot]
                return result
            result.completed = bool(has_response[slot]) or bool(ok[slot])
            result.ok = bool(ok[slot])
            result.status = int(status[slot])
            result.has_response = bool(has_response[slot])
            result.is_block = bool(is_block[slot])
            result.elapsed = elapsed[slot]
            if result.ok and not result.is_block and slot_cacheable[slot]:
                cached.add(uid)
            return result

        for row in rows:
            task = program.tasks[program.row_task[row]]
            main_slot, probe_slot = int(program.main_slot[row]), int(program.probe_slot[row])
            probe_time = np.nan
            if task.task_type is TaskType.INLINE_FRAME:
                page = slot_result(main_slot)
                page_ok = page.from_cache or (
                    page.ok and not page.is_block and bool(page_table[url_id[main_slot]])
                )
                page_elapsed = page.elapsed
                if page_ok and not page.from_cache:
                    for embedded_slot in range(main_slot + 1, probe_slot):
                        embedded = slot_result(embedded_slot)
                        page_elapsed = page_elapsed + embedded.elapsed
                probe = slot_result(probe_slot)
                probe_renders = (
                    probe.ok and not probe.is_block and bool(image_table[url_id[probe_slot]])
                )
                probe_error = (
                    not probe.from_cache
                    and profile.reports_image_events
                    and not probe_renders
                )
                probe_time = float(probe.elapsed)
                if probe_error:
                    code = OUT_FAILURE
                elif probe.elapsed <= CACHED_PROBE_THRESHOLD_MS:
                    code = OUT_SUCCESS
                else:
                    code = OUT_FAILURE
                elapsed_total = float(page_elapsed + probe.elapsed)
            else:
                load = slot_result(main_slot)
                code = _scalar_task_outcome(
                    task.task_type, load, self.urls, int(url_id[main_slot]), profile
                )
                elapsed_total = float(load.elapsed)
            walked.append((code, elapsed_total, probe_time))
        return walked
