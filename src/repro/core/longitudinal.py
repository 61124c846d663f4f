"""Longitudinal campaigns: time-varying censorship over simulated days.

Encore's core promise is *longitudinal* measurement — continuous background
collection that reveals when a country starts or stops filtering a site —
and this module is the workload that cashes it in.  A longitudinal run is a
sequence of **epochs** over simulated days:

1. **Policy.**  A :class:`~repro.censor.policy.PolicyTimeline` scripts
   onset/offset/throttle events per (country, domain).  Before each epoch
   the engine publishes the epoch's posture into
   ``WorldConfig.timeline_rules`` and calls
   :meth:`World.refresh_timeline_censors`, which swings per-country managed
   censors via the :meth:`BlacklistPolicy.replace_domains` hook.  Because
   the posture lives in the (JSON-serializable) world config, sharded
   workers that rebuild the world enforce the same policy, and the sharded
   campaign signature covers it.
2. **Collect.**  Each epoch runs one ordinary campaign over its day window
   (``CampaignConfig.day_offset`` slides per epoch) through the block-keyed
   planner, so an epoch is reproducible from ``(seed, epoch)`` alone.  All
   epochs ingest into one (possibly spilled) collection store.
3. **Aggregate.**  The query kernel
   (:func:`repro.core.query.grouped_success_counts` ``by_day=True``)
   reduces the whole corpus to a dense per-(domain, country)
   :class:`~repro.core.store.DaySeries` of success counts, folding each
   sealed segment once, fully vectorized, nothing concatenated.
4. **Detect.**  :class:`~repro.core.inference.CusumChangePointDetector`
   scans every cell's daily success-rate series online and emits
   :class:`~repro.core.inference.CensorshipEvent` onsets/offsets with their
   detection lag; :func:`~repro.analysis.reports.build_timeline_report`
   grades them against the scripted ground truth.  The same kernel's
   ``Quantiles("elapsed_ms", ...)`` aggregate feeds a
   :class:`~repro.core.inference.TimingCusumDetector`
   (:meth:`LongitudinalResult.timing_events`) that catches *throttling* —
   the censorship signature success rates cannot see, graded by
   :func:`~repro.analysis.reports.build_throttle_report`.

**Always-on monitoring.**  With ``LongitudinalConfig.checkpoint_dir`` set,
the run becomes an incremental, killable monitor loop.  Per epoch the engine
seals the store's pending rows and folds only the *new* segments into the
persistent day-bucketed aggregate (the query kernel keeps a fold
watermark), and advances a :class:`~repro.core.inference.CusumState` over
only the new day columns — so per-epoch cost stays flat as history grows
(``benchmarks/test_bench_monitor.py``, ``BENCH_monitor.json``).  Each
epoch's campaign runs as one inline shard with
``worker_spill_dir=checkpoint_dir``: its manifest is keyed by the campaign
signature (which covers the campaign config and the world config
*including the epoch's timeline posture*), so a restarted monitor
re-adopts completed epochs' rows instead of re-executing them.  Those
epoch commits — manifests and the segments they name — are all a run
reads from the directory.  The CUSUM state is never stored: every run
starts from a fresh state and advances it over each epoch it executes or
adopts, so a restart re-derives the cells, events and adaptive baselines
from the committed rows and ends bit-identical to an uninterrupted cold
run of the same epochs.  Without a checkpoint
directory each epoch is a plain batch campaign.  ``adaptive_baselines=True``
additionally seeds per-country healthy baselines from
:meth:`~repro.core.inference.AdaptiveFilteringDetector.country_priors`
after the first epoch.

Front door: :meth:`EncoreDeployment.run_longitudinal`.  Throughput of the
aggregation + detection stage is tracked by
``benchmarks/test_bench_longitudinal.py`` (``BENCH_longitudinal.json``);
flatness of the incremental monitor loop by
``benchmarks/test_bench_monitor.py`` (``BENCH_monitor.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.censor.policy import PolicyTimeline
from repro.core.inference import (
    CensorshipEvent,
    CusumChangePointDetector,
    CusumState,
    TimingCusumDetector,
)
from repro.core.query import grouped_success_counts, timing_day_series
from repro.core.store import DaySeries
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_TRACER


@dataclass
class LongitudinalConfig:
    """Parameters of one longitudinal (multi-epoch) run.

    Each epoch is a batch campaign, or with a ``checkpoint_dir`` one
    crash-resumable inline shard; both give the same rows and the same
    events.
    """

    #: How many epochs to run.  ``None`` covers the timeline: enough epochs
    #: that the last scripted event has at least ``trailing_epochs`` of
    #: post-event data to be detected from.
    epochs: int | None = None
    #: Simulated days per epoch (the policy is re-evaluated per epoch, so
    #: this is also the granularity at which scripted events take effect).
    days_per_epoch: int = 1
    #: Origin-site visits simulated per epoch.
    visits_per_epoch: int = 2000
    #: Epochs kept running after the last scripted event when ``epochs`` is
    #: unset, so offsets near the end of the script remain detectable.
    trailing_epochs: int = 5
    #: The online change-point detector run over the day-bucketed rates.
    detector: CusumChangePointDetector = field(default_factory=CusumChangePointDetector)
    #: The timing-side detector run over per-day ``elapsed_ms`` quantiles —
    #: catches the throttle events success rates cannot see.
    timing_detector: TimingCusumDetector = field(default_factory=TimingCusumDetector)
    #: Directory for the always-on monitor's epoch commits: each epoch's
    #: manifest and the segments it names, which a restart adopts instead
    #: of re-executing the epoch.  Detection state is rebuilt from the
    #: adopted rows, never stored.  ``None`` (the default) runs the engine
    #: statelessly.
    checkpoint_dir: str | None = None
    #: Seed per-country healthy baselines for the CUSUM from
    #: ``AdaptiveFilteringDetector.country_priors`` after the first epoch,
    #: with or without a ``checkpoint_dir``.
    adaptive_baselines: bool = False
    #: Telemetry (strictly write-only: rows/events are bit-identical with
    #: tracing on or off).  A :class:`~repro.obs.trace.Tracer` the caller
    #: opens and closes, or ``None`` for the zero-overhead no-op tracer.
    #: Not part of the campaign signature that keys the epoch manifests,
    #: so traced and untraced runs resume each other's checkpoints.
    tracer: object | None = None

    def resolved_epochs(self, timeline: PolicyTimeline) -> int:
        if self.epochs is not None:
            return self.epochs
        if len(timeline) == 0:
            raise ValueError(
                "cannot infer an epoch count from an event-free timeline; "
                "pass epochs=N explicitly"
            )
        final_epoch = timeline.final_day() // self.days_per_epoch
        return final_epoch + 1 + self.trailing_epochs


@dataclass(frozen=True)
class EpochSummary:
    """What one epoch ran: its day window, volume, and the posture in force."""

    epoch: int
    first_day: int
    days: int
    visits: int
    measurements_added: int
    #: (country, domain) pairs hard-blocked during the epoch.
    blocked: tuple[tuple[str, str], ...]
    #: (country, domain) pairs throttled during the epoch.
    throttled: tuple[tuple[str, str], ...]
    #: Whether the epoch's rows were adopted from surviving checkpoint
    #: manifests instead of re-executed (epoch-level crash resume).
    resumed: bool = False


@dataclass
class LongitudinalResult:
    """Everything a longitudinal run produced, with lazy detection."""

    config: LongitudinalConfig
    timeline: PolicyTimeline
    collection: object  #: the deployment's CollectionServer
    epochs: list[EpochSummary]
    #: The incremental CUSUM state a checkpointed run maintained (``None``
    #: for stateless runs); its ``events`` are the run's events.
    monitor: CusumState | None = None
    #: The per-country healthy baselines ``adaptive_baselines`` seeded
    #: (``None`` without it); every scan of the run uses them.
    baselines: dict[str, float] | None = None

    def __post_init__(self) -> None:
        self._events: list[CensorshipEvent] | None = None
        self._events_key: tuple | None = None
        self._timing_events: list[CensorshipEvent] | None = None
        self._timing_events_key: tuple | None = None
        # The store version + detector tuning the monitor state was built
        # under; if either moves, events() falls back to a full scan.
        self._monitor_key = (
            (self.collection.store.version, self.config.detector.config_key())
            if self.monitor is not None
            else None
        )

    @property
    def detector(self) -> CusumChangePointDetector:
        return self.config.detector

    @property
    def total_days(self) -> int:
        return len(self.epochs) * self.config.days_per_epoch

    @property
    def measurements(self) -> int:
        return sum(epoch.measurements_added for epoch in self.epochs)

    def day_counts(self) -> DaySeries:
        """Per-(domain, country) day series of success counts over the whole run.

        Folded off the (possibly spilled) store by the query kernel; cached
        there, so repeated calls are free until the store grows.
        """
        return grouped_success_counts(self.collection.store, by_day=True)

    def timing_series(self) -> DaySeries:
        """Per-(domain, country) day series of the 0.9 ``elapsed_ms`` quantile.

        The query kernel's ``Quantiles("elapsed_ms", ...)`` aggregate over
        the same grouping as :meth:`day_counts` — what the timing detector
        scans.  Cached on the store per version.
        """
        return timing_day_series(self.collection.store)

    def timing_events(self) -> list[CensorshipEvent]:
        """Detected throttle onsets/offsets from the timing CUSUM (cached).

        The events success rates cannot see: bandwidth throttling completes
        every fetch, so :meth:`events` stays silent while the per-day
        ``elapsed_ms`` quantiles shift by the throttle factor.  Cache keyed
        on the store version and the timing detector's tuning, mirroring
        :meth:`events`.
        """
        key = (
            self.collection.store.version,
            self.config.timing_detector.config_key(),
        )
        if self._timing_events is None or self._timing_events_key != key:
            self._timing_events = self.config.timing_detector.detect_events(
                self.timing_series()
            )
            self._timing_events_key = key
        return self._timing_events

    def events(self) -> list[CensorshipEvent]:
        """Detected censorship onsets/offsets (vectorized CUSUM, cached).

        The cache is keyed on the store version *and* the detector's tuning:
        swapping or retuning ``config.detector`` between calls recomputes
        instead of silently returning the previous detector's events.  A
        checkpointed run's events come straight off its incremental
        :class:`CusumState` (bit-identical to the full scan) for as long as
        that key holds.
        """
        key = (self.collection.store.version, self.detector.config_key())
        if self.monitor is not None and key == self._monitor_key:
            return list(self.monitor.events)
        if self._events is None or self._events_key != key:
            self._events = self.detector.detect_events(self.day_counts(), self.baselines)
            self._events_key = key
        return self._events

    def timeline_report(self):
        """Grade the detected events against the scripted ground truth."""
        from repro.analysis.reports import build_timeline_report

        return build_timeline_report(self.events(), self.timeline)

    def throttle_report(self):
        """Grade the timing detector's events against scripted throttles."""
        from repro.analysis.reports import build_throttle_report

        return build_throttle_report(self.timing_events(), self.timeline)


class LongitudinalEngine:
    """Drives one deployment through a timeline's epochs.

    The engine owns the world mutations: per epoch it writes the timeline's
    posture into ``world.config.timeline_rules``, refreshes the managed
    censors, slides the campaign's day window, and runs one campaign.  On
    exit — success or not — the original campaign-config day window and a
    rule-free world are restored, so the deployment remains usable for
    ordinary campaigns afterwards.

    With ``config.checkpoint_dir`` set the engine is an always-on monitor:
    each epoch's campaign runs as one inline shard with the checkpoint
    directory as its spill root (so completed epochs resume from their
    manifests after a crash), and after each epoch the store's new rows are
    sealed, folded incrementally into the day-bucketed aggregate and scanned
    by a CUSUM state.  That state starts fresh on every run and is never
    written: a restart rebuilds it over the epochs it adopts.
    """

    def __init__(self, deployment, timeline: PolicyTimeline,
                 config: LongitudinalConfig | None = None) -> None:
        self.deployment = deployment
        self.timeline = timeline
        self.config = config or LongitudinalConfig()
        if self.config.days_per_epoch < 1:
            raise ValueError("days_per_epoch must be positive")
        if self.config.visits_per_epoch < 1:
            raise ValueError("visits_per_epoch must be positive")
        epochs = self.config.resolved_epochs(timeline)
        if epochs < 1:
            raise ValueError("a longitudinal run needs at least one epoch")
        self._epochs = epochs

    # ------------------------------------------------------------------
    def _run_epoch_campaign(self, tracer) -> bool:
        """Run one epoch's campaign; True when it resumed from its manifest.

        A stateless epoch is a batch campaign.  A checkpointed epoch is one
        inline shard under ``checkpoint_dir``: its signature-keyed manifest
        is what makes a completed epoch resumable, and its rows are
        bit-identical to the batch campaign's.
        """
        visits = self.config.visits_per_epoch
        checkpoint_dir = self.config.checkpoint_dir
        if checkpoint_dir is None:
            self.deployment.run_campaign(visits=visits, tracer=tracer)
            return False
        resumed: list[bool] = []
        self.deployment.run_campaign(
            visits=visits,
            mode="sharded",
            num_shards=1,
            shard_executor="inline",
            worker_spill_dir=checkpoint_dir,
            progress=lambda shard: resumed.append(shard.resumed),
            tracer=tracer,
        )
        return resumed == [True]

    def run(self) -> LongitudinalResult:
        deployment = self.deployment
        config = self.config
        campaign_config = deployment.config
        world = deployment.world
        store = deployment.collection.store
        original_window = (campaign_config.days, campaign_config.day_offset)
        original_rules = world.config.timeline_rules
        monitor = (
            config.detector.initial_state() if config.checkpoint_dir is not None else None
        )
        baselines: dict[str, float] | None = None
        summaries: list[EpochSummary] = []
        tracer = config.tracer if config.tracer is not None else NULL_TRACER
        try:
            with tracer.span(
                "longitudinal",
                epochs=self._epochs,
                days_per_epoch=config.days_per_epoch,
                visits_per_epoch=config.visits_per_epoch,
            ):
                for epoch in range(self._epochs):
                    first_day = epoch * config.days_per_epoch
                    state = self.timeline.state_at(first_day)
                    world.config.timeline_rules = state
                    world.refresh_timeline_censors()
                    campaign_config.days = config.days_per_epoch
                    campaign_config.day_offset = first_day
                    before = len(deployment.collection)
                    with tracer.span("epoch", epoch=epoch, first_day=first_day):
                        resumed = self._run_epoch_campaign(tracer)
                        registry = get_registry()
                        registry.counter("longitudinal.epochs_run").add(1)
                        if resumed:
                            registry.counter("longitudinal.epochs_resumed").add(1)
                        summaries.append(
                            EpochSummary(
                                epoch=epoch,
                                first_day=first_day,
                                days=config.days_per_epoch,
                                visits=config.visits_per_epoch,
                                measurements_added=(
                                    len(deployment.collection) - before
                                ),
                                blocked=self._pairs(state, "block"),
                                throttled=self._pairs(state, "throttle"),
                                resumed=resumed,
                            )
                        )
                        if config.adaptive_baselines and baselines is None:
                            # Seeded once, from the first epoch's rows,
                            # executed or adopted alike.
                            baselines = config.detector.seeded_baselines(
                                grouped_success_counts(store)
                            )
                            if monitor is not None:
                                monitor.baselines = baselines
                        if monitor is not None:
                            # Seal so the epoch's rows join the store's
                            # persistent fold state (sealed segments fold
                            # exactly once); the CUSUM then advances over
                            # only the new day columns.
                            with tracer.span("seal", epoch=epoch):
                                store.seal_pending()
                            # The day series comes straight off the fold
                            # accumulator: the epoch folds only its new rows
                            # and the CUSUM scans only the new day columns.
                            with tracer.span("detect", epoch=epoch):
                                config.detector.resume(
                                    monitor, grouped_success_counts(store, by_day=True)
                                )
        finally:
            campaign_config.days, campaign_config.day_offset = original_window
            world.config.timeline_rules = original_rules
            world.refresh_timeline_censors()
            tracer.record_metrics(scope="campaign")
        return LongitudinalResult(
            config=config,
            timeline=self.timeline,
            collection=deployment.collection,
            epochs=summaries,
            monitor=monitor,
            baselines=baselines,
        )

    @staticmethod
    def _pairs(state: dict[str, dict[str, str]], posture: str) -> tuple:
        return tuple(
            sorted(
                (country, domain)
                for country, rules in state.items()
                for domain, rule_posture in rules.items()
                if rule_posture == posture
            )
        )
