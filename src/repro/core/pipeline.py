"""End-to-end Encore deployment: wiring the stages into a runnable campaign.

An :class:`EncoreDeployment` composes a :class:`~repro.population.world.World`
with the core stages — task generation, scheduling, coordination, collection,
and inference — and drives simulated measurement campaigns: clients visit
origin sites, receive tasks from the coordination server, execute them in
their browsers, and submit results to the collection server.  The §7
experiments (soundness against the testbed, detection of real-world
filtering, campaign scale) are all thin wrappers around
:meth:`EncoreDeployment.run_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.censor.testbed import CensorshipTestbed
from repro.core.collection import CollectionServer, Measurement
from repro.core.coordination import CoordinationServer
from repro.core.inference import BinomialFilteringDetector, DetectionReport
from repro.core.origin import OriginSite
from repro.core.scheduler import Scheduler, TaskPool
from repro.core.targets import TargetList
from repro.core.task_generation import (
    FeasibilityReport,
    TaskGenerationLimits,
    TaskGenerationPipeline,
)
from repro.core.tasks import MeasurementTask, TaskType, mint_measurement_ids
from repro.population.world import World

#: The execution modes :meth:`EncoreDeployment.run_campaign` accepts.
CAMPAIGN_MODES = ("batch", "serial", "sharded")


@dataclass
class CampaignConfig:
    """What one simulated campaign measures, plus the store's spill settings.

    How it runs is chosen by :meth:`EncoreDeployment.run_campaign` alone.
    """

    #: Number of origin-site visits to simulate.
    visits: int = 5000
    #: Length of the campaign in days (timestamps are spread uniformly).
    days: int = 30
    #: First day of the campaign's window: visit days are drawn from
    #: ``[day_offset, day_offset + days)``.  The longitudinal engine runs a
    #: campaign per epoch with a sliding offset so the ``day`` column spans
    #: the whole simulated timeline.
    day_offset: int = 0
    #: Domains whose filtering the campaign measures.  The paper's reported
    #: deployment measured only Facebook, YouTube, and Twitter (§7.2).
    target_domains: tuple[str, ...] = ("facebook.com", "youtube.com", "twitter.com")
    #: Whether task generation is restricted to favicons (the paper's
    #: April 2014 onward configuration).
    favicons_only: bool = True
    #: Whether to include the §7.1 soundness testbed and direct a fraction of
    #: clients at it.
    include_testbed: bool = True
    #: Fraction of clients measuring testbed resources (paper: ~30%).
    testbed_fraction: float = 0.3
    seed: int = 0
    #: Pin every visitor to one country (``None`` samples the global visit
    #: share distribution); used by scenario sweeps.
    country_code: str | None = None
    #: Visits per planning block — the unit whose randomness derives from
    #: ``(seed, epoch, block_index)`` alone.  Part of the campaign's
    #: identity: changing it changes the sampled campaign (batch size does
    #: not).  Also the sharding granularity of ``mode="sharded"``.
    plan_block_visits: int = 2048
    #: Bound on measurement rows kept resident by the collection store;
    #: sealed column segments beyond the bound spill to ``.npz`` files
    #: (``None`` keeps everything in memory).
    max_rows_in_memory: int | None = None
    #: Where spilled segments go (a temporary directory, removed with the
    #: store, if unset).
    spill_dir: str | None = None


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    collection: CollectionServer
    coordination: CoordinationServer
    visits_simulated: int
    task_executions: int
    #: Which execution path produced this result ("batch"/"serial"/"sharded").
    mode: str
    feasibility: FeasibilityReport | None = None

    def detect(
        self,
        success_prior: float = 0.7,
        significance: float = 0.05,
        min_measurements: int = 10,
    ) -> DetectionReport:
        """Run the §7.2 binomial detection over the campaign's measurements."""
        detector = BinomialFilteringDetector(
            success_prior=success_prior,
            significance=significance,
            min_measurements=min_measurements,
        )
        return detector.detect(self.collection)

    def adversary_sweep(
        self,
        target_domain: str,
        country_code: str,
        budgets,
        *,
        fabricate_blocking: bool = True,
        detector: BinomialFilteringDetector | None = None,
        reputation=None,
        executor: str = "process",
        spill_dir: str | None = None,
        seed: int = 0,
    ):
        """Run a §8 poisoning attack-budget sweep against this campaign.

        Each ``(submissions, identities)`` budget in ``budgets`` is forged,
        merged with this campaign's store by zero-copy segment adoption, and
        scored with and without reputation filtering — entirely on the
        columnar store path (:class:`~repro.core.robustness.AdversarySweep`).
        ``executor="process"`` fans the forging out across worker processes;
        a persistent ``spill_dir`` makes re-runs adopt already-forged cells.
        Returns one :class:`~repro.core.robustness.SweepCell` per budget.
        """
        from repro.core.robustness import AdversarySweep

        sweep = AdversarySweep(
            detector,
            reputation,
            fabricate_blocking=fabricate_blocking,
            executor=executor,
            spill_dir=spill_dir,
            seed=seed,
        )
        return sweep.run(self.collection, target_domain, country_code, budgets)

    def testbed_measurements(self) -> list[Measurement]:
        """Every row measuring the §7.1 testbed, automated and inconclusive too."""
        store = self.collection.store
        mask = store.row_mask(
            domain_suffix="encore-testbed.net",
            exclude_automated=False,
            exclude_inconclusive=False,
        )
        return store.rows(np.flatnonzero(mask))


class EncoreDeployment:
    """A fully wired Encore deployment inside a simulated world."""

    def __init__(self, world: World, config: CampaignConfig | None = None) -> None:
        self.world = world
        self.config = config or CampaignConfig()
        self._rng = np.random.default_rng(self.config.seed + 100)

        # --- Testbed (soundness experiments) ------------------------------
        self.testbed: CensorshipTestbed | None = None
        if self.config.include_testbed:
            self.testbed = CensorshipTestbed(rng=np.random.default_rng(self.config.seed + 7))
            self.testbed.register(self.world.universe)
            for censor in self.testbed.censors():
                self.world.add_global_interceptor(censor)

        # --- Task generation -----------------------------------------------
        self.generation_limits = TaskGenerationLimits(favicons_only=self.config.favicons_only)
        self.generation_pipeline = TaskGenerationPipeline(
            self.world.search, self.world.headless, self.generation_limits
        )
        target_list = TargetList.high_value().restrict_to_domains(self.config.target_domains)
        generation = self.generation_pipeline.run(target_list.entries)
        self.feasibility = generation.report
        # Measurement ids are numbered in pool order, so they follow from
        # the configuration: forked workers, workers rebuilt from pickled
        # configs and restarted processes all hold the same ids.
        self.target_tasks, self.testbed_tasks = mint_measurement_ids(
            generation.tasks, self._build_testbed_tasks() if self.testbed else []
        )

        # --- Servers ---------------------------------------------------------
        pools = [
            TaskPool(
                name="targets",
                tasks=self.target_tasks,
                weight=1.0 - (self.config.testbed_fraction if self.testbed_tasks else 0.0),
            )
        ]
        if self.testbed_tasks:
            pools.append(
                TaskPool(name="testbed", tasks=self.testbed_tasks, weight=self.config.testbed_fraction)
            )
        self.scheduler = Scheduler(pools, rng=np.random.default_rng(self.config.seed + 11))
        self.coordination = CoordinationServer(
            scheduler=self.scheduler,
            task_url=self.world.coordination_url,
            collection_url=self.world.collection_url,
        )
        self.collection = CollectionServer(
            submit_url=self.world.collection_url,
            geoip=self.world.geoip,
            max_rows_in_memory=self.config.max_rows_in_memory,
            spill_dir=self.config.spill_dir,
        )

        # --- Origin sites ----------------------------------------------------
        # A sampled subset of origins strips the Referer header: exactly
        # round(N * REFERER_STRIP_FRACTION) of them, at RNG-chosen positions,
        # so the stripping fraction matches the paper's 3/4 regardless of how
        # the origin list happens to be ordered.
        origin_count = len(self.world.origin_domains)
        strip_count = int(round(origin_count * CollectionServer.REFERER_STRIP_FRACTION))
        stripping = set(self._rng.permutation(origin_count)[:strip_count].tolist())
        self.origins: list[OriginSite] = []
        for index, domain in enumerate(self.world.origin_domains):
            site = self.world.universe.site(domain)
            self.origins.append(
                OriginSite(
                    site=site,
                    coordination_url=self.world.coordination_url,
                    strips_referer=index in stripping,
                    reciprocity_enrolled=index % 3 == 0,
                )
            )
        #: Monotone counter so successive campaigns on one deployment draw
        #: fresh (but reproducible) randomness.
        self._campaign_epoch = 0
        #: Cumulative visits of the campaigns already started, used as the
        #: base for client id / IP-host numbering so two campaigns on one
        #: deployment never mint colliding client identities.
        self._visit_base = 0

    # ------------------------------------------------------------------
    def _build_testbed_tasks(self) -> list[MeasurementTask]:
        """Tasks exercising all four mechanisms against every testbed host."""
        tasks: list[MeasurementTask] = []
        assert self.testbed is not None
        for host in self.testbed.hosts:
            favicon = self.testbed.favicon_url(host)
            tasks.append(
                MeasurementTask.new(TaskType.IMAGE, favicon, category="testbed",
                                    estimated_overhead_bytes=620)
            )
            tasks.append(
                MeasurementTask.new(
                    TaskType.STYLE_SHEET,
                    self.testbed.stylesheet_url(host),
                    category="testbed",
                    estimated_overhead_bytes=2048,
                )
            )
            tasks.append(
                MeasurementTask.new(
                    TaskType.SCRIPT,
                    self.testbed.script_url(host),
                    category="testbed",
                    estimated_overhead_bytes=4096,
                )
            )
            tasks.append(
                MeasurementTask.new(
                    TaskType.INLINE_FRAME,
                    self.testbed.page_url(host),
                    probe_image_url=self.testbed.favicon_url(host),
                    category="testbed",
                    estimated_overhead_bytes=32 * 1024,
                )
            )
        return tasks

    # ------------------------------------------------------------------
    @property
    def campaigns_run(self) -> int:
        """How many campaigns this deployment has started (a sharded one
        once its merge begins)."""
        return self._campaign_epoch

    @property
    def visits_claimed(self) -> int:
        """The base the next :meth:`claim_visit_range` will return."""
        return self._visit_base

    def next_campaign_epoch(self) -> int:
        """Advance and return the campaign counter (seeds per-run RNG streams)."""
        self._campaign_epoch += 1
        return self._campaign_epoch

    def claim_visit_range(self, visits: int) -> int:
        """Reserve ``visits`` slots of the deployment's visit numbering.

        Returns the base index of the reserved range.  Client ids and
        per-country IP hosts are numbered by global visit index, so each
        campaign claiming its range up front keeps identities unique across
        successive campaigns on one deployment (until a country's IP space
        wraps, exactly like the counter-based allocator it replaced).
        """
        base = self._visit_base
        self._visit_base += visits
        return base

    def run_campaign(
        self,
        visits: int | None = None,
        mode: str = "batch",
        batch_size: int | None = None,
        progress=None,
        num_shards: int | None = None,
        worker_spill_dir: str | None = None,
        shard_executor: str | None = None,
        tracer=None,
    ) -> CampaignResult:
        """Simulate a full campaign of origin-site visits.

        These arguments alone choose how the campaign runs; ``visits``
        defaults to ``config.visits``.  ``mode`` is one of
        :data:`CAMPAIGN_MODES`.  ``"batch"`` (the default) and ``"serial"``
        delegate to
        :class:`~repro.core.runner.CampaignRunner`: the vectorized fast path
        and the scalar reference implementation that produces identical
        measurements for a fixed seed.  ``batch_size`` sets their visits per
        batch, and ``progress`` is invoked with a
        :class:`~repro.core.runner.BatchProgress` after every batch.

        ``mode="sharded"`` fans the batch path out across worker processes
        (:func:`repro.core.shard.run_sharded`) and merges the workers'
        spilled segments back into this deployment's store; for a fixed seed
        the merged campaign is identical to ``mode="batch"`` at any
        ``num_shards`` (unset: :func:`repro.core.shard.default_num_shards`).
        ``shard_executor`` is ``"process"`` (the default) or ``"inline"``,
        which runs the shards one after another in this process.
        ``progress`` then receives a :class:`~repro.core.shard.ShardProgress`
        per completed shard.

        Only the sharded path resumes a killed campaign: a freshly built
        deployment pointed at the same ``worker_spill_dir`` adopts the
        manifests of the shards that already committed and re-executes the
        rest (one inline shard is enough, which is how the checkpointed
        monitor runs).  Its rows, ``measurement_id`` included, equal an
        uninterrupted run's, because every row is a function of the
        configuration.  A sharded campaign that raises before its merge
        leaves this deployment's campaign and visit counters where they
        were, so calling again retries the same campaign.
        """
        from repro.core.runner import CampaignRunner

        if mode not in CAMPAIGN_MODES:
            raise ValueError(f"unknown campaign mode {mode!r}")
        visits = visits if visits is not None else self.config.visits
        if mode == "sharded":
            if batch_size is not None:
                raise ValueError(
                    "mode='sharded' executes whole planning blocks, so "
                    "batch_size does not apply"
                )
            from repro.core.shard import run_sharded

            return run_sharded(
                self,
                visits=visits,
                num_shards=num_shards,
                worker_spill_dir=worker_spill_dir,
                shard_executor=shard_executor,
                progress=progress,
                tracer=tracer,
            )
        if num_shards is not None or worker_spill_dir is not None or shard_executor is not None:
            raise ValueError(
                "num_shards, worker_spill_dir, and shard_executor only apply "
                "to mode='sharded'"
            )
        runner = CampaignRunner(
            self,
            mode=mode,
            batch_size=batch_size,
            progress=progress,
            tracer=tracer,
        )
        if tracer is not None:
            # The sharded path opens its own campaign root span; give the
            # in-process modes the same shape so summaries line up.
            with tracer.span("campaign", visits=visits, shards=0):
                return runner.run(visits)
        return runner.run(visits)

    def run_longitudinal(self, timeline, config=None):
        """Run an epoch-by-epoch campaign against a time-varying censor policy.

        ``timeline`` is a :class:`~repro.censor.policy.PolicyTimeline`
        scripting per-(country, domain) onset/offset/throttle events;
        ``config`` a :class:`~repro.core.longitudinal.LongitudinalConfig`
        (defaults cover a 30-day, one-day-per-epoch run).  Each epoch is one
        block-keyed campaign over its day window — reproducible from
        ``(seed, epoch)`` and, with a ``checkpoint_dir``, resumable after a
        crash — ingested into this deployment's collection store.  Returns a
        :class:`~repro.core.longitudinal.LongitudinalResult` whose
        ``events()`` runs online CUSUM change-point detection over the
        day-bucketed success rates and whose ``timeline_report()`` grades
        those events against the scripted ground truth.
        """
        from repro.core.longitudinal import LongitudinalEngine

        return LongitudinalEngine(self, timeline, config).run()

    # ------------------------------------------------------------------
    # Convenience constructors for the paper's experiments
    # ------------------------------------------------------------------
    @classmethod
    def soundness_experiment(cls, seed: int = 0, visits: int = 4000) -> "EncoreDeployment":
        """The §7.1 configuration: testbed measurements enabled."""
        world = World()
        config = CampaignConfig(
            visits=visits,
            include_testbed=True,
            testbed_fraction=0.3,
            favicons_only=True,
            seed=seed,
        )
        return cls(world, config)

    @classmethod
    def detection_experiment(cls, seed: int = 0, visits: int = 8000) -> "EncoreDeployment":
        """The §7.2 configuration: measure Facebook, YouTube, and Twitter."""
        world = World()
        config = CampaignConfig(
            visits=visits,
            include_testbed=False,
            favicons_only=True,
            target_domains=("facebook.com", "youtube.com", "twitter.com"),
            seed=seed,
        )
        return cls(world, config)
