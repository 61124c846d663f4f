"""Serial vs. batch campaign equivalence (the runner's core guarantee).

``mode="serial"`` and ``mode="batch"`` share one plan (sampling, scheduling,
pre-drawn randomness) but execute it with completely different code — a
scalar per-visit walk over interceptor objects versus vectorized numpy
passes over cached verdicts.  For a fixed seed the two must produce
*identical* campaigns; these tests pin that, plus the scheduler-level
equivalences it is built from and the config-minted measurement ids that
let separately built deployments compare whole rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.runner import (
    KIND_COORD, KIND_EMBEDDED, KIND_PAGE, KIND_PROBE, KIND_SUBMIT, KIND_TARGET,
    TASK_IMAGE, TASK_NONE, TASK_SCRIPT, TASK_STYLE,
    BatchProgress, CampaignRunner,
)
from repro.core.scheduler import Scheduler, TaskPool
from repro.core.tasks import MeasurementTask, TaskType
from repro.population.world import World, WorldConfig


def small_deployment(include_testbed=False, seed=11, visits=900, country=None,
                     plan_block_visits=2048, favicons_only=True):
    world = World(
        WorldConfig(seed=7, target_list_total=30, target_list_online=24, origin_site_count=4)
    )
    config = CampaignConfig(
        visits=visits,
        include_testbed=include_testbed,
        testbed_fraction=0.3,
        seed=seed,
        country_code=country,
        plan_block_visits=plan_block_visits,
        favicons_only=favicons_only,
    )
    return EncoreDeployment(world, config)


def measurement_key(result):
    """Everything that identifies a measurement, its task's id included."""
    return [
        (
            m.measurement_id, str(m.target_url), m.task_type.value, m.country_code,
            m.outcome.value, m.elapsed_ms, m.probe_time_ms, m.origin_domain,
            m.day, m.client_ip, m.isp, m.browser_family, m.is_automated,
        )
        for m in result.collection.store.rows()
    ]


class TestSerialBatchEquivalence:
    @pytest.mark.parametrize("include_testbed", [False, True])
    def test_identical_measurements_and_counts(self, include_testbed):
        serial_dep = small_deployment(include_testbed)
        batch_dep = small_deployment(include_testbed)
        serial = serial_dep.run_campaign(mode="serial")
        batch = batch_dep.run_campaign()

        assert serial.mode == "serial" and batch.mode == "batch"
        assert len(serial.collection) == len(batch.collection)
        assert serial.task_executions == batch.task_executions
        assert measurement_key(serial) == measurement_key(batch)
        assert (
            serial.collection.unreachable_submissions
            == batch.collection.unreachable_submissions
        )
        assert (
            serial_dep.coordination.delivery_failure_rate
            == batch_dep.coordination.delivery_failure_rate
        )

    @pytest.mark.parametrize("include_testbed", [False, True])
    def test_identical_detection_verdicts(self, include_testbed):
        serial = small_deployment(include_testbed, seed=23).run_campaign(mode="serial")
        batch = small_deployment(include_testbed, seed=23).run_campaign()
        assert serial.detect().detected_pairs() == batch.detect().detected_pairs()
        assert serial.collection.success_counts() == batch.collection.success_counts()

    def test_equivalence_with_pinned_country(self):
        serial = small_deployment(country="CN", visits=400).run_campaign(mode="serial")
        batch = small_deployment(country="CN", visits=400).run_campaign()
        assert measurement_key(serial) == measurement_key(batch)
        store = batch.collection.store
        assert len(store) and store.row_mask(
            country_code="CN", exclude_automated=False, exclude_inconclusive=False
        ).all()

    def test_batch_size_does_not_change_results(self):
        coarse = small_deployment().run_campaign(batch_size=1000)
        fine = small_deployment().run_campaign(batch_size=137)
        assert measurement_key(coarse) == measurement_key(fine)


class TestGeneratedEquivalence:
    """Generated configurations: serial ≡ batch ≡ sharded.

    ``favicons_only=False`` is the monitor's configuration: full-page inline
    frames make visits share cached resources within the visit.  Drawn
    block and batch sizes make batches cut planning blocks anywhere.
    """

    @given(
        seed=st.integers(0, 2**16),
        visits=st.integers(50, 400),
        plan_block_visits=st.integers(16, 256),
        batch_size=st.integers(1, 400),
        favicons_only=st.booleans(),
        include_testbed=st.booleans(),
        country=st.sampled_from([None, "CN", "IR", "US"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_serial_batch_sharded_agree(self, seed, visits, plan_block_visits, batch_size,
                                        favicons_only, include_testbed, country):
        def run(mode, **run_kw):
            deployment = small_deployment(
                include_testbed, seed=seed, visits=visits, country=country,
                plan_block_visits=plan_block_visits, favicons_only=favicons_only,
            )
            result = deployment.run_campaign(mode=mode, **run_kw)
            return (
                measurement_key(result),
                deployment.collection.unreachable_submissions,
                deployment.coordination.delivery_failure_rate,
                deployment.scheduler.replication_report(),
            )

        serial = run("serial", batch_size=batch_size)
        assert serial == run("batch", batch_size=batch_size)
        assert serial == run("sharded", num_shards=2, shard_executor="inline")


class TestMeasurementIds:
    """Task ids are minted from the configuration, not drawn per process."""

    def test_equal_configs_mint_equal_ids(self):
        first = small_deployment(include_testbed=True)
        second = small_deployment(include_testbed=True)
        ids = [t.measurement_id for t in first.scheduler.all_tasks]
        assert ids == [t.measurement_id for t in second.scheduler.all_tasks]
        # Distinct, at most uuid4().hex's 32 characters, numbered in pool
        # order: the target pool first, then the testbed pool.
        assert len(set(ids)) == len(ids) and max(map(len, ids)) <= 32
        pooled = [t.measurement_id for t in first.target_tasks + first.testbed_tasks]
        assert ids == pooled == sorted(pooled)
        first.run_campaign()
        second.run_campaign()
        report = first.scheduler.replication_report()
        assert report and report == second.scheduler.replication_report()
        assert set(report) <= set(ids)


class TestProgramLayout:
    def test_block_slots_follow_visit_walk(self):
        """A planned block's slot columns equal a visit-by-visit walk.

        Both executors read the same program, so a layout change would keep
        serial ≡ batch while moving every row; this pins the layout itself.
        """
        visits = 400
        deployment = small_deployment(
            include_testbed=True, visits=visits, favicons_only=False
        )
        runner = CampaignRunner(deployment)
        ctx = runner.plan_context(visits, epoch=1)
        program = runner._plan_block(ctx, 0).program
        urls = ctx.urls
        codes = {TaskType.IMAGE: TASK_IMAGE, TaskType.STYLE_SHEET: TASK_STYLE,
                 TaskType.SCRIPT: TASK_SCRIPT}
        slots, rows, cache_visits = [], [], []
        for visit in range(visits):
            tasks = [program.tasks[t] for t in program.row_task[program.row_visit == visit]]
            if not tasks:
                continue
            slots += [(visit, KIND_COORD, u, False, TASK_NONE) for u in ctx.delivery_url_ids]
            targets = []
            for task in tasks:
                main = len(slots)
                target = urls.url_id(task.target_url)
                probe = -1
                if task.task_type is TaskType.INLINE_FRAME:
                    slots.append((visit, KIND_PAGE, target, True, TASK_NONE))
                    slots += [
                        (visit, KIND_EMBEDDED, urls.url_id(u), True, TASK_NONE)
                        for u in urls.embedded[target]
                    ]
                    probe = len(slots)
                    slots.append(
                        (visit, KIND_PROBE, urls.url_id(task.probe_image_url), True, TASK_NONE)
                    )
                else:
                    slots.append((visit, KIND_TARGET, target, True, codes[task.task_type]))
                    if urls.cacheable[target]:
                        targets.append(target)
                rows.append((main, len(slots), probe))
                slots.append((visit, KIND_SUBMIT, ctx.submit_url_id, False, TASK_NONE))
            framed = any(t.task_type is TaskType.INLINE_FRAME for t in tasks)
            if framed or len(set(targets)) < len(targets):
                cache_visits.append(visit)

        assert list(zip(
            program.visit.tolist(), program.kind.tolist(), program.url_id.tolist(),
            program.use_cache.tolist(), program.task_code.tolist(),
        )) == slots
        assert list(zip(
            program.main_slot.tolist(), program.submit_slot.tolist(),
            program.probe_slot.tolist(),
        )) == rows
        assert np.flatnonzero(program.cache_visit).tolist() == cache_visits
        assert program.slot_bounds.tolist() == np.searchsorted(
            [s[0] for s in slots], np.arange(visits + 1)
        ).tolist()
        # The walk covered inline frames and their embedded fetches.
        assert KIND_EMBEDDED in program.kind


class TestShardedBatchEquivalence:
    """mode="sharded" is the batch path fanned out over workers: for a fixed
    seed the merged campaign must be identical to mode="batch" — the shard
    subsystem's core guarantee (tests/core/test_shard.py pins it in depth)."""

    @pytest.mark.parametrize("include_testbed", [False, True])
    def test_sharded_matches_batch(self, include_testbed):
        batch = small_deployment(
            include_testbed, visits=600, plan_block_visits=100
        ).run_campaign()
        sharded = small_deployment(
            include_testbed, visits=600, plan_block_visits=100
        ).run_campaign(mode="sharded", num_shards=3, shard_executor="inline")
        assert sharded.mode == "sharded"
        assert measurement_key(sharded) == measurement_key(batch)
        assert sharded.detect().detected_pairs() == batch.detect().detected_pairs()

    def test_sharding_is_batch_size_invariant(self):
        # Shards partition planning blocks, batches slice them: neither may
        # change the campaign.
        fine = small_deployment(visits=600, plan_block_visits=100).run_campaign(
            batch_size=97
        )
        sharded = small_deployment(visits=600, plan_block_visits=100).run_campaign(
            mode="sharded", num_shards=2, shard_executor="inline"
        )
        assert measurement_key(sharded) == measurement_key(fine)


def per_visit(scheduler, columns, visits):
    """``assign_batch``'s columns as (measurement ids in order, pool name) per visit."""
    visit, task, pool = columns
    return [
        (
            [scheduler.all_tasks[t].measurement_id for t in task[visit == v]],
            scheduler.pools[pool[v]].name if pool[v] >= 0 else None,
        )
        for v in range(visits)
    ]


class TestSchedulerBatchEquivalence:
    def make_pools(self):
        targets = [
            MeasurementTask.new(TaskType.IMAGE, f"http://site-{i}.org/favicon.ico")
            for i in range(5)
        ]
        testbed = [
            MeasurementTask.new(TaskType.IMAGE, "http://t.net/favicon.ico"),
            MeasurementTask.new(TaskType.STYLE_SHEET, "http://t.net/a.css"),
            MeasurementTask.new(TaskType.SCRIPT, "http://t.net/a.js"),
            MeasurementTask.new(
                TaskType.INLINE_FRAME, "http://t.net/index.html",
                probe_image_url="http://t.net/favicon.ico",
            ),
        ]
        return [
            TaskPool("targets", targets, weight=0.7),
            TaskPool("testbed", testbed, weight=0.3),
        ]

    def test_assign_batch_matches_sequential_schedule(self):
        world = World(WorldConfig(seed=3, target_list_total=12, target_list_online=10))
        batch = world.sample_client_batch(600)
        clients = batch.clients()
        pools = self.make_pools()
        reference = Scheduler(pools, rng=np.random.default_rng(5))
        batched = Scheduler(pools, rng=np.random.default_rng(5))

        expected = [reference.schedule(c) for c in clients]
        actual = per_visit(batched, batched.assign_batch(clients), len(clients))

        assert [
            ([t.measurement_id for t in d.tasks], d.pool_name) for d in expected
        ] == actual
        assert reference.assignment_counts == batched.assignment_counts
        # Both consumed the exact same RNG stream.
        assert reference._rng.random() == batched._rng.random()

    def test_assign_batch_accepts_client_batch_columns(self):
        world = World(WorldConfig(seed=3, target_list_total=12, target_list_online=10))
        batch = world.sample_client_batch(600)
        pools = self.make_pools()
        from_objects = Scheduler(pools, rng=np.random.default_rng(9))
        from_columns = Scheduler(pools, rng=np.random.default_rng(9))

        expected = from_objects.assign_batch(batch.clients())
        actual = from_columns.assign_batch(batch)

        assert per_visit(from_objects, expected, len(batch)) == per_visit(
            from_columns, actual, len(batch)
        )
        assert from_objects.assignment_counts == from_columns.assignment_counts
        assert from_objects._rng.random() == from_columns._rng.random()


class TestClientBatchEquivalence:
    def test_materialized_clients_match_columns(self):
        world = World(WorldConfig(seed=19, target_list_total=12, target_list_online=10))
        batch = world.sample_client_batch(200)
        for index in (0, 7, 131, 199):
            client = batch.client(index)
            assert client.country_code == batch.country_codes[index]
            assert client.ip_address == batch.ip_addresses[index]
            assert client.isp == batch.isp(index)
            assert client.browser is batch.browser(index)
            assert client.dwell_time_s == batch.dwell_times_s[index]
            assert client.is_automated == bool(batch.automated[index])
            assert client.link.rtt_ms == batch.rtt_ms[index]
            assert client.link.loss_rate == batch.loss_rate[index]

    def test_pinned_country_batch(self):
        world = World(WorldConfig(seed=19, target_list_total=12, target_list_online=10))
        batch = world.sample_client_batch(50, country_code="IR")
        assert set(batch.country_codes) == {"IR"}
        assert all(world.geoip.lookup(ip) == "IR" for ip in batch.ip_addresses)


class TestProgressAndReuse:
    def test_progress_hook_sees_every_batch(self):
        seen = []
        deployment = small_deployment(visits=500)
        deployment.run_campaign(batch_size=100, progress=seen.append)
        assert len(seen) == 5
        assert all(isinstance(p, BatchProgress) for p in seen)
        assert [p.batch_index for p in seen] == list(range(5))
        assert seen[-1].visits_completed == 500
        assert seen[-1].measurements_total == len(deployment.collection)

    def test_runner_instance_is_reusable_across_campaigns(self):
        # Regression: the block-plan cache is keyed on the campaign epoch,
        # so a runner driven twice must not serve the first campaign's
        # stale block plans to the second.
        deployment = small_deployment(visits=300)
        runner = CampaignRunner(deployment, mode="batch")
        first = runner.run(300)
        after_first = len(deployment.collection)
        second = runner.run(300)
        assert first.visits_simulated == second.visits_simulated == 300
        assert len(deployment.collection) > after_first

    def test_invalid_runner_arguments_rejected(self):
        deployment = small_deployment(visits=100)
        with pytest.raises(ValueError):
            CampaignRunner(deployment, mode="warp")
        with pytest.raises(ValueError):
            CampaignRunner(deployment, batch_size=0)
        with pytest.raises(ValueError):
            deployment.run_campaign(batch_size=0)
        for mode in ("legacy", "warp"):
            with pytest.raises(ValueError, match=f"unknown campaign mode '{mode}'"):
                deployment.run_campaign(mode=mode)
        # Rejected before the campaign claims its epoch or visit range.
        assert len(deployment.collection) == 0
        assert deployment.campaigns_run == 0
