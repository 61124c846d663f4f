"""Tests for task scheduling and the coordination server."""

import numpy as np
import pytest

from repro.browser.profiles import BrowserFamily, BrowserProfile
from repro.core.coordination import CoordinationServer
from repro.core.scheduler import Scheduler, TaskPool
from repro.core.tasks import MeasurementTask, TaskType
from repro.netsim.latency import LinkQuality
from repro.population.clients import Client
from repro.population.world import World, WorldConfig


def make_client(family=BrowserFamily.CHROME, dwell=30.0, automated=False, country="US", client_id=1):
    return Client(
        client_id=client_id,
        ip_address="10.0.0.1",
        country_code=country,
        isp="isp-1",
        browser=BrowserProfile.for_family(family),
        link=LinkQuality.broadband(),
        dwell_time_s=dwell,
        is_automated=automated,
    )


def image_task(domain="a.com"):
    return MeasurementTask.new(TaskType.IMAGE, f"http://{domain}/favicon.ico")


def script_task(domain="a.com"):
    return MeasurementTask.new(TaskType.SCRIPT, f"http://{domain}/app.js")


class TestScheduler:
    def test_requires_a_pool(self):
        with pytest.raises(ValueError):
            Scheduler([])

    def test_assigns_one_task_to_ordinary_visitor(self):
        scheduler = Scheduler([TaskPool("p", [image_task()])], rng=0)
        decision = scheduler.schedule(make_client())
        assert len(decision.tasks) == 1
        assert decision.pool_name == "p"

    def test_no_tasks_for_crawler_or_bouncer(self):
        scheduler = Scheduler([TaskPool("p", [image_task()])], rng=0)
        assert scheduler.schedule(make_client(automated=True)).tasks == []
        assert scheduler.schedule(make_client(dwell=1.0)).tasks == []

    def test_long_dwell_gets_multiple_tasks(self):
        tasks = [image_task(f"site-{i}.org") for i in range(5)]
        scheduler = Scheduler([TaskPool("p", tasks)], rng=0)
        decision = scheduler.schedule(make_client(dwell=120.0))
        assert 1 < len(decision.tasks) <= Scheduler.MAX_TASKS_PER_VISIT
        assert len({t.measurement_id for t in decision.tasks}) == len(decision.tasks)

    def test_script_tasks_never_go_to_non_chrome(self):
        scheduler = Scheduler([TaskPool("p", [script_task()])], rng=0)
        decision = scheduler.schedule(make_client(family=BrowserFamily.FIREFOX))
        assert decision.tasks == []
        chrome_decision = scheduler.schedule(make_client(family=BrowserFamily.CHROME))
        assert len(chrome_decision.tasks) == 1

    def test_pool_weights_respected(self):
        heavy = TaskPool("heavy", [image_task("heavy.org")], weight=0.9)
        light = TaskPool("light", [image_task("light.org")], weight=0.1)
        scheduler = Scheduler([heavy, light], rng=1)
        choices = [scheduler.schedule(make_client(client_id=i)).pool_name for i in range(500)]
        heavy_share = choices.count("heavy") / len(choices)
        assert 0.8 < heavy_share < 0.97

    def test_replication_is_balanced(self):
        tasks = [image_task(f"site-{i}.org") for i in range(4)]
        scheduler = Scheduler([TaskPool("p", tasks)], rng=2)
        for i in range(400):
            scheduler.schedule(make_client(client_id=i))
        counts = scheduler.replication_report().values()
        assert max(counts) - min(counts) <= 2

    def test_negative_pool_weight_rejected(self):
        with pytest.raises(ValueError):
            TaskPool("p", [], weight=-1)

    def test_tasks_of_type_helper(self):
        scheduler = Scheduler([TaskPool("p", [image_task(), script_task()])], rng=0)
        assert len(scheduler.tasks_of_type(TaskType.SCRIPT)) == 1


class TestBatchedSchedulerRegression:
    """Pin pool-weight proportions and replication balance over 10k draws.

    The batched scheduler takes cached/array shortcuts; these bounds make
    sure it can never silently skew the paper's ~30/70 testbed split or let
    a task's replication drift.
    """

    TESTBED_FRACTION = 0.3

    def make_pools(self):
        targets = [image_task(f"target-{i}.org") for i in range(6)]
        testbed = [image_task(f"testbed-{i}.net") for i in range(4)] + [script_task("testbed-js.net")]
        return [
            TaskPool("targets", targets, weight=1.0 - self.TESTBED_FRACTION),
            TaskPool("testbed", testbed, weight=self.TESTBED_FRACTION),
        ]

    def make_scheduler(self, rng, pools=None):
        return Scheduler(pools if pools is not None else self.make_pools(), rng=rng)

    def test_pool_weight_proportions_over_10k_draws(self):
        from repro.population.world import World, WorldConfig

        world = World(WorldConfig(seed=101, target_list_total=12, target_list_online=10))
        batch = world.clients.sample_batch(
            10_000, rng=np.random.default_rng(101), first_id=1, host_base=0
        )
        scheduler = self.make_scheduler(np.random.default_rng(101))
        _, _, pool = scheduler.assign_batch(batch)
        assigned = [scheduler.pools[index].name for index in pool if index >= 0]
        assert len(assigned) > 4000
        testbed_share = assigned.count("testbed") / len(assigned)
        assert abs(testbed_share - self.TESTBED_FRACTION) < 0.02, testbed_share

    def test_replication_balance_over_10k_draws(self):
        from repro.population.world import World, WorldConfig

        world = World(WorldConfig(seed=103, target_list_total=12, target_list_online=10))
        batch = world.clients.sample_batch(
            10_000, rng=np.random.default_rng(103), first_id=1, host_base=0
        )
        scheduler = self.make_scheduler(np.random.default_rng(103))
        scheduler.assign_batch(batch)
        counts = scheduler.replication_report()
        targets = {t.measurement_id for t in scheduler.pools[0].tasks}
        universal_testbed = {
            t.measurement_id for t in scheduler.pools[1].tasks
            if t.task_type is TaskType.IMAGE
        }
        # Universally runnable tasks stay within a couple of assignments of
        # each other inside their pool.
        for ids in (targets, universal_testbed):
            values = [counts[i] for i in ids]
            assert max(values) - min(values) <= 2, values
        # The Chrome-only script task is picked less often but must not be
        # starved or over-assigned relative to its pool-mates.
        script_id = next(
            t.measurement_id for t in scheduler.pools[1].tasks
            if t.task_type is TaskType.SCRIPT
        )
        assert counts[script_id] > 0
        assert counts[script_id] <= max(counts[i] for i in universal_testbed)

    def test_batched_proportions_match_sequential_schedule(self):
        from repro.population.world import World, WorldConfig

        world = World(WorldConfig(seed=107, target_list_total=12, target_list_online=10))
        batch = world.clients.sample_batch(
            2_000, rng=np.random.default_rng(107), first_id=1, host_base=0
        )
        pools = self.make_pools()
        sequential = self.make_scheduler(np.random.default_rng(107), pools)
        batched = self.make_scheduler(np.random.default_rng(107), pools)
        for client in batch.clients():
            sequential.schedule(client)
        batched.assign_batch(batch)
        assert sequential.replication_report() == batched.replication_report()


class TestCoordinationServer:
    @pytest.fixture(scope="class")
    def world(self):
        return World(WorldConfig(seed=55, target_list_total=12, target_list_online=10,
                                 origin_site_count=2))

    def test_render_task_script_concatenates_snippets(self, world):
        server = CoordinationServer(
            task_url=world.coordination_url, collection_url=world.collection_url
        )
        script = server.render_task_script([image_task("a.com"), image_task("b.com")])
        assert "a.com" in script and "b.com" in script
