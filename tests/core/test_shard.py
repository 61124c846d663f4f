"""Sharded multi-process campaign execution (the shard subsystem's guarantees).

``mode="sharded"`` partitions a campaign's planning blocks across worker
processes and merges their spilled segments back into one store.  Because
every block's randomness derives from ``(seed, epoch, block_index)`` alone,
the merged campaign must be *identical* — same rows, same order — to the
single-process ``mode="batch"`` campaign for any shard count; these tests
pin that, plus the planner's partition properties, the store merger's code
translation, and the manifest-based crash-resume path.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core.collection import CollectionServer
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.shard import (
    MANIFEST_NAME,
    ShardPlanner,
    ShardProgress,
    StoreMerger,
    campaign_directory_name,
    campaign_signature,
    execute_shard,
    load_manifest,
    write_json_atomic,
)
from repro.core.query import grouped_success_counts
from repro.core.store import MeasurementStore, SegmentRowsError
from repro.core.tasks import TaskOutcome, TaskType
from repro.population.world import World, WorldConfig
from repro.web.url import URL


def small_deployment(seed=11, visits=900, include_testbed=True, **config_kw):
    world = World(
        WorldConfig(seed=7, target_list_total=30, target_list_online=24, origin_site_count=4)
    )
    config_kw.setdefault("testbed_fraction", 0.3)
    config_kw.setdefault("plan_block_visits", 128)
    config = CampaignConfig(
        visits=visits,
        include_testbed=include_testbed,
        seed=seed,
        **config_kw,
    )
    return EncoreDeployment(world, config)


def measurement_key(result):
    return [
        (
            m.measurement_id, str(m.target_url), m.task_type.value, m.country_code,
            m.outcome.value, m.elapsed_ms, m.probe_time_ms, m.origin_domain,
            m.day, m.client_ip, m.isp, m.browser_family, m.is_automated,
        )
        for m in result.collection.store.rows()
    ]


class TestShardPlanner:
    def test_blocks_partitioned_exactly_once(self):
        planner = ShardPlanner(visits=10_000, plan_block_visits=256, num_shards=7)
        assignments = planner.plan()
        dealt = [b for a in assignments for b in a.block_indices]
        assert sorted(dealt) == list(range(planner.block_count))

    def test_round_robin_balances_shards(self):
        planner = ShardPlanner(visits=64 * 100, plan_block_visits=64, num_shards=4)
        sizes = [len(a.block_indices) for a in planner.plan()]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_blocks_drops_empty_shards(self):
        planner = ShardPlanner(visits=300, plan_block_visits=128, num_shards=8)
        assignments = planner.plan()
        assert len(assignments) == planner.block_count == 3
        assert all(a.block_indices for a in assignments)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ShardPlanner(visits=-1, plan_block_visits=10, num_shards=1)
        with pytest.raises(ValueError):
            ShardPlanner(visits=10, plan_block_visits=0, num_shards=1)
        with pytest.raises(ValueError):
            ShardPlanner(visits=10, plan_block_visits=10, num_shards=0)


class TestShardedEqualsBatch:
    """The core determinism property: any shard count, identical campaign."""

    @pytest.fixture(scope="class")
    def batch_reference(self):
        return small_deployment().run_campaign()

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_merged_rows_identical_for_any_shard_count(self, batch_reference, num_shards):
        sharded = small_deployment().run_campaign(
            mode="sharded", num_shards=num_shards, shard_executor="inline"
        )
        assert sharded.mode == "sharded"
        # Not just the same multiset: the merger adopts blocks in campaign
        # order, so even the row order matches the single-process campaign.
        assert measurement_key(sharded) == measurement_key(batch_reference)
        assert sharded.task_executions == batch_reference.task_executions

    def test_counters_and_verdicts_match(self, batch_reference):
        deployment = small_deployment()
        sharded = deployment.run_campaign(
            mode="sharded", num_shards=3, shard_executor="inline"
        )
        assert (
            sharded.collection.unreachable_submissions
            == batch_reference.collection.unreachable_submissions
        )
        assert (
            deployment.coordination.delivery_failure_rate
            == batch_reference.coordination.delivery_failure_rate
        )
        assert sharded.detect().detected_pairs() == batch_reference.detect().detected_pairs()
        assert (
            sharded.collection.success_counts()
            == batch_reference.collection.success_counts()
        )
        assert sharded.collection.distinct_ips() == batch_reference.collection.distinct_ips()

    def test_process_pool_matches_batch(self, batch_reference):
        sharded = small_deployment().run_campaign(mode="sharded", num_shards=2)
        assert measurement_key(sharded) == measurement_key(batch_reference)

    def test_replication_counts_survive_the_merge(self):
        # Worker-side scheduling counts are folded back through manifests,
        # so the campaign-wide replication report equals the in-process run's.
        sharded_deployment = small_deployment()
        sharded_deployment.run_campaign(mode="sharded", num_shards=3, shard_executor="inline")
        batch_deployment = small_deployment()
        batch_deployment.run_campaign()
        assert (
            sharded_deployment.scheduler.replication_report()
            == batch_deployment.scheduler.replication_report()
        )

    def test_sharded_mode_rejects_batch_only_arguments(self):
        deployment = small_deployment(visits=128)
        with pytest.raises(ValueError, match="sharded"):
            deployment.run_campaign(mode="sharded", batch_size=64)
        with pytest.raises(ValueError, match="sharded"):
            deployment.run_campaign(num_shards=2)


class TestShardProgressAndResume:
    def test_progress_hook_sees_every_shard(self, tmp_path):
        seen = []
        deployment = small_deployment()
        deployment.run_campaign(
            mode="sharded", num_shards=3, shard_executor="inline",
            worker_spill_dir=str(tmp_path), progress=seen.append,
        )
        assert len(seen) == 3
        assert all(isinstance(p, ShardProgress) for p in seen)
        assert seen[-1].shards_completed == 3
        assert seen[-1].visits_completed == 900
        assert seen[-1].blocks_completed == seen[-1].blocks_total
        assert not any(p.resumed for p in seen)
        assert seen[-1].measurements_total == len(deployment.collection)

    def test_killed_worker_resumes_from_surviving_manifests(self, tmp_path):
        reference = small_deployment().run_campaign()

        run = {"mode": "sharded", "shard_executor": "inline",
               "worker_spill_dir": str(tmp_path)}
        small_deployment().run_campaign(num_shards=3, **run)
        survivors = {
            p: (p / MANIFEST_NAME).read_text()
            for p in sorted(tmp_path.rglob("shard-*"))
        }
        assert len(survivors) == 3

        # Simulate a worker killed mid-shard: its manifest (the commit
        # marker) never landed, so its partial segments are garbage.
        victim = sorted(tmp_path.rglob("shard-*"))[1]
        (victim / MANIFEST_NAME).unlink()
        orphan = victim / "left-behind.npz"
        orphan.write_bytes(b"partial output of the dead attempt")

        seen = []
        # A *fresh* deployment, as after a process restart.
        result = small_deployment().run_campaign(
            num_shards=3, progress=seen.append, **run
        )
        # Only the killed shard re-executed; the survivors were adopted
        # verbatim from their manifests.
        assert sorted(p.resumed for p in seen) == [False, True, True]
        for path, manifest_text in survivors.items():
            if path != victim:
                assert (path / MANIFEST_NAME).read_text() == manifest_text
        assert measurement_key(result) == measurement_key(reference)
        assert (
            result.collection.unreachable_submissions
            == reference.collection.unreachable_submissions
        )
        # The rows matched with their measurement ids, and the dead
        # attempt's partial segments were cleared, not accumulated.
        assert not orphan.exists()

    def test_foreign_manifest_is_ignored(self, tmp_path):
        deployment = small_deployment()
        config = deployment.config
        signature = campaign_signature(deployment, epoch=1, visits=900)
        planner = ShardPlanner(900, config.plan_block_visits, 2)
        assignment = planner.plan()[0]
        shard_dir = tmp_path / assignment.directory_name
        shard_dir.mkdir()
        foreign = json.loads(json.dumps(signature))
        foreign["campaign"]["seed"] = 999
        stale = {"signature": foreign, "block_indices": list(assignment.block_indices)}
        (shard_dir / MANIFEST_NAME).write_text(json.dumps(stale))
        assert load_manifest(shard_dir, signature, assignment) is None

    def test_resume_with_unset_shard_count_reuses_recorded_partition(self, tmp_path):
        # num_shards=None falls back to the host CPU count, which can
        # differ on the resuming host; the campaign file records the
        # original partition so a resume adopts the old manifests instead
        # of silently re-executing everything.
        reference = small_deployment().run_campaign()
        run = {"mode": "sharded", "shard_executor": "inline",
               "worker_spill_dir": str(tmp_path)}
        small_deployment().run_campaign(num_shards=3, **run)

        seen = []
        result = small_deployment().run_campaign(progress=seen.append, **run)
        assert len(seen) == 3 and all(p.resumed for p in seen)
        assert measurement_key(result) == measurement_key(reference)

    def test_repartitioned_campaign_keeps_earlier_merge_readable(self, tmp_path):
        # Same campaign, same spill dir, different explicit shard count:
        # the partition is part of the shard directory names, so the new
        # run's cleanup can never delete segments the first run's merged
        # store still reads lazily.
        run = {"mode": "sharded", "shard_executor": "inline",
               "worker_spill_dir": str(tmp_path)}
        first = small_deployment().run_campaign(num_shards=4, **run)
        first_counts = first.collection.success_counts()
        second = small_deployment().run_campaign(num_shards=2, **run)
        assert measurement_key(second) == measurement_key(first)
        assert first.collection.success_counts() == first_counts
        assert len(first.collection.store.rows()) == len(first.collection)

    def test_second_campaign_on_one_deployment_gets_fresh_client_identities(self):
        # Client ids / IP hosts are numbered from the deployment's claimed
        # visit base, so two campaigns on one deployment never mint the
        # same client identity (until a country's IP space wraps).
        deployment = small_deployment(visits=400)
        deployment.run_campaign()
        first_rows = len(deployment.collection)
        first_ips = set(deployment.collection.store.column("client_ip")[:first_rows].tolist())
        deployment.run_campaign()
        second_ips = set(deployment.collection.store.column("client_ip")[first_rows:].tolist())
        assert not (first_ips & second_ips)
        assert deployment.collection.distinct_ips() == len(first_ips) + len(second_ips)

    def test_shared_spill_dir_keeps_earlier_campaigns_readable(self, tmp_path):
        # Regression: campaigns get signature-keyed subdirectories of the
        # spill root, so re-executing campaign B's shards can never delete
        # segment files campaign A's merged store still reads lazily.
        run = {"mode": "sharded", "num_shards": 2, "shard_executor": "inline",
               "worker_spill_dir": str(tmp_path)}
        first = small_deployment(seed=11).run_campaign(**run)
        first_counts = first.collection.success_counts()
        second = small_deployment(seed=12).run_campaign(**run)
        assert len(second.collection) > 0
        # The first campaign's store still answers queries off its files.
        assert first.collection.success_counts() == first_counts
        assert len(first.collection.store.rows()) == len(first.collection)

    def test_zero_plan_block_visits_rejected_in_every_mode(self):
        batch = small_deployment(visits=64, plan_block_visits=0)
        with pytest.raises(ValueError, match="plan_block_visits"):
            batch.run_campaign()
        sharded = small_deployment(visits=64, plan_block_visits=0)
        with pytest.raises(ValueError, match="plan_block_visits"):
            sharded.run_campaign(mode="sharded", num_shards=1, shard_executor="inline")

    def test_temporary_spill_root_reclaimed_with_the_store(self):
        import gc

        deployment = small_deployment(visits=256)
        result = deployment.run_campaign(
            mode="sharded", num_shards=2, shard_executor="inline"
        )
        segment = Path(result.collection.store.segment_files[0])
        # <temp root>/campaign-XX-xxxx/shard-XXX/store-XXXX/segment-XXXXX.npz
        temp_root = segment.parents[3]
        assert temp_root.name.startswith("encore-shards-")
        del result
        deployment.collection = None
        del deployment
        gc.collect()
        assert not temp_root.exists()

    def test_signature_covers_campaign_content(self):
        # Same seed/visits but different campaign content (days, testbed,
        # targets, world) must not share manifests.
        base = small_deployment()
        reference = campaign_signature(base, epoch=1, visits=900)
        for kw in (
            {"days": 7},
            {"include_testbed": False},
            {"testbed_fraction": 0.5},
            {"target_domains": ("facebook.com",)},
        ):
            other = small_deployment(**kw)
            assert campaign_signature(other, 1, 900) != reference
        different_world = EncoreDeployment(
            World(WorldConfig(seed=8, target_list_total=30, target_list_online=24,
                              origin_site_count=4)),
            base.config,
        )
        assert campaign_signature(different_world, 1, 900) != reference

    def test_campaign_directory_name_is_pinned(self):
        # The name keys every campaign directory on disk; a run setting
        # leaking back into the signature would move it and orphan them.
        signature = campaign_signature(small_deployment(), 1, 900)
        assert campaign_directory_name(signature) == "campaign-01-cbbd3fb8a0"

    def test_rebuilt_worker_matches_forked_worker(self, tmp_path):
        # The spawn fallback rebuilds the deployment from pickled configs
        # alone, and the rebuilt deployment mints the parent's task ids, so
        # its shard output — including the measurement_id column — is
        # byte-equal to a worker sharing the parent deployment (what fork
        # provides).
        from repro.core import shard as shard_module

        parent = small_deployment(visits=256)
        epoch = parent.next_campaign_epoch()
        signature = campaign_signature(parent, epoch, 256)
        assignment = ShardPlanner(256, 128, 2).plan()[0]
        shared_manifest = execute_shard(
            parent, assignment, epoch, 256, tmp_path / "shared", signature
        )
        assert shard_module._FORK_DEPLOYMENT is None
        rebuilt_path = shard_module.shard_worker(
            {
                "assignment": assignment,
                "epoch": epoch,
                "visits": 256,
                "shard_dir": tmp_path / "rebuilt",
                "signature": signature,
                "world_config": parent.world.config,
                "campaign_config": parent.config,
                "visit_base": 0,
            }
        )

        def rows_of(manifest):
            store = MeasurementStore()
            StoreMerger(store).merge([manifest])
            return [
                (m.measurement_id, str(m.target_url), m.client_ip, m.country_code,
                 m.outcome, m.elapsed_ms, m.day)
                for m in store.rows()
            ]

        rebuilt_manifest = json.loads(Path(rebuilt_path).read_text())
        assert rows_of(rebuilt_manifest) == rows_of(shared_manifest)
        # The scheduling counts the parent folds into its replication
        # report are keyed by the same ids.
        assert rebuilt_manifest["assignment_counts"] == shared_manifest["assignment_counts"]

    def test_execute_shard_writes_committing_manifest(self, tmp_path):
        deployment = small_deployment(visits=256)
        epoch = deployment.next_campaign_epoch()
        signature = campaign_signature(deployment, epoch, 256)
        assignment = ShardPlanner(256, 128, 2).plan()[0]
        manifest = execute_shard(
            deployment, assignment, epoch, 256, tmp_path / "shard-000", signature
        )
        on_disk = json.loads((tmp_path / "shard-000" / MANIFEST_NAME).read_text())
        assert on_disk == manifest
        assert manifest["signature"] == signature
        assert [b["block"] for b in manifest["blocks"]] == list(assignment.block_indices)
        for block in manifest["blocks"]:
            for segment in block["segments"]:
                assert Path(segment["path"]).is_file()
        assert manifest["counters"]["stored"] == sum(
            b["rows"] for b in manifest["blocks"]
        )
        assert load_manifest(tmp_path / "shard-000", signature, assignment) is not None


class TestCrashPoints:
    """Kill a 3-shard campaign at one durable write of shard 1, then resume.

    The resume runs in a freshly built deployment against the same spill
    root, as a restarted process would, or retries on the same deployment.
    It must adopt shard 0, re-execute shards 1 and 2, clear the dead
    attempt's segments, and end with the uninterrupted campaign: rows with
    their measurement ids, counters and detections.
    """

    VICTIM = "shard-001-of003"
    RUN = {"mode": "sharded", "num_shards": 3, "shard_executor": "inline"}

    @staticmethod
    def campaign_state(deployment, result):
        return (
            measurement_key(result),
            result.task_executions,
            deployment.collection.unreachable_submissions,
            deployment.coordination.batched_deliveries_attempted,
            deployment.coordination.batched_deliveries_failed,
            deployment.scheduler.replication_report(),
            result.detect().detected_pairs(),
        )

    def uninterrupted_state(self):
        reference = small_deployment()
        return self.campaign_state(reference, reference.run_campaign(**self.RUN))

    def crash_and_resume(self, tmp_path, monkeypatch, orphan_segments, inject):
        expected = self.uninterrupted_state()
        spill = tmp_path / "spill"
        inject(monkeypatch)
        with pytest.raises(OSError, match="injected crash"):
            small_deployment().run_campaign(worker_spill_dir=str(spill), **self.RUN)
        monkeypatch.undo()
        orphans = orphan_segments(spill)
        assert orphans and all(self.VICTIM in str(path) for path in orphans)

        seen = []
        resumed = small_deployment()
        result = resumed.run_campaign(
            worker_spill_dir=str(spill), progress=seen.append, **self.RUN
        )
        assert [(p.shard_index, p.resumed) for p in seen] == [
            (0, True), (1, False), (2, False)
        ]
        assert self.campaign_state(resumed, result) == expected
        assert not any(path.exists() for path in orphans)
        assert orphan_segments(spill) == set()

    def fail_manifest_write(self, monkeypatch, fail):
        """Make shard 1's manifest write call ``fail()`` instead."""
        from repro.core import shard as shard_module

        real_write = shard_module.write_manifest

        def write_manifest(shard_dir, manifest):
            if Path(shard_dir).name == self.VICTIM:
                fail()
            return real_write(shard_dir, manifest)

        monkeypatch.setattr(shard_module, "write_manifest", write_manifest)

    @staticmethod
    def injected_crash():
        raise OSError("injected crash")

    def test_crash_in_a_segment_spill(self, tmp_path, monkeypatch, orphan_segments):
        from repro.core import store as store_module

        real_spill = store_module._Segment.spill
        victim_spills = []

        def spill(segment, path):
            if self.VICTIM in str(path):
                victim_spills.append(path)
                if len(victim_spills) == 2:
                    # Die halfway through shard 1's second segment.
                    Path(path).write_bytes(b"half a segment")
                    raise OSError("injected crash")
            real_spill(segment, path)

        self.crash_and_resume(
            tmp_path, monkeypatch, orphan_segments,
            lambda patch: patch.setattr(store_module._Segment, "spill", spill),
        )

    def test_crash_in_a_manifest_write(self, tmp_path, monkeypatch, orphan_segments):
        self.crash_and_resume(
            tmp_path, monkeypatch, orphan_segments,
            lambda patch: self.fail_manifest_write(patch, self.injected_crash),
        )

    def test_same_deployment_retry_resumes_the_failed_campaign(
        self, tmp_path, monkeypatch
    ):
        # The failed run claimed neither the campaign epoch nor the visit
        # range, so the retry is the same campaign, in the same directory.
        expected = self.uninterrupted_state()
        spill = tmp_path / "spill"
        deployment = small_deployment()
        self.fail_manifest_write(monkeypatch, self.injected_crash)
        with pytest.raises(OSError, match="injected crash"):
            deployment.run_campaign(worker_spill_dir=str(spill), **self.RUN)
        monkeypatch.undo()
        assert deployment.campaigns_run == 0

        seen = []
        result = deployment.run_campaign(
            worker_spill_dir=str(spill), progress=seen.append, **self.RUN
        )
        assert [(p.shard_index, p.resumed) for p in seen] == [
            (0, True), (1, False), (2, False)
        ]
        assert deployment.campaigns_run == 1
        assert self.campaign_state(deployment, result) == expected
        assert len(list(spill.glob("campaign-*"))) == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched manifest write reaches workers only through fork",
    )
    def test_dead_process_worker(self, tmp_path, monkeypatch, orphan_segments):
        # Shard 1's forked worker dies before its manifest lands, which
        # breaks the pool.  Which other shards committed first is a race,
        # so only shard 1's re-execution is asserted.
        from concurrent.futures.process import BrokenProcessPool

        expected = self.uninterrupted_state()
        run = {**self.RUN, "shard_executor": "process",
               "worker_spill_dir": str(tmp_path / "spill")}
        self.fail_manifest_write(monkeypatch, lambda: os._exit(1))
        with pytest.raises(BrokenProcessPool):
            small_deployment().run_campaign(**run)
        monkeypatch.undo()

        seen = []
        resumed = small_deployment()
        result = resumed.run_campaign(progress=seen.append, **run)
        assert (1, False) in [(p.shard_index, p.resumed) for p in seen]
        assert self.campaign_state(resumed, result) == expected
        assert orphan_segments(tmp_path / "spill") == set()


class TestStoreMerger:
    """Segment adoption reconciles dictionary codes across writer stores."""

    @staticmethod
    def measurement(domain, country, outcome=TaskOutcome.SUCCESS, ip="10.0.0.1"):
        from repro.core.collection import Measurement

        return Measurement(
            measurement_id=f"m-{domain}-{country}",
            task_type=TaskType.IMAGE,
            target_url=URL.parse(f"http://{domain}/favicon.ico"),
            target_domain=domain,
            outcome=outcome,
            elapsed_ms=12.5,
            client_ip=ip,
            country_code=country,
            isp=f"{country.lower()}-isp-1",
            browser_family="chrome",
            origin_domain=None,
            day=3,
        )

    def manifest_for(self, store: MeasurementStore, block: int) -> dict:
        store.spill()
        tables = store.value_tables()
        return {
            "shard_index": block,
            "value_tables": {
                kind: ([str(u) for u in values] if kind == "url" else values)
                for kind, values in tables.items()
            },
            "blocks": [
                {
                    "block": block,
                    "visits": len(store),
                    "rows": len(store),
                    "segments": [
                        {"path": str(path), "rows": len(store)}
                        for path in store.segment_files
                    ],
                }
            ],
        }

    def test_adoption_translates_codes_between_stores(self, tmp_path):
        # Two writers see the same values in *different* insertion orders,
        # so their integer codes disagree; adoption must reconcile them.
        first = MeasurementStore(spill_dir=tmp_path / "a")
        first.append_rows([
            self.measurement("alpha.org", "DE"),
            self.measurement("beta.org", "IR", outcome=TaskOutcome.FAILURE),
        ])
        second = MeasurementStore(spill_dir=tmp_path / "b")
        second.append_rows([
            self.measurement("beta.org", "IR"),
            self.measurement("alpha.org", "DE", outcome=TaskOutcome.FAILURE, ip="10.0.0.2"),
        ])
        merged = MeasurementStore()
        merger = StoreMerger(merged)
        adopted = merger.merge([self.manifest_for(first, 0), self.manifest_for(second, 1)])
        assert adopted == len(merged) == 4
        rows = merged.rows()
        assert [(m.target_domain, m.country_code, m.outcome) for m in rows] == [
            ("alpha.org", "DE", TaskOutcome.SUCCESS),
            ("beta.org", "IR", TaskOutcome.FAILURE),
            ("beta.org", "IR", TaskOutcome.SUCCESS),
            ("alpha.org", "DE", TaskOutcome.FAILURE),
        ]
        assert all(isinstance(m.target_url, URL) for m in rows)
        # Grouped queries see one coherent code space.
        counts = grouped_success_counts(merged, exclude_automated=False).as_dict()
        assert counts[("alpha.org", "DE")] == (2, 1)
        assert counts[("beta.org", "IR")] == (2, 1)

    def test_adoption_does_not_copy_rows(self, tmp_path):
        store = MeasurementStore(spill_dir=tmp_path)
        store.append_rows([self.measurement("alpha.org", "DE")])
        manifest = self.manifest_for(store, 0)
        merged = MeasurementStore()
        StoreMerger(merged).merge([manifest])
        # The merged store mounts the writer's file in place.
        assert merged.segment_files == store.segment_files
        assert merged.rows_in_memory == 0

    def test_adopted_store_streams_success_counts(self, tmp_path):
        # Streaming aggregation over adopted segments never concatenates
        # the corpus; verify against a row-built reference store.
        writers = []
        for index in range(3):
            writer = MeasurementStore(spill_dir=tmp_path / str(index))
            writer.append_rows([
                self.measurement("alpha.org", "DE"),
                self.measurement("beta.org", "IR",
                                 outcome=TaskOutcome.FAILURE if index else TaskOutcome.SUCCESS),
            ])
            writers.append(self.manifest_for(writer, index))
        merged = MeasurementStore()
        StoreMerger(merged).merge(writers)
        reference = MeasurementStore()
        reference.append_rows(merged.rows())
        assert (
            grouped_success_counts(merged, exclude_automated=False).as_dict()
            == grouped_success_counts(reference, exclude_automated=False).as_dict()
        )


    @pytest.mark.parametrize("misstated", [20, -20])
    def test_misstated_segment_rows_name_the_segment(self, tmp_path, misstated):
        writer = MeasurementStore(spill_dir=tmp_path)
        writer.append_rows([self.measurement("alpha.org", "DE")] * 500)
        manifest = self.manifest_for(writer, 0)
        (segment,) = manifest["blocks"][0]["segments"]
        segment["rows"] += misstated
        merged = MeasurementStore()
        StoreMerger(merged).merge([manifest])
        with pytest.raises(SegmentRowsError) as raised:
            grouped_success_counts(merged)
        error = raised.value
        assert (error.path, error.declared, error.found) == (
            Path(segment["path"]), 500 + misstated, 500
        )
        assert segment["path"] in str(error)

    def test_truncated_segment_names_the_segment(self, tmp_path):
        writer = MeasurementStore(spill_dir=tmp_path)
        writer.append_rows([self.measurement("alpha.org", "DE")] * 500)
        manifest = self.manifest_for(writer, 0)
        path = Path(manifest["blocks"][0]["segments"][0]["path"])
        path.write_bytes(path.read_bytes()[:100])
        merged = MeasurementStore()
        StoreMerger(merged).merge([manifest])
        with pytest.raises(SegmentRowsError) as raised:
            merged.column("domain")
        assert (raised.value.path, raised.value.declared, raised.value.found) == (path, 500, None)


class TestCollectionServerStoreArgument:
    def test_explicit_empty_store_is_used(self):
        # Regression: an empty MeasurementStore is falsy, and ``store or
        # default`` used to silently replace it — shard workers pass a
        # fresh (empty) spilling store and must get their rows back.
        store = MeasurementStore()
        server = CollectionServer(
            "http://collector.encore-measurement.org/submit", store=store
        )
        assert server.store is store


class TestDefaultShardCount:
    """``num_shards=None`` resolves CPU- and topology-aware (ROADMAP item)."""

    def test_default_caps_by_blocks_and_ceiling(self, monkeypatch):
        from repro.core import shard as shard_module

        monkeypatch.setattr(shard_module, "available_cpu_count", lambda: 6)
        assert shard_module.default_num_shards(block_count=40) == 6
        assert shard_module.default_num_shards(block_count=3) == 3
        assert shard_module.default_num_shards(block_count=0) == 1
        monkeypatch.setattr(shard_module, "available_cpu_count", lambda: 128)
        assert shard_module.default_num_shards(block_count=10_000) == \
            shard_module.MAX_DEFAULT_SHARDS

    def test_available_cpu_count_prefers_affinity(self, monkeypatch):
        from repro.core import shard as shard_module

        monkeypatch.setattr(shard_module.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert shard_module.available_cpu_count() == 3
        monkeypatch.delattr(shard_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(shard_module.os, "cpu_count", lambda: None)
        assert shard_module.available_cpu_count() == 1

    def test_unset_shard_count_records_resolved_default(self, tmp_path, monkeypatch):
        # The campaign file records the resolved default (capped by the
        # block count), and the <4-core semantics stay what they were: on
        # this container the default is simply 1.
        from repro.core import shard as shard_module

        monkeypatch.setattr(shard_module, "available_cpu_count", lambda: 2)
        result = small_deployment().run_campaign(
            mode="sharded", shard_executor="inline", worker_spill_dir=str(tmp_path)
        )
        campaign_files = list(Path(tmp_path).glob("campaign-*/campaign.json"))
        assert len(campaign_files) == 1
        recorded = json.loads(campaign_files[0].read_text())
        assert set(recorded) == {"signature", "num_shards"}
        assert recorded["num_shards"] == 2
        reference = small_deployment().run_campaign()
        assert measurement_key(result) == measurement_key(reference)


class TestWriteJsonAtomic:
    """Durability contract: a committed .json is whole or absent, never partial."""

    def test_round_trip_and_no_scratch_left_behind(self, tmp_path):
        path = tmp_path / "manifest.json"
        payload = {"blocks": [1, 2, 3], "rate": 0.25}
        returned = write_json_atomic(path, payload)
        assert returned == path
        assert json.loads(path.read_text()) == payload
        assert list(tmp_path.glob("*.tmp")) == []

    def test_scratch_is_fsynced_before_the_rename(self, tmp_path, monkeypatch):
        from repro.core import shard as shard_module

        events = []
        real_fsync, real_replace = shard_module.os.fsync, shard_module.os.replace
        monkeypatch.setattr(
            shard_module.os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))
        )
        monkeypatch.setattr(
            shard_module.os,
            "replace",
            lambda src, dst: (events.append("replace"), real_replace(src, dst)),
        )
        write_json_atomic(tmp_path / "manifest.json", {"ok": True})
        # File fsync strictly precedes the commit rename; the directory
        # entry is flushed after it.
        assert events[0] == "fsync"
        assert "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_failed_commit_leaves_no_partial_json(self, tmp_path, monkeypatch):
        from repro.core import shard as shard_module

        path = tmp_path / "manifest.json"

        def explode(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(shard_module.os, "replace", explode)
        with pytest.raises(OSError, match="injected"):
            write_json_atomic(path, {"rows": 7})
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_commit_preserves_the_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        from repro.core import shard as shard_module

        path = tmp_path / "manifest.json"
        write_json_atomic(path, {"epoch": 1})

        def explode(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(shard_module.os, "replace", explode)
        with pytest.raises(OSError, match="injected"):
            write_json_atomic(path, {"epoch": 2})
        assert json.loads(path.read_text()) == {"epoch": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_unserializable_payload_touches_nothing(self, tmp_path):
        path = tmp_path / "manifest.json"
        with pytest.raises(TypeError):
            write_json_atomic(path, {"store": object()})
        assert list(tmp_path.iterdir()) == []
