"""Shared fixtures for the test suite.

Building a full simulated world is the expensive part of most tests, so the
fixtures below are session-scoped: one small world, one soundness campaign,
one detection campaign, and one feasibility crawl are shared by every test
that only reads them.  Tests that mutate state build their own objects.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.shard import MANIFEST_NAME, read_manifest
from repro.core.targets import TargetList
from repro.core.task_generation import TaskGenerationLimits, TaskGenerationPipeline
from repro.obs.trace import TRACE_FILENAME
from repro.population.world import World, WorldConfig


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_world() -> World:
    """A compact world: 24 online target domains, 4 origin sites."""
    return World(
        WorldConfig(seed=7, target_list_total=30, target_list_online=24, origin_site_count=4)
    )


@pytest.fixture(scope="session")
def detection_deployment(small_world: World) -> EncoreDeployment:
    """A §7.2-style deployment measuring Facebook / YouTube / Twitter."""
    config = CampaignConfig(
        visits=4000,
        include_testbed=False,
        favicons_only=True,
        target_domains=("facebook.com", "youtube.com", "twitter.com"),
        seed=11,
    )
    return EncoreDeployment(small_world, config)


@pytest.fixture(scope="session")
def detection_result(detection_deployment: EncoreDeployment):
    return detection_deployment.run_campaign()


@pytest.fixture(scope="session")
def soundness_deployment() -> EncoreDeployment:
    """A §7.1-style deployment with the censorship testbed attached."""
    world = World(
        WorldConfig(seed=13, target_list_total=20, target_list_online=16, origin_site_count=4)
    )
    config = CampaignConfig(
        visits=3000,
        include_testbed=True,
        testbed_fraction=0.3,
        favicons_only=True,
        seed=17,
    )
    return EncoreDeployment(world, config)


@pytest.fixture(scope="session")
def soundness_result(soundness_deployment: EncoreDeployment):
    return soundness_deployment.run_campaign()


@pytest.fixture(scope="session")
def feasibility_world() -> World:
    """A medium world used for the §6.1 feasibility statistics."""
    return World(WorldConfig(seed=21, target_list_total=70, target_list_online=60))


@pytest.fixture(scope="session")
def feasibility_report(feasibility_world: World):
    pipeline = TaskGenerationPipeline(
        feasibility_world.search, feasibility_world.headless, TaskGenerationLimits()
    )
    target_list = TargetList.high_value(total=70, online=60)
    return pipeline.run(target_list.entries)


def committed_segments(root: Path) -> set[Path]:
    """The segment paths named by the manifests under ``root``, as read."""
    return {
        Path(segment["path"])
        for manifest in root.rglob(MANIFEST_NAME)
        for block in read_manifest(manifest)["blocks"]
        for segment in block["segments"]
    }


@pytest.fixture
def orphan_segments():
    """Lists the segment files under a spill root that no manifest commits.

    A shard killed before its manifest landed leaves such files behind; a
    resumed run must clear them rather than let them pile up.
    """

    def find(root: Path) -> set[Path]:
        return set(root.rglob("*.npz")) - committed_segments(root)

    return find


@pytest.fixture
def stray_files():
    """Lists the entries under a checkpoint directory that no commit explains.

    A committed directory holds manifests, the segments they name beside
    them and each shard's trace file; anything else, such as a scratch
    file, an uncommitted segment, a state file or a directory inside a
    shard or sweep-cell directory, is stray.
    """

    def find(root: Path) -> list[Path]:
        committed = committed_segments(root)
        return sorted(
            path for path in root.rglob("*")
            if (path.is_dir() and path.parent.name.startswith(("shard-", "cell-")))
            or (
                path.is_file()
                and path.name != MANIFEST_NAME
                and path not in committed
                and not (path.name == TRACE_FILENAME and path.parent.name.startswith("shard-"))
            )
        )

    return find


@pytest.fixture
def flushed_before(monkeypatch):
    """Spies on ``os.fsync`` and ``os.replace`` for the rest of the test.

    Returns a function of a committed file's path: the paths fsynced before
    that file was renamed into place.  ``os.open`` and ``os.close`` are
    spied on too, to name the file or directory behind each descriptor.
    """
    opened: dict[int, Path] = {}
    events = []
    real_open, real_close = os.open, os.close
    real_fsync, real_replace = os.fsync, os.replace

    def spy_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        opened[fd] = Path(path)
        return fd

    def spy_close(fd):
        opened.pop(fd, None)
        real_close(fd)

    def spy_fsync(fd):
        events.append(("fsync", opened.get(fd)))
        real_fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", Path(dst)))
        real_replace(src, dst)

    for name, spy in (("open", spy_open), ("close", spy_close),
                      ("fsync", spy_fsync), ("replace", spy_replace)):
        monkeypatch.setattr(os, name, spy)

    def flushed(path: Path) -> set[Path]:
        committed = events.index(("replace", Path(path)))
        return {flushed for kind, flushed in events[:committed] if kind == "fsync"}

    return flushed
