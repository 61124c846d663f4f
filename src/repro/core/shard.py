"""Sharded multi-process campaign execution: worker pool + store merging.

The paper's deployment collected measurements from millions of browsers in
parallel; the reproduction's vectorized runner and columnar store are fast
but, on their own, capped by one core and one address space.  This module
runs one campaign across N worker processes and merges the results into a
single coherent :class:`~repro.core.store.MeasurementStore`:

1. **Plan.**  A :class:`ShardPlanner` deterministically partitions the
   campaign's planning blocks (the fixed-size units whose randomness derives
   from ``(seed, epoch, block_index)`` alone — see :mod:`repro.core.runner`)
   round-robin across shards.  Because every block is a pure function of the
   campaign key, the union of any shard partition's outputs is bit-identical
   to the single-process ``mode="batch"`` campaign, for any shard count.
2. **Execute.**  Each worker (:func:`shard_worker` — forked when the
   platform allows, rebuilt from the pickled configs otherwise, or run
   inline) drives the runner's plan → execute → ingest loop over its
   blocks, ingesting into a private collection server whose store seals and
   spills one ``.npz`` segment per block into the worker's shard directory.
   No measurement row ever crosses a process boundary: the only thing a
   worker sends back is the path of its JSON **manifest** — segment file
   names, value tables and counters — written atomically beside them as
   the shard's commit marker, a crash-resume checkpoint that survives a move.
3. **Merge.**  A :class:`StoreMerger` mounts every worker's segments into
   the deployment's store by *segment adoption*: the files stay where they
   are, dictionary codes are reconciled through per-shard translation
   arrays applied lazily at read time, and blocks are adopted in campaign
   order — so the merged store's rows come back in exactly the order the
   single-process campaign would have appended them.

``EncoreDeployment.run_campaign(mode="sharded")`` is the front door, and
its ``num_shards``, ``worker_spill_dir`` and ``shard_executor`` arguments
configure it: a campaign commits into the ``worker_spill_dir`` it must be
given, as one shard unless ``num_shards`` asks for more.  Re-running it
with the same directory adopts the manifests of shards that already
completed and re-executes only the missing ones (the crash-resume path).
Nothing about task identity needs carrying across: a deployment mints its
measurement ids from its configuration, so a worker or a restarted process
that builds the same deployment writes rows in the same id space.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Callable, Sequence

import multiprocessing

import numpy as np

from repro.core.collection import CollectionServer
from repro.core.runner import CampaignRunner
from repro.core.store import MeasurementStore, verify_segment
from repro.obs.clock import monotonic
from repro.obs.trace import NULL_TRACER, TRACE_FILENAME, Tracer, progress_listener
from repro.web.url import URL

MANIFEST_NAME = "manifest.json"


def available_cpu_count() -> int:
    """CPUs actually usable by this process, not merely present in the box.

    On Linux the scheduler affinity mask reflects cgroup/NUMA/taskset
    restrictions (a container pinned to one node of a big machine should
    not fork one worker per physical core), so it is preferred over
    ``os.cpu_count()``; platforms without affinity fall back.  Always ≥ 1.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardAssignment:
    """The planning blocks one worker executes."""

    shard_index: int
    num_shards: int
    block_indices: tuple[int, ...]

    @property
    def directory_name(self) -> str:
        # The partition is part of the name: re-running one campaign with a
        # different shard count writes (and, for manifest-less shards,
        # clears) its own directories, never the old partition's — whose
        # segments an earlier merged store may still read lazily.
        return f"shard-{self.shard_index:03d}-of{self.num_shards:03d}"


class ShardPlanner:
    """Partitions a campaign's planning blocks into seed-stable shards.

    Blocks are dealt round-robin (shard ``s`` gets blocks ``s``, ``s + N``,
    ``s + 2N``, …) so shard workloads stay balanced even when measurement
    density drifts across the campaign.  The partition depends only on
    ``(visits, plan_block_visits, num_shards)`` — no RNG — and shards whose
    slice is empty (more workers than blocks) are simply dropped.
    """

    def __init__(self, visits: int, plan_block_visits: int, num_shards: int) -> None:
        if visits < 0:
            raise ValueError("visits must be non-negative")
        if plan_block_visits < 1:
            raise ValueError("plan_block_visits must be positive")
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        self.visits = visits
        self.plan_block_visits = plan_block_visits
        self.num_shards = num_shards

    @property
    def block_count(self) -> int:
        return (self.visits + self.plan_block_visits - 1) // self.plan_block_visits

    def plan(self) -> list[ShardAssignment]:
        """Non-empty shard assignments covering every block exactly once."""
        blocks = self.block_count
        assignments = []
        for shard in range(self.num_shards):
            indices = tuple(range(shard, blocks, self.num_shards))
            if indices:
                assignments.append(
                    ShardAssignment(
                        shard_index=shard,
                        num_shards=self.num_shards,
                        block_indices=indices,
                    )
                )
        return assignments


@dataclass(frozen=True)
class ShardProgress:
    """Progress information passed to the hook as each shard completes.

    The sharded sibling of :class:`~repro.core.runner.BatchProgress`:
    ``shard_index`` identifies the finished shard, the ``*_completed``
    fields accumulate across finished shards, and ``resumed`` marks shards
    adopted from an existing manifest instead of re-executed.
    """

    shard_index: int
    shard_count: int
    shards_completed: int
    blocks_completed: int
    blocks_total: int
    visits_completed: int
    visits_total: int
    measurements_added: int
    measurements_total: int
    duration_s: float
    resumed: bool = False


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def campaign_signature(deployment, epoch: int, visits: int, visit_base: int = 0) -> dict:
    """What a manifest must match to belong to this campaign run.

    Covers everything that shapes campaign *content* — the full world
    config and every campaign-config field — so a manifest from a
    materially different campaign sharing the same seed is rejected rather
    than silently adopted.  The shard count is deliberately *not* part of
    the signature: it shapes the partition, not the campaign, and per-shard
    ``block_indices`` checks already reject manifests cut for a different
    partition.  JSON round-tripped so the in-memory form compares equal to
    what comes back off disk.
    """
    from dataclasses import asdict

    signature = {
        "epoch": epoch,
        "visits": visits,
        "visit_base": visit_base,
        "campaign": asdict(deployment.config),
        "world": asdict(deployment.world.config),
        "mode": "batch",
    }
    return json.loads(json.dumps(signature))


def campaign_directory_name(signature: dict) -> str:
    """The spill-root subdirectory one campaign's shards live under.

    Keyed by the signature digest, so different campaigns (different seeds,
    epochs, configs) sharing one ``worker_spill_dir`` never touch each
    other's directories — in particular, re-executing a shard of campaign B
    can never delete segment files that campaign A's merged store still
    reads lazily.
    """
    digest = hashlib.sha1(
        json.dumps(signature, sort_keys=True).encode()
    ).hexdigest()[:10]
    return f"campaign-{signature['epoch']:02d}-{digest}"


def execute_shard(
    deployment,
    assignment: ShardAssignment,
    epoch: int,
    visits: int,
    shard_dir: str | Path,
    signature: dict,
    visit_base: int = 0,
    trace: bool = False,
) -> dict:
    """Run one shard's blocks and seal the results under ``shard_dir``.

    Every block runs the runner's plan → execute → ingest loop into a
    shard-private collection server; a whole block is one plan, so one
    chunk, and the store spills after each block, so each block with rows
    becomes exactly one ``.npz`` segment in ``shard_dir``.  The manifest —
    segment file names, value tables, counters — is written last via an
    atomic rename (and returned as :func:`read_manifest` reads it), after
    every segment it lists is flushed: its presence is the commit marker,
    and a worker killed mid-shard leaves none and is re-executed on resume.

    With ``trace`` on, the shard writes its own span stream next to its
    segments; ``run_sharded`` absorbs it into the campaign trace after the
    manifest commits (or salvages it, aborted, after a kill).
    """
    shard_dir = Path(shard_dir)
    if shard_dir.exists():
        # A shard only (re)executes when it has no valid manifest, so
        # whatever sits here is a dead attempt's partial output; clear it,
        # or its segments would block this attempt's same-named spills.
        shutil.rmtree(shard_dir)
    shard_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(shard_dir / TRACE_FILENAME) if trace else NULL_TRACER
    store = MeasurementStore(spill_dir=shard_dir)
    collection = CollectionServer(
        deployment.collection.submit_url,
        geoip=deployment.world.geoip,
        store=store,
    )
    runner = CampaignRunner(deployment, mode="batch", tracer=tracer)
    ctx = runner.plan_context(visits, epoch, visit_base)
    started = monotonic()
    blocks = []
    deliveries_attempted = 0
    deliveries_failed = 0
    with tracer.span(
        "shard.execute",
        shard=assignment.shard_index,
        blocks=len(assignment.block_indices),
    ):
        for block_index in assignment.block_indices:
            start = block_index * ctx.block_visits
            end = min(start + ctx.block_visits, visits)
            segments_before = len(store.segment_files)
            stored = 0
            for plan in runner.plan_parts(ctx, start, end):
                with tracer.span("execute", block=block_index):
                    outcome = runner.execute_plan(ctx, plan)
                with tracer.span("ingest", block=block_index):
                    stored += collection.ingest_columns(
                        outcome.columns, outcome.unreachable_submissions
                    )
                deliveries_attempted += outcome.deliveries_attempted
                deliveries_failed += outcome.deliveries_failed
            with tracer.span("seal", block=block_index):
                store.spill()
            blocks.append(
                {
                    "block": block_index,
                    "visits": end - start,
                    "rows": stored,
                    # One chunk in, so at most one segment out, holding
                    # every row the block stored.
                    "segments": [
                        {"path": path.name, "rows": stored}
                        for path in store.segment_files[segments_before:]
                    ],
                }
            )
    manifest = {
        "signature": signature,
        "shard_index": assignment.shard_index,
        "num_shards": assignment.num_shards,
        "block_indices": list(assignment.block_indices),
        "blocks": blocks,
        "value_tables": serialize_value_tables(store.value_tables()),
        "counters": {
            "stored": len(store),
            "unreachable_submissions": collection.unreachable_submissions,
            "deliveries_attempted": deliveries_attempted,
            "deliveries_failed": deliveries_failed,
        },
        "assignment_counts": ctx.assignment_counts,
        "duration_s": monotonic() - started,
    }
    with tracer.span("manifest", shard=assignment.shard_index):
        _flush_segments(shard_dir, manifest)
        manifest_path = write_manifest(shard_dir, manifest)
    tracer.record_metrics(scope=f"shard-{assignment.shard_index:03d}")
    tracer.close()
    return read_manifest(manifest_path)


def serialize_value_tables(tables: dict[str, list]) -> dict[str, list]:
    """A store's dictionary value tables in JSON form (URLs as strings)."""
    return {
        kind: ([str(url) for url in values] if kind == "url" else values)
        for kind, values in tables.items()
    }


def write_json_atomic(path: str | Path, payload: dict) -> Path:
    """Write ``payload`` as JSON via scratch file + fsync + rename.

    The rename is what makes the file's *presence* trustworthy as a commit
    marker: a process killed mid-write leaves only the ``.tmp`` scratch,
    which readers ignore (and which the next write reclaims).  The scratch
    is fsynced before the rename — and the directory entry after it — so
    the committed file survives power loss, not just process death.  Shard
    manifests (the longitudinal monitor's epoch commits among them),
    sweep-cell manifests, ``CusumState.save`` and the scenario suites'
    QUALITY files all go through here; repro-lint's ``atomic-json-write``
    rule keeps it that way.
    """
    path = Path(path)
    scratch = path.with_suffix(".tmp")
    encoded = json.dumps(payload, indent=1)
    try:
        with open(scratch, "w") as handle:
            handle.write(encoded)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise
    _fsync_path(path.parent)
    return path


def _fsync_path(path: Path) -> None:
    """Flush a file's data or a directory's entries; best-effort off POSIX."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic/readonly platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def _flush_segments(directory: Path, manifest: dict) -> None:
    """fsync every segment ``manifest`` names in ``directory``, then ``directory``.

    Run before the manifest is written, so a manifest that survives power
    loss never names a segment that did not.
    """
    for block in manifest["blocks"]:
        for segment in block["segments"]:
            _fsync_path(directory / segment["path"])
    _fsync_path(directory)


def write_manifest(shard_dir: str | Path, manifest: dict) -> Path:
    """Atomically write ``manifest`` as ``shard_dir``'s commit marker.

    A worker killed mid-write leaves no manifest, so partial output is
    re-executed instead of adopted.
    """
    return write_json_atomic(Path(shard_dir) / MANIFEST_NAME, manifest)


def read_manifest(path: str | Path) -> dict | None:
    """The manifest at ``path``, or ``None`` if missing, unparseable or no manifest.

    Anything but a JSON object whose blocks list their segments is no
    manifest.  Each segment's ``path`` comes back absolute, beside the
    manifest (in an earlier writer's ``store-*`` directory there): the
    location its writer recorded is never read, so a moved or copied
    directory reads its own.
    """
    path = Path(path).absolute()
    try:
        manifest = json.loads(path.read_text())
        for block in manifest["blocks"]:
            for segment in block["segments"]:
                recorded = PurePath(segment["path"])
                kept = 2 if recorded.parent.name.startswith("store-") else 1
                segment["path"] = str(path.parent.joinpath(*recorded.parts[-kept:]))
    except (OSError, ValueError, LookupError, TypeError):
        return None
    return manifest


def manifest_segments_intact(manifest: dict) -> bool:
    """Whether every segment a manifest lists is on disk, holding its rows.

    A missing file makes the manifest a cache miss (``False``).  A file
    that is there but is no readable archive, or holds other than the rows
    the manifest declares, raises
    :class:`~repro.core.store.SegmentRowsError` naming it, before anything
    is adopted.
    """
    segments = [segment for block in manifest["blocks"] for segment in block["segments"]]
    if not all(Path(segment["path"]).is_file() for segment in segments):
        return False
    for segment in segments:
        verify_segment(segment["path"], segment["rows"])
    return True


#: Deployment inherited by forked worker processes.  Set by the parent just
#: before the pool is created (fork children see it through copy-on-write
#: memory); workers fall back to rebuilding the deployment from the pickled
#: configs when the platform cannot fork.
_FORK_DEPLOYMENT = None


def shard_worker(payload: dict) -> str:
    """Process-pool entrypoint: run one shard, return its manifest path."""
    deployment = _FORK_DEPLOYMENT
    if deployment is None:
        from repro.core.pipeline import EncoreDeployment
        from repro.population.world import World

        world = World(payload["world_config"])
        deployment = EncoreDeployment(world, payload["campaign_config"])
    execute_shard(
        deployment,
        payload["assignment"],
        payload["epoch"],
        payload["visits"],
        payload["shard_dir"],
        payload["signature"],
        payload["visit_base"],
        trace=payload.get("trace", False),
    )
    # Only the path crosses the process boundary; the parent reads the
    # committed manifest (never measurement rows) back through read_manifest.
    return str(Path(payload["shard_dir"]) / MANIFEST_NAME)


# ----------------------------------------------------------------------
# Merge side
# ----------------------------------------------------------------------
class StoreMerger:
    """Mounts shard manifests into one store by segment adoption.

    Nothing is re-copied: each worker's ``.npz`` segments are adopted in
    place, and the workers' dictionary codes are reconciled against the
    target store's value tables through per-shard translation arrays
    (:meth:`MeasurementStore.merge_value_table`) applied lazily at column
    read time.  Adopting blocks in campaign order makes the merged store's
    row order identical to the single-process campaign's.
    """

    #: Manifest value-table kinds that need parsing back into objects.
    _PARSERS: dict[str, Callable] = {"url": URL.parse}

    def __init__(self, store: MeasurementStore) -> None:
        self.store = store

    def remap_for(self, manifest: dict) -> dict[str, np.ndarray]:
        """Code-translation arrays folding one manifest's tables into the store."""
        remap = {}
        for kind, values in manifest["value_tables"].items():
            parser = self._PARSERS.get(kind)
            if parser is not None:
                values = [parser(value) for value in values]
            remap[kind] = self.store.merge_value_table(kind, values)
        return remap

    def merge(self, manifests: Sequence[dict]) -> int:
        """Adopt every manifest's segments, in campaign (block) order."""
        remaps = {m["shard_index"]: self.remap_for(m) for m in manifests}
        entries = [
            (block["block"], block, m["shard_index"])
            for m in manifests
            for block in m["blocks"]
        ]
        entries.sort(key=lambda entry: entry[0])
        adopted = 0
        for _, block, shard_index in entries:
            for segment in block["segments"]:
                self.store.adopt_spilled_segment(
                    segment["path"], segment["rows"], remap=remaps[shard_index]
                )
                adopted += segment["rows"]
        return adopted


def load_manifest(
    shard_dir: Path, signature: dict, assignment: ShardAssignment
) -> dict | None:
    """The shard's manifest, if it exists and belongs to this campaign run.

    A manifest from a different campaign (seed, epoch, visit count, shard
    layout…) or one whose segment files have gone missing is ignored, which
    makes a stale ``worker_spill_dir`` merely a cache miss, never silent
    corruption; a segment that is there but damaged raises
    :class:`~repro.core.store.SegmentRowsError`.
    """
    manifest = read_manifest(shard_dir / MANIFEST_NAME)
    if manifest is None:
        return None
    if manifest.get("signature") != signature:
        return None
    if manifest.get("block_indices") != list(assignment.block_indices):
        return None
    if not manifest_segments_intact(manifest):
        return None
    return manifest


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_sharded(
    deployment,
    visits: int | None = None,
    num_shards: int | None = None,
    worker_spill_dir: str | Path | None = None,
    shard_executor: str | None = None,
    progress: Callable[[ShardProgress], None] | None = None,
    tracer=None,
):
    """Run one campaign across worker processes; return a ``CampaignResult``.

    The parent plans the shard partition, launches workers (skipping shards
    whose manifest already sits in ``worker_spill_dir`` — the crash-resume
    path), merges every worker's spilled segments into the deployment's
    collection store by adoption, and folds the workers' delivery /
    scheduling / unreachable counters back so the deployment looks exactly
    as if the campaign had run in-process.

    Inside ``worker_spill_dir``, which the caller must name, each campaign
    owns a signature-keyed subdirectory (so one spill root is safely
    shareable across campaigns and deployments) holding its shard
    directories, and nothing else.  An unset ``num_shards`` means one
    shard, so the partition on disk never depends on the host.

    The deployment's campaign and visit counters advance only when the
    merge begins: a run that raises before then leaves them as they were,
    so a retry on the same deployment is the same campaign and adopts
    whatever the failed attempt committed.
    """
    from repro.core.pipeline import CampaignResult  # local: avoids a cycle

    if worker_spill_dir is None:
        raise ValueError("mode='sharded' commits into the worker_spill_dir it must be given")
    tracer = tracer if tracer is not None else NULL_TRACER
    config = deployment.config
    visits = visits if visits is not None else config.visits
    num_shards = 1 if num_shards is None else num_shards
    executor_kind = shard_executor or "process"
    if executor_kind not in ("process", "inline"):
        raise ValueError(f"unknown shard executor {executor_kind!r}")
    epoch = deployment.campaigns_run + 1
    visit_base = deployment.visits_claimed
    signature = campaign_signature(deployment, epoch, visits, visit_base)
    # Planned before anything touches disk, so a rejected partition
    # leaves no directory behind.
    planner = ShardPlanner(visits, config.plan_block_visits, num_shards)
    assignments = planner.plan()
    # Every campaign gets its own signature-keyed subdirectory, so spill
    # roots are safely shareable across campaigns and deployments.
    campaign_root = Path(worker_spill_dir) / campaign_directory_name(signature)
    campaign_root.mkdir(parents=True, exist_ok=True)

    started = monotonic()
    # Progress and telemetry share one code path: shard completions are
    # "shard" events on the tracer's stream, and the legacy callback rides
    # them as a listener (NullTracer still dispatches listeners).
    listener = None
    if progress is not None:
        listener = progress_listener(progress, "shard", ShardProgress)
        tracer.add_listener(listener)
    try:
        with tracer.span("campaign", epoch=epoch, visits=visits, shards=num_shards):
            manifests: dict[int, dict] = {}
            resumed: set[int] = set()
            pending: list[ShardAssignment] = []
            for assignment in assignments:
                manifest = load_manifest(
                    campaign_root / assignment.directory_name, signature, assignment
                )
                if manifest is not None:
                    manifests[assignment.shard_index] = manifest
                    resumed.add(assignment.shard_index)
                else:
                    pending.append(assignment)

            # A killed worker leaves a partial trace but no manifest; fold
            # it into the campaign stream (open spans close as ``aborted``)
            # before re-execution clears its directory.
            for assignment in pending:
                _salvage_aborted_trace(
                    tracer, campaign_root / assignment.directory_name, assignment
                )

            completed: list[int] = []

            def note_progress(shard_index: int) -> None:
                completed.append(shard_index)
                done = [manifests[i] for i in completed]
                tracer.event(
                    "shard",
                    shard_index=shard_index,
                    shard_count=len(assignments),
                    shards_completed=len(completed),
                    blocks_completed=sum(len(m["blocks"]) for m in done),
                    blocks_total=planner.block_count,
                    visits_completed=sum(
                        block["visits"] for m in done for block in m["blocks"]
                    ),
                    visits_total=visits,
                    measurements_added=manifests[shard_index]["counters"]["stored"],
                    measurements_total=sum(m["counters"]["stored"] for m in done),
                    duration_s=monotonic() - started,
                    resumed=shard_index in resumed,
                )

            for shard_index in sorted(resumed):
                note_progress(shard_index)

            if pending:
                if executor_kind == "inline":
                    for assignment in pending:
                        manifests[assignment.shard_index] = execute_shard(
                            deployment,
                            assignment,
                            epoch,
                            visits,
                            campaign_root / assignment.directory_name,
                            signature,
                            visit_base,
                            trace=tracer.enabled,
                        )
                        note_progress(assignment.shard_index)
                else:
                    _run_process_pool(
                        deployment, pending, epoch, visits, visit_base,
                        campaign_root, signature, manifests, note_progress,
                        trace=tracer.enabled,
                    )

            # Fold each shard's committed span stream into the campaign
            # trace, preserving parentage under a per-shard wrapper span.
            if tracer.enabled:
                for assignment in assignments:
                    shard_trace = (
                        campaign_root / assignment.directory_name / TRACE_FILENAME
                    )
                    with tracer.span(
                        "shard",
                        shard=assignment.shard_index,
                        resumed=assignment.shard_index in resumed,
                    ) as span:
                        tracer.absorb_file(shard_trace, parent_id=span.id)

            merged = [manifests[a.shard_index] for a in assignments]
            deployment.next_campaign_epoch()
            deployment.claim_visit_range(visits)
            merger = StoreMerger(deployment.collection.store)
            with tracer.span("adopt", shards=len(merged)):
                executions = merger.merge(merged)
            attempted = sum(m["counters"]["deliveries_attempted"] for m in merged)
            failed = sum(m["counters"]["deliveries_failed"] for m in merged)
            deployment.coordination.note_batch_deliveries(attempted, failed)
            deployment.collection.unreachable_submissions += sum(
                m["counters"]["unreachable_submissions"] for m in merged
            )
            for manifest in merged:
                deployment.scheduler.absorb_counts(manifest["assignment_counts"])
            tracer.record_metrics(scope="campaign")
            return CampaignResult(
                config=config,
                collection=deployment.collection,
                coordination=deployment.coordination,
                visits_simulated=visits,
                task_executions=executions,
                feasibility=deployment.feasibility,
                mode="sharded",
            )
    finally:
        if listener is not None:
            tracer.remove_listener(listener)


def _salvage_aborted_trace(tracer, shard_dir: Path, assignment) -> None:
    """Absorb a dead attempt's partial trace before its directory is cleared.

    The spans a killed worker left open are closed with ``aborted`` status
    by :meth:`Tracer.absorb_file`, so the evidence of where the attempt
    died survives the retry instead of being rmtree'd with the rest of the
    partial output.
    """
    orphan = shard_dir / TRACE_FILENAME
    if not tracer.enabled or not orphan.is_file():
        return
    with tracer.span(
        "shard.aborted", shard=assignment.shard_index
    ) as span:
        tracer.absorb_file(orphan, parent_id=span.id)


def _run_process_pool(
    deployment, pending, epoch, visits, visit_base, campaign_root, signature,
    manifests, note_progress, trace=False,
) -> None:
    """Fan the pending shards out over a process pool.

    Prefers the ``fork`` start method so workers inherit the already-built
    deployment through copy-on-write memory (no pickling, no rebuild); on
    platforms without it, workers rebuild the deployment from the pickled
    world/campaign configs, producing the same campaign (measurement ids
    included) either way.
    """
    global _FORK_DEPLOYMENT
    methods = multiprocessing.get_all_start_methods()
    use_fork = "fork" in methods
    context = multiprocessing.get_context("fork" if use_fork else None)
    # The configs are only shipped when workers cannot inherit the
    # deployment; forked children never read them.
    rebuild_fields = (
        {}
        if use_fork
        else {
            "world_config": deployment.world.config,
            "campaign_config": deployment.config,
        }
    )
    payloads = {
        assignment.shard_index: {
            "assignment": assignment,
            "epoch": epoch,
            "visits": visits,
            "visit_base": visit_base,
            "shard_dir": campaign_root / assignment.directory_name,
            "signature": signature,
            "trace": trace,
            **rebuild_fields,
        }
        for assignment in pending
    }
    if use_fork:
        _FORK_DEPLOYMENT = deployment
    try:
        with ProcessPoolExecutor(
            max_workers=len(pending), mp_context=context
        ) as pool:
            futures = {
                pool.submit(shard_worker, payload): shard_index
                for shard_index, payload in payloads.items()
            }
            for future in as_completed(futures):
                shard_index = futures[future]
                manifests[shard_index] = read_manifest(future.result())
                note_progress(shard_index)
    finally:
        _FORK_DEPLOYMENT = None
