"""Task scheduling (paper §5.3).

The coordination server decides which measurement task each visiting client
runs.  Scheduling has two goals: respect client restrictions (the script task
type only works on Chrome; long-dwelling visitors can run several tasks), and
replicate the same measurement across many clients, countries, and ISPs
within a short window so the inference stage can compare regions rather than
trusting single reports.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.tasks import MeasurementTask, TaskType
from repro.population.clients import Client, ClientBatch


def capability_key(browser_profile) -> tuple[bool, bool, bool]:
    """The browser capabilities that determine which tasks are runnable.

    Two clients with the same key see exactly the same runnable subset of
    every pool, which is what lets :meth:`Scheduler.assign_batch` share
    filtered task lists across a whole batch instead of rebuilding them per
    client.
    """
    return (
        browser_profile.javascript_enabled,
        browser_profile.supports_script_task,
        browser_profile.supports_computed_style_check,
    )


@dataclass
class TaskPool:
    """A named, weighted pool of tasks the scheduler draws from.

    The paper's experiment split — roughly 30% of clients measure testbed
    resources and 70% measure suspected-filtered resources (§7) — is
    expressed as two pools with weights 0.3 and 0.7.
    """

    name: str
    tasks: list[MeasurementTask]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("pool weight must be non-negative")

    def runnable_tasks(self, client: Client) -> list[MeasurementTask]:
        return [task for task in self.tasks if task.runnable_by(client.browser)]


@dataclass
class ScheduleDecision:
    """The tasks assigned to one client visit (the scalar :meth:`Scheduler.schedule`)."""

    client: Client
    tasks: list[MeasurementTask] = field(default_factory=list)
    pool_name: str | None = None


class Scheduler:
    """Assigns tasks to visiting clients."""

    #: Dwell time (seconds) below which a client is unlikely to finish even a
    #: single task and report back (paper §6.2 uses 10 s as comfortably
    #: sufficient; 3 s is the bare minimum modelled here).
    MIN_DWELL_FOR_ONE_TASK_S = 3.0
    #: Dwell time beyond which the scheduler assigns additional tasks.
    DWELL_FOR_MULTIPLE_TASKS_S = 60.0
    #: Maximum tasks per visit, to bound client-side overhead.
    MAX_TASKS_PER_VISIT = 3

    def __init__(self, pools: list[TaskPool], rng: np.random.Generator | int | None = None) -> None:
        if not pools:
            raise ValueError("scheduler needs at least one task pool")
        self.pools = pools
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        #: How many times each measurement ID has been assigned, used to
        #: balance replication across the pool.
        self.assignment_counts: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    @staticmethod
    def _cumulative_weights(pools: Sequence[TaskPool]) -> list[float]:
        weights = [pool.weight for pool in pools]
        total = sum(weights)
        if total <= 0:
            weights = [1.0] * len(pools)
            total = float(len(pools))
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        return cumulative

    def _choose_pool(self, client: Client) -> TaskPool | None:
        candidates = [pool for pool in self.pools if pool.runnable_tasks(client)]
        if not candidates:
            return None
        cumulative = self._cumulative_weights(candidates)
        index = min(bisect_right(cumulative, self._rng.random()), len(candidates) - 1)
        return candidates[index]

    def _pick_least_assigned(self, runnable: Sequence[MeasurementTask]) -> MeasurementTask:
        """Pick among the least-assigned of ``runnable`` with a random tie-break.

        Consumes exactly one uniform draw; :meth:`assign_batch` relies on this
        layout to replicate :meth:`schedule`'s stream.
        """
        least = min(self.assignment_counts[t.measurement_id] for t in runnable)
        pick_from = [t for t in runnable if self.assignment_counts[t.measurement_id] == least]
        index = min(int(self._rng.random() * len(pick_from)), len(pick_from) - 1)
        task = pick_from[index]
        self.assignment_counts[task.measurement_id] += 1
        return task

    def _choose_task(self, pool: TaskPool, client: Client) -> MeasurementTask | None:
        runnable = pool.runnable_tasks(client)
        if not runnable:
            return None
        # Prefer the least-assigned tasks so replication is spread evenly; tie
        # break randomly for diversity within a window.
        return self._pick_least_assigned(runnable)

    # ------------------------------------------------------------------
    def schedule(self, client: Client) -> ScheduleDecision:
        """Decide which tasks ``client`` should run during this visit."""
        decision = ScheduleDecision(client=client)
        if not client.can_run_task or client.dwell_time_s < self.MIN_DWELL_FOR_ONE_TASK_S:
            return decision
        pool = self._choose_pool(client)
        if pool is None:
            return decision
        decision.pool_name = pool.name
        task_budget = 1
        if client.dwell_time_s >= self.DWELL_FOR_MULTIPLE_TASKS_S:
            task_budget = self.MAX_TASKS_PER_VISIT
        seen_ids: set[str] = set()
        for _ in range(task_budget):
            task = self._choose_task(pool, client)
            if task is None or task.measurement_id in seen_ids:
                break
            seen_ids.add(task.measurement_id)
            decision.tasks.append(task)
        return decision

    # ------------------------------------------------------------------
    class _Drain:
        """Amortized least-assigned pick state for one (pool, runnable subset).

        ``queue`` holds the tasks currently at the minimum assignment count,
        in runnable order — exactly the ``pick_from`` list the reference scan
        would rebuild.  Removing the picked task keeps it valid; it is
        rescanned only when it empties or when a *different* runnable subset
        has picked from the same pool in between (``version`` mismatch),
        which is the only way the subset's minimum can change underneath it.
        """

        __slots__ = ("queue", "version")

        def __init__(self) -> None:
            self.queue: list = []
            self.version = -1

    def _class_candidates(self, by_class: dict, drains: dict, task_index: dict,
                          browser_profile):
        """Cached (candidates, cumulative weights) for one capability class.

        A candidate is ``(pool index, runnable (task index, measurement id)
        pairs, drain)``; the drain is shared by every capability class with
        the same runnable subset of the pool.
        """
        key = capability_key(browser_profile)
        entry = by_class.get(key)
        if entry is None:
            candidates = []
            for pool_index, pool in enumerate(self.pools):
                runnable = [
                    (task_index[id(t)], t.measurement_id)
                    for t in pool.tasks if t.runnable_by(browser_profile)
                ]
                if runnable:
                    drain_key = (pool_index, tuple(index for index, _ in runnable))
                    drain = drains.setdefault(drain_key, self._Drain())
                    candidates.append((pool_index, runnable, drain))
            cumulative = self._cumulative_weights([self.pools[c[0]] for c in candidates])
            entry = by_class[key] = (candidates, cumulative)
        return entry

    def assign_batch(self, batch: ClientBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Schedule a whole batch of visiting clients, as columns.

        Returns ``(visit, task, pool)``: one row per scheduled task, in visit
        order (``visit[r]`` is the row's visit, ``task[r]`` indexes
        :attr:`all_tasks`), and each visit's index into :attr:`pools`, or -1
        when it runs no task.  The rows, the assignment counts, and the RNG
        position afterwards are exactly those of calling :meth:`schedule`
        once per ``batch.client(v)`` in order (pinned by
        ``tests/core/test_runner_equivalence.py``).  Eligibility is one mask
        over the batch's column arrays, so no per-visitor :class:`Client` is
        built; each pool's runnable list is filtered once per browser
        capability class; and the uniforms come from one bulk draw, after
        which the stream is rewound and advanced by the draws consumed.
        """
        profiles, profile_idx = batch.browser_profiles, batch.browser_indices
        dwell, automated = batch.dwell_times_s, batch.automated
        task_index = {id(task): index for index, task in enumerate(self.all_tasks)}
        by_class: dict[tuple, tuple] = {}
        #: (pool index, runnable task indices) -> _Drain
        drains: dict[tuple, Scheduler._Drain] = {}
        entries = [self._class_candidates(by_class, drains, task_index, p) for p in profiles]
        # client.can_run_task, the 3 s dwell floor and a runnable pool, from columns.
        runs = np.array(
            [p.javascript_enabled and bool(e[0]) for p, e in zip(profiles, entries)], dtype=bool
        )
        eligible = np.flatnonzero(
            runs[profile_idx] & ~automated & (dwell >= self.MIN_DWELL_FOR_ONE_TASK_S)
        )
        multiple = (dwell[eligible] >= self.DWELL_FOR_MULTIPLE_TASKS_S).tolist()
        #: pool index -> number of picks made from that pool this call
        pool_versions = [0] * len(self.pools)
        counts = self.assignment_counts
        state = self._rng.bit_generator.state
        uniforms = self._rng.random(len(eligible) * (1 + self.MAX_TASKS_PER_VISIT)).tolist()
        used = 0
        row_visit: list[int] = []
        row_task: list[int] = []
        chosen: list[int] = []
        visitors = zip(eligible.tolist(), profile_idx[eligible].tolist(), multiple)
        for visit, profile, many in visitors:
            # One uniform for the pool, one per task pick (duplicates
            # included): exactly the draws schedule() consumes.
            candidates, cumulative = entries[profile]
            index = min(bisect_right(cumulative, uniforms[used]), len(candidates) - 1)
            used += 1
            pool_index, runnable, drain = candidates[index]
            chosen.append(pool_index)
            seen: list[str] = []
            for _ in range(self.MAX_TASKS_PER_VISIT if many else 1):
                version = pool_versions[pool_index]
                pick_from = drain.queue
                if drain.version != version or not pick_from:
                    # Rescan: collect the least-assigned tasks in runnable order
                    # (the same pick_from list the reference scan would build).
                    least = None
                    pick_from = []
                    for pair in runnable:
                        count = counts[pair[1]]
                        if least is None or count < least:
                            least = count
                            pick_from = [pair]
                        elif count == least:
                            pick_from.append(pair)
                    drain.queue = pick_from
                pick = min(int(uniforms[used] * len(pick_from)), len(pick_from) - 1)
                used += 1
                picked, measurement_id = pick_from.pop(pick)
                counts[measurement_id] += 1
                pool_versions[pool_index] = drain.version = version + 1
                if measurement_id in seen:
                    break
                seen.append(measurement_id)
                row_visit.append(visit)
                row_task.append(picked)
        self._rng.bit_generator.state = state
        self._rng.random(used)
        pool = np.full(len(profile_idx), -1, dtype=np.int64)
        pool[eligible] = chosen
        return (
            np.asarray(row_visit, dtype=np.int64), np.asarray(row_task, dtype=np.int64), pool
        )

    # ------------------------------------------------------------------
    def scoped(self, rng: np.random.Generator | int | None) -> "Scheduler":
        """A scheduler over the same pools with its own RNG and counts.

        The block-keyed campaign planner schedules every planning block with
        a fresh scope (RNG derived from the campaign seed and block index,
        assignment counts starting empty) so a block's decisions are a pure
        function of the block — the property process-sharded campaigns rely
        on.  Merge the scope's counts back with :meth:`absorb_counts` to keep
        the campaign-wide :meth:`replication_report` meaningful.
        """
        return Scheduler(self.pools, rng=rng)

    def absorb_counts(self, counts: dict[str, int]) -> None:
        """Fold a scoped scheduler's (or a shard worker's) assignment counts in."""
        for measurement_id, count in counts.items():
            self.assignment_counts[measurement_id] += count

    def replication_report(self) -> dict[str, int]:
        """How many times each measurement has been assigned so far."""
        return dict(self.assignment_counts)

    @property
    def all_tasks(self) -> list[MeasurementTask]:
        return [task for pool in self.pools for task in pool.tasks]

    def tasks_of_type(self, task_type: TaskType) -> list[MeasurementTask]:
        return [task for task in self.all_tasks if task.task_type is task_type]
