"""Encore end-to-end benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 2015 --seconds 20 --trace 0

Workloads: ``campaign``, ``campaign-sharded``, ``monitor`` (see
``workloads.py`` and ``CATALOG.md``).  One run is a closed loop in this one
process: it repeats the workload's iteration (fresh set-up, collection,
cold analysis, poisoning sweep) until ``--seconds`` have passed, and
reports medians.  The iterations cycle through ``WORLDS_PER_RUN`` world
seeds derived from ``--seed`` (the first is ``--seed`` itself), so a run's
medians cover several worlds rather than one world's cost.  Every
iteration's outputs are digested and checked, traced or not.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones (self time and counts per layer, plus the tracing overhead).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (operations: a campaign, an epoch, an analysis
call, a sweep cell) and ``metrics``.  The exit code is 0 only when every
operation passed.  The same numbers, with the environment stamp kept
apart, go to ``.perfbench_out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_ROOT = ROOT / ".perfbench_work"

#: Worlds an iteration's inputs cycle through, and the distance between
#: their seeds: iteration ``i`` of a run uses world seed
#: ``seed + WORLD_SEED_STRIDE * (i % WORLDS_PER_RUN)`` (counted separately
#: for untraced and traced iterations, so both see the same worlds).
WORLDS_PER_RUN = 4
WORLD_SEED_STRIDE = 100_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "visits_per_s": "visits/s",
    "analysis_s": "s",
    "sweep_cells_per_s": "cells/s",
    "epoch_p50_s": "s",
    "epoch_p90_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and insist on it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def layer_unit(name: str) -> str:
    if name.endswith("us_per_visit"):
        return "us/visit"
    if name.endswith("us_per_row"):
        return "us/row"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name == "query.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Run:
    """One benchmark run: the loop, the checks, and the numbers."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path) -> None:
        from layers import Patches, SpanRecorder
        from stamp import source_digest
        from workloads import WORKLOADS

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.recorder = SpanRecorder()
        self.recorder.worker_dir = work_dir / "workers"
        self.patches = Patches(self.recorder)
        self.untraced = []
        self.traced = []
        self.layer_rows: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Per world seed: the digests of the first iteration that used it.
        self.first_digests: dict[int, dict] = {}
        # Workloads of one family check each other's digests for the seed,
        # through a cache keyed by the program's source.
        shares_family = any(
            other.family == workload.family and other is not workload
            for other in WORKLOADS.values()
        )
        self.digest_cache = (
            OUT_DIR / "digests" / source_digest(ROOT) if shares_family else None
        )

    # ------------------------------------------------------------------
    def world_seed(self, traced: bool) -> int:
        """The world seed of the next untraced (or traced) iteration."""
        done = len(self.traced if traced else self.untraced)
        return self.seed + WORLD_SEED_STRIDE * (done % WORLDS_PER_RUN)

    def loop(self) -> None:
        started = time.perf_counter()
        index = 0
        while True:
            enough = time.perf_counter() - started >= self.seconds and self.untraced
            if enough and (self.traced or not self.trace):
                break
            traced = self.trace and index % 2 == 1
            if not self.iterate(index, traced):
                break
            index += 1

    def iterate(self, index: int, traced: bool) -> bool:
        from layers import collect_worker_spans, counter_delta, counter_snapshot

        workload = self.workload
        world_seed = self.world_seed(traced)
        iteration_dir = self.work_dir / f"iteration-{index:03d}"
        operations = sum(workload.operations.values())
        # Collect between iterations and keep the collector out of the timed
        # phases: a full pass over the simulated World's object graph costs
        # about as much as the whole cold analysis and lands at random.
        gc.collect()
        gc.disable()
        first_span = len(self.recorder.spans)
        if traced:
            self.patches.install()
            self.recorder.run = f"{workload.name}-seed{world_seed}-iteration{index}"
            self.recorder.active = True
            before = counter_snapshot()
        try:
            it = workload.iterate(world_seed, iteration_dir, self.recorder)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += operations
            self.failed += operations
            self.problems.append(f"iteration {index} raised")
            return False
        finally:
            gc.enable()
            if traced:
                self.recorder.active = False
                self.patches.uninstall()
        if traced:
            counters = counter_delta(before, counter_snapshot())
            campaign = next(
                span for span in self.recorder.spans[first_span:]
                if span.name == "campaign" and not span.parent
            )
            _, worker_counters = collect_worker_spans(self.recorder, campaign.id)
            for name, value in worker_counters.items():
                counters[name] += value
            self.record_layers(it, self.recorder.spans[first_span:], campaign, counters)
        try:
            workload.check(it)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            it.failed_parts.add("rows")
        it.outputs = {}
        shutil.rmtree(iteration_dir, ignore_errors=True)
        self.account(index, world_seed, it)
        (self.traced if traced else self.untraced).append(it)
        return True

    def record_layers(self, it, spans, campaign, counters) -> None:
        from layers import epoch_self_times, per_layer_metrics

        epoch_self = (
            epoch_self_times(spans, campaign, [wall for wall, _ in it.stamps])
            if self.workload.name == "monitor" else []
        )
        self.layer_rows.append(per_layer_metrics(spans, counters, it.visits, epoch_self))

    # ------------------------------------------------------------------
    def references(self, world_seed: int) -> list[tuple[str, dict]]:
        import digests

        found = []
        recorded = digests.recorded(self.workload.family, world_seed)
        if recorded is not None:
            found.append(("recorded digests", recorded))
        shared = (
            digests.shared(self.digest_cache, self.workload.family, world_seed)
            if self.digest_cache is not None else None
        )
        if shared is not None:
            found.append((f"the {self.workload.family} family's digests", shared))
        if world_seed in self.first_digests:
            found.append(("this run's first iteration of the world",
                          self.first_digests[world_seed]))
        return found

    def account(self, index: int, world_seed: int, it) -> None:
        """Count the iteration's operations and those that failed a check."""
        import digests

        wrong = set(it.failed_parts)
        for label, reference in self.references(world_seed):
            differing = digests.mismatches(it.digests, reference)
            if differing:
                self.problems.append(
                    f"iteration {index} (world seed {world_seed}): "
                    f"{sorted(differing)} differ from {label}"
                )
            wrong |= differing
        operations = self.workload.operations
        self.attempted += sum(operations.values())
        self.failed += sum(
            operations[part] if part in operations else 1 for part in wrong
        )
        self.first_digests.setdefault(world_seed, it.digests)

    def share_digests(self) -> None:
        import digests

        cache = self.digest_cache
        if cache is None or self.failed:
            return
        for world_seed, found in self.first_digests.items():
            if digests.shared(cache, self.workload.family, world_seed) is None:
                digests.share(cache, self.workload.family, world_seed, found)

    # ------------------------------------------------------------------
    def end_to_end(self, scaled: bool = True) -> tuple[dict, dict]:
        """(metrics, sample counts) over the untraced iterations.

        Times are scaled to the reference speed (``speed.py``) unless
        ``scaled`` is false.
        """
        its = self.untraced
        latencies = [value for it in its for value in it.latencies(scaled)]
        metrics = {
            "setup_s": statistics.median(
                value for it in its for value in it.setup_times(scaled)
            ),
            "visits_per_s": statistics.median(
                it.visits / it.phase_s("campaign", scaled) for it in its
            ),
            "analysis_s": statistics.median(it.phase_s("analysis", scaled) for it in its),
            "sweep_cells_per_s": statistics.median(
                it.sweep_cells / it.phase_s("sweep", scaled) for it in its
            ),
            "epoch_p50_s": statistics.median(latencies),
            "epoch_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {name: len(its) for name in metrics}
        samples["setup_s"] = sum(len(it.setup_times()) for it in its)
        samples["epoch_p50_s"] = samples["epoch_p90_s"] = len(latencies)
        samples["peak_rss_mb"] = 1
        return metrics, samples

    def per_layer(self) -> tuple[dict, dict]:
        """(metrics, sample counts) over the traced iterations."""
        from layers import children_peak_rss_mb

        metrics = {
            name: statistics.median(row[name] for row in self.layer_rows)
            for name in self.layer_rows[0]
        }
        metrics["shard.worker_peak_rss_mb"] = children_peak_rss_mb()
        metrics["trace.overhead_ratio"] = (
            statistics.median(it.wall_s() for it in self.traced)
            / statistics.median(it.wall_s() for it in self.untraced)
        )
        samples = {name: len(self.layer_rows) for name in metrics}
        return metrics, samples


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(metrics: dict, samples: dict, units, raw: dict | None = None) -> None:
    extra = f" {'as measured':>14s}" if raw else ""
    print(f"  {'metric':30s} {'value':>14s}{extra}  {'unit':9s} samples")
    for name, value in metrics.items():
        extra = f" {raw[name]:14.6g}" if raw else ""
        print(f"  {name:30s} {value:14.6g}{extra}  {units(name):9s} {samples[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from stamp import environment_stamp
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    work_dir = WORK_ROOT / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    (work_dir / "tmp").mkdir(parents=True)
    # Anything the program puts in a temporary directory stays in the checkout.
    tempfile.tempdir = str(work_dir / "tmp")
    run = Run(workload, args.seed, args.seconds, trace, work_dir)
    try:
        run.loop()
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
    run.share_digests()

    stamp = environment_stamp(ROOT, workload.name, args.seed, trace)
    print(f"perfbench {workload.name}: {workload.why}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    metrics: dict = {}
    raw: dict = {}
    host_speed = None
    if run.untraced and (run.traced or not trace):
        e2e, e2e_samples = run.end_to_end()
        raw, _ = run.end_to_end(scaled=False)
        # Below 1 when the host ran slower than the reference speed.
        host_speed = statistics.median(
            scale for it in run.untraced for scale in it.watch.scale.values()
        )
        print(f"end-to-end (untraced iterations; times scaled to the reference "
              f"speed, host at {host_speed:.3f}x it):")
        print_table(e2e, e2e_samples, END_TO_END_UNITS.get, raw)
        metrics = e2e
        if trace:
            layers_metrics, layer_samples = run.per_layer()
            print("per layer (traced iterations, self time):")
            print_table(layers_metrics, layer_samples, layer_unit)
            metrics = layers_metrics
    failure_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failure_rate':30s} {failure_rate:14.6g}  {'ratio':9s} "
          f"{run.failed} failed of {run.attempted} operations")
    for problem in run.problems:
        print(f"  check failed: {problem}")
    if args.seed in run.first_digests:
        print("digests " + json.dumps(run.first_digests[args.seed], sort_keys=True))

    units = layer_unit if trace else END_TO_END_UNITS.get
    correct = run.failed == 0 and bool(metrics)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{int(trace)}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps({
        "stamp": stamp,
        "metrics": {key: {"value": value, "unit": units(key)} for key, value in metrics.items()},
        "as_measured": raw,
        "host_speed": host_speed,
        "attempted": run.attempted,
        "failed": run.failed,
        "digests": {str(seed): found for seed, found in sorted(run.first_digests.items())},
    }, indent=1, sort_keys=True))
    if trace:
        run.recorder.write(OUT_DIR / f"spans-{name}.jsonl")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {key: {"value": value, "unit": units(key)} for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
