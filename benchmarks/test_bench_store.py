"""Columnar MeasurementStore vs. the seed row-list collection path.

The store exists to make §7-scale analysis cheap: the batch executor hands
the collection server *column* payloads (value tables + index arrays), so
ingestion is array indexing plus one per-visit GeoIP pass instead of
100,000 frozen-dataclass constructions; ``success_counts`` is two bincount
reductions; and detection evaluates every (domain, country) cell's binomial
tail in one vectorized pass.  This benchmark pins the claim on a synthetic
§7-scale corpus (~100k measurements from ~50k visits): each path ingests
its native payload — row tuples for the seed baseline (a faithful
reimplementation of the seed ``submit_batch`` / ``success_counts`` /
scalar-detect code), columns for the store — and the store must be at least
5× faster end to end while producing identical counts, detections, and
materialized rows.

Results are recorded in ``benchmarks/BENCH_store.json`` so regressions show
up as a diff, not just a failed assertion.  The full-size case is ``slow``;
a small smoke case checks equivalence on every run.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.collection import CollectionServer, ColumnarRecords, Measurement
from repro.core.inference import BinomialFilteringDetector, binomial_cdf
from repro.core.query import grouped_success_counts
from repro.core.store import DictColumn
from repro.core.tasks import TaskOutcome, TaskType
from repro.population.geoip import GeoIPDatabase
from repro.web.url import URL

VISITS_FULL = 50_000   #: ~100k measurements, the §7 deployment's scale (§7: 141k)
VISITS_SMOKE = 2_500
SEED_INGEST_BATCH = 10_000  #: records per seed submit_batch call (runner-sized)
MIN_SPEEDUP = 5.0
REPORT_PATH = Path(__file__).parent / "BENCH_store.json"

N_DOMAINS = 18
N_COUNTRIES = 50
N_ORIGINS = 8
#: (domain index, country index) pairs whose success rate collapses — what
#: the detector should find in both paths.
FILTERED_CELLS = {(0, 1), (0, 2), (3, 1), (7, 5)}

_OUTCOMES = (TaskOutcome.SUCCESS, TaskOutcome.FAILURE, TaskOutcome.INCONCLUSIVE)


def make_corpus(visits: int, seed: int = 2015) -> dict:
    """A synthetic campaign corpus in both layouts (built outside all timing).

    Per-visit columns (client attributes) plus per-row columns (task,
    outcome, timing), mirroring what the batch executor produces; the seed
    baseline consumes the equivalent row tuples, one per submission, in
    the field order its ``submit_batch`` unpacks.
    """
    rng = np.random.default_rng(seed)
    allocator = GeoIPDatabase()
    countries = sorted(allocator.countries())[:N_COUNTRIES]
    domains = [f"domain-{i:02d}.org" for i in range(N_DOMAINS)]
    urls = [URL.parse(f"http://{d}/favicon.ico") for d in domains]
    task_mids = [f"task-{i:02d}" for i in range(N_DOMAINS)]
    task_types = [list(TaskType)[i % len(TaskType)] for i in range(N_DOMAINS)]
    origin_strips = [i % 4 != 0 for i in range(N_ORIGINS)]  # 3/4 strip (§7)
    origin_values = [
        None if strips else f"origin-{i:02d}.example.edu"
        for i, strips in enumerate(origin_strips)
    ]

    # Per-visit client attributes.
    country_idx = rng.integers(0, N_COUNTRIES, size=visits)
    ips: list[str] = [""] * visits
    for c in range(N_COUNTRIES):
        where = np.flatnonzero(country_idx == c)
        for visit, ip in zip(where.tolist(), allocator.allocate_ips(countries[c], len(where))):
            ips[visit] = ip
    visit_countries = [countries[c] for c in country_idx.tolist()]
    visit_isps = [f"{code.lower()}-isp-{i % 3}" for i, code in enumerate(visit_countries)]
    visit_families = ["chrome" if f < 0.6 else "firefox" for f in rng.random(visits)]
    automated = rng.random(visits) < 0.02
    days = rng.integers(0, 30, size=visits)
    origin_idx = rng.integers(0, N_ORIGINS, size=visits)

    # Per-row task outcomes.
    tasks_per_visit = rng.integers(1, 4, size=visits)
    visit_of_row = np.repeat(np.arange(visits), tasks_per_visit)
    rows = len(visit_of_row)
    domain_idx = rng.integers(0, N_DOMAINS, size=rows)
    row_country = country_idx[visit_of_row]
    filtered = np.zeros(rows, dtype=bool)
    for d, c in FILTERED_CELLS:
        filtered |= (domain_idx == d) & (row_country == c)
    draw = rng.random(rows)
    outcome_code = np.where(
        rng.random(rows) < 0.03,
        2,  # inconclusive
        np.where(np.where(filtered, draw < 0.05, draw < 0.8), 0, 1),
    ).astype(np.int64)
    elapsed = rng.uniform(10.0, 900.0, size=rows)

    columns = ColumnarRecords(
        measurement_id=DictColumn(task_mids, domain_idx),
        task_type=DictColumn(task_types, domain_idx),
        target_url=DictColumn(urls, domain_idx),
        target_domain=DictColumn(domains, domain_idx),
        outcome=DictColumn(_OUTCOMES, outcome_code),
        elapsed_ms=elapsed,
        probe_time_ms=np.full(rows, np.nan),
        client_ip=DictColumn(np.asarray(ips, dtype=np.str_), visit_of_row),
        country_code=DictColumn(visit_countries, visit_of_row),
        isp=DictColumn(visit_isps, visit_of_row),
        browser_family=DictColumn(visit_families, visit_of_row),
        origin_domain=DictColumn(origin_values, origin_idx[visit_of_row]),
        day=days[visit_of_row],
        is_automated=automated[visit_of_row],
    )
    records = [
        (
            task_mids[d], task_types[d], urls[d], domains[d], _OUTCOMES[o],
            float(e), None, ips[v], visit_countries[v], visit_isps[v],
            visit_families[v], f"origin-{origin_idx[v]:02d}.example.edu",
            int(days[v]), origin_strips[origin_idx[v]], bool(automated[v]),
        )
        for d, o, e, v in zip(
            domain_idx.tolist(), outcome_code.tolist(), elapsed.tolist(),
            visit_of_row.tolist(),
        )
    ]
    return {"rows": rows, "records": records, "columns": columns}


# ----------------------------------------------------------------------
# The seed row-list path, reproduced faithfully
# ----------------------------------------------------------------------
class SeedRowListCollection:
    """The pre-store collection semantics: a Python list of dataclasses."""

    def __init__(self, geoip: GeoIPDatabase) -> None:
        self.geoip = geoip
        self.measurements: list[Measurement] = []

    def submit_batch(self, records) -> None:
        lookup = self.geoip.lookup
        stored = []
        append = stored.append
        for (
            measurement_id, task_type, target_url, target_domain, outcome,
            elapsed_ms, probe_time_ms, client_ip, country_code, isp,
            browser_family, origin_domain, day, strip_referer, is_automated,
        ) in records:
            append(
                Measurement(
                    measurement_id, task_type, target_url, target_domain, outcome,
                    elapsed_ms, client_ip, lookup(client_ip) or country_code, isp,
                    browser_family, None if strip_referer else origin_domain, day,
                    probe_time_ms, is_automated,
                )
            )
        self.measurements.extend(stored)

    def success_counts(self) -> dict:
        totals: dict = defaultdict(int)
        successes: dict = defaultdict(int)
        for m in self.measurements:
            if m.is_automated:
                continue
            if m.outcome is TaskOutcome.INCONCLUSIVE:
                continue
            key = (m.target_domain, m.country_code)
            totals[key] += 1
            if m.succeeded:
                successes[key] += 1
        return {key: (totals[key], successes[key]) for key in totals}


def seed_detect_pairs(counts, success_prior=0.7, significance=0.05, min_measurements=10):
    """The seed scalar detection loop (per-cell ``binomial_cdf`` calls)."""
    stats = []
    for (domain, country), (n, successes) in sorted(counts.items()):
        if n < min_measurements:
            continue
        stats.append((domain, country, n, successes, binomial_cdf(successes, n, success_prior)))
    by_domain = defaultdict(list)
    for stat in stats:
        by_domain[stat[0]].append(stat)
    detected = set()
    for domain, domain_stats in by_domain.items():
        failing = [s for s in domain_stats if s[4] <= significance]
        passing = [s for s in domain_stats if s[4] > significance and s[3] / s[2] >= success_prior]
        if not failing or not passing:
            continue
        detected.update((s[0], s[1]) for s in failing)
    return detected


# ----------------------------------------------------------------------
# Timed pipelines
# ----------------------------------------------------------------------
# Collector passes are paused inside the timed regions: when the rest of the
# benchmark session keeps millions of fixture objects alive, a single gen-2
# GC landing inside the short store pipeline would dominate its runtime and
# make the ratio depend on suite ordering rather than on the code.


def run_seed_path(corpus):
    records = corpus["records"]
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    collection = SeedRowListCollection(GeoIPDatabase())
    for start in range(0, len(records), SEED_INGEST_BATCH):
        collection.submit_batch(records[start:start + SEED_INGEST_BATCH])
    t1 = time.perf_counter()
    counts = collection.success_counts()
    t2 = time.perf_counter()
    detected = seed_detect_pairs(counts)
    t3 = time.perf_counter()
    gc.enable()
    return {"ingest": t1 - t0, "counts": t2 - t1, "detect": t3 - t2,
            "total": t3 - t0, "counts_dict": counts, "detected": detected,
            "collection": collection}


def run_store_path(corpus):
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    server = CollectionServer(
        "http://collector.encore-measurement.org/submit", GeoIPDatabase()
    )
    server.ingest_columns(corpus["columns"])
    t1 = time.perf_counter()
    grouped = grouped_success_counts(server.store)
    t2 = time.perf_counter()
    report = BinomialFilteringDetector().detect_from_counts(grouped)
    t3 = time.perf_counter()
    gc.enable()
    return {"ingest": t1 - t0, "counts": t2 - t1, "detect": t3 - t2,
            "total": t3 - t0, "counts_dict": grouped.as_dict(),
            "detected": report.detected_pairs(), "server": server}


def assert_paths_agree(seed, store, rows, seed_collection):
    assert store["counts_dict"] == seed["counts_dict"]
    assert store["detected"] == seed["detected"]
    # Row materialization reproduces the seed dataclasses field for field.
    sample = np.linspace(0, rows - 1, num=25, dtype=np.int64)
    materialized = store["server"].store.rows(sample)
    reference = [seed_collection.measurements[i] for i in sample.tolist()]
    assert materialized == reference


class TestStoreThroughput:
    def test_smoke_store_equals_seed_path(self):
        corpus = make_corpus(VISITS_SMOKE)
        seed = run_seed_path(corpus)
        store = run_store_path(corpus)
        assert_paths_agree(seed, store, corpus["rows"], seed.pop("collection"))

    @pytest.mark.slow
    def test_store_is_at_least_5x_faster_at_100k(self, bench_report_writer):
        corpus = make_corpus(VISITS_FULL)
        # Best-of-N on both sides, with every store repetition taken before
        # the first seed run: the seed pipeline leaves hundreds of thousands
        # of dataclasses behind, and the resulting allocator pressure
        # measurably slows the short store runs if they go second.
        store_runs = [run_store_path(corpus) for _ in range(3)]
        seed_runs = []
        seed_collection = None
        for _ in range(2):
            run = run_seed_path(corpus)
            collection = run.pop("collection")
            if seed_collection is None:
                seed_collection = collection
            seed_runs.append(run)
        seed = min(seed_runs, key=lambda r: r["total"])
        store = min(store_runs, key=lambda r: r["total"])

        assert_paths_agree(seed, store, corpus["rows"], seed_collection)
        assert len(store["detected"]) >= len(FILTERED_CELLS)

        report = {
            "rows": corpus["rows"],
            "seed_seconds": {k: round(seed[k], 4) for k in ("ingest", "counts", "detect", "total")},
            "store_seconds": {k: round(store[k], 4) for k in ("ingest", "counts", "detect", "total")},
            "seed_rows_per_second": round(corpus["rows"] / seed["total"], 1),
            "store_rows_per_second": round(corpus["rows"] / store["total"], 1),
            "speedup": round(seed["total"] / store["total"], 2),
            "detected_pairs": len(store["detected"]),
        }
        bench_report_writer(
            REPORT_PATH, report, rows=corpus["rows"], seconds=store["total"]
        )

        print()
        print("MeasurementStore throughput (ingest + success_counts + detect, ~100k rows):")
        for key, value in report.items():
            print(f"  {key:24s} {value}")
        assert report["speedup"] >= MIN_SPEEDUP, report
