"""Client identity codes: cached per store, shared through segment adoption.

``MeasurementStore.client_codes()`` numbers each row's ``client_ip`` once
and keeps the numbering append-only; a store that adopts another into an
empty store takes the adopted rows' codes from its source.  These tests pin
that an adopting store's reputation verdict equals the verdict on a store
built by appending the same rows directly — over resident, spilled and
shard-merged sources, identities that collide across the honest and forged
rows, sources that grow after adoption, and chains of adoptions — and that
the verdict kernel depends only on which rows share an identity, never on
how identities are numbered.  An ``AdversarySweep`` judges each cell by
splicing the pairs its forged rows touch into an honest baseline; its
cells must equal the full path composed here from public APIs — adopt,
merge, then filter and detect the whole poisoned store.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.collection import Measurement
from repro.core.inference import AdaptiveFilteringDetector, BinomialFilteringDetector
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.robustness import (
    AdaptiveReputationFilter,
    AdversarySweep,
    ReputationFilter,
    SweepCell,
)
from repro.core.shard import StoreMerger, read_manifest, serialize_value_tables
from repro.core.store import MeasurementStore, _ClientCodes
from repro.core.tasks import TaskOutcome, TaskType
from repro.obs.metrics import get_registry
from repro.population.geoip import GeoIPDatabase
from repro.web.url import URL

DOMAINS = ("facebook.com", "youtube.com", "twitter.com")
COUNTRIES = ("US", "DE", "PK")
ADDRESSES = tuple(f"10.0.0.{host}" for host in range(12))
#: Honest clients and the forger share four addresses, the way an attacker's
#: GeoIP allocator can hand out addresses real clients also use.
HONEST_ADDRESSES, FORGED_ADDRESSES = ADDRESSES[:8], ADDRESSES[4:]
LAYOUTS = ("resident", "spilled", "merged")
#: Small enough that a few dozen rows trip both the rate limit and the
#: dominance test.
FILTER = ReputationFilter(max_submissions_per_client=3)


def rows_from(addresses, max_size=40, domains=DOMAINS, countries=COUNTRIES, min_size=0):
    return st.lists(
        st.tuples(
            st.sampled_from(domains),
            st.sampled_from(countries),
            st.sampled_from(addresses),
            st.sampled_from(list(TaskOutcome)),
        ),
        min_size=min_size,
        max_size=max_size,
    )


def measurements(draws, tag):
    return [
        Measurement(
            measurement_id=f"{tag}-{index}",
            task_type=TaskType.IMAGE,
            target_url=URL.parse(f"http://{domain}/favicon.ico"),
            target_domain=domain,
            outcome=outcome,
            elapsed_ms=10.0,
            client_ip=address,
            country_code=country,
            isp="isp",
            browser_family="chrome",
            origin_domain=None,
            day=0,
        )
        for index, (domain, country, address, outcome) in enumerate(draws)
    ]


def direct(rows):
    store = MeasurementStore()
    store.append_rows(rows)
    return store


def segment_lengths(store: MeasurementStore) -> list[int]:
    """The rows of each segment file ``store`` spilled, read off disk."""
    lengths = []
    for path in store.segment_files:
        with np.load(path) as data:
            lengths.append(len(data["day"]))
    return lengths


def merged(rows, directory: Path) -> MeasurementStore:
    """A store mounted from two spilled shard stores, like a sharded campaign."""
    manifests = []
    for index, part in enumerate((rows[: len(rows) // 2], rows[len(rows) // 2:])):
        if not part:
            continue
        shard = MeasurementStore(spill_dir=directory / f"shard-{index}")
        for start in range(0, len(part), 5):
            shard.append_rows(part[start:start + 5])
        shard.spill()
        manifests.append({
            "shard_index": index,
            "blocks": [{
                "block": index,
                "rows": len(shard),
                "segments": [
                    {"path": str(path), "rows": length}
                    for path, length in zip(shard.segment_files, segment_lengths(shard))
                ],
            }],
            "value_tables": serialize_value_tables(shard.value_tables()),
        })
    store = MeasurementStore()
    StoreMerger(store).merge(manifests)
    return store


def source_store(rows, layout: str, directory: Path) -> MeasurementStore:
    if layout == "merged":
        return merged(rows, directory)
    spilled = layout == "spilled"
    store = MeasurementStore(spill_dir=directory)
    for start in range(0, len(rows), 7):
        store.append_rows(rows[start:start + 7])
    if spilled:
        store.spill()
    return store


def verdict(store):
    report = FILTER.apply_store(store)
    return (
        report.keep_mask.tolist(),
        report.dropped_rate_limited,
        report.dropped_low_reputation,
    )


def assert_codes_identify(store):
    """Two rows share a code exactly when they share an address."""
    codes = store.client_codes()
    addresses = store.column("client_ip")
    assert len(codes) == len(store)
    np.testing.assert_array_equal(
        codes[:, None] == codes[None, :], addresses[:, None] == addresses[None, :]
    )


def counters():
    registry = get_registry()
    return (
        registry.counter("store.client_codes_encoded").value,
        registry.counter("store.client_codes_reused").value,
    )


class TestAdoptionEquivalence:
    @given(
        honest=rows_from(HONEST_ADDRESSES),
        later=rows_from(ADDRESSES, max_size=20),
        forged=rows_from(FORGED_ADDRESSES, max_size=20),
        layout=st.sampled_from(LAYOUTS),
        encode_source_first=st.booleans(),
        check_source_first=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_adopting_store_matches_direct_store(
        self, honest, later, forged, layout, encode_source_first, check_source_first
    ):
        """``later`` rows reach the source after the adoption (often none)."""
        honest, later, forged = (
            measurements(honest, "honest"),
            measurements(later, "later"),
            measurements(forged, "forged"),
        )
        with tempfile.TemporaryDirectory() as tmp:
            source = source_store(honest, layout, Path(tmp))
            if encode_source_first:
                source.client_codes()
            adopter = MeasurementStore()
            adopter.adopt_segments_from(source)
            source.append_rows(later)
            adopter.append_rows(forged)
            checks = [(source, honest + later), (adopter, honest + forged)]
            if not check_source_first:
                checks.reverse()
            for store, rows in checks:
                assert verdict(store) == verdict(direct(rows))
                assert_codes_identify(store)

    @given(
        honest=rows_from(HONEST_ADDRESSES),
        middle=rows_from(ADDRESSES, max_size=20),
        forged=rows_from(FORGED_ADDRESSES, max_size=20),
        layout=st.sampled_from(LAYOUTS),
    )
    @settings(max_examples=60, deadline=None)
    def test_chain_of_two_adoptions(self, honest, middle, forged, layout):
        honest, middle, forged = (
            measurements(honest, "honest"),
            measurements(middle, "middle"),
            measurements(forged, "forged"),
        )
        with tempfile.TemporaryDirectory() as tmp:
            first = source_store(honest, layout, Path(tmp))
            second = MeasurementStore()
            second.adopt_segments_from(first)
            second.append_rows(middle)
            third = MeasurementStore()
            third.adopt_segments_from(second)
            third.append_rows(forged)
            encoded, reused = counters()
            verdicts = [verdict(third), verdict(second), verdict(first)]
            # Every row was encoded once, in the store that first held it.
            assert counters() == (
                encoded + len(honest) + len(middle) + len(forged),
                reused + len(honest) + len(second),
            )
            assert verdicts == [
                verdict(direct(honest + middle + forged)),
                verdict(direct(honest + middle)),
                verdict(direct(honest)),
            ]
            assert_codes_identify(third)


class TestVerdictIgnoresNumbering:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=9),
                st.booleans(),
            ),
            min_size=1,
            max_size=80,
        ),
        spare=st.integers(min_value=0, max_value=6),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_permuted_client_codes_give_the_same_mask(self, rows, spare, data):
        pair = np.array([row[0] for row in rows], dtype=np.int64)
        ip = np.array([row[1] for row in rows], dtype=np.int64)
        failed = np.array([row[2] for row in rows], dtype=bool)
        # An injective relabelling into a code space that may have gaps,
        # like a shared table holding addresses this store never saw.
        relabel = np.array(
            data.draw(st.permutations(range(int(ip.max()) + 1 + spare)))
        )
        thresholds = np.array([0.3, 0.5, 0.9])
        filt = ReputationFilter(max_submissions_per_client=2)
        keep, rate, reputation = filt._columnar_verdict(pair, ip, failed, 3, thresholds)
        keep_relabelled, rate_relabelled, reputation_relabelled = filt._columnar_verdict(
            pair, relabel[ip], failed, 3, thresholds
        )
        np.testing.assert_array_equal(keep_relabelled, keep)
        assert (rate_relabelled, reputation_relabelled) == (rate, reputation)


class TestClientCodeCache:
    def test_ingest_encodes_nothing_and_codes_are_append_only(self):
        first = measurements([("facebook.com", "US", a, TaskOutcome.SUCCESS)
                              for a in ADDRESSES[:6] * 2], "a")
        second = measurements([("youtube.com", "DE", a, TaskOutcome.FAILURE)
                               for a in ADDRESSES[3:]], "b")
        store = MeasurementStore()
        encoded, _ = counters()
        store.append_rows(first)
        assert counters()[0] == encoded
        codes = store.client_codes().copy()
        assert counters()[0] == encoded + len(first)
        store.append_rows(second)
        assert counters()[0] == encoded + len(first)
        grown = store.client_codes()
        np.testing.assert_array_equal(grown[: len(first)], codes)
        assert counters()[0] == encoded + len(first) + len(second)
        assert_codes_identify(store)
        assert store.column("client_ip").dtype.kind == "U"

    def test_spilled_store_encodes_a_segment_at_a_time(self, tmp_path, monkeypatch):
        rows = measurements([("facebook.com", "US", a, TaskOutcome.SUCCESS)
                             for a in ADDRESSES * 3], "s")
        store = MeasurementStore(spill_dir=tmp_path)
        for start in range(0, len(rows), 3):
            store.append_rows(rows[start:start + 3])
        store.spill()
        segments = segment_lengths(store)
        assert sum(segments) == len(rows) and len(segments) > 1
        batches = []
        encode = _ClientCodes.encode

        def recording(self, addresses):
            batches.append(len(addresses))
            return encode(self, addresses)

        monkeypatch.setattr(_ClientCodes, "encode", recording)
        # A batch closes at each 3-row segment instead of at 65,536 rows.
        monkeypatch.setattr(MeasurementStore, "CLIENT_ENCODE_ROWS", 3)
        assert_codes_identify(store)
        assert batches == segments
        assert store.rows() == rows

    def test_non_ascii_addresses_keep_their_identity(self):
        """A batch mixing known ASCII addresses with a first non-ASCII one."""
        chunks = (
            ("10.0.0.1", "10.0.0.2"),
            ("10.0.0.2", "hôte-1"),
            ("10.0.0.1", "hôte-1", "hôte-2"),
        )
        store = MeasurementStore()
        for index, chunk in enumerate(chunks):
            store.append_rows(measurements(
                [("facebook.com", "US", address, TaskOutcome.SUCCESS) for address in chunk],
                f"chunk{index}",
            ))
            store.client_codes()
        assert_codes_identify(store)

    def test_sweep_encodes_honest_rows_once(self, small_world):
        result = EncoreDeployment(small_world, CampaignConfig(
            visits=1500, include_testbed=False, favicons_only=True,
            target_domains=DOMAINS, seed=19,
        )).run_campaign()
        honest = len(result.collection.store)
        budgets = [
            (submissions, identities)
            for submissions in (20, 40, 60, 80)
            for identities in (1, 2, 4, 8)
        ]
        encoded, reused = counters()
        cells = result.adversary_sweep("facebook.com", "DE", budgets, executor="inline")
        assert len(cells) == 16
        assert counters() == (
            encoded + honest + sum(submissions for submissions, _ in budgets),
            reused + 16 * honest,
        )


# ----------------------------------------------------------------------
# Sweep cells against the full poisoned-store path
# ----------------------------------------------------------------------
#: Honest rows of the sweep tests: two domains and two countries among few
#: clients, so most pairs have a dominant client whose verdict a moved
#: threshold can flip.  All but the first address are among the first a
#: fresh attacker's GeoIP allocator hands out in US or DE, so forged and
#: honest identities collide.
SWEEP_DOMAINS, SWEEP_COUNTRIES = DOMAINS[:2], COUNTRIES[:2]
SWEEP_ADDRESSES = ("172.16.0.1",) + tuple(
    GeoIPDatabase().ips_at("US", [0, 1]) + GeoIPDatabase().ips_at("DE", [0])
)
#: A target may name a pair, a domain or a country the honest rows lack.
TARGET_DOMAINS = ("youtube.com", "example.org")
TARGET_COUNTRIES = ("US", "DE", "FR")


class GlobalThresholdFilter(ReputationFilter):
    """Every country's threshold reads every country's tallies."""

    def _country_thresholds(self, country_rows, country_fails):
        overall = country_fails.sum() / max(int(country_rows.sum()), 1)
        share = country_rows / max(int(country_rows.max(initial=0)), 1)
        return np.clip(0.2 + 0.4 * overall + 0.2 * share, 0.05, 1.0)


class PooledPriorDetector(BinomialFilteringDetector):
    """Every cell's prior reads every scored cell."""

    def _cell_priors(self, domains, countries, totals, successes):
        pooled = successes.sum() / max(int(totals.sum()), 1)
        return np.full(len(totals), min(0.9, max(0.3, 0.9 * pooled)))


FILTERS = {
    "base": lambda: ReputationFilter(max_submissions_per_client=3),
    "adaptive": lambda: AdaptiveReputationFilter(
        max_submissions_per_client=3, min_threshold=0.1, margin=0.05
    ),
    "global": lambda: GlobalThresholdFilter(max_submissions_per_client=3),
}
DETECTORS = {
    "base": lambda: BinomialFilteringDetector(min_measurements=3),
    "adaptive": lambda: AdaptiveFilteringDetector(min_measurements=3),
    "pooled": lambda: PooledPriorDetector(min_measurements=3),
}


def full_path_cells(honest, sweep, root, target, budgets):
    """Each cell as the full path scores it, from the manifests the sweep left."""
    manifests = sorted(root.glob("cell-*/manifest.json"))
    assert len(manifests) == len(budgets)
    cells = []
    for (submissions, identities), path in zip(budgets, manifests):
        poisoned = MeasurementStore()
        poisoned.adopt_segments_from(honest)
        StoreMerger(poisoned).merge([read_manifest(path)])
        verdict = sweep.reputation.apply_store(poisoned)
        cells.append(SweepCell(
            submissions=submissions,
            identities=identities,
            forged=len(poisoned) - len(honest),
            poisoned_rows=len(poisoned),
            naive_pairs=frozenset(sweep.detector.detect(poisoned).detected_pairs()),
            defended_pairs=frozenset(
                sweep.detector.detect_from_counts(verdict.success_counts()).detected_pairs()
            ),
            dropped_rate_limited=verdict.dropped_rate_limited,
            dropped_low_reputation=verdict.dropped_low_reputation,
            target_pair=target,
            fabricate_blocking=sweep.fabricate_blocking,
        ))
    return cells


def assert_sweep_matches_full_path(honest, sweep, root, target, budgets):
    cells = sweep.run(honest, *target, budgets)
    assert cells == full_path_cells(honest, sweep, root, target, budgets)
    return cells


class TestSweepMatchesFullPath:
    @given(
        honest=rows_from(
            SWEEP_ADDRESSES, domains=SWEEP_DOMAINS, countries=SWEEP_COUNTRIES, min_size=4
        ),
        layout=st.sampled_from(LAYOUTS),
        filter_kind=st.sampled_from(sorted(FILTERS)),
        detector_kind=st.sampled_from(sorted(DETECTORS)),
        fabricate=st.booleans(),
        target=st.tuples(st.sampled_from(TARGET_DOMAINS), st.sampled_from(TARGET_COUNTRIES)),
        budgets=st.lists(
            st.tuples(st.integers(min_value=0, max_value=30),
                      st.integers(min_value=1, max_value=6)),
            min_size=1, max_size=3,
        ),
        seed=st.integers(min_value=0, max_value=3),
    )
    # A success flood lowers US's adaptive threshold below the dominant
    # facebook.com client's disagreement (1/3 against 0), so the pair the
    # flood never touches loses that client.
    @example(
        honest=[
            ("facebook.com", "US", address, outcome) for address, outcome in (
                (SWEEP_ADDRESSES[1], TaskOutcome.SUCCESS),
                (SWEEP_ADDRESSES[1], TaskOutcome.SUCCESS),
                (SWEEP_ADDRESSES[1], TaskOutcome.FAILURE),
                (SWEEP_ADDRESSES[0], TaskOutcome.SUCCESS),
                (SWEEP_ADDRESSES[3], TaskOutcome.SUCCESS),
                (SWEEP_ADDRESSES[1], TaskOutcome.SUCCESS),
                (SWEEP_ADDRESSES[1], TaskOutcome.FAILURE),
            )
        ],
        layout="resident", filter_kind="adaptive", detector_kind="base",
        fabricate=False, target=("youtube.com", "US"), budgets=[(1, 1)], seed=0,
    )
    # No honest rows at all, and a cell with no forged rows either.
    @example(
        honest=[], layout="spilled", filter_kind="global", detector_kind="pooled",
        fabricate=True, target=("example.org", "FR"), budgets=[(0, 1), (12, 2)], seed=1,
    )
    @settings(max_examples=250, deadline=None)
    def test_every_cell_equals_the_full_path(
        self, honest, layout, filter_kind, detector_kind, fabricate, target, budgets, seed
    ):
        with tempfile.TemporaryDirectory() as tmp:
            store = source_store(measurements(honest, "honest"), layout, Path(tmp) / "honest")
            sweep = AdversarySweep(
                DETECTORS[detector_kind](), FILTERS[filter_kind](),
                fabricate_blocking=fabricate, executor="inline",
                spill_dir=Path(tmp) / "sweep", seed=seed,
            )
            assert_sweep_matches_full_path(store, sweep, Path(tmp) / "sweep", target, budgets)

    def test_hook_overrides_that_read_every_country_or_cell(self, detection_result, tmp_path):
        """Thresholds and priors that move everywhere re-judge and re-score everything."""
        store = detection_result.collection.store
        budgets = [(0, 1), (60, 2), (400, 8)]
        for name, detector, reputation in (
            ("thresholds", BinomialFilteringDetector(), GlobalThresholdFilter()),
            ("priors", PooledPriorDetector(), ReputationFilter()),
        ):
            root = tmp_path / name
            sweep = AdversarySweep(
                detector, reputation, executor="inline", spill_dir=root, seed=3
            )
            rejudged = get_registry().counter("sweep.rows_rejudged").value
            cells = assert_sweep_matches_full_path(
                store, sweep, root, ("facebook.com", "DE"), budgets
            )
            rejudged = get_registry().counter("sweep.rows_rejudged").value - rejudged
            if name == "thresholds":
                # Forged rows move every country's threshold, so each cell
                # with any re-judges every honest row besides its own.
                assert rejudged == len(store) * 2 + 460
            assert {cell.forged for cell in cells} == {0, 60, 400}
