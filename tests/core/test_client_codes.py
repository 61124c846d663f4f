"""Client identity codes: cached per store, shared through segment adoption.

``MeasurementStore.client_codes()`` numbers each row's ``client_ip`` once
and keeps the numbering append-only; a store that adopts another into an
empty store takes the adopted rows' codes from its source.  These tests pin
that an adopting store's reputation verdict equals the verdict on a store
built by appending the same rows directly — over resident, spilled and
shard-merged sources, identities that collide across the honest and forged
rows, sources that grow after adoption, and chains of adoptions — and that
the verdict kernel depends only on which rows share an identity, never on
how identities are numbered.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.collection import Measurement
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.robustness import ReputationFilter
from repro.core.shard import StoreMerger, segment_row_counts, serialize_value_tables
from repro.core.store import MeasurementStore, _ClientCodes
from repro.core.tasks import TaskOutcome, TaskType
from repro.obs.metrics import get_registry
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


def rows_from(addresses, max_size=40):
    return st.lists(
        st.tuples(
            st.sampled_from(DOMAINS),
            st.sampled_from(COUNTRIES),
            st.sampled_from(addresses),
            st.sampled_from(list(TaskOutcome)),
        ),
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


def merged(rows, directory: Path) -> MeasurementStore:
    """A store mounted from two spilled shard stores, like a sharded campaign."""
    manifests = []
    for index, part in enumerate((rows[: len(rows) // 2], rows[len(rows) // 2:])):
        if not part:
            continue
        shard = MeasurementStore(segment_rows=5, spill_dir=directory / f"shard-{index}")
        shard.append_rows(part)
        shard.spill()
        manifests.append({
            "shard_index": index,
            "blocks": [{
                "block": index,
                "rows": len(shard),
                "segments": [
                    {"path": str(path), "rows": length}
                    for path, length in segment_row_counts(shard.segment_files, len(shard))
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
    store = MeasurementStore(
        segment_rows=7, max_rows_in_memory=7 if spilled else None, spill_dir=directory
    )
    store.append_rows(rows)
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
        store = MeasurementStore(segment_rows=5)
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
        store = MeasurementStore(segment_rows=4, max_rows_in_memory=4, spill_dir=tmp_path)
        for start in range(0, len(rows), 3):
            store.append_rows(rows[start:start + 3])
        segments = [length for _, length in segment_row_counts(store.segment_files, len(store))]
        assert sum(segments) == len(rows) and len(segments) > 1
        batches = []
        encode = _ClientCodes.encode

        def recording(self, addresses):
            batches.append(len(addresses))
            return encode(self, addresses)

        monkeypatch.setattr(_ClientCodes, "encode", recording)
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
