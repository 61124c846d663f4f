"""Tests for the collection server and the binomial filtering detector."""

from dataclasses import replace

import numpy as np
import pytest

from repro.browser.profiles import BrowserProfile
from repro.core.collection import CollectionServer, ColumnarRecords
from repro.core.inference import (
    BinomialFilteringDetector,
    binomial_cdf,
    binomial_cdf_cells,
)
from repro.core.store import DictColumn
from repro.core.tasks import TaskOutcome, TaskResult, TaskType
from repro.netsim.latency import LinkQuality
from repro.population.clients import Client
from repro.population.geoip import GeoIPDatabase
from repro.web.url import URL


def make_client(country="US", automated=False, client_id=1, geoip=None):
    geoip = geoip or GeoIPDatabase()
    return Client(
        client_id=client_id,
        ip_address=geoip.allocate_ip(country),
        country_code=country,
        isp=f"{country.lower()}-isp-1",
        browser=BrowserProfile.chrome(),
        link=LinkQuality.broadband(),
        dwell_time_s=30.0,
        is_automated=automated,
    )


def make_result(domain="facebook.com", outcome=TaskOutcome.SUCCESS, measurement_id="m1"):
    url = URL.parse(f"http://{domain}/favicon.ico")
    return TaskResult(
        measurement_id=measurement_id,
        task_type=TaskType.IMAGE,
        target_url=url,
        target_domain=domain,
        outcome=outcome,
        elapsed_ms=80.0,
    )


def make_record(result, client, origin_domain=None, day=0, country_code=None):
    """The submission a client makes for ``result``, as one row's fields.

    ``country_code`` overrides the client's own claim, which the server only
    falls back on when it cannot geolocate the address.
    """
    return dict(
        measurement_id=result.measurement_id,
        task_type=result.task_type,
        target_url=result.target_url,
        target_domain=result.target_domain,
        outcome=result.outcome,
        elapsed_ms=result.elapsed_ms,
        probe_time_ms=result.probe_time_ms,
        client_ip=client.ip_address,
        country_code=country_code or client.country_code,
        isp=client.isp,
        browser_family=client.browser.family.value,
        origin_domain=origin_domain,
        day=day,
        is_automated=client.is_automated,
    )


def make_columns(records):
    """``records`` as the collection server's payload, one visit per row."""
    def column(name):
        return [record[name] for record in records]

    each_row = np.arange(len(records), dtype=np.int64)
    return ColumnarRecords(
        measurement_id=column("measurement_id"),
        task_type=column("task_type"),
        target_url=column("target_url"),
        target_domain=column("target_domain"),
        outcome=DictColumn(column("outcome"), each_row),
        elapsed_ms=np.asarray(column("elapsed_ms"), dtype=np.float64),
        probe_time_ms=np.asarray(
            [np.nan if t is None else t for t in column("probe_time_ms")], dtype=np.float64
        ),
        client_ip=DictColumn(column("client_ip"), each_row),
        country_code=DictColumn(column("country_code"), each_row),
        isp=DictColumn(column("isp"), each_row),
        browser_family=DictColumn(column("browser_family"), each_row),
        origin_domain=DictColumn(column("origin_domain"), each_row),
        day=np.asarray(column("day"), dtype=np.int64),
        is_automated=np.asarray(column("is_automated"), dtype=bool),
    )


class TestCollectionServer:
    def make_server(self):
        geoip = GeoIPDatabase()
        return CollectionServer("http://collector.encore-measurement.org/submit", geoip), geoip

    def submit(self, server, *pairs):
        """Ingest one record per ``(result, client)`` pair."""
        return server.ingest_columns(
            make_columns([make_record(result, client) for result, client in pairs])
        )

    def test_ingest_geolocates_from_ip_not_the_claim(self):
        server, geoip = self.make_server()
        client = make_client("IR", geoip=geoip)
        stored = server.ingest_columns(make_columns([
            make_record(make_result(), client, "origin-00.example.edu", country_code="US")
        ]))
        assert stored == 1
        assert len(server) == 1
        assert server.store.rows()[0].country_code == "IR"

    def test_unknown_address_keeps_the_claimed_country(self):
        server, _ = self.make_server()
        client = replace(make_client("US"), ip_address="192.0.2.7")
        assert server.geoip.lookup("192.0.2.7") is None
        server.ingest_columns(
            make_columns([make_record(make_result(), client, country_code="BR")])
        )
        [row] = server.store.rows()
        assert (row.client_ip, row.country_code) == ("192.0.2.7", "BR")

    def test_unreachable_submissions_are_counted(self):
        server, geoip = self.make_server()
        assert server.ingest_columns(
            make_columns([make_record(make_result(), make_client(geoip=geoip))]), unreachable=3
        ) == 1
        assert server.ingest_columns(make_columns([]), unreachable=2) == 0
        assert server.unreachable_submissions == 5
        assert server.summary()["unreachable_submissions"] == 5

    def test_empty_batch_stores_nothing(self):
        server, _ = self.make_server()
        assert server.ingest_columns(make_columns([])) == 0
        assert len(server) == 0
        assert server.store.version == 0
        assert server.unreachable_submissions == 0

    def test_row_mask_excludes_automated_and_inconclusive(self):
        server, geoip = self.make_server()
        self.submit(
            server,
            (make_result(), make_client(geoip=geoip)),
            (make_result(outcome=TaskOutcome.INCONCLUSIVE), make_client(geoip=geoip)),
            (make_result(), make_client(automated=True, geoip=geoip)),
        )
        store = server.store
        assert np.count_nonzero(store.row_mask()) == 1
        assert np.count_nonzero(
            store.row_mask(exclude_automated=False, exclude_inconclusive=False)
        ) == 3

    def test_row_mask_by_domain_country_type(self):
        server, geoip = self.make_server()
        self.submit(
            server,
            (make_result("facebook.com"), make_client("CN", geoip=geoip)),
            (make_result("youtube.com"), make_client("CN", geoip=geoip)),
            (make_result("facebook.com"), make_client("US", geoip=geoip)),
        )
        store = server.store
        assert store.row_mask(domain="facebook.com").tolist() == [True, False, True]
        assert store.row_mask(domain="facebook.com", country_code="CN").tolist() == [
            True, False, False,
        ]
        assert np.count_nonzero(store.row_mask(task_type=TaskType.IMAGE)) == 3
        assert np.count_nonzero(store.row_mask(task_type=TaskType.SCRIPT)) == 0
        assert np.count_nonzero(store.row_mask(domain="absent.example")) == 0

    def test_success_counts_shape(self):
        server, geoip = self.make_server()
        self.submit(
            server,
            (make_result(outcome=TaskOutcome.SUCCESS), make_client("CN", geoip=geoip)),
            (make_result(outcome=TaskOutcome.FAILURE), make_client("CN", geoip=geoip)),
        )
        counts = server.success_counts()
        assert counts[("facebook.com", "CN")] == (2, 1)

    def test_distinct_counts_and_summary(self):
        server, geoip = self.make_server()
        assert server.distinct_countries() == 0
        self.submit(server, *(
            (make_result(), make_client("US", client_id=i, geoip=geoip)) for i in range(5)
        ))
        assert server.distinct_ips() == 5
        assert server.distinct_countries() == 1
        assert server.summary()["measurements"] == 5


class TestBinomialCdf:
    def test_extremes(self):
        assert binomial_cdf(10, 10, 0.7) == 1.0
        assert binomial_cdf(-1, 10, 0.7) == 0.0
        assert binomial_cdf(0, 10, 0.0) == 1.0
        assert binomial_cdf(5, 10, 1.0) == 0.0

    def test_against_known_values(self):
        # P[Bin(10, 0.5) <= 5] = 0.623046875
        assert binomial_cdf(5, 10, 0.5) == pytest.approx(0.623046875, rel=1e-9)
        # P[Bin(20, 0.7) <= 10] ≈ 0.0480
        assert binomial_cdf(10, 20, 0.7) == pytest.approx(0.0479618, rel=1e-4)

    def test_monotone_in_successes(self):
        values = [binomial_cdf(k, 50, 0.7) for k in range(51)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_cdf(1, -1, 0.5)
        with pytest.raises(ValueError):
            binomial_cdf(1, 10, 1.5)


class TestLogFactorialTable:
    """The cumsum-extended log-factorial cache, pinned against math.lgamma."""

    def test_extension_preserves_prefix_and_tracks_lgamma(self, monkeypatch):
        import math

        from repro.core import inference

        # Start from a fresh one-entry table so the test exercises growth
        # regardless of what earlier tests already expanded the cache to.
        monkeypatch.setattr(inference, "_LOG_FACTORIALS", np.zeros(1))
        first = inference._log_factorials(100).copy()
        # Growing must *extend* the cached prefix, never rebuild it.
        grown = inference._log_factorials(5000)
        assert np.array_equal(grown[: len(first)], first)
        assert len(grown) > 5000
        expected = np.array([math.lgamma(i + 1.0) for i in range(0, len(grown), 97)])
        got = grown[::97]
        # Within a few ulp of lgamma everywhere (the extension accumulates
        # in extended precision, so error does not grow with table length).
        assert np.all(np.abs(got - expected) <= 4 * np.spacing(np.abs(expected)))

    def test_scalar_and_vector_paths_share_the_table(self):
        trials = np.array([500, 1200])
        successes = np.array([300, 700])
        cells = binomial_cdf_cells(successes, trials, 0.7)
        for s, n, cell in zip(successes, trials, cells):
            assert binomial_cdf(int(s), int(n), 0.7) == pytest.approx(
                float(cell), rel=1e-12, abs=1e-300
            )


class TestBinomialFilteringDetector:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BinomialFilteringDetector(success_prior=1.5)
        with pytest.raises(ValueError):
            BinomialFilteringDetector(significance=0.0)
        with pytest.raises(ValueError):
            BinomialFilteringDetector(min_measurements=0)

    def test_detects_regional_blocking(self):
        detector = BinomialFilteringDetector(min_measurements=10)
        counts = {
            ("youtube.com", "PK"): (40, 2),    # almost always fails in Pakistan
            ("youtube.com", "US"): (60, 58),   # fine in the US
            ("youtube.com", "DE"): (30, 29),   # fine in Germany
        }
        report = detector.detect_from_counts(counts)
        assert report.detected("youtube.com", "PK")
        assert not report.detected("youtube.com", "US")
        detection = report.detections_for_domain("youtube.com")[0]
        assert detection.corroborating_regions == 2
        assert detection.p_value <= 0.05

    def test_global_outage_is_not_filtering(self):
        detector = BinomialFilteringDetector(min_measurements=10)
        counts = {
            ("dead-site.org", "PK"): (40, 1),
            ("dead-site.org", "US"): (60, 2),
            ("dead-site.org", "DE"): (30, 0),
        }
        assert detector.detect_from_counts(counts).detections == []

    def test_sporadic_failures_do_not_trigger(self):
        detector = BinomialFilteringDetector(min_measurements=10)
        counts = {
            ("fine.org", "IN"): (50, 40),   # 80% success: above the 0.7 prior
            ("fine.org", "US"): (50, 49),
        }
        assert detector.detect_from_counts(counts).detections == []

    def test_min_measurements_suppresses_thin_regions(self):
        detector = BinomialFilteringDetector(min_measurements=10)
        counts = {
            ("youtube.com", "PK"): (5, 0),    # too few to conclude anything
            ("youtube.com", "US"): (60, 58),
        }
        assert detector.detect_from_counts(counts).detections == []

    def test_region_statistics_exposed(self):
        detector = BinomialFilteringDetector(min_measurements=10)
        counts = {("a.com", "US"): (20, 19)}
        stats = detector.region_statistics(counts)
        assert len(stats) == 1
        assert stats[0].success_rate == pytest.approx(0.95)

    def test_detect_on_a_collection_filters_noise(self):
        geoip = GeoIPDatabase()
        server = CollectionServer("http://collector.encore-measurement.org/submit", geoip)
        server.ingest_columns(make_columns(
            [make_record(make_result("youtube.com", TaskOutcome.FAILURE, f"m{i}"),
                         make_client("PK", client_id=i, geoip=geoip)) for i in range(30)]
            + [make_record(make_result("youtube.com", TaskOutcome.SUCCESS, f"n{i}"),
                           make_client("US", client_id=100 + i, geoip=geoip))
               for i in range(60)]
        ))
        detector = BinomialFilteringDetector(min_measurements=10)
        report = detector.detect(server)
        assert report.detected_pairs() == {("youtube.com", "PK")}
        assert detector.detect(server.store).detected_pairs() == report.detected_pairs()

    def test_stricter_significance_reduces_detections(self):
        counts = {
            ("a.com", "IR"): (20, 11),   # borderline: p-value ~ a few percent
            ("a.com", "US"): (40, 39),
        }
        lenient = BinomialFilteringDetector(significance=0.10, min_measurements=10)
        strict = BinomialFilteringDetector(significance=0.001, min_measurements=10)
        assert len(lenient.detect_from_counts(counts).detections) >= len(
            strict.detect_from_counts(counts).detections
        )
