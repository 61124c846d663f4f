"""§7.2 — does Encore detect Web filtering?

The paper instructs 70% of clients to measure Facebook, YouTube, and Twitter
and applies a one-sided binomial test (success prior p = 0.7, significance
0.05) per resource and region.  It confirms well-known censorship of
youtube.com in Pakistan, Iran, and China, and of twitter.com and facebook.com
in China and Iran, without flagging uncensored regions.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reports import format_table

EXPECTED_DETECTIONS = {
    ("youtube.com", "PK"),
    ("youtube.com", "IR"),
    ("youtube.com", "CN"),
    ("twitter.com", "CN"),
    ("twitter.com", "IR"),
    ("facebook.com", "CN"),
    ("facebook.com", "IR"),
}

CENSORING_COUNTRIES = {"CN", "IR", "PK"}


def run_detection(result):
    return result.detect(success_prior=0.7, significance=0.05, min_measurements=10)


class TestSection72:
    def test_detects_known_filtering(self, benchmark, detection_result):
        report = benchmark(run_detection, detection_result)
        detected = report.detected_pairs()

        rows = [
            [d.domain, d.country_code, d.measurements, d.successes, f"{d.p_value:.1e}",
             "expected" if (d.domain, d.country_code) in EXPECTED_DETECTIONS else "unexpected"]
            for d in sorted(report.detections, key=lambda d: (d.domain, d.country_code))
        ]
        print()
        print("§7.2 — filtering detections (binomial test, p=0.7, alpha=0.05):")
        print(format_table(["domain", "country", "n", "successes", "p-value", "status"], rows))

        # Every case the paper confirms is recovered.
        assert EXPECTED_DETECTIONS <= detected
        # Nothing is flagged outside the countries that actually censor these
        # domains in the simulation's ground truth.
        assert all(country in CENSORING_COUNTRIES for _, country in detected)

    def test_success_rate_contrast(self, detection_result):
        """Censoring regions show near-zero success; open regions near-perfect."""
        counts = detection_result.collection.success_counts()
        rows = []
        for domain, country, expect_blocked in [
            ("youtube.com", "PK", True), ("youtube.com", "US", False),
            ("facebook.com", "CN", True), ("facebook.com", "GB", False),
            ("twitter.com", "IR", True), ("twitter.com", "BR", False),
        ]:
            assert (domain, country) in counts, (domain, country)
            n, successes = counts[(domain, country)]
            rate = successes / n
            rows.append([domain, country, n, f"{rate:.2f}"])
            if expect_blocked:
                assert rate <= 0.2
            else:
                assert rate >= 0.85
        print()
        print(format_table(["domain", "country", "n", "success rate"], rows))

    def test_region_statistics_cover_many_countries(self, detection_result):
        report = run_detection(detection_result)
        countries = {s.country_code for s in report.statistics}
        assert len(countries) >= 20

    def test_detection_latency_in_measurement_volume(self, detection_result):
        """How few measurements suffice: rerun the test on truncated prefixes
        of the campaign and find where the known cases first appear."""
        from repro.core.inference import BinomialFilteringDetector
        from repro.core.query import masked_grouped_success_counts

        store = detection_result.collection.store
        position = np.arange(len(store))
        detector = BinomialFilteringDetector(min_measurements=10)
        first_complete = None
        for fraction in (0.1, 0.25, 0.5, 0.75, 1.0):
            prefix = position < int(len(store) * fraction)
            counts = masked_grouped_success_counts(store, prefix)
            detected = detector.detect_from_counts(counts).detected_pairs()
            if EXPECTED_DETECTIONS <= detected and first_complete is None:
                first_complete = fraction
        print()
        print(f"All paper-confirmed cases detected using {first_complete:.0%} of the campaign")
        assert first_complete is not None and first_complete <= 1.0
