"""§7 — campaign scale and geographic coverage.

The paper's seven-month deployment recorded 141,626 measurements from 88,260
distinct IPs in 170 countries, with China, India, the United Kingdom, and
Brazil each reporting at least 1,000 measurements and Egypt, South Korea,
Iran, Pakistan, Turkey, and Saudi Arabia each reporting more than 100.  The
benchmark campaign runs roughly a fifth of that visit volume (see
EXPERIMENTS.md) and checks that the same coverage thresholds hold — the
distributional claim rather than the absolute count.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.analysis.reports import format_table
from repro.core.query import Count

BIG_FOUR = ("CN", "IN", "GB", "BR")
HUNDRED_PLUS = ("EG", "KR", "IR", "PK", "TR", "SA")


def every_row(store, key):
    """Rows per value of ``key``, counting every row."""
    return store.query(
        (key,), (Count(),), exclude_automated=False, exclude_inconclusive=False
    )


def campaign_summary(result):
    collection = result.collection
    by_country = every_row(collection.store, "country")
    return {
        "measurements": len(collection),
        "distinct_ips": collection.distinct_ips(),
        "countries": collection.distinct_countries(),
        "by_country": Counter(dict(zip(
            by_country.key("country").tolist(), by_country.value("count").tolist()
        ))),
    }


class TestSection7Scale:
    def test_scale_and_coverage(self, benchmark, scale_result):
        summary = benchmark(campaign_summary, scale_result)
        by_country = summary["by_country"]

        rows = [
            ["measurements", 141_626, summary["measurements"]],
            ["distinct IPs", 88_260, summary["distinct_ips"]],
            ["countries", 170, summary["countries"]],
        ]
        rows += [[f"measurements from {code}", ">= 1000" if code in BIG_FOUR else "> 100",
                  by_country.get(code, 0)] for code in BIG_FOUR + HUNDRED_PLUS]
        print()
        print("§7 — campaign scale (benchmark runs ~1/5 of the paper's visit volume):")
        print(format_table(["metric", "paper", "reproduced"], rows))

        # Volume: a large, many-vantage campaign (absolute numbers scale with
        # the configured visit count).
        assert summary["measurements"] > 20_000
        assert summary["distinct_ips"] > 0.5 * summary["measurements"] * 0.5
        # Coverage: measurements arrive from the vast majority of the world's
        # countries in the model.
        assert summary["countries"] >= 150
        # Ordering claims from the paper hold at our scale.
        for code in BIG_FOUR:
            assert by_country.get(code, 0) >= 1000, code
        for code in HUNDRED_PLUS:
            assert by_country.get(code, 0) > 100, code
        # The United States contributes the single largest share, as the
        # origin-site demographics would predict.
        assert by_country.most_common(1)[0][0] == "US"

    def test_browser_and_os_diversity(self, scale_result):
        """Clients ran a variety of Web browsers (paper §7)."""
        families = every_row(scale_result.collection.store, "family")
        assert len(families) >= 4

    def test_origin_attribution_mostly_stripped(self, scale_result):
        """3/4 of measurements come from origins that strip the Referer."""
        store = scale_result.collection.store
        stripped = np.count_nonzero(store.column("origin") < 0)
        assert 0.55 <= stripped / len(store) <= 0.95
