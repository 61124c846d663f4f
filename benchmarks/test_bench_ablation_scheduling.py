"""Ablation — how much measurement volume does detection actually need?

Scheduling (§5.3) exists to replicate each measurement across many clients in
each region so the binomial test has enough trials.  This ablation asks the
operative question: as the campaign's visit volume shrinks, when does the
detector stop recovering the paper-confirmed cases?  It also checks the
scheduler's replication balance, which is what spreads a fixed visit budget
evenly over targets.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reports import format_table
from repro.core.inference import BinomialFilteringDetector
from repro.core.query import masked_grouped_success_counts

EXPECTED = {
    ("youtube.com", "PK"), ("youtube.com", "IR"), ("youtube.com", "CN"),
    ("twitter.com", "CN"), ("twitter.com", "IR"),
    ("facebook.com", "CN"), ("facebook.com", "IR"),
}

FRACTIONS = (0.02, 0.05, 0.1, 0.25, 0.5, 1.0)


def recall_by_volume(store):
    """Detection over the first ``fraction`` of the store's rows, per fraction."""
    detector = BinomialFilteringDetector(min_measurements=10)
    position = np.arange(len(store))
    rows = []
    for fraction in FRACTIONS:
        prefix = int(len(store) * fraction)
        counts = masked_grouped_success_counts(store, position < prefix)
        detected = detector.detect_from_counts(counts).detected_pairs()
        recall = len(detected & EXPECTED) / len(EXPECTED)
        spurious = len(detected - EXPECTED)
        rows.append((fraction, prefix, recall, spurious))
    return rows


class TestSchedulingAblation:
    def test_volume_sweep(self, benchmark, detection_result):
        rows = benchmark(recall_by_volume, detection_result.collection.store)

        print()
        print("Ablation — detection recall vs measurement volume:")
        print(format_table(
            ["campaign fraction", "measurements", "recall", "spurious"],
            [[f"{f:.0%}", n, f"{r:.2f}", s] for f, n, r, s in rows],
        ))

        recalls = [r for _, _, r, _ in rows]
        # More volume never hurts recall.
        assert recalls == sorted(recalls)
        # The full campaign recovers everything; a small sliver does not.
        assert recalls[-1] == 1.0
        assert recalls[0] < 1.0
        # No amount of extra volume produces spurious detections.
        assert all(s == 0 for _, _, _, s in rows)

    def test_scheduler_replication_balance(self, detection_deployment):
        counts = detection_deployment.scheduler.replication_report().values()
        assert counts
        assert max(counts) <= 1.3 * min(counts) + 5
