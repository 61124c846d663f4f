"""Reproduce the §7.1 soundness experiment against the censorship testbed.

The testbed emulates seven varieties of DNS, IP, and HTTP filtering, each on
its own hostname, plus an unfiltered control host.  Roughly 30% of clients
are directed at testbed resources using all four measurement-task types; the
rest measure ordinary targets.  The report compares what each task type
observed against the testbed's ground truth: explicit-feedback tasks should
catch every explicit blocking mechanism with a low false-positive rate, while
block pages and throttling are (by design) hard to see.

Run with::

    python examples/soundness_testbed.py
"""

from __future__ import annotations

from collections import defaultdict

from repro import EncoreDeployment
from repro.analysis.reports import build_soundness_report, format_table
from repro.core.tasks import TaskOutcome


def main(seed: int = 3, visits: int = 8000) -> None:
    deployment = EncoreDeployment.soundness_experiment(seed=seed, visits=visits)
    result = deployment.run_campaign()
    testbed_measurements = result.testbed_measurements()
    print(f"Collected {len(result.collection)} measurements, "
          f"{len(testbed_measurements)} against the testbed.\n")

    report = build_soundness_report(result.collection.store, deployment.testbed)
    rows = [
        [row["task_type"], row["measurements"], row["detection_rate"],
         row["false_positive_rate"], row["false_negative_rate"]]
        for row in sorted(report.rows(), key=lambda r: r["task_type"])
    ]
    print("Per-task-type soundness against testbed ground truth:")
    print(format_table(
        ["task type", "n", "detection rate", "false positive rate", "false negative rate"], rows))
    print()

    # Which mechanisms slip past which task types?
    missed = defaultdict(int)
    totals = defaultdict(int)
    for m in testbed_measurements:
        if m.is_automated or m.outcome is TaskOutcome.INCONCLUSIVE:
            continue
        host = m.target_url.host
        if not deployment.testbed.expected_filtered(host):
            continue
        mechanism = host.split(".")[0]
        totals[(mechanism, m.task_type.value)] += 1
        if m.succeeded:
            missed[(mechanism, m.task_type.value)] += 1
    rows = [
        [mechanism, task_type, totals[(mechanism, task_type)],
         f"{missed[(mechanism, task_type)] / totals[(mechanism, task_type)]:.2f}"]
        for (mechanism, task_type) in sorted(totals)
    ]
    print("Miss rate per (filtering mechanism, task type) — block pages and")
    print("throttling are expected to evade some task types:")
    print(format_table(["mechanism", "task type", "n", "miss rate"], rows))


if __name__ == "__main__":
    main()
