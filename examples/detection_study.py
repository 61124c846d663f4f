"""Reproduce the §7.2 detection study: who filters Facebook, YouTube, Twitter?

The paper's reported deployment measured only three popular domains (out of
ethical caution) and confirmed well-known censorship of youtube.com in
Pakistan, Iran, and China, and of twitter.com and facebook.com in China and
Iran.  This example runs the same experiment against the simulated world,
prints per-country success rates, and compares the detector's output with the
simulation's ground truth.

Run with::

    python examples/detection_study.py
"""

from __future__ import annotations

from collections import defaultdict

from repro import EncoreDeployment
from repro.analysis.reports import format_table
from repro.censor.censors import ground_truth_blocked
from repro.core.query import grouped_success_counts


def main(seed: int = 7, visits: int = 12000) -> None:
    deployment = EncoreDeployment.detection_experiment(seed=seed, visits=visits)
    result = deployment.run_campaign()
    store = result.collection.store
    print(f"Collected {len(result.collection)} measurements "
          f"from {result.collection.distinct_countries()} countries.\n")

    # Per-(domain, country) success rates for the interesting countries —
    # one grouped count over the store, no per-row Measurement materialization.
    interesting = ["CN", "IR", "PK", "TR", "US", "GB", "DE", "BR"]
    counts = grouped_success_counts(store).as_dict()
    rows = []
    for domain in ("facebook.com", "twitter.com", "youtube.com"):
        for country in interesting:
            if (domain, country) not in counts:
                continue
            n, successes = counts[(domain, country)]
            rows.append([domain, country, n, f"{successes / n:.2f}"])
    print("Per-country success rates (selected countries):")
    print(format_table(["domain", "country", "n", "success rate"], rows))
    print()

    report = result.detect()
    detected = report.detected_pairs()
    truth = ground_truth_blocked()
    expected = {
        (domain, country)
        for country, domains in truth.items()
        for domain in domains
        if domain in ("facebook.com", "twitter.com", "youtube.com")
    }

    confusion = defaultdict(list)
    for pair in sorted(expected | detected):
        if pair in expected and pair in detected:
            confusion["confirmed"].append(pair)
        elif pair in expected:
            confusion["missed"].append(pair)
        else:
            confusion["spurious"].append(pair)

    print("Detector vs ground truth:")
    for label in ("confirmed", "missed", "spurious"):
        pairs = ", ".join(f"{d} in {c}" for d, c in confusion[label]) or "(none)"
        print(f"  {label:10s}: {pairs}")


if __name__ == "__main__":
    main()
