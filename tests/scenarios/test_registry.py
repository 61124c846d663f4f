"""Scenario-registry meta-test: no suite ships undocumented or ungated.

Registering a suite is a three-part contract — the catalog in
``docs/scenarios.md`` describes it, CI runs it (both lanes' ``run all``
covers every suite, gated by ``check_quality.py``), and ``benchmarks/``
carries its committed QUALITY baseline so ``check_quality.py`` trends it
from the first run.  This test makes forgetting any leg a red build
instead of a silent gap.
"""

from pathlib import Path

from repro.scenarios import quality_filename, registered_suites

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestEverySuiteIsWired:
    def test_documented_in_the_catalog(self):
        catalog = (REPO_ROOT / "docs" / "scenarios.md").read_text()
        for name in registered_suites():
            assert f"`{name}`" in catalog, (
                f"suite {name!r} is registered but missing from docs/scenarios.md"
            )

    def test_ci_runs_every_suite(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        jobs = workflow.split("\njobs:\n", 1)[1]
        fast, slow = jobs.split("\n  slow:\n", 1)
        # Every PR and the scheduled lane run the whole registry through
        # the quality gate.
        for lane in (fast, slow):
            assert "repro.scenarios run all" in lane
            assert "check_quality.py" in lane

    def test_committed_quality_baseline_exists(self):
        for name in registered_suites():
            baseline = REPO_ROOT / "benchmarks" / quality_filename(name)
            assert baseline.is_file(), (
                f"suite {name!r} has no committed {baseline.name}; run "
                "`python -m repro.scenarios run all --out benchmarks` and "
                "commit the artifact"
            )
