"""Meta-tests: the CLI front door, and the live tree staying lint-clean.

The live-tree check is the acceptance gate of the whole linter: if any
commit reintroduces a bypassed checkpoint write, an unseeded RNG, or an
unpinned reference path, this test (and the CI lint step) goes red.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv: str, cwd: Path = REPO_ROOT):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


class TestLiveTree:
    def test_src_and_benchmarks_are_lint_clean(self):
        result = run_cli("src", "benchmarks")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_examples_are_lint_clean(self):
        result = run_cli("examples")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_scenario_harness_is_lint_clean(self):
        # The quality suites are day-one citizens of the rng-discipline /
        # atomic-json-write / telemetry-hygiene contracts; pin the package
        # explicitly so a future suite can't drift out from under the rules.
        result = run_cli("src/repro/scenarios")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_fixture_corpus_fails_with_rule_ids_and_lines(self):
        result = run_cli(
            "--root", str(FIXTURES / "violations"), "src", "benchmarks"
        )
        assert result.returncode == 1
        assert (
            "src/repro/core/rng_violations.py:11: [rng-discipline]"
            in result.stdout
        )
        assert (
            "src/repro/core/json_violations.py:9: [atomic-json-write]"
            in result.stdout
        )


class TestCli:
    def test_json_report_shape(self):
        result = run_cli("--json", "--root", str(FIXTURES / "clean"), "src")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["clean"] is True
        assert report["findings"] == []
        assert report["files_scanned"] == 6
        assert "rng-discipline" in report["rules"]

    def test_json_report_carries_findings(self):
        result = run_cli(
            "--json", "--root", str(FIXTURES / "violations"), "src", "benchmarks"
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["clean"] is False
        rules = {finding["rule"] for finding in report["findings"]}
        assert {
            "rng-discipline",
            "telemetry-hygiene",
            "atomic-json-write",
            "ordered-iteration",
            "reference-pairing",
            "worker-pickle-safety",
            "bench-hygiene",
        } <= rules

    def test_missing_target_is_a_usage_error(self, tmp_path):
        result = run_cli("--root", str(tmp_path), "no-such-dir")
        assert result.returncode == 2
        assert "no-such-dir" in result.stderr

    def test_list_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in (
            "rng-discipline",
            "telemetry-hygiene",
            "atomic-json-write",
            "ordered-iteration",
            "reference-pairing",
            "worker-pickle-safety",
            "bench-hygiene",
        ):
            assert rule_id in result.stdout
