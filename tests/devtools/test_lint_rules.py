"""The repro-lint rule catalog against the fixture corpora.

``fixtures/violations`` is a miniature repository breaking every rule at
known lines; ``fixtures/clean`` does the same work correctly.  Pinning the
exact (rule, path, line) set keeps both false negatives *and* false
positives from creeping into the rules.
"""

from pathlib import Path

from repro.devtools import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str):
    findings, _ = run_lint(FIXTURES / name, ["src", "benchmarks"])
    return findings


class TestViolationsCorpus:
    EXPECTED = {
        ("bench-hygiene", "benchmarks/test_bench_widget.py", 6),
        ("atomic-json-write", "src/repro/core/json_violations.py", 8),
        ("atomic-json-write", "src/repro/core/json_violations.py", 9),
        ("atomic-json-write", "src/repro/core/json_violations.py", 10),
        ("ordered-iteration", "src/repro/core/order_violations.py", 9),
        ("ordered-iteration", "src/repro/core/order_violations.py", 11),
        ("ordered-iteration", "src/repro/core/order_violations.py", 17),
        ("ordered-iteration", "src/repro/core/order_violations.py", 18),
        # The simulation substrate answers to the same rule.
        ("ordered-iteration", "src/repro/web/order_violations.py", 6),
        ("worker-pickle-safety", "src/repro/core/pool_violations.py", 12),
        ("worker-pickle-safety", "src/repro/core/pool_violations.py", 13),
        ("worker-pickle-safety", "src/repro/core/pool_violations.py", 14),
        ("worker-pickle-safety", "src/repro/core/pool_violations.py", 19),
        ("reference-pairing", "src/repro/core/reference_violations.py", 4),
        ("segment-streaming", "src/repro/core/segment_violations.py", 6),
        ("segment-streaming", "src/repro/core/segment_violations.py", 8),
        ("segment-streaming", "src/repro/core/segment_violations.py", 10),
        ("segment-streaming", "src/repro/core/segment_violations.py", 11),
        ("rng-discipline", "src/repro/core/rng_violations.py", 3),
        ("telemetry-hygiene", "src/repro/core/rng_violations.py", 4),
        ("telemetry-hygiene", "src/repro/core/telemetry_violations.py", 3),
        ("telemetry-hygiene", "src/repro/core/telemetry_violations.py", 4),
        ("telemetry-hygiene", "src/repro/core/telemetry_violations.py", 10),
        ("telemetry-hygiene", "src/repro/core/telemetry_violations.py", 11),
        ("rng-discipline", "src/repro/core/rng_violations.py", 11),
        ("rng-discipline", "src/repro/core/rng_violations.py", 15),
        ("rng-discipline", "src/repro/core/rng_violations.py", 23),
        ("rng-discipline", "src/repro/core/rng_violations.py", 24),
        ("rng-discipline", "src/repro/core/runner.py", 7),
        # The scenario-harness corpus: suites are under the same contracts.
        ("rng-discipline", "src/repro/scenarios/quality_violations.py", 9),
        ("telemetry-hygiene", "src/repro/scenarios/quality_violations.py", 10),
        ("atomic-json-write", "src/repro/scenarios/quality_violations.py", 12),
        ("atomic-json-write", "src/repro/scenarios/quality_violations.py", 13),
        # Unused imports: plain, aliased, one name of a from-import, and a
        # function-local import; the package __init__ re-export is exempt.
        ("unused-import", "benchmarks/bench_helpers.py", 3),
        ("unused-import", "src/repro/core/import_violations.py", 5),
        ("unused-import", "src/repro/core/import_violations.py", 6),
        ("unused-import", "src/repro/core/import_violations.py", 7),
        ("unused-import", "src/repro/core/import_violations.py", 8),
        ("unused-import", "src/repro/core/import_violations.py", 17),
        # The telemetry fixture's `import time` is never read either.
        ("unused-import", "src/repro/core/telemetry_violations.py", 3),
    }

    def test_every_rule_fires_at_the_expected_lines(self):
        findings = lint_fixture("violations")
        observed = {(f.rule, f.path, f.line) for f in findings}
        assert observed == self.EXPECTED

    def test_widget_bench_draws_both_hygiene_findings(self):
        # Unregistered key + missing slow marker anchor at the same line.
        findings = lint_fixture("violations")
        hygiene = [f for f in findings if f.rule == "bench-hygiene"]
        assert len(hygiene) == 2
        assert any("RATIO_FIELDS" in f.message for f in hygiene)
        assert any("slow marker" in f.message for f in hygiene)

    def test_telemetry_readbacks_cite_the_observer_effect_ban(self):
        # Wall-clock imports and registry/tracer read-backs are distinct
        # halves of the rule; each must carry its own diagnosis.
        findings = lint_fixture("violations")
        hygiene = [f for f in findings if f.rule == "telemetry-hygiene"]
        readbacks = {f.line for f in hygiene if "reads telemetry" in f.message}
        imports = {
            (f.path, f.line) for f in hygiene if "Clock indirection" in f.message
        }
        assert readbacks == {10, 11}
        assert imports == {
            ("src/repro/core/rng_violations.py", 4),
            ("src/repro/core/telemetry_violations.py", 3),
            ("src/repro/core/telemetry_violations.py", 4),
        }

    def test_unused_imports_name_only_the_unread_names(self):
        # `from dataclasses import dataclass, field` flags `field` alone;
        # `from typing import Iterable, Sequence` flags `Iterable` alone.
        findings = lint_fixture("violations")
        messages = {
            (f.path, f.line): f.message.split(" imported")[0]
            for f in findings
            if f.rule == "unused-import"
        }
        assert messages == {
            ("benchmarks/bench_helpers.py", 3): "np",
            ("src/repro/core/import_violations.py", 5): "os",
            ("src/repro/core/import_violations.py", 6): "osp",
            ("src/repro/core/import_violations.py", 7): "field",
            ("src/repro/core/import_violations.py", 8): "Iterable",
            ("src/repro/core/import_violations.py", 17): "json",
            ("src/repro/core/telemetry_violations.py", 3): "time",
        }

    def test_findings_render_as_path_line_rule(self):
        finding = lint_fixture("violations")[0]
        rendered = finding.render()
        assert rendered.startswith(f"{finding.path}:{finding.line}: [{finding.rule}]")
        assert finding.to_payload() == {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "message": finding.message,
        }


class TestCleanCorpus:
    def test_clean_corpus_has_no_findings(self):
        assert lint_fixture("clean") == []

    def test_dropping_the_reference_test_breaks_the_pairing(self, tmp_path):
        # The clean corpus minus its tests/ directory: total_reference loses
        # its pinning test and the pairing rule must notice.
        import shutil

        stripped = tmp_path / "corpus"
        shutil.copytree(FIXTURES / "clean", stripped)
        shutil.rmtree(stripped / "tests")
        findings, _ = run_lint(stripped, ["src", "benchmarks"])
        assert [(f.rule, f.path) for f in findings] == [
            ("reference-pairing", "src/repro/core/good.py")
        ]


class TestExamplesScope:
    def test_examples_answer_to_the_determinism_rules(self, tmp_path):
        # An example's stdout is a committed golden: an unseeded generator,
        # a wall-clock read or a set-ordered loop would make it flaky.
        example = tmp_path / "examples" / "demo.py"
        example.parent.mkdir()
        example.write_text(
            "import time\n"
            "\n"
            "import numpy as np\n"
            "\n"
            "rng = np.random.default_rng()\n"
            "print(time.time())\n"
            "for country in {\"CN\", \"IR\"}:\n"
            "    print(country)\n"
            "print(time.perf_counter())\n"
        )
        findings, _ = run_lint(tmp_path, ["examples"])
        assert {(f.rule, f.line) for f in findings} == {
            ("rng-discipline", 5), ("rng-discipline", 6), ("ordered-iteration", 7),
        }

