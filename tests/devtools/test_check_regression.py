"""The benchmark ratio gate reads fresh reports apart from the committed ones.

Benchmark runs write fresh ``BENCH_*.json`` reports under
``benchmarks/fresh/`` (gitignored); ``benchmarks/check_regression.py``
compares them with the committed copies.  The gate is driven in-process
with its fresh directory pointed at a temporary one and the CPU count
pinned, because on hosts below ``MIN_CPUS`` it skips.
"""

import importlib
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    module = importlib.import_module("check_regression")
    monkeypatch.setattr(module.os, "cpu_count", lambda: module.MIN_CPUS)
    return module


def write(directory: Path, speedup: float, peak_rss_kb: float = 1000.0) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    report = {"speedup": speedup, "telemetry": {"peak_rss_kb": peak_rss_kb}}
    (directory / "BENCH_runner.json").write_text(json.dumps(report))


def run(gate, tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "FRESH_DIR", tmp_path / "fresh")
    return gate.main(["--baseline-dir", str(tmp_path / "committed")])


def test_fresh_reports_default_to_the_gitignored_directory(gate):
    assert gate.FRESH_DIR == BENCH_DIR / "fresh"
    ignored = (REPO_ROOT / ".gitignore").read_text().split()
    assert "benchmarks/fresh/" in ignored


def test_within_threshold_passes(gate, tmp_path, capsys, monkeypatch):
    write(tmp_path / "committed", 10.0)
    write(tmp_path / "fresh", 7.6)
    assert run(gate, tmp_path, monkeypatch) == 0
    assert "BENCH_runner.json: speedup 10.00 -> 7.60 (floor 7.50) ok" in capsys.readouterr().out


def test_drop_beyond_threshold_fails(gate, tmp_path, capsys, monkeypatch):
    write(tmp_path / "committed", 10.0)
    write(tmp_path / "fresh", 7.4)
    assert run(gate, tmp_path, monkeypatch) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_memory_growth_only_warns(gate, tmp_path, capsys, monkeypatch):
    write(tmp_path / "committed", 10.0, peak_rss_kb=1000.0)
    write(tmp_path / "fresh", 10.0, peak_rss_kb=5000.0)
    assert run(gate, tmp_path, monkeypatch) == 0
    assert "WARN peak RSS" in capsys.readouterr().out


def test_small_hosts_skip_loudly(gate, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gate.os, "cpu_count", lambda: gate.MIN_CPUS - 1)
    write(tmp_path / "committed", 10.0)
    write(tmp_path / "fresh", 1.0)
    assert run(gate, tmp_path, monkeypatch) == 0
    assert "SKIPPED" in capsys.readouterr().out
