"""Tests for the statistics helpers and report builders."""

import numpy as np
import pytest

from repro.analysis.reports import (
    TaskTypeSoundness,
    TimelineReport,
    TransitionMatch,
    build_soundness_report,
    format_table,
)
from repro.analysis.stats import Ecdf, fraction_at_least, fraction_at_most, summarise_distribution
from repro.core.inference import CensorshipEvent
from repro.core.tasks import TaskType


class TestEcdf:
    def test_basic_evaluation(self):
        cdf = Ecdf([1, 2, 3, 4])
        assert cdf(0) == 0.0
        assert cdf(2) == 0.5
        assert cdf(4) == 1.0
        assert cdf(10) == 1.0

    def test_quantiles_and_median(self):
        cdf = Ecdf(range(101))
        assert cdf.median == pytest.approx(50.0)
        assert cdf.quantile(0.25) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_distribution(self):
        cdf = Ecdf([])
        assert len(cdf) == 0
        assert cdf(5) == 0.0
        with pytest.raises(ValueError):
            cdf.quantile(0.5)

    def test_series_is_plottable(self):
        cdf = Ecdf([1, 2, 3])
        series = cdf.series([0, 1, 2, 3])
        assert series[0] == (0.0, 0.0)
        assert series[-1] == (3.0, 1.0)
        assert all(a[1] <= b[1] for a, b in zip(series, series[1:]))

    def test_is_monotone_non_decreasing(self):
        rng = np.random.default_rng(0)
        cdf = Ecdf(rng.normal(size=500))
        xs = np.linspace(-4, 4, 100)
        values = [cdf(x) for x in xs]
        assert values == sorted(values)


class TestThresholdFractions:
    def test_fraction_at_most(self):
        assert fraction_at_most([1, 2, 3, 4], 2) == 0.5
        assert fraction_at_most([], 2) == 0.0

    def test_fraction_at_least(self):
        assert fraction_at_least([1, 2, 3, 4], 3) == 0.5
        assert fraction_at_least([], 3) == 0.0

    def test_summarise_distribution(self):
        summary = summarise_distribution(range(1, 101))
        assert summary["count"] == 100
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["median"] == pytest.approx(50.5)
        assert summarise_distribution([]) == {"count": 0.0}


class TestSoundnessReport:
    def test_rates(self):
        stats = TaskTypeSoundness(TaskType.IMAGE, true_positives=90, false_negatives=10,
                                  true_negatives=95, false_positives=5)
        assert stats.detection_rate == pytest.approx(0.9)
        assert stats.false_positive_rate == pytest.approx(0.05)
        assert stats.false_negative_rate == pytest.approx(0.1)
        assert stats.measurements == 200

    def test_empty_rates_are_zero(self):
        stats = TaskTypeSoundness(TaskType.IMAGE)
        assert stats.detection_rate == 0.0
        assert stats.false_positive_rate == 0.0

    def test_build_from_campaign(self, soundness_result, soundness_deployment):
        report = build_soundness_report(
            soundness_result.collection.store, soundness_deployment.testbed
        )
        assert report.total_measurements > 200
        rows = report.rows()
        assert {row["task_type"] for row in rows} <= {t.value for t in TaskType}
        # Explicit-feedback tasks have very low false-positive rates (§7.1).
        for task_type in (TaskType.IMAGE, TaskType.STYLE_SHEET):
            assert report.for_type(task_type).false_positive_rate < 0.10

    def test_report_ignores_non_testbed_measurements(self, detection_result, soundness_deployment):
        report = build_soundness_report(
            detection_result.collection.store, soundness_deployment.testbed
        )
        assert report.total_measurements == 0


class TestFormatTable:
    def test_renders_headers_and_rows(self):
        text = format_table(["name", "count"], [["youtube", 10], ["twitter", 2]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "youtube" in lines[2]

    def test_pads_columns_to_widest_cell(self):
        text = format_table(["x"], [["a-very-long-value"]])
        header, rule, row = text.splitlines()
        assert len(header) == len(row)


class TestTimelineReportAggregates:
    """The empty/all-miss aggregate contract the quality gate relies on."""

    def event(self, *, change_day, detected_day, kind="onset"):
        return CensorshipEvent(
            domain="facebook.com", country_code="DE", kind=kind,
            change_day=change_day, detected_day=detected_day,
            statistic=5.0, confidence=0.99,
        )

    def miss(self, day=4):
        return TransitionMatch(day=day, country_code="DE", domain="facebook.com", kind="onset")

    def test_empty_report_has_no_lag_not_zero_lag(self):
        # Regression: a transition-free (or all-miss) report used to answer
        # mean_detection_lag == 0.0, which reads as *instant* detection and
        # would poison any trend gate comparing against it.
        report = TimelineReport()
        assert report.mean_detection_lag is None
        assert report.detection_rate == 0.0
        assert report.miss_rate == 0.0
        assert report.lag_cdf() == {"p50": None, "p90": None, "max": None}

    def test_all_miss_report_has_no_lag(self):
        report = TimelineReport(matches=[self.miss(4), self.miss(9)])
        assert report.mean_detection_lag is None
        assert report.miss_rate == 1.0
        assert report.quality_summary()["lag_p90"] is None
        assert report.quality_summary()["mean_lag_days"] is None

    def test_quality_summary_is_json_safe_when_empty(self):
        import json

        payload = TimelineReport().quality_summary()
        assert json.loads(json.dumps(payload)) == payload

    def test_detected_lags_skip_misses(self):
        report = TimelineReport(matches=[
            TransitionMatch(day=4, country_code="DE", domain="facebook.com",
                            kind="onset", event=self.event(change_day=4, detected_day=5)),
            self.miss(9),
            TransitionMatch(day=12, country_code="DE", domain="facebook.com",
                            kind="offset",
                            event=self.event(change_day=13, detected_day=15, kind="offset")),
        ])
        assert report.detected_lags == [1, 3]
        assert report.mean_detection_lag == 2.0
        cdf = report.lag_cdf()
        assert cdf["max"] == 3.0
        assert cdf["p50"] == 2.0
        summary = report.quality_summary()
        assert summary["change_day_error_mean_abs"] == 0.5
        assert summary["change_day_error_max_abs"] == 1
        assert summary["detection_rate"] == pytest.approx(2 / 3)
