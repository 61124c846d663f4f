"""Experiment report builders.

These helpers condense raw measurements into the summaries the paper reports:
the per-task-type soundness numbers of §7.1 (false positives and negatives
against the testbed's known ground truth), the longitudinal scorecard that
grades detected censorship onsets/offsets against a scripted
:class:`~repro.censor.policy.PolicyTimeline`, and simple fixed-width tables
the benchmark harness prints so its output reads like the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.censor.policy import PolicyTimeline
from repro.censor.testbed import CensorshipTestbed
from repro.core.collection import Measurement
from repro.core.inference import CensorshipEvent
from repro.core.store import OUTCOME_FAILURE, TASK_TYPES, MeasurementStore
from repro.core.tasks import TaskOutcome, TaskType


@dataclass
class TaskTypeSoundness:
    """Confusion counts for one task type against testbed ground truth."""

    task_type: TaskType
    true_positives: int = 0
    false_positives: int = 0
    true_negatives: int = 0
    false_negatives: int = 0

    @property
    def measurements(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )

    @property
    def false_positive_rate(self) -> float:
        """Failures reported where no filtering existed (paper: ~5% for images
        from unreliable networks)."""
        denominator = self.false_positives + self.true_negatives
        return self.false_positives / denominator if denominator else 0.0

    @property
    def false_negative_rate(self) -> float:
        """Successes reported where filtering existed."""
        denominator = self.false_negatives + self.true_positives
        return self.false_negatives / denominator if denominator else 0.0

    @property
    def detection_rate(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0


@dataclass
class SoundnessReport:
    """Per-task-type soundness plus overall counts (paper §7.1)."""

    per_task_type: dict[TaskType, TaskTypeSoundness] = field(default_factory=dict)

    @property
    def total_measurements(self) -> int:
        return sum(s.measurements for s in self.per_task_type.values())

    def for_type(self, task_type: TaskType) -> TaskTypeSoundness:
        return self.per_task_type.setdefault(task_type, TaskTypeSoundness(task_type))

    def rows(self) -> list[dict[str, object]]:
        """One row per task type, ready for table formatting."""
        return [
            {
                "task_type": stats.task_type.value,
                "measurements": stats.measurements,
                "detection_rate": round(stats.detection_rate, 3),
                "false_positive_rate": round(stats.false_positive_rate, 3),
                "false_negative_rate": round(stats.false_negative_rate, 3),
            }
            for stats in self.per_task_type.values()
        ]


def build_soundness_report(
    measurements: Iterable[Measurement] | MeasurementStore, testbed: CensorshipTestbed
) -> SoundnessReport:
    """Compare testbed measurements against ground truth (paper §7.1).

    Pass a :class:`~repro.core.store.MeasurementStore`: the confusion
    counts come from one vectorized group-by over the store's code columns
    (ground truth is resolved once per *distinct* testbed URL).  An
    iterable of :class:`Measurement` rows takes the readable per-row walk,
    the reference the columnar path is pinned against.
    """
    if isinstance(measurements, MeasurementStore):
        return _soundness_from_store(measurements, testbed)
    report = SoundnessReport()
    for m in measurements:
        if not m.target_domain.endswith("encore-testbed.net"):
            continue
        if m.is_automated or m.outcome is TaskOutcome.INCONCLUSIVE:
            continue
        expected_filtered = testbed.expected_filtered(m.target_url.host)
        stats = report.for_type(m.task_type)
        reported_filtered = m.failed
        if expected_filtered and reported_filtered:
            stats.true_positives += 1
        elif expected_filtered and not reported_filtered:
            stats.false_negatives += 1
        elif not expected_filtered and reported_filtered:
            stats.false_positives += 1
        else:
            stats.true_negatives += 1
    return report


def _soundness_from_store(store: MeasurementStore, testbed: CensorshipTestbed) -> SoundnessReport:
    """Columnar confusion counts: one bincount over (task, expected, reported)."""
    report = SoundnessReport()
    mask = store.row_mask(domain_suffix="encore-testbed.net")
    if not mask.any():
        return report
    task = store.column("task")[mask].astype(np.int64)
    url = store.column("url")[mask]
    reported_filtered = store.column("outcome")[mask] == OUTCOME_FAILURE
    expected_table = np.zeros(len(store.url_values), dtype=bool)
    for code in np.unique(url).tolist():
        expected_table[code] = testbed.expected_filtered(store.url_values[code].host)
    combined = task * 4 + expected_table[url] * 2 + reported_filtered
    counts = np.bincount(combined, minlength=len(TASK_TYPES) * 4)
    for code, task_type in enumerate(TASK_TYPES):
        tn, fp, fn, tp = (int(c) for c in counts[code * 4 : code * 4 + 4])
        if not (tn or fp or fn or tp):
            continue
        stats = report.for_type(task_type)
        stats.true_negatives = tn
        stats.false_positives = fp
        stats.false_negatives = fn
        stats.true_positives = tp
    return report


@dataclass(frozen=True)
class TransitionMatch:
    """One scripted block/unblock transition and the event that detected it."""

    day: int
    country_code: str
    domain: str
    kind: str
    event: CensorshipEvent | None = None

    @property
    def detected(self) -> bool:
        return self.event is not None

    @property
    def detection_lag(self) -> int | None:
        """Days between the scripted change and its detection (None if missed)."""
        return None if self.event is None else self.event.detected_day - self.day

    @property
    def change_day_error(self) -> int | None:
        """How far the CUSUM change-point estimate landed from the scripted day."""
        return None if self.event is None else self.event.change_day - self.day


@dataclass
class TimelineReport:
    """How well the change-point detector recovered a scripted timeline.

    One :class:`TransitionMatch` per effective hard-block transition of the
    ground-truth :class:`~repro.censor.policy.PolicyTimeline`, plus the
    detector events that matched nothing (false alarms).
    """

    matches: list[TransitionMatch] = field(default_factory=list)
    false_events: list[CensorshipEvent] = field(default_factory=list)

    @property
    def transitions(self) -> int:
        return len(self.matches)

    @property
    def detected_count(self) -> int:
        return sum(1 for match in self.matches if match.detected)

    @property
    def missed_count(self) -> int:
        return self.transitions - self.detected_count

    @property
    def detection_rate(self) -> float:
        return self.detected_count / self.transitions if self.transitions else 0.0

    @property
    def miss_rate(self) -> float:
        return self.missed_count / self.transitions if self.transitions else 0.0

    @property
    def detected_lags(self) -> list[int]:
        """Detection lags of the transitions that were detected, in day order."""
        lags = [match.detection_lag for match in self.matches if match.detected]
        return [lag for lag in lags if lag is not None]

    @property
    def mean_detection_lag(self) -> float | None:
        """Mean days-to-detection over the transitions that were detected.

        ``None`` when nothing was detected: a lag is a property of a
        detection, so an all-miss (or transition-free) report has no lag at
        all — returning 0.0 would read as instant detection and poison any
        trend gate comparing against it.
        """
        lags = self.detected_lags
        if not lags:
            return None
        return sum(lags) / len(lags)

    def lag_cdf(self) -> dict[str, float | None]:
        """CDF-style detection-lag summary: p50 / p90 / max, in days.

        Every value is ``None`` when nothing was detected (the same
        no-detections-means-no-lag convention as :attr:`mean_detection_lag`,
        serialized as JSON ``null`` in QUALITY artifacts).
        """
        lags = np.asarray(self.detected_lags, dtype=np.float64)
        if lags.size == 0:
            return {"p50": None, "p90": None, "max": None}
        return {
            "p50": round(float(np.quantile(lags, 0.5)), 6),
            "p90": round(float(np.quantile(lags, 0.9)), 6),
            "max": float(lags.max()),
        }

    def quality_summary(self) -> dict[str, object]:
        """The trend-gated quality fields of one graded run.

        This is the ``quality`` section of a ``QUALITY_<suite>.json``
        artifact (see ``repro.scenarios``), so both the field set and the
        insertion order are part of a byte-compared contract:
        ``benchmarks/check_quality.py`` hard-gates ``lag_p90`` and
        ``false_alarms`` and trends the rest warn-only.
        """
        lag = self.lag_cdf()
        mean_lag = self.mean_detection_lag
        errors = [
            abs(match.change_day_error)
            for match in self.matches
            if match.change_day_error is not None
        ]
        return {
            "transitions": self.transitions,
            "detected": self.detected_count,
            "missed": self.missed_count,
            "detection_rate": round(self.detection_rate, 6),
            "miss_rate": round(self.miss_rate, 6),
            "false_alarms": len(self.false_events),
            "lag_p50": lag["p50"],
            "lag_p90": lag["p90"],
            "lag_max": lag["max"],
            "mean_lag_days": None if mean_lag is None else round(mean_lag, 6),
            "change_day_error_mean_abs": (
                round(sum(errors) / len(errors), 6) if errors else None
            ),
            "change_day_error_max_abs": max(errors) if errors else None,
        }

    def rows(self) -> list[dict[str, object]]:
        """One row per scripted transition, ready for table formatting."""
        return [
            {
                "day": match.day,
                "country": match.country_code,
                "domain": match.domain,
                "kind": match.kind,
                "detected_day": match.event.detected_day if match.event else "-",
                "lag": match.detection_lag if match.detected else "miss",
                "confidence": (
                    round(match.event.confidence, 3) if match.event else "-"
                ),
            }
            for match in self.matches
        ]

    def format(self) -> str:
        headers = ("day", "country", "domain", "kind", "detected_day", "lag", "confidence")
        return format_table(
            headers, [[row[h] for h in headers] for row in self.rows()]
        )


def build_timeline_report(
    events: Iterable[CensorshipEvent], timeline: PolicyTimeline
) -> TimelineReport:
    """Match detected events against a timeline's scripted transitions.

    ``events`` is any iterable of :class:`CensorshipEvent`.  Transitions are
    matched greedily in day order: each takes the earliest unclaimed event
    of the same (country, domain, kind) detected on or after its scripted
    day — and before the pair's *next* same-kind transition, so a missed
    early transition cannot claim the detection of a later one and corrupt
    the lag statistics.  Events claiming no transition are reported as
    false alarms.
    """
    return _match_transitions(events, timeline.transitions(), {})


def build_throttle_report(
    events: Iterable[CensorshipEvent], timeline: PolicyTimeline
) -> TimelineReport:
    """Match a timing detector's events against scripted throttle transitions.

    The throttling sibling of :func:`build_timeline_report`: ``events`` are
    what :class:`~repro.core.inference.TimingCusumDetector` emitted
    (``"throttle-onset"``/``"throttle-offset"`` kinds), graded against
    :meth:`~repro.censor.policy.PolicyTimeline.throttle_transitions` with
    the same greedy day-ordered matching and false-alarm accounting.
    """
    return _match_transitions(
        events,
        timeline.throttle_transitions(),
        {"throttle": "throttle-onset", "offset": "throttle-offset"},
    )


def _match_transitions(
    events: Iterable[CensorshipEvent], transitions, kind_map: dict[str, str]
) -> TimelineReport:
    """The greedy day-ordered transition/event matcher both reports share.

    ``kind_map`` translates a transition's scripted action into the event
    kind that detects it (missing actions match events of the same name).
    """
    report = TimelineReport()
    remaining = list(events)

    def kind_of(transition) -> str:
        return kind_map.get(transition.action, transition.action)

    def claim_window_end(index: int) -> float:
        this = transitions[index]
        for later in transitions[index + 1:]:
            if (
                later.country_code == this.country_code
                and later.domain == this.domain
                and later.action == this.action
            ):
                return later.day
        return float("inf")

    for index, transition in enumerate(transitions):
        window_end = claim_window_end(index)
        candidates = [
            event
            for event in remaining
            if event.domain == transition.domain
            and event.country_code == transition.country_code
            and event.kind == kind_of(transition)
            and transition.day <= event.detected_day < window_end
        ]
        match = min(candidates, key=lambda e: e.detected_day, default=None)
        if match is not None:
            remaining.remove(match)
        report.matches.append(
            TransitionMatch(
                day=transition.day,
                country_code=transition.country_code,
                domain=transition.domain,
                kind=kind_of(transition),
                event=match,
            )
        )
    report.false_events = remaining
    return report


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table (used by benchmark output)."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))
    lines = [render_row(list(headers)), render_row(["-" * w for w in widths])]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)
