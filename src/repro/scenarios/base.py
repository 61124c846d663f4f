"""The scenario-suite registry and the QUALITY artifact schema.

A *scenario suite* is a named, seeded, end-to-end composition of existing
engines — a longitudinal campaign against a scripted
:class:`~repro.censor.policy.PolicyTimeline`, an
:class:`~repro.core.robustness.AdversarySweep` over an honest campaign —
that reduces to one dict of **quality metrics**: how fast and how
accurately the detectors recovered the scripted ground truth (detection-lag
CDFs, false alarms, miss rates, attack success).  Suites register here and
are executed through :mod:`repro.scenarios.runner` (front door:
``python -m repro.scenarios run <suite|all>``).

Every suite's report is wrapped by :func:`quality_payload` into the
``repro-quality/1`` schema and written as ``QUALITY_<suite>.json`` via the
sanctioned atomic writer.  The payloads carry **no timestamps or
durations** — only seeded, deterministic detection quality — so a suite's
artifact is byte-identical run to run (a property the tests pin under
:class:`~repro.obs.clock.FrozenClock`) and ``benchmarks/check_quality.py``
can trend-gate the fields exactly like ``check_regression.py`` gates the
BENCH speedups.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

#: Schema tag stamped into every QUALITY artifact.
QUALITY_SCHEMA = "repro-quality/1"

#: Suite names are kebab-case: they become artifact filenames and CLI args.
_NAME_RE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")

_REGISTRY: dict[str, "Scenario"] = {}
_LOADED = False


@dataclass(frozen=True)
class Scenario:
    """One registered suite: identity, seed, and the composition to run."""

    #: Kebab-case suite name (CLI selector and artifact filename stem).
    name: str
    #: One-line catalog entry (also embedded in the QUALITY payload).
    description: str
    #: The seed the composition derives every campaign/world/sweep seed from.
    seed: int
    #: Workload family: ``"longitudinal"``, ``"throttle"``, or ``"adversarial"``.
    kind: str
    #: Runs the composition; receives a tracer (``NULL_TRACER`` by default)
    #: and returns the suite's quality metric dict.
    build: Callable[..., dict]
    #: Small enough for the CI fast lane's smoke gate.
    smoke: bool = False


def register(scenario: Scenario) -> Scenario:
    """Add a suite to the registry (suite modules call this at import)."""
    if not _NAME_RE.match(scenario.name):
        raise ValueError(f"scenario suite names are kebab-case: {scenario.name!r}")
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario suite {scenario.name!r} registered twice")
    _REGISTRY[scenario.name] = scenario
    return scenario


def _load_suites() -> None:
    """Import the suite modules for their registration side effects."""
    global _LOADED
    if _LOADED:
        return
    # repro-lint: disable=unused-import -- each suite module registers itself on import
    from repro.scenarios import (
        adversarial_suites,
        longitudinal_suites,
        throttle_suite,
    )

    _LOADED = True


def registered_suites() -> tuple[str, ...]:
    """Every registered suite name, sorted — the ``run all`` order."""
    _load_suites()
    return tuple(sorted(_REGISTRY))


def get_suite(name: str) -> Scenario:
    _load_suites()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario suite {name!r} (registered: {known})")


def quality_filename(suite: str) -> str:
    """The artifact filename one suite's quality report is written under."""
    return f"QUALITY_{suite}.json"


def quality_payload(scenario: Scenario, quality: dict) -> dict:
    """Wrap a suite's metrics in the versioned QUALITY artifact schema.

    Deliberately timestamp-free: the payload must be byte-identical across
    runs of the same suite + seed, so it carries only identity fields and
    the seeded quality metrics.
    """
    return {
        "schema": QUALITY_SCHEMA,
        "suite": scenario.name,
        "kind": scenario.kind,
        "seed": scenario.seed,
        "description": scenario.description,
        "quality": quality,
    }


def quality_diff(before: dict, after: dict) -> dict:
    """Field-by-field comparison of two QUALITY payloads (one suite).

    The quality sibling of ``python -m repro.obs diff``: every scalar field
    of the ``quality`` section gets a before/after entry plus a numeric
    ``delta`` where both sides are numbers; ``changed`` lists the fields
    whose value moved, so a reviewer can scan a PR's quality deltas without
    eyeballing whole artifacts.
    """
    b = before.get("quality", {}) if isinstance(before, dict) else {}
    a = after.get("quality", {}) if isinstance(after, dict) else {}
    fields: dict[str, dict] = {}
    changed: list[str] = []
    for name in sorted(set(b) | set(a)):
        old, new = b.get(name), a.get(name)
        if isinstance(old, (dict, list)) or isinstance(new, (dict, list)):
            continue  # nested detail (per-budget cells etc.) — not trended
        entry: dict[str, object] = {"before": old, "after": new}
        if (
            isinstance(old, (int, float))
            and isinstance(new, (int, float))
            and not isinstance(old, bool)
            and not isinstance(new, bool)
        ):
            entry["delta"] = round(new - old, 6)
        if old != new:
            changed.append(name)
        fields[name] = entry
    return {
        "suite": after.get("suite", before.get("suite")),
        "fields": fields,
        "changed": changed,
    }
