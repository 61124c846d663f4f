"""Encore itself: the paper's primary contribution.

The core package turns a list of potentially censored URL patterns into
measurement tasks (``task_generation``), schedules and delivers those tasks
to visiting clients (``scheduler``, ``coordination``), executes them inside
client browsers (``tasks``), collects the results (``collection``), and
infers Web filtering from the collected measurements (``inference``).
``pipeline`` wires the stages into a runnable deployment.
"""

from repro.core.tasks import (
    CACHED_PROBE_THRESHOLD_MS,
    MeasurementTask,
    TaskOutcome,
    TaskResult,
    TaskType,
    execute_task,
    measurement_snippet_js,
    origin_embed_html,
)
from repro.core.targets import TargetList, deployment_phases
from repro.core.task_generation import (
    DomainAmenability,
    FeasibilityReport,
    PageStatistics,
    PatternExpander,
    TargetFetcher,
    TaskGenerationLimits,
    TaskGenerationPipeline,
    TaskGenerator,
)
from repro.core.scheduler import Scheduler, TaskPool
from repro.core.coordination import CoordinationServer
from repro.core.collection import CollectionServer, Measurement
from repro.core.store import DaySeries, MeasurementStore
from repro.core.query import (
    Count,
    DistinctCount,
    Quantiles,
    QueryResult,
    SuccessCount,
    distinct_ip_count,
    grouped_success_counts,
    masked_grouped_success_counts,
    run_query,
    timing_day_series,
)
from repro.core.inference import (
    AdaptiveFilteringDetector,
    BinomialFilteringDetector,
    CensorshipEvent,
    CusumChangePointDetector,
    FilteringDetection,
    TimingCusumDetector,
)
from repro.core.longitudinal import (
    LongitudinalConfig,
    LongitudinalEngine,
    LongitudinalResult,
)
from repro.core.robustness import (
    AdaptiveReputationFilter,
    AdversarySweep,
    PoisoningAttacker,
    PoisoningCampaign,
    ReputationFilter,
    SweepCell,
)
from repro.core.origin import OriginSite, snippet_overhead_bytes
from repro.core.pipeline import CampaignConfig, CampaignResult, EncoreDeployment
from repro.core.shard import (
    ShardAssignment,
    ShardPlanner,
    ShardProgress,
    StoreMerger,
    run_sharded,
)

__all__ = [
    "CACHED_PROBE_THRESHOLD_MS",
    "MeasurementTask",
    "TaskOutcome",
    "TaskResult",
    "TaskType",
    "execute_task",
    "measurement_snippet_js",
    "origin_embed_html",
    "TargetList",
    "deployment_phases",
    "DomainAmenability",
    "FeasibilityReport",
    "PageStatistics",
    "PatternExpander",
    "TargetFetcher",
    "TaskGenerationLimits",
    "TaskGenerationPipeline",
    "TaskGenerator",
    "Scheduler",
    "TaskPool",
    "CoordinationServer",
    "CollectionServer",
    "Measurement",
    "MeasurementStore",
    "DaySeries",
    "Count",
    "DistinctCount",
    "Quantiles",
    "QueryResult",
    "SuccessCount",
    "distinct_ip_count",
    "grouped_success_counts",
    "masked_grouped_success_counts",
    "run_query",
    "timing_day_series",
    "AdaptiveFilteringDetector",
    "BinomialFilteringDetector",
    "CensorshipEvent",
    "CusumChangePointDetector",
    "FilteringDetection",
    "TimingCusumDetector",
    "LongitudinalConfig",
    "LongitudinalEngine",
    "LongitudinalResult",
    "AdaptiveReputationFilter",
    "AdversarySweep",
    "PoisoningAttacker",
    "PoisoningCampaign",
    "ReputationFilter",
    "SweepCell",
    "OriginSite",
    "snippet_overhead_bytes",
    "CampaignConfig",
    "CampaignResult",
    "EncoreDeployment",
    "ShardAssignment",
    "ShardPlanner",
    "ShardProgress",
    "StoreMerger",
    "run_sharded",
]
