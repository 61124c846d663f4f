"""repro: a reproduction of Encore (Burnett & Feamster, SIGCOMM 2015).

Encore measures Web censorship by inducing unmodified browsers to issue
cross-origin requests to potentially filtered resources and observing the
side channels browsers leave open (image ``onload``/``onerror``, style-sheet
effects, cache timing, Chrome's script semantics).  This package implements
the full system — measurement tasks, the task-generation pipeline,
scheduling, coordination and collection servers, and the statistical
filtering-detection algorithm — together with the simulated substrates the
offline reproduction needs: a synthetic Web, a network stack with censors, a
browser model, and a global client population.

Measurements are stored columnar: the collection server keeps the corpus in
a struct-of-arrays :class:`~repro.core.store.MeasurementStore` (in memory,
or in the ``.npz`` segments a sharded campaign's workers commit), and the
analysis queries it with row masks and grouped reductions instead of
looping over row lists.

Quick start::

    from repro import EncoreDeployment

    deployment = EncoreDeployment.detection_experiment(seed=1, visits=2000)
    result = deployment.run_campaign()
    report = result.detect()
    for detection in report.detections:
        print(detection.domain, detection.country_code, detection.p_value)

    # Columnar queries over the collected corpus (no row materialization):
    from repro.core.query import grouped_success_counts

    store = result.collection.store
    counts = grouped_success_counts(store).as_dict()
    n, ok = counts[("youtube.com", "PK")]
    print(n, ok / n)
    for (domain, country), (n, ok) in store.query().as_dict().items():
        print(domain, country, n, ok)

Longitudinal monitoring — the paper's headline workload — runs a campaign
as epochs over simulated days against a scripted time-varying censor policy
and detects censorship onsets/offsets online::

    from repro import LongitudinalConfig, PolicyTimeline

    timeline = PolicyTimeline().onset(6, "DE", "facebook.com")
    result = deployment.run_longitudinal(timeline, LongitudinalConfig(epochs=20))
    for event in result.events():          # vectorized CUSUM change points
        print(event.kind, event.domain, event.country_code, event.detection_lag)
    print(result.timeline_report().format())
"""

from repro.censor.policy import PolicyTimeline
from repro.core import (
    BinomialFilteringDetector,
    CampaignConfig,
    CampaignResult,
    CensorshipEvent,
    CollectionServer,
    CoordinationServer,
    CusumChangePointDetector,
    EncoreDeployment,
    FilteringDetection,
    LongitudinalConfig,
    LongitudinalResult,
    Measurement,
    MeasurementStore,
    MeasurementTask,
    Scheduler,
    TargetList,
    TaskGenerationLimits,
    TaskGenerationPipeline,
    TaskOutcome,
    TaskPool,
    TaskResult,
    TaskType,
    TimingCusumDetector,
    execute_task,
)
from repro.population.world import World, WorldConfig

__version__ = "0.1.0"

__all__ = [
    "BinomialFilteringDetector",
    "CampaignConfig",
    "CampaignResult",
    "CensorshipEvent",
    "CollectionServer",
    "CoordinationServer",
    "CusumChangePointDetector",
    "EncoreDeployment",
    "FilteringDetection",
    "LongitudinalConfig",
    "LongitudinalResult",
    "Measurement",
    "PolicyTimeline",
    "MeasurementStore",
    "MeasurementTask",
    "Scheduler",
    "TargetList",
    "TaskGenerationLimits",
    "TaskGenerationPipeline",
    "TaskOutcome",
    "TaskPool",
    "TaskResult",
    "TaskType",
    "TimingCusumDetector",
    "execute_task",
    "World",
    "WorldConfig",
    "__version__",
]
