"""Measurement tasks: the four mechanisms of Table 1 and their execution.

A measurement task is a small, self-contained snippet that a client's browser
runs after rendering the origin page.  It attempts to load one cross-origin
resource from a measurement target and reports whether the load succeeded.
Four mechanisms are available, each with different applicability constraints
and feedback quality (paper §4.2–§4.3, Table 1):

* **Images** — embed with ``<img>``; ``onload``/``onerror`` give explicit
  feedback, but only image resources can be tested and tasks should keep them
  small.
* **Style sheets** — load the sheet and verify its effect via
  ``getComputedStyle``; only non-empty style sheets.
* **Inline frames** — load a whole page in a hidden iframe and then time the
  load of an image that page embeds; a fast (cached) load implies the page
  loaded.  Only pages with cacheable images, small pages, pages without side
  effects.
* **Scripts** — load any resource via ``<script>``; Chrome fires ``onload``
  iff the fetch returned HTTP 200, so this works only on Chrome and only for
  targets with strict MIME-type checking.
"""

from __future__ import annotations

import enum
import uuid
from dataclasses import dataclass, replace

from repro.browser.engine import Browser
from repro.browser.events import LoadEvent
from repro.web.url import URL

#: An image that loads within this many milliseconds after its page was
#: rendered in an iframe is considered to have come from the browser cache
#: (paper §7.1, Fig. 7: cached images load within tens of milliseconds while
#: uncached loads take at least ~50 ms longer).
CACHED_PROBE_THRESHOLD_MS = 50.0


class TaskType(enum.Enum):
    """The four measurement mechanisms of Table 1."""

    IMAGE = "image"
    STYLE_SHEET = "style_sheet"
    INLINE_FRAME = "inline_frame"
    SCRIPT = "script"

    @property
    def gives_explicit_feedback(self) -> bool:
        """Image, style sheet, and script tasks give explicit binary feedback;
        the inline-frame task infers the outcome from timing (paper §7.1)."""
        return self is not TaskType.INLINE_FRAME

    @property
    def requires_chrome(self) -> bool:
        return self is TaskType.SCRIPT

    @property
    def tests_whole_pages(self) -> bool:
        """Whether the mechanism can test arbitrary Web pages rather than
        auxiliary resources."""
        return self in (TaskType.INLINE_FRAME, TaskType.SCRIPT)


class TaskOutcome(enum.Enum):
    """What a task reports back to the collection server."""

    SUCCESS = "success"
    FAILURE = "failure"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MeasurementTask:
    """A concrete measurement task ready for delivery to a client.

    ``measurement_id`` links every submission of the same logical measurement
    (paper Appendix A); ``target_domain`` is the domain whose filtering the
    task measures, which is what the inference stage aggregates over.
    """

    measurement_id: str
    task_type: TaskType
    target_url: URL
    target_domain: str
    #: For inline-frame tasks: the cacheable image embedded by the target page
    #: whose load time is the success signal.
    probe_image_url: URL | None = None
    #: Rough number of bytes the task causes the client to transfer, used for
    #: the §6.3 overhead accounting.
    estimated_overhead_bytes: int = 0
    category: str = "uncategorised"

    def __post_init__(self) -> None:
        if self.task_type is TaskType.INLINE_FRAME and self.probe_image_url is None:
            raise ValueError("inline-frame tasks need a probe image URL")

    @classmethod
    def new(
        cls,
        task_type: TaskType,
        target_url: URL | str,
        probe_image_url: URL | str | None = None,
        estimated_overhead_bytes: int = 0,
        category: str = "uncategorised",
        measurement_id: str | None = None,
    ) -> "MeasurementTask":
        """Create a task; without ``measurement_id`` it gets a fresh uuid4.

        A deployment re-mints the ids of the tasks it schedules with
        :func:`mint_measurement_ids`, so the uuid4 default only stands for
        tasks built outside one.
        """
        url = target_url if isinstance(target_url, URL) else URL.parse(target_url)
        probe = (
            probe_image_url
            if isinstance(probe_image_url, URL) or probe_image_url is None
            else URL.parse(probe_image_url)
        )
        return cls(
            measurement_id=measurement_id or uuid.uuid4().hex,
            task_type=task_type,
            target_url=url,
            target_domain=url.domain,
            probe_image_url=probe,
            estimated_overhead_bytes=estimated_overhead_bytes,
            category=category,
        )

    def runnable_by(self, browser_profile) -> bool:
        """Whether a client with ``browser_profile`` can run this task."""
        if not browser_profile.javascript_enabled:
            return False
        if self.task_type is TaskType.SCRIPT:
            return browser_profile.supports_script_task
        if self.task_type is TaskType.STYLE_SHEET:
            return browser_profile.supports_computed_style_check
        return True


def mint_measurement_ids(
    *task_lists: list[MeasurementTask],
) -> list[list[MeasurementTask]]:
    """The task lists with every distinct task's id minted from its position.

    Tasks are numbered in order of first appearance across ``task_lists``
    (a task object listed twice keeps one id), so the ids depend on that
    order alone: any process that builds the same deployment holds the
    same ids without being sent them.
    """
    minted: dict[int, MeasurementTask] = {}
    renamed = []
    for tasks in task_lists:
        for task in tasks:
            if id(task) not in minted:
                minted[id(task)] = replace(task, measurement_id=f"task-{len(minted):05d}")
        renamed.append([minted[id(task)] for task in tasks])
    return renamed


@dataclass(frozen=True)
class TaskResult:
    """The result a client submits after running a task."""

    measurement_id: str
    task_type: TaskType
    target_url: URL
    target_domain: str
    outcome: TaskOutcome
    elapsed_ms: float
    #: For inline-frame tasks, the probe image's observed load time.
    probe_time_ms: float | None = None
    detail: str = ""

    @property
    def succeeded(self) -> bool:
        return self.outcome is TaskOutcome.SUCCESS

    @property
    def failed(self) -> bool:
        return self.outcome is TaskOutcome.FAILURE


# ----------------------------------------------------------------------
# Task execution
# ----------------------------------------------------------------------
def _execute_image(task: MeasurementTask, browser: Browser) -> TaskResult:
    load = browser.load_image(task.target_url)
    if load.event is LoadEvent.NONE:
        outcome = TaskOutcome.INCONCLUSIVE
    else:
        outcome = TaskOutcome.SUCCESS if load.succeeded else TaskOutcome.FAILURE
    return TaskResult(
        measurement_id=task.measurement_id,
        task_type=task.task_type,
        target_url=task.target_url,
        target_domain=task.target_domain,
        outcome=outcome,
        elapsed_ms=load.elapsed_ms,
        detail="from_cache" if load.from_cache else "",
    )


def _execute_stylesheet(task: MeasurementTask, browser: Browser) -> TaskResult:
    load = browser.load_stylesheet(task.target_url)
    if not load.conclusive:
        outcome = TaskOutcome.INCONCLUSIVE
    else:
        outcome = TaskOutcome.SUCCESS if load.applied else TaskOutcome.FAILURE
    return TaskResult(
        measurement_id=task.measurement_id,
        task_type=task.task_type,
        target_url=task.target_url,
        target_domain=task.target_domain,
        outcome=outcome,
        elapsed_ms=load.elapsed_ms,
    )


def _execute_script(task: MeasurementTask, browser: Browser) -> TaskResult:
    if not browser.profile.supports_script_task:
        # The scheduler should never send a script task to a non-Chrome
        # client; if it happens anyway, report an inconclusive result rather
        # than risking arbitrary execution semantics.
        return TaskResult(
            measurement_id=task.measurement_id,
            task_type=task.task_type,
            target_url=task.target_url,
            target_domain=task.target_domain,
            outcome=TaskOutcome.INCONCLUSIVE,
            elapsed_ms=0.0,
            detail="browser_unsupported",
        )
    load = browser.load_script(task.target_url)
    outcome = TaskOutcome.SUCCESS if load.succeeded else TaskOutcome.FAILURE
    return TaskResult(
        measurement_id=task.measurement_id,
        task_type=task.task_type,
        target_url=task.target_url,
        target_domain=task.target_domain,
        outcome=outcome,
        elapsed_ms=load.elapsed_ms,
    )


def _execute_inline_frame(
    task: MeasurementTask, browser: Browser, cached_threshold_ms: float
) -> TaskResult:
    probe = browser.iframe_probe(task.target_url, task.probe_image_url)
    if probe.probe_event is LoadEvent.ERROR:
        # The probe image itself failed to load; we cannot tell whether the
        # page was filtered or the image is simply unreachable.
        outcome = TaskOutcome.FAILURE
        detail = "probe_error"
    elif probe.probe_time_ms <= cached_threshold_ms:
        outcome = TaskOutcome.SUCCESS
        detail = "probe_cached"
    else:
        outcome = TaskOutcome.FAILURE
        detail = "probe_uncached"
    return TaskResult(
        measurement_id=task.measurement_id,
        task_type=task.task_type,
        target_url=task.target_url,
        target_domain=task.target_domain,
        outcome=outcome,
        elapsed_ms=probe.iframe_elapsed_ms + probe.probe_time_ms,
        probe_time_ms=probe.probe_time_ms,
        detail=detail,
    )


def execute_task(
    task: MeasurementTask,
    browser: Browser,
    cached_threshold_ms: float = CACHED_PROBE_THRESHOLD_MS,
) -> TaskResult:
    """Run ``task`` inside ``browser`` and return the result it would submit."""
    if task.task_type is TaskType.IMAGE:
        return _execute_image(task, browser)
    if task.task_type is TaskType.STYLE_SHEET:
        return _execute_stylesheet(task, browser)
    if task.task_type is TaskType.SCRIPT:
        return _execute_script(task, browser)
    if task.task_type is TaskType.INLINE_FRAME:
        return _execute_inline_frame(task, browser, cached_threshold_ms)
    raise ValueError(f"unknown task type {task.task_type!r}")


# ----------------------------------------------------------------------
# Client-side code generation (what the coordination server actually serves)
# ----------------------------------------------------------------------
def origin_embed_html(coordination_url: URL | str) -> str:
    """The one-line snippet a webmaster adds to their page (paper §5.4).

    The prototype "adds only 100 bytes to each origin page and requires no
    additional requests or connections between the client and the origin
    server" (§6.3).
    """
    url = coordination_url if isinstance(coordination_url, URL) else URL.parse(coordination_url)
    return f'<script src="//{url.host}{url.path}" async></script>'


def measurement_snippet_js(task: MeasurementTask, collection_url: URL | str) -> str:
    """JavaScript for ``task``, in the style of the paper's Appendix A.

    The coordination server would minify and obfuscate this before serving
    it; the readable form is what the tests assert against.
    """
    collector = (
        collection_url if isinstance(collection_url, URL) else URL.parse(collection_url)
    )
    submit = (
        f"function submit(state) {{\n"
        f"  $.ajax({{url: '//{collector.host}{collector.path}"
        f"?cmh-id={task.measurement_id}&cmh-result=' + state}});\n"
        f"}}"
    )
    target = f"//{task.target_url.host}{task.target_url.path}"
    if task.task_type is TaskType.IMAGE:
        body = (
            f"var img = $('<img>');\n"
            f"img.attr('src', '{target}');\n"
            f"img.style('display', 'none');\n"
            f"img.on('load', function() {{ submit('success'); }});\n"
            f"img.on('error', function() {{ submit('failure'); }});\n"
            f"img.appendTo('html');"
        )
    elif task.task_type is TaskType.STYLE_SHEET:
        body = (
            f"var frame = hiddenIframe();\n"
            f"loadStylesheet(frame, '{target}');\n"
            f"checkComputedStyle(frame, function(applied) {{\n"
            f"  submit(applied ? 'success' : 'failure');\n"
            f"}});"
        )
    elif task.task_type is TaskType.SCRIPT:
        body = (
            f"var script = $('<script>');\n"
            f"script.attr('src', '{target}');\n"
            f"script.on('load', function() {{ submit('success'); }});\n"
            f"script.on('error', function() {{ submit('failure'); }});\n"
            f"script.appendTo('html');"
        )
    else:
        probe = f"//{task.probe_image_url.host}{task.probe_image_url.path}"
        body = (
            f"var frame = hiddenIframe();\n"
            f"frame.attr('src', '{target}');\n"
            f"frame.on('load', function() {{\n"
            f"  timeImageLoad('{probe}', function(elapsedMs) {{\n"
            f"    submit(elapsedMs <= {CACHED_PROBE_THRESHOLD_MS} ? 'success' : 'failure');\n"
            f"  }});\n"
            f"}});"
        )
    return (
        f"// Encore measurement task {task.measurement_id}\n"
        f"{submit}\n"
        f"submit('init');\n"
        f"{body}\n"
    )
