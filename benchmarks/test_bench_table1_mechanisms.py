"""Table 1 — measurement-task mechanisms and their applicability limits.

Regenerates the content of Table 1 empirically: for each of the four task
types, run it against resources that satisfy its constraints (expected to
give conclusive, correct feedback) and against resources that violate them
(expected to be rejected by the generator or to give no useful signal), and
report the resulting applicability matrix.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reports import format_table
from repro.browser.engine import Browser
from repro.browser.profiles import BrowserProfile
from repro.core.task_generation import TaskGenerationLimits, TaskGenerator
from repro.core.tasks import MeasurementTask, TaskOutcome, TaskType, execute_task
from repro.netsim.latency import LinkQuality
from repro.netsim.network import Network
from repro.web.har import HAR, HAREntry
from repro.web.resources import ContentType, KILOBYTE, Resource
from repro.web.server import WebUniverse
from repro.web.sites import Site
from repro.web.url import URL


def build_universe() -> WebUniverse:
    universe = WebUniverse()
    site = Site("table1.org")
    base = URL.parse("http://table1.org/")
    site.add(Resource(base.with_path("/favicon.ico"), ContentType.IMAGE, 600,
                      cacheable=True, cache_ttl_s=3600))
    site.add(Resource(base.with_path("/huge.png"), ContentType.IMAGE, 500 * KILOBYTE))
    site.add(Resource(base.with_path("/style.css"), ContentType.STYLESHEET, 1800,
                      cacheable=True, cache_ttl_s=3600))
    site.add(Resource(base.with_path("/empty.css"), ContentType.STYLESHEET, 0))
    site.add(Resource(base.with_path("/app.js"), ContentType.SCRIPT, 2500, nosniff=True))
    small_page = Resource(base.with_path("/small.html"), ContentType.HTML, 8 * KILOBYTE,
                          embedded_urls=(base.with_path("/favicon.ico"),))
    site.add(small_page)
    big_page = Resource(base.with_path("/big.html"), ContentType.HTML, 40 * KILOBYTE,
                        embedded_urls=(base.with_path("/huge.png"),))
    site.add(big_page)
    universe.add_site(site)
    return universe


def chrome_browser(universe: WebUniverse) -> Browser:
    return Browser(BrowserProfile.chrome(), LinkQuality(rtt_ms=60, jitter_ms=0, loss_rate=0),
                   Network(universe), np.random.default_rng(0))


def firefox_browser(universe: WebUniverse) -> Browser:
    return Browser(BrowserProfile.firefox(), LinkQuality(rtt_ms=60, jitter_ms=0, loss_rate=0),
                   Network(universe), np.random.default_rng(0))


def run_matrix() -> list[list[str]]:
    universe = build_universe()
    rows: list[list[str]] = []

    image_ok = execute_task(
        MeasurementTask.new(TaskType.IMAGE, "http://table1.org/favicon.ico"),
        chrome_browser(universe))
    rows.append(["Images", "small image", image_ok.outcome.value, "only small images"])

    sheet_ok = execute_task(
        MeasurementTask.new(TaskType.STYLE_SHEET, "http://table1.org/style.css"),
        chrome_browser(universe))
    sheet_empty = execute_task(
        MeasurementTask.new(TaskType.STYLE_SHEET, "http://table1.org/empty.css"),
        chrome_browser(universe))
    rows.append(["Style sheets", "non-empty sheet", sheet_ok.outcome.value,
                 "only non-empty style sheets"])
    rows.append(["Style sheets", "empty sheet", sheet_empty.outcome.value,
                 "(cannot be verified)"])

    iframe_ok = execute_task(
        MeasurementTask.new(TaskType.INLINE_FRAME, "http://table1.org/small.html",
                            probe_image_url="http://table1.org/favicon.ico"),
        chrome_browser(universe))
    rows.append(["Inline frames", "small page w/ cacheable image", iframe_ok.outcome.value,
                 "only small pages with cacheable images"])

    script_chrome = execute_task(
        MeasurementTask.new(TaskType.SCRIPT, "http://table1.org/app.js"),
        chrome_browser(universe))
    script_firefox = execute_task(
        MeasurementTask.new(TaskType.SCRIPT, "http://table1.org/app.js"),
        firefox_browser(universe))
    rows.append(["Scripts", "Chrome client", script_chrome.outcome.value, "only with Chrome"])
    rows.append(["Scripts", "non-Chrome client", script_firefox.outcome.value,
                 "(unsupported elsewhere)"])
    return rows


class TestTable1:
    def test_mechanism_matrix(self, benchmark):
        rows = benchmark(run_matrix)
        by_case = {(r[0], r[1]): r[2] for r in rows}
        assert by_case[("Images", "small image")] == TaskOutcome.SUCCESS.value
        assert by_case[("Style sheets", "non-empty sheet")] == TaskOutcome.SUCCESS.value
        assert by_case[("Style sheets", "empty sheet")] == TaskOutcome.FAILURE.value
        assert by_case[("Inline frames", "small page w/ cacheable image")] == TaskOutcome.SUCCESS.value
        assert by_case[("Scripts", "Chrome client")] == TaskOutcome.SUCCESS.value
        assert by_case[("Scripts", "non-Chrome client")] == TaskOutcome.INCONCLUSIVE.value
        print()
        print(format_table(["mechanism", "case", "outcome", "limitation"], rows))

    def test_generator_enforces_table1_limits(self):
        """The Task Generator rejects resources that violate Table 1's limits."""
        universe = build_universe()
        generator = TaskGenerator(TaskGenerationLimits(max_image_bytes=KILOBYTE))

        big_image_har = HAR(page_url=URL.parse("http://table1.org/big.html"))
        big_image_har.add(HAREntry(URL.parse("http://table1.org/big.html"), 200,
                                   ContentType.HTML, 40 * KILOBYTE, 10.0))
        big_image_har.add(HAREntry(URL.parse("http://table1.org/huge.png"), 200,
                                   ContentType.IMAGE, 500 * KILOBYTE, 10.0))
        tasks = generator.domain_tasks("table1.org", [big_image_har])
        assert not any(t.task_type is TaskType.IMAGE for t in tasks)

        heavy_page_har = HAR(page_url=URL.parse("http://table1.org/big.html"))
        heavy_page_har.add(HAREntry(URL.parse("http://table1.org/huge.png"), 200,
                                    ContentType.IMAGE, 500 * KILOBYTE, 10.0, cacheable=True))
        assert generator.page_tasks(heavy_page_har) == []
