"""Tests for the individual DNS / TCP / HTTP stage models."""

import numpy as np

from repro.censor.mechanisms import Censor, FilteringMechanism
from repro.censor.policy import BlacklistPolicy
from repro.netsim.dns import DNSAction, DNSResolver, INJECTED_SINKHOLE_IP
from repro.netsim.http import HTTPAction, HTTPExchangeModel
from repro.netsim.latency import LinkQuality
from repro.netsim.tcp import TCPAction, TCPConnectionModel
from repro.web.resources import ContentType, Resource
from repro.web.server import WebUniverse
from repro.web.sites import Site
from repro.web.url import URL


def build_universe():
    universe = WebUniverse()
    site = Site("target.org")
    site.add(Resource(URL.parse("http://target.org/favicon.ico"), ContentType.IMAGE, 500))
    universe.add_site(site)
    return universe


def censor(mechanism, domain="target.org"):
    return Censor("test", BlacklistPolicy.for_domains([domain]), mechanism)


class TestDNSResolver:
    def test_resolves_known_host(self):
        universe = build_universe()
        resolver = DNSResolver(universe)
        result = resolver.resolve("target.org")
        assert result.resolved
        assert result.ip_address == universe.ip_for_host("target.org")

    def test_unknown_host_is_nxdomain(self):
        resolver = DNSResolver(build_universe())
        result = resolver.resolve("missing.net")
        assert result.action is DNSAction.NXDOMAIN
        assert not result.resolved

    def test_extra_records(self):
        resolver = DNSResolver(build_universe())
        resolver.add_record("extra.net", "5.6.7.8")
        assert resolver.authoritative_ip("extra.net") == "5.6.7.8"
        assert resolver.resolve("extra.net").ip_address == "5.6.7.8"

    def test_nxdomain_censor_wins(self):
        resolver = DNSResolver(build_universe())
        result = resolver.resolve("target.org", [censor(FilteringMechanism.DNS_NXDOMAIN)])
        assert result.action is DNSAction.NXDOMAIN

    def test_injection_censor_returns_sinkhole(self):
        resolver = DNSResolver(build_universe())
        result = resolver.resolve("target.org", [censor(FilteringMechanism.DNS_INJECTION)])
        assert result.action is DNSAction.INJECT
        assert result.ip_address == INJECTED_SINKHOLE_IP

    def test_uninterested_censor_passes(self):
        resolver = DNSResolver(build_universe())
        result = resolver.resolve(
            "target.org", [censor(FilteringMechanism.DNS_NXDOMAIN, domain="other.org")]
        )
        assert result.resolved


class TestTCPConnectionModel:
    def test_clean_connect(self):
        model = TCPConnectionModel()
        result = model.connect("1.1.1.1", "target.org", LinkQuality(rtt_ms=20, jitter_ms=0, loss_rate=0),
                               np.random.default_rng(0))
        assert result.connected
        assert result.elapsed_ms >= 20

    def test_ip_drop_times_out(self):
        model = TCPConnectionModel(timeout_ms=5000)
        result = model.connect(
            "1.1.1.1", "target.org", LinkQuality.broadband(), np.random.default_rng(0),
            [censor(FilteringMechanism.IP_DROP)],
        )
        assert not result.connected
        assert result.action is TCPAction.DROP
        assert result.elapsed_ms == 5000

    def test_rst_is_fast(self):
        model = TCPConnectionModel()
        result = model.connect(
            "1.1.1.1", "target.org", LinkQuality.broadband(), np.random.default_rng(0),
            [censor(FilteringMechanism.TCP_RST)],
        )
        assert not result.connected
        assert result.action is TCPAction.RESET
        assert result.elapsed_ms < 1000

    def test_lossy_link_sometimes_fails(self):
        model = TCPConnectionModel()
        rng = np.random.default_rng(3)
        link = LinkQuality(rtt_ms=50, jitter_ms=5, loss_rate=0.4)
        results = [model.connect("1.1.1.1", "x.org", link, rng) for _ in range(300)]
        assert any(not r.connected for r in results)
        assert any(r.connected for r in results)


class TestHTTPExchangeModel:
    def make_server(self):
        universe = build_universe()
        return universe.server_for_host("target.org")

    def test_clean_exchange(self):
        model = HTTPExchangeModel()
        result = model.exchange(
            URL.parse("http://target.org/favicon.ico"), self.make_server(),
            LinkQuality(rtt_ms=20, jitter_ms=0, loss_rate=0), np.random.default_rng(0),
        )
        assert result.completed
        assert result.response.ok

    def test_missing_server_times_out(self):
        model = HTTPExchangeModel(timeout_ms=7000)
        result = model.exchange(
            URL.parse("http://target.org/favicon.ico"), None,
            LinkQuality.broadband(), np.random.default_rng(0),
        )
        assert not result.completed
        assert result.elapsed_ms == 7000

    def test_http_drop(self):
        model = HTTPExchangeModel()
        result = model.exchange(
            URL.parse("http://target.org/favicon.ico"), self.make_server(),
            LinkQuality.broadband(), np.random.default_rng(0),
            [censor(FilteringMechanism.HTTP_DROP)],
        )
        assert not result.completed
        assert result.action is HTTPAction.DROP

    def test_block_page_substitution(self):
        model = HTTPExchangeModel()
        result = model.exchange(
            URL.parse("http://target.org/favicon.ico"), self.make_server(),
            LinkQuality.broadband(), np.random.default_rng(0),
            [censor(FilteringMechanism.HTTP_BLOCK_PAGE)],
        )
        assert result.completed
        assert result.response.is_block_page
        assert result.response.status == 200

    def test_throttle_slows_transfer(self):
        model = HTTPExchangeModel()
        link = LinkQuality(rtt_ms=20, jitter_ms=0, loss_rate=0, bandwidth_kbps=8000)
        clean = model.exchange(
            URL.parse("http://target.org/favicon.ico"), self.make_server(), link,
            np.random.default_rng(0),
        )
        throttled = model.exchange(
            URL.parse("http://target.org/favicon.ico"), self.make_server(), link,
            np.random.default_rng(0), [censor(FilteringMechanism.THROTTLING)],
        )
        assert throttled.completed
        assert throttled.elapsed_ms > clean.elapsed_ms

    def test_rst_censor_matches_at_http_stage_for_url_rules(self):
        url_censor = Censor(
            "keyword", BlacklistPolicy().block_keyword("banned"), FilteringMechanism.TCP_RST
        )
        model = HTTPExchangeModel()
        result = model.exchange(
            URL.parse("http://target.org/banned-topic.html"), self.make_server(),
            LinkQuality.broadband(), np.random.default_rng(0), [url_censor],
        )
        assert not result.completed
        assert result.action is HTTPAction.RESET
