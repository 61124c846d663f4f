"""Simulated Web servers and the universe of sites.

The :class:`WebUniverse` is the registry of every site that exists in a
simulation: the potentially censored measurement targets, the origin sites
that host Encore, and Encore's own coordination / collection servers.  A
:class:`WebServer` answers HTTP requests for one or more sites, returning an
:class:`HTTPResponse` that carries the headers Encore's tasks care about
(status, content type, caching, ``nosniff``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.web.resources import ContentType, Resource
from repro.web.sites import Site
from repro.web.url import URL


@dataclass(frozen=True)
class HTTPResponse:
    """An HTTP response as observed by a browser."""

    status: int
    content_type: ContentType | None
    size_bytes: int
    cacheable: bool = False
    cache_ttl_s: int = 0
    nosniff: bool = False
    resource: Resource | None = None
    is_block_page: bool = False

    @property
    def ok(self) -> bool:
        """True for a 2xx response."""
        return 200 <= self.status < 300

    @classmethod
    def not_found(cls) -> "HTTPResponse":
        """A 404 response with a small HTML error body."""
        return cls(status=404, content_type=ContentType.HTML, size_bytes=512)

    @classmethod
    def block_page(cls, size_bytes: int = 2048) -> "HTTPResponse":
        """A censor-injected block page (status 200 but substituted content)."""
        return cls(
            status=200,
            content_type=ContentType.HTML,
            size_bytes=size_bytes,
            is_block_page=True,
        )

    @classmethod
    def for_resource(cls, resource: Resource) -> "HTTPResponse":
        """A 200 response serving ``resource``."""
        return cls(
            status=200,
            content_type=resource.content_type,
            size_bytes=resource.size_bytes,
            cacheable=resource.cacheable,
            cache_ttl_s=resource.cache_ttl_s,
            nosniff=resource.nosniff,
            resource=resource,
        )


class WebServer:
    """Serves the resources of one or more sites.

    A server also has an IP address, which the censorship substrate uses for
    IP-based blocking.
    """

    def __init__(self, ip_address: str, sites: Iterable[Site] | None = None) -> None:
        self.ip_address = ip_address
        self._sites: dict[str, Site] = {}
        self.online = True
        for site in sites or ():
            self.host_site(site)

    def host_site(self, site: Site) -> None:
        """Start serving ``site`` from this server."""
        self._sites[site.domain] = site

    @property
    def domains(self) -> list[str]:
        """Domains served by this server."""
        return sorted(self._sites)

    def site_for_host(self, host: str) -> Site | None:
        """Return the site matching ``host`` (exact or subdomain match)."""
        if host in self._sites:
            return self._sites[host]
        for domain, site in self._sites.items():
            if host.endswith("." + domain):
                return site
        return None

    def handle(self, url: URL) -> HTTPResponse:
        """Answer an HTTP request for ``url``."""
        if not self.online:
            return HTTPResponse(status=503, content_type=ContentType.HTML, size_bytes=256)
        site = self.site_for_host(url.host)
        if site is None:
            return HTTPResponse.not_found()
        resource = site.lookup(url)
        if resource is None:
            return HTTPResponse.not_found()
        return HTTPResponse.for_resource(resource)


class WebUniverse:
    """The full set of sites and servers that exist in a simulation."""

    def __init__(self) -> None:
        self._sites: dict[str, Site] = {}
        self._servers: dict[str, WebServer] = {}
        self._domain_to_ip: dict[str, str] = {}
        self._next_ip_suffix = 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _allocate_ip(self) -> str:
        suffix = self._next_ip_suffix
        self._next_ip_suffix += 1
        return f"198.51.{suffix // 256}.{suffix % 256}"

    def add_site(self, site: Site, ip_address: str | None = None) -> WebServer:
        """Register ``site``, hosting it on a (possibly new) server."""
        if site.domain in self._sites:
            raise ValueError(f"domain {site.domain} already registered")
        ip_address = ip_address or self._allocate_ip()
        server = self._servers.get(ip_address)
        if server is None:
            server = WebServer(ip_address)
            self._servers[ip_address] = server
        server.host_site(site)
        self._sites[site.domain] = site
        self._domain_to_ip[site.domain] = ip_address
        return server

    def add_sites(self, sites: Iterable[Site]) -> None:
        """Register several sites, each on its own server."""
        for site in sites:
            self.add_site(site)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, domain: str) -> bool:
        return self._resolve_domain(domain) is not None

    def __iter__(self) -> Iterator[Site]:
        return iter(self._sites.values())

    def __len__(self) -> int:
        return len(self._sites)

    @property
    def domains(self) -> list[str]:
        return sorted(self._sites)

    def _resolve_domain(self, host: str) -> str | None:
        if host in self._sites:
            return host
        for domain in self._sites:
            if host.endswith("." + domain):
                return domain
        return None

    def site(self, domain: str) -> Site | None:
        """The site registered for ``domain`` (or a parent domain)."""
        resolved = self._resolve_domain(domain)
        return self._sites.get(resolved) if resolved else None

    def ip_for_host(self, host: str) -> str | None:
        """The IP address serving ``host``, or None if the host is unknown."""
        resolved = self._resolve_domain(host)
        return self._domain_to_ip.get(resolved) if resolved else None

    def server_for_ip(self, ip_address: str) -> WebServer | None:
        """The server listening at ``ip_address``."""
        return self._servers.get(ip_address)

    def server_for_host(self, host: str) -> WebServer | None:
        """The server hosting ``host``."""
        ip_address = self.ip_for_host(host)
        return self._servers.get(ip_address) if ip_address else None

    def lookup_resource(self, url: URL) -> Resource | None:
        """Resolve ``url`` to the resource it serves without any censorship."""
        site = self.site(url.host)
        return site.lookup(url) if site else None

    def resolver(self):
        """A URL -> Resource resolver over the whole universe."""
        return self.lookup_resource

    def take_offline(self, domain: str) -> None:
        """Mark the server hosting ``domain`` as offline (site outage)."""
        server = self.server_for_host(domain)
        if server is None:
            raise KeyError(f"unknown domain {domain}")
        server.online = False

    def bring_online(self, domain: str) -> None:
        """Bring the server hosting ``domain`` back online."""
        server = self.server_for_host(domain)
        if server is None:
            raise KeyError(f"unknown domain {domain}")
        server.online = True
