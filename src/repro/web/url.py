"""URL, origin, and URL-pattern models.

Encore reasons about three granularities of Web identifiers:

* a full :class:`URL` (scheme, host, port, path, query);
* an :class:`Origin` (scheme, host, port) — the unit that browsers'
  same-origin policy compares (paper §3.2);
* a :class:`URLPattern` — either a single URL, an entire domain, or a URL
  prefix — the unit in which measurement targets are specified (paper §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

_DEFAULT_PORTS = {"http": 80, "https": 443}


class URLError(ValueError):
    """Raised when a string cannot be parsed as a URL."""


@dataclass(frozen=True)
class Origin:
    """A Web origin as defined by the same-origin policy: scheme, host, port."""

    scheme: str
    host: str
    port: int

    def __str__(self) -> str:
        default = _DEFAULT_PORTS.get(self.scheme)
        if default == self.port:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    def same_origin(self, other: "Origin") -> bool:
        """Return True if ``other`` is the same origin (scheme, host, port)."""
        return (
            self.scheme == other.scheme
            and self.host == other.host
            and self.port == other.port
        )


@dataclass(frozen=True)
class URL:
    """A parsed URL.

    Only the parts Encore needs are modelled: scheme, host, port, path and
    query string. Fragments are dropped at parse time because they never reach
    the network.
    """

    scheme: str
    host: str
    port: int
    path: str = "/"
    query: str = ""

    @classmethod
    def parse(cls, raw: str, default_scheme: str = "http") -> "URL":
        """Parse ``raw`` into a :class:`URL`.

        Accepts scheme-relative URLs (``//host/path``), which the paper's
        measurement snippets use so that tasks inherit the page's scheme.
        """
        if not raw or not isinstance(raw, str):
            raise URLError(f"not a URL: {raw!r}")
        text = raw.strip()
        if text.startswith("//"):
            text = f"{default_scheme}:{text}"
        if "://" in text:
            scheme, rest = text.split("://", 1)
        else:
            scheme, rest = default_scheme, text
        scheme = scheme.lower()
        if scheme not in ("http", "https"):
            raise URLError(f"unsupported scheme in {raw!r}")
        rest = rest.split("#", 1)[0]
        if "/" in rest:
            hostport, pathquery = rest.split("/", 1)
            pathquery = "/" + pathquery
        else:
            hostport, pathquery = rest, "/"
        if not hostport:
            raise URLError(f"missing host in {raw!r}")
        if ":" in hostport:
            host, port_text = hostport.rsplit(":", 1)
            try:
                port = int(port_text)
            except ValueError as exc:
                raise URLError(f"bad port in {raw!r}") from exc
        else:
            host, port = hostport, _DEFAULT_PORTS[scheme]
        if "?" in pathquery:
            path, query = pathquery.split("?", 1)
        else:
            path, query = pathquery, ""
        host = host.lower()
        if not host or host.startswith(".") or host.endswith("."):
            raise URLError(f"bad host in {raw!r}")
        return cls(scheme=scheme, host=host, port=port, path=path or "/", query=query)

    @property
    def origin(self) -> Origin:
        """The URL's origin (scheme, host, port)."""
        return Origin(self.scheme, self.host, self.port)

    @property
    def domain(self) -> str:
        """The registered domain, approximated as the last two host labels."""
        labels = self.host.split(".")
        if len(labels) <= 2:
            return self.host
        return ".".join(labels[-2:])

    def __str__(self) -> str:
        base = f"{self.origin}{self.path}"
        if self.query:
            return f"{base}?{self.query}"
        return base

    def with_path(self, path: str, query: str = "") -> "URL":
        """Return a copy of this URL with a different path (and query)."""
        if not path.startswith("/"):
            path = "/" + path
        return URL(self.scheme, self.host, self.port, path, query)

    def is_cross_origin(self, other: "URL") -> bool:
        """Return True if ``other`` lives on a different origin than this URL."""
        return not self.origin.same_origin(other.origin)


@dataclass(frozen=True)
class URLPattern:
    """A measurement-target pattern (paper §5.1).

    Patterns come in three kinds:

    * ``exact`` — a single URL;
    * ``domain`` — every URL whose host equals the domain or is a subdomain;
    * ``prefix`` — every URL that starts with the given prefix.
    """

    kind: str
    value: str
    category: str = "uncategorised"

    _KINDS = ("exact", "domain", "prefix")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if not self.value:
            raise ValueError("empty pattern value")

    @classmethod
    def exact(cls, url: str, category: str = "uncategorised") -> "URLPattern":
        """Pattern matching a single URL."""
        return cls("exact", str(URL.parse(url)), category)

    @classmethod
    def domain(cls, domain: str, category: str = "uncategorised") -> "URLPattern":
        """Pattern matching every URL hosted on ``domain`` or its subdomains."""
        return cls("domain", domain.lower().strip("."), category)

    @classmethod
    def prefix(cls, prefix: str, category: str = "uncategorised") -> "URLPattern":
        """Pattern matching every URL that begins with ``prefix``."""
        return cls("prefix", str(URL.parse(prefix)), category)

    def matches(self, url: URL | str) -> bool:
        """Return True if ``url`` falls inside this pattern."""
        parsed = url if isinstance(url, URL) else URL.parse(url)
        if self.kind == "exact":
            return str(parsed) == self.value
        if self.kind == "domain":
            host = parsed.host
            return host == self.value or host.endswith("." + self.value)
        prefix = self.value
        return str(parsed).startswith(prefix)

    @property
    def anchor_domain(self) -> str:
        """The domain this pattern is anchored to (used for site: expansion)."""
        if self.kind == "domain":
            return self.value
        return URL.parse(self.value).host

    def is_trivial(self) -> bool:
        """True if the pattern already denotes a single URL (no expansion needed)."""
        return self.kind == "exact"

    def __str__(self) -> str:
        return f"{self.kind}:{self.value}"
