"""Country metadata used by the client-population substrate.

The numbers below are calibrated to what the paper reports rather than to any
external dataset: visit shares reproduce the §6.2 demographics of a typical
origin site (US-dominant, ~16% of visits from countries with well-known Web
filtering) and the §7 measurement-volume ordering (at least 1,000
measurements from China, India, the United Kingdom, and Brazil; more than 100
from Egypt, South Korea, Iran, Pakistan, Turkey, and Saudi Arabia), while the
link-quality mixes drive realistic failure noise (e.g. India's unreliable
connectivity behind the ~5% false-positive rate of §7.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.latency import LinkQuality


@dataclass(frozen=True)
class CountryProfile:
    """Static per-country characteristics."""

    code: str
    name: str
    visit_share: float
    well_known_filtering: bool = False
    #: Mix of link-quality presets clients in this country draw from,
    #: as (preset name, probability) pairs summing to 1.
    link_mix: tuple[tuple[str, float], ...] = (("broadband", 0.7), ("mobile", 0.3))

    def link_presets(self) -> list[tuple[LinkQuality, float]]:
        """Resolve the link mix into concrete :class:`LinkQuality` presets."""
        factories = {
            "broadband": LinkQuality.broadband,
            "mobile": LinkQuality.mobile,
            "unreliable": LinkQuality.unreliable,
            "campus": LinkQuality.campus,
            "local": LinkQuality.local,
        }
        return [(factories[name](), prob) for name, prob in self.link_mix]


_RELIABLE = (("broadband", 0.75), ("mobile", 0.2), ("campus", 0.05))
_MIXED = (("broadband", 0.5), ("mobile", 0.4), ("unreliable", 0.1))
_UNRELIABLE = (("broadband", 0.25), ("mobile", 0.4), ("unreliable", 0.35))

#: Named countries with explicit calibrated shares.  ``well_known_filtering``
#: marks the countries the paper cites as having well-known Web filtering
#: policies (§6.2: India, China, Pakistan, the UK, South Korea) plus the
#: countries whose filtering §7 discusses.
_NAMED_COUNTRIES: list[CountryProfile] = [
    CountryProfile("US", "United States", 0.400, False, _RELIABLE),
    CountryProfile("IN", "India", 0.052, True, _UNRELIABLE),
    CountryProfile("CN", "China", 0.050, True, _MIXED),
    CountryProfile("GB", "United Kingdom", 0.040, True, _RELIABLE),
    CountryProfile("BR", "Brazil", 0.038, False, _MIXED),
    CountryProfile("DE", "Germany", 0.030, False, _RELIABLE),
    CountryProfile("CA", "Canada", 0.028, False, _RELIABLE),
    CountryProfile("FR", "France", 0.022, False, _RELIABLE),
    CountryProfile("JP", "Japan", 0.020, False, _RELIABLE),
    CountryProfile("AU", "Australia", 0.018, False, _RELIABLE),
    CountryProfile("KR", "South Korea", 0.016, True, _RELIABLE),
    CountryProfile("PK", "Pakistan", 0.015, True, _UNRELIABLE),
    CountryProfile("RU", "Russia", 0.015, True, _MIXED),
    CountryProfile("IR", "Iran", 0.012, True, _MIXED),
    CountryProfile("EG", "Egypt", 0.011, True, _UNRELIABLE),
    CountryProfile("TR", "Turkey", 0.011, True, _MIXED),
    CountryProfile("SA", "Saudi Arabia", 0.010, True, _RELIABLE),
    CountryProfile("NL", "Netherlands", 0.010, False, _RELIABLE),
    CountryProfile("IT", "Italy", 0.010, False, _RELIABLE),
    CountryProfile("ES", "Spain", 0.010, False, _RELIABLE),
    CountryProfile("MX", "Mexico", 0.009, False, _MIXED),
    CountryProfile("ID", "Indonesia", 0.009, True, _UNRELIABLE),
    CountryProfile("NG", "Nigeria", 0.008, False, _UNRELIABLE),
    CountryProfile("VN", "Vietnam", 0.008, True, _MIXED),
    CountryProfile("TH", "Thailand", 0.007, True, _MIXED),
    CountryProfile("PL", "Poland", 0.007, False, _RELIABLE),
    CountryProfile("SE", "Sweden", 0.006, False, _RELIABLE),
    CountryProfile("AR", "Argentina", 0.006, False, _MIXED),
    CountryProfile("ZA", "South Africa", 0.005, False, _MIXED),
    CountryProfile("MY", "Malaysia", 0.005, True, _MIXED),
]

#: Total number of countries the campaign observes (paper §7: 170 countries).
TOTAL_COUNTRIES = 170


def _long_tail_countries() -> list[CountryProfile]:
    """Synthetic small countries filling out the long tail to 170 total."""
    remaining = TOTAL_COUNTRIES - len(_NAMED_COUNTRIES)
    named_share = sum(c.visit_share for c in _NAMED_COUNTRIES)
    tail_share = max(0.0, 1.0 - named_share)
    per_country = tail_share / remaining
    tail = []
    for index in range(remaining):
        code = f"X{index:02d}"
        tail.append(
            CountryProfile(
                code=code,
                name=f"Long-tail country {index}",
                visit_share=per_country,
                well_known_filtering=False,
                link_mix=_MIXED,
            )
        )
    return tail


_ALL_COUNTRIES: list[CountryProfile] = _NAMED_COUNTRIES + _long_tail_countries()
_BY_CODE: dict[str, CountryProfile] = {c.code: c for c in _ALL_COUNTRIES}


def all_countries() -> list[CountryProfile]:
    """Every country in the model (named + long tail), 170 in total."""
    return list(_ALL_COUNTRIES)


def country(code: str) -> CountryProfile:
    """The profile for ``code``; raises KeyError for unknown codes."""
    return _BY_CODE[code]


#: The five countries §6.2 names when computing the "16% of visitors reside
#: in countries with well-known Web filtering policies" statistic.
SECTION_62_FILTERING_CODES = frozenset({"IN", "CN", "PK", "GB", "KR"})


def filtering_country_codes() -> set[str]:
    """Codes of countries with well-known Web filtering policies."""
    return {c.code for c in _ALL_COUNTRIES if c.well_known_filtering}


def visit_share_distribution() -> tuple[list[str], list[float]]:
    """(codes, normalised shares) for sampling a visitor's country."""
    codes = [c.code for c in _ALL_COUNTRIES]
    shares = [c.visit_share for c in _ALL_COUNTRIES]
    total = sum(shares)
    return codes, [s / total for s in shares]
