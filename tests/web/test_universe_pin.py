"""Pin the synthetic Web universe byte for byte, and the draws that build it.

Every row, digest and committed artifact downstream of a ``World`` depends on
the exact resources :class:`~repro.web.sites.SiteGenerator` produces, in the
exact order, from the exact number of generator draws.  These digests cover
every site in universe order and every ``(key, Resource)`` in
``site.resources`` order — all nine ``Resource`` fields, embedded URLs as
strings — plus ``page_urls``.  Any drift in a value, in an order or in the
number of draws fails here before it reaches a row.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets.herdict import build_high_value_list, online_domains
from repro.population.world import World, WorldConfig
from repro.web.sites import SiteGenerator

#: SHA-256 of the compact worlds (the test suite's and the monitor's shape).
COMPACT_DIGESTS = {
    0: "c22d01c83161c812ddd0b1932cb0f4d7e6ecffaa3237efd2747cd3c37e3e013c",
    7: "c2c3bd0c1615c2be94a7c8af0c3ed77233b6ae6d1515cfe20adc29804b47f132",
    41: "42ba519c655d4e585be95d6769f7aa7458c7e205f063e64c85f67f346f51a603",
}
#: SHA-256 of the full world (the campaign workload's and the paper
#: benchmarks' shape).
FULL_DIGEST = "36011f0220da32c519bc674e8960064de58a9cf6a8f1ae7f5608be99879ac089"
#: ``bit_generator.state`` after one generator builds the full target list
#: from seed 2016 (the full world at seed 2015 draws from seed + 1).
FULL_GENERATOR_STATE = {
    "bit_generator": "PCG64",
    "state": {
        "state": 308805731750005864436090176348906899816,
        "inc": 114177277144689474749936889015781908795,
    },
    "has_uint32": 0,
    "uinteger": 3530481583,
}


def universe_digest(world: World) -> str:
    digest = hashlib.sha256()
    for site in world.universe:
        digest.update(f"site\t{site.domain}\t{site.category}\n".encode())
        digest.update(("pages\t" + "\t".join(map(str, site.page_urls)) + "\n").encode())
        for key, resource in site.resources.items():
            fields = (
                key,
                str(resource.url),
                resource.content_type.value,
                resource.size_bytes,
                resource.cacheable,
                resource.cache_ttl_s,
                resource.nosniff,
                resource.valid_syntax,
                resource.has_side_effects,
                " ".join(map(str, resource.embedded_urls)),
            )
            digest.update(("\t".join(map(str, fields)) + "\n").encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(COMPACT_DIGESTS))
def test_compact_universe_is_pinned(seed):
    world = World(
        WorldConfig(seed=seed, target_list_total=30, target_list_online=24, origin_site_count=4)
    )
    assert universe_digest(world) == COMPACT_DIGESTS[seed]


def test_full_universe_is_pinned():
    assert universe_digest(World(WorldConfig(seed=2015))) == FULL_DIGEST


def test_generator_takes_the_pinned_draws():
    rng = np.random.default_rng(2016)
    SiteGenerator(rng=rng).generate_universe(online_domains(build_high_value_list()))
    assert rng.bit_generator.state == FULL_GENERATOR_STATE
