"""Tests for sites and the synthetic site generator."""

import numpy as np
import pytest

from repro.web.resources import ContentType, KILOBYTE, Resource
from repro.web.sites import Site, SiteGenerator
from repro.web.url import URL


class TestSite:
    def test_add_and_lookup(self):
        site = Site("example.com")
        resource = Resource(URL.parse("http://example.com/x.png"), ContentType.IMAGE, 100)
        site.add(resource)
        assert site.lookup("http://example.com/x.png") is resource
        assert site.lookup("http://example.com/missing") is None

    def test_add_rejects_foreign_domain(self):
        site = Site("example.com")
        with pytest.raises(ValueError):
            site.add(Resource(URL.parse("http://other.com/x.png"), ContentType.IMAGE, 100))

    def test_add_accepts_subdomain(self):
        site = Site("example.com")
        resource = Resource(URL.parse("http://cdn.example.com/x.png"), ContentType.IMAGE, 100)
        site.add(resource)
        assert site.lookup(resource.url) is resource

    def test_add_rejects_a_url_already_hosted(self):
        site = Site("example.com")
        site.add(Resource(URL.parse("http://example.com/a.html"), ContentType.HTML, 100))
        with pytest.raises(ValueError, match="http://example.com/a.html"):
            site.add(Resource(URL.parse("http://example.com/a.html"), ContentType.HTML, 200))
        assert [page.size_bytes for page in site.pages] == [100]
        assert len(site.page_urls) == 1

    def test_resources_are_read_only(self):
        site = Site("example.com")
        resource = site.add(Resource(URL.parse("http://example.com/x.png"), ContentType.IMAGE, 1))
        with pytest.raises(TypeError):
            site.resources["http://example.com/y.png"] = resource
        assert dict(site.resources) == {"http://example.com/x.png": resource}

    def test_pages_and_images_views(self):
        site = Site("example.com")
        site.add(Resource(URL.parse("http://example.com/a.png"), ContentType.IMAGE, 100))
        site.add(Resource(URL.parse("http://example.com/i.html"), ContentType.HTML, 100))
        assert len(site.images) == 1
        assert len(site.pages) == 1
        assert site.page_urls[0].path == "/i.html"

    def test_favicon_url_only_when_hosted(self):
        site = Site("example.com")
        assert site.favicon_url is None
        site.add(Resource(URL.parse("http://example.com/favicon.ico"), ContentType.IMAGE, 400))
        assert site.favicon_url is not None

    def test_images_at_most(self):
        site = Site("example.com")
        site.add(Resource(URL.parse("http://example.com/small.png"), ContentType.IMAGE, 500))
        site.add(Resource(URL.parse("http://example.com/big.png"), ContentType.IMAGE, 50_000))
        assert len(site.images_at_most(KILOBYTE)) == 1


class TestSiteGenerator:
    @pytest.fixture(scope="class")
    def generated(self):
        generator = SiteGenerator(rng=np.random.default_rng(42))
        domains = {f"site-{i:02d}.org": "human_rights" for i in range(40)}
        domains["facebook.com"] = "social_media"
        return generator.generate_universe(domains)

    def test_generates_every_domain(self, generated):
        assert len(generated) == 41

    def test_every_site_has_pages(self, generated):
        for site in generated.values():
            assert len(site.pages) >= 1

    def test_home_page_exists(self, generated):
        for site in generated.values():
            assert any(url.path == "/" for url in site.page_urls)

    def test_embedded_urls_resolve_on_site(self, generated):
        site = next(iter(generated.values()))
        for page in site.pages:
            for url in page.embedded_urls:
                assert site.lookup(url) is not None

    def test_social_media_sites_have_favicon(self, generated):
        facebook = generated["facebook.com"]
        assert facebook.favicon_url is not None
        favicon = facebook.lookup(facebook.favicon_url)
        assert favicon.size_bytes <= KILOBYTE
        assert favicon.cacheable

    def test_social_media_sites_are_image_rich(self, generated):
        assert len(generated["facebook.com"].images) >= 100

    def test_roughly_a_third_of_domains_lack_images(self, generated):
        ordinary = [s for d, s in generated.items() if d != "facebook.com"]
        without_images = sum(1 for s in ordinary if not s.images)
        fraction = without_images / len(ordinary)
        assert 0.05 < fraction < 0.6

    def test_deterministic_given_seed(self):
        a = SiteGenerator(rng=np.random.default_rng(7)).generate_site("x.org")
        b = SiteGenerator(rng=np.random.default_rng(7)).generate_site("x.org")
        assert sorted(a.resources) == sorted(b.resources)
        assert [r.size_bytes for r in a.resources.values()] == [
            r.size_bytes for r in b.resources.values()
        ]

    def test_lookups_build_one_resource_per_url(self, generated):
        site = generated["facebook.com"]
        home = site.lookup(site.page_urls[0])
        assert home is site.lookup(str(site.page_urls[0])) is site.pages[0]
        for url in home.embedded_urls:
            assert site.lookup(url) is site.resources[str(url)]
            assert site.lookup(url).url is url

    def test_host_is_checked_once_for_a_generated_site(self):
        with pytest.raises(ValueError, match="Example.com"):
            SiteGenerator(rng=np.random.default_rng(0)).generate_site("Example.com")

    def test_different_seeds_differ(self):
        a = SiteGenerator(rng=np.random.default_rng(1)).generate_site("x.org")
        b = SiteGenerator(rng=np.random.default_rng(2)).generate_site("x.org")
        assert sorted(a.resources) != sorted(b.resources) or [
            r.size_bytes for r in a.resources.values()
        ] != [r.size_bytes for r in b.resources.values()]

    def test_profile_forcing_via_argument(self):
        generator = SiteGenerator(rng=np.random.default_rng(5))
        profile = generator.sample_profile("forced.org")
        profile.hosts_images = False
        profile.image_pool_size = 0
        profile.has_favicon = False
        site = generator.generate_site("forced.org", profile=profile)
        assert site.images == []
