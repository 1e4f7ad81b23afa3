"""The documentation's code paths stay runnable (guards doc rot).

Exercises the tutorial's six steps end to end with in-repo data, using
only names importable exactly as the docs import them.
"""

import pytest

from repro import (
    BibTexWrapper,
    DataSource,
    DynamicSiteServer,
    Mediator,
    ReachableFromRoot,
    RequiredLink,
    TemplateSet,
    Verifier,
    Website,
    build_site_schema,
    parse_ddl,
)
from repro.site import PathReachability

SITE = """
INPUT data
CREATE Root()
{ WHERE Publications(x), x -> l -> v
  CREATE Page(x)
  LINK Page(x) -> l -> v,
       Root() -> "paper" -> Page(x)
  { WHERE l = "year"
    CREATE YearIndex(v)
    LINK YearIndex(v) -> "Year" -> v,
         YearIndex(v) -> "Paper" -> Page(x),
         Root() -> "byYear" -> YearIndex(v) }
}
OUTPUT Site
"""

BIB = """
@article{one, title={First}, author={A}, year=1997,
         postscript={papers/one.ps}}
@article{two, title={Second}, author={B}, year=1998,
         postscript={papers/two.ps}}
"""


@pytest.fixture
def tutorial_templates() -> TemplateSet:
    templates = TemplateSet()
    templates.add("Root", """<h1>Papers</h1>
<SFMTLIST @byYear ORDER=descend KEY=Year WRAP=UL>""")
    templates.add("YearIndex",
                  "<h1><SFMT @Year></h1><SFMTLIST @Paper FORMAT=EMBED>")
    templates.add("Page", "<SFMT @postscript TAG=@title> (<SFMT @year>)",
                  as_page=False)
    return templates


@pytest.fixture
def mediated_data():
    pubs = BibTexWrapper().wrap(BIB, "pubs")
    mediator = Mediator("data")
    mediator.add_source(DataSource("pubs", lambda: pubs))
    mediator.add_mapping("""
        input pubs
        where Publications(x), x -> l -> v
        create Pub(x)
        link Pub(x) -> l -> v
        collect Publications(Pub(x))
        output data
    """)
    return mediator.warehouse()


class TestTutorialFlow:
    def test_step3_schema_inspection(self):
        schema = build_site_schema(SITE)
        rendered = schema.render()
        assert 'Root -(Q1, "paper", [], [x])-> Page' in rendered
        assert 'YearIndex -(Q1 ^ Q2, "Paper", [v], [x])-> Page' \
            in rendered

    def test_step4_static_verification(self):
        report = Verifier([
            ReachableFromRoot("Root"),
            RequiredLink("YearIndex", "Paper", "Page"),
        ]).verify(schema=build_site_schema(SITE))
        assert report.ok

    def test_step5_website_and_metrics(self, mediated_data,
                                       tutorial_templates, tmp_path):
        site = Website(mediated_data, SITE, tutorial_templates)
        written = site.generate(str(tmp_path))
        assert len(written) == 3  # root + 2 year indexes
        metrics = site.metrics().as_row()
        assert metrics["pages"] == 3
        report = site.verify([
            ReachableFromRoot("Root"),
            PathReachability("Root", "*", "Page"),
        ])
        assert report.ok

    def test_step6_refresh(self, mediated_data, tutorial_templates,
                           tmp_path):
        www, cache = str(tmp_path / "www"), str(tmp_path / "cache")
        site = Website(mediated_data, SITE, tutorial_templates)
        site.build_site(www, cache_dir=cache)
        richer = BibTexWrapper().wrap(BIB + """
@article{three, title={Third}, author={C}, year=1999,
         postscript={papers/three.ps}}
""", "pubs")
        mediator = Mediator("data")
        mediator.add_source(DataSource("pubs", lambda: richer))
        mediator.add_mapping("""
            input pubs
            where Publications(x), x -> l -> v
            create Pub(x)
            link Pub(x) -> l -> v
            collect Publications(Pub(x))
            output data
        """)
        report = Website(mediator.warehouse(), SITE,
                         tutorial_templates).build_site(www, cache_dir=cache)
        # Root + the 1999 index render; the 1997/1998 indexes are cached.
        assert report.summary() == "wrote 2 pages (2 cached, incremental)"

    def test_step6_dynamic_serving(self, mediated_data,
                                   tutorial_templates):
        server = DynamicSiteServer(SITE, mediated_data,
                                   tutorial_templates)
        response = server.request(server.roots()[0])
        assert response.status == 200
        assert "Papers" in response.body


class TestReadmeQuickstart:
    def test_readme_snippet_runs(self, tmp_path):
        from repro import QueryEngine
        from repro.templates import HtmlGenerator

        data = parse_ddl("""
        collection Publications { abstract text postscript ps }
        object pub1 in Publications {
          title "Optimizing Regular Path Expressions"
          author "Mary Fernandez"  author "Dan Suciu"
          year 1998  postscript "papers/icde98.ps.gz"
        }
        """, "BIBTEX")
        site = QueryEngine().evaluate("""
        INPUT BIBTEX
        CREATE RootPage()
        WHERE Publications(x), x -> l -> v
        CREATE PaperPage(x)
        LINK PaperPage(x) -> l -> v,
             RootPage() -> "Paper" -> PaperPage(x)
        OUTPUT HomePage
        """, data).output
        templates = TemplateSet()
        templates.add("RootPage",
                      "<h1>Papers</h1>"
                      "<SFMTLIST @Paper ORDER=ascend WRAP=UL>")
        templates.add(
            "PaperPage",
            "<h2><SFMT @title></h2><SFMT @postscript TAG=@title>")
        from repro.templates import HtmlGenerator
        written = HtmlGenerator(site, templates).generate_site(
            str(tmp_path))
        assert written
