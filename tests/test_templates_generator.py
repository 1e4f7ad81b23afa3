"""The HTML generator: selection rules, realization rules, site output."""

import os

import pytest

from repro.errors import MissingTemplateError, TemplateEvalError
from repro.graph import Atom, AtomType, Graph, Oid
from repro.templates import TEMPLATE_ATTRIBUTE, HtmlGenerator, TemplateSet


@pytest.fixture
def pub_graph() -> Graph:
    graph = Graph("site")
    pub = Oid("pub")
    graph.add_edge(pub, "title", Atom.string("A <Great> Paper"))
    graph.add_edge(pub, "year", Atom.int(1997))
    graph.add_edge(pub, "author", Atom.string("B. Author"))
    graph.add_edge(pub, "author", Atom.string("A. Author"))
    graph.add_edge(pub, "postscript", Atom.file("papers/x.ps"))
    graph.add_edge(pub, "figure", Atom.file("fig.gif"))
    graph.add_edge(pub, "home", Atom.url("http://example.com/"))
    graph.add_to_collection("Publications", pub)
    return graph


def render(graph: Graph, oid_name: str, template: str,
           register_as: str | None = None, **extra) -> str:
    templates = TemplateSet()
    templates.add(register_as or oid_name, template)
    for name, (text, as_page) in extra.items():
        templates.add(name, text, as_page=as_page)
    return HtmlGenerator(graph, templates).render(Oid(oid_name))


class TestFormatRules:
    def test_string_escaped(self, pub_graph):
        html = render(pub_graph, "pub", "<SFMT @title>")
        assert "A &lt;Great&gt; Paper" in html

    def test_int_as_text(self, pub_graph):
        assert render(pub_graph, "pub", "<SFMT @year>") == "1997"

    def test_postscript_becomes_link(self, pub_graph):
        html = render(pub_graph, "pub", "<SFMT @postscript>")
        assert html == '<a href="papers/x.ps">papers/x.ps</a>'

    def test_postscript_with_tag(self, pub_graph):
        html = render(pub_graph, "pub", "<SFMT @postscript TAG=@title>")
        assert 'href="papers/x.ps"' in html
        assert "A &lt;Great&gt; Paper</a>" in html

    def test_image_becomes_img(self, pub_graph):
        html = render(pub_graph, "pub", "<SFMT @figure>")
        assert html.startswith('<img src="fig.gif"')

    def test_url_becomes_anchor(self, pub_graph):
        html = render(pub_graph, "pub", "<SFMT @home>")
        assert html == ('<a href="http://example.com/">'
                        "http://example.com/</a>")

    def test_force_link_format(self, pub_graph):
        html = render(pub_graph, "pub", "<SFMT @title FORMAT=LINK>")
        assert html.startswith("<a href=")

    def test_missing_attribute_renders_empty(self, pub_graph):
        assert render(pub_graph, "pub", "[<SFMT @nothing>]") == "[]"

    def test_multivalued_takes_first(self, pub_graph):
        assert render(pub_graph, "pub", "<SFMT @author>") == "B. Author"

    def test_text_file_embeds_via_loader(self, pub_graph):
        pub = Oid("pub")
        pub_graph.add_edge(pub, "abstract", Atom.file("a.txt"))
        templates = TemplateSet()
        templates.add("pub", "<SFMT @abstract>")
        generator = HtmlGenerator(pub_graph, templates,
                                  loader=lambda path: f"<contents of {path}>")
        assert generator.render(pub) == "&lt;contents of a.txt&gt;"

    def test_text_file_without_loader_shows_path(self, pub_graph):
        pub = Oid("pub")
        pub_graph.add_edge(pub, "abstract", Atom.file("a.txt"))
        assert render(pub_graph, "pub", "<SFMT @abstract>") == "a.txt"


class TestConditionals:
    def test_exists_true_branch(self, pub_graph):
        assert render(pub_graph, "pub",
                      "<SIF @title>yes<SELSE>no</SIF>") == "yes"

    def test_exists_false_branch(self, pub_graph):
        assert render(pub_graph, "pub",
                      "<SIF @nope>yes<SELSE>no</SIF>") == "no"

    def test_null_test(self, pub_graph):
        assert render(pub_graph, "pub",
                      "<SIF @nope = NULL>missing</SIF>") == "missing"
        assert render(pub_graph, "pub",
                      "<SIF @title != NULL>present</SIF>") == "present"

    def test_numeric_comparison_with_coercion(self, pub_graph):
        assert render(pub_graph, "pub",
                      '<SIF (@year < "2000")>old</SIF>') == "old"

    def test_boolean_connectives(self, pub_graph):
        html = render(pub_graph, "pub",
                      "<SIF @title AND @year>both</SIF>")
        assert html == "both"
        html = render(pub_graph, "pub",
                      "<SIF @nope OR @year>one</SIF>")
        assert html == "one"
        html = render(pub_graph, "pub",
                      "<SIF NOT @nope>none</SIF>")
        assert html == "none"

    def test_missing_vs_value_comparison(self, pub_graph):
        assert render(pub_graph, "pub",
                      '<SIF @nope = "x">eq<SELSE>ne</SIF>') == "ne"
        assert render(pub_graph, "pub",
                      '<SIF @nope != "x">ne</SIF>') == "ne"


class TestIteration:
    def test_sfor_basic(self, pub_graph):
        html = render(pub_graph, "pub",
                      '<SFOR a @author DELIM=", "><SFMT @a></SFOR>')
        assert html == "B. Author, A. Author"

    def test_sfor_ordered(self, pub_graph):
        html = render(pub_graph, "pub",
                      '<SFOR a @author ORDER=ascend DELIM="; ">'
                      "<SFMT @a></SFOR>")
        assert html == "A. Author; B. Author"

    def test_sfor_descend(self, pub_graph):
        html = render(pub_graph, "pub",
                      '<SFOR a @author ORDER=descend DELIM="; ">'
                      "<SFMT @a></SFOR>")
        assert html == "B. Author; A. Author"

    def test_sfor_variable_shadowing(self, pub_graph):
        # The loop variable wins over a same-named attribute.
        html = render(pub_graph, "pub",
                      "<SFOR title @author><SFMT @title></SFOR>")
        assert html == "B. AuthorA. Author"

    def test_sfmtlist_wrap_ul(self, pub_graph):
        html = render(pub_graph, "pub",
                      "<SFMTLIST @author ORDER=ascend WRAP=UL>")
        assert html == ("<ul><li>A. Author</li><li>B. Author</li></ul>")

    def test_sfmtlist_default_delim(self, pub_graph):
        html = render(pub_graph, "pub", "<SFMTLIST @author>")
        assert html == "B. Author, A. Author"


class TestObjectRealization:
    @pytest.fixture
    def linked(self) -> Graph:
        graph = Graph("site")
        page, comp = Oid("page"), Oid("comp")
        graph.add_edge(page, "part", comp)
        graph.add_edge(comp, "label", Atom.string("inner"))
        graph.add_edge(page, "peer", Oid("other"))
        graph.add_edge(Oid("other"), "title", Atom.string("Other Page"))
        return graph

    def test_component_embeds_by_default(self, linked):
        templates = TemplateSet()
        templates.add("page", "[<SFMT @part>]")
        templates.add("comp", "<SFMT @label>", as_page=False)
        html = HtmlGenerator(linked, templates).render(Oid("page"))
        assert html == "[inner]"

    def test_page_links_by_default(self, linked):
        templates = TemplateSet()
        templates.add("page", "[<SFMT @peer>]")
        templates.add("other", "x")
        html = HtmlGenerator(linked, templates).render(Oid("page"))
        assert html == '[<a href="other.html">Other Page</a>]'

    def test_embed_overrides_pageness(self, linked):
        templates = TemplateSet()
        templates.add("page", "[<SFMT @peer FORMAT=EMBED>]")
        templates.add("other", "embedded!")
        html = HtmlGenerator(linked, templates).render(Oid("page"))
        assert html == "[embedded!]"

    def test_untemplated_object_falls_back_to_title(self, linked):
        templates = TemplateSet()
        templates.add("page", "[<SFMT @peer>]")
        html = HtmlGenerator(linked, templates).render(Oid("page"))
        assert html == "[Other Page]"

    def test_embedding_cycle_detected(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "next", Oid("b"))
        graph.add_edge(Oid("b"), "next", Oid("a"))
        templates = TemplateSet()
        templates.add("a", "<SFMT @next FORMAT=EMBED>", as_page=False)
        templates.add("b", "<SFMT @next FORMAT=EMBED>", as_page=False)
        with pytest.raises(TemplateEvalError):
            HtmlGenerator(graph, templates).render(Oid("a"))


class TestSelection:
    def test_object_specific_beats_collection(self, pub_graph):
        templates = TemplateSet()
        templates.add("pub", "SPECIFIC")
        templates.add("Publications", "COLLECTION")
        html = HtmlGenerator(pub_graph, templates).render(Oid("pub"))
        assert html == "SPECIFIC"

    def test_html_template_attribute(self, pub_graph):
        pub_graph.add_edge(Oid("pub"), TEMPLATE_ATTRIBUTE,
                           Atom.string("fancy"))
        templates = TemplateSet()
        templates.add("fancy", "FANCY")
        templates.add("Publications", "COLLECTION")
        html = HtmlGenerator(pub_graph, templates).render(Oid("pub"))
        assert html == "FANCY"

    def test_skolem_function_name(self, fig4_site):
        templates = TemplateSet()
        templates.add("YearPage", "Year: <SFMT @Year>")
        generator = HtmlGenerator(fig4_site, templates)
        year = next(n for n in fig4_site.nodes()
                    if n.skolem_fn == "YearPage")
        assert generator.render(year).startswith("Year: ")

    def test_collection_fallback(self, pub_graph):
        templates = TemplateSet()
        templates.add("Publications", "COLLECTION")
        html = HtmlGenerator(pub_graph, templates).render(Oid("pub"))
        assert html == "COLLECTION"

    def test_no_template_raises(self, pub_graph):
        generator = HtmlGenerator(pub_graph, TemplateSet())
        with pytest.raises(MissingTemplateError):
            generator.render(Oid("pub"))

    def test_template_line_counting(self):
        templates = TemplateSet()
        templates.add("a", "one\ntwo\nthree")
        templates.add("b", "single")
        assert templates.total_lines() == 4
        assert templates.names() == ["a", "b"]


class TestSiteOutput:
    def test_generate_site_writes_pages(self, fig4_site, tmp_path):
        from repro.sites.homepage import fig7_templates
        generator = HtmlGenerator(fig4_site, fig7_templates())
        written = generator.generate_site(str(tmp_path))
        # 1 root + 1 abstracts + 2 years + 3 categories + 2 abstract
        # pages = 9 pages; presentations embed, so no files for them.
        assert len(written) == 9
        for path in written.values():
            assert os.path.exists(path)
        root_html = open(written[Oid.skolem("RootPage", ())]).read()
        assert "YearPage_1997_.html" in root_html

    def test_urls_are_filesystem_safe(self, fig4_site):
        generator = HtmlGenerator(fig4_site, TemplateSet())
        for node in fig4_site.nodes():
            url = generator.url_for(node)
            assert "/" not in url and url.endswith(".html")


class TestGeneratorEdgeCases:
    def test_default_title_probes_attributes(self):
        graph = Graph("g")
        a, b = Oid("a"), Oid("b")
        graph.add_edge(a, "ref", b)
        graph.add_edge(b, "name", Atom.string("Named Thing"))
        templates = TemplateSet()
        templates.add("a", "<SFMT @ref>")
        templates.add("b", "irrelevant")
        html = HtmlGenerator(graph, templates).render(a)
        assert ">Named Thing</a>" in html

    def test_default_title_falls_back_to_oid(self):
        graph = Graph("g")
        a, b = Oid("a"), Oid("mystery")
        graph.add_edge(a, "ref", b)
        templates = TemplateSet()
        templates.add("a", "<SFMT @ref>")
        templates.add("mystery", "x")
        html = HtmlGenerator(graph, templates).render(a)
        assert ">mystery</a>" in html

    def test_sfor_key_missing_sorts_first(self):
        graph = Graph("g")
        page = Oid("p")
        with_key, without = Oid("w"), Oid("wo")
        graph.add_edge(page, "item", without)
        graph.add_edge(page, "item", with_key)
        graph.add_edge(with_key, "k", Atom.string("z"))
        graph.add_edge(with_key, "t", Atom.string("W"))
        graph.add_edge(without, "t", Atom.string("WO"))
        templates = TemplateSet()
        templates.add("p", '<SFOR i @item ORDER=ascend KEY=k DELIM=",">'
                           "<SFMT @i.t></SFOR>")
        html = HtmlGenerator(graph, templates).render(page)
        assert html == "WO,W"  # missing key sorts as empty string

    def test_mixed_numeric_and_text_keys_sort_lexically(self):
        graph = Graph("g")
        page = Oid("p")
        for value in ("10", "9", "abc"):
            graph.add_edge(page, "v", Atom.string(value))
        templates = TemplateSet()
        templates.add("p", '<SFOR x @v ORDER=ascend DELIM=",">'
                           "<SFMT @x></SFOR>")
        html = HtmlGenerator(graph, templates).render(page)
        assert html == "10,9,abc"  # lexicographic when not all numeric

    def test_all_numeric_keys_sort_numerically(self):
        graph = Graph("g")
        page = Oid("p")
        for value in ("10", "9", "111"):
            graph.add_edge(page, "v", Atom.string(value))
        templates = TemplateSet()
        templates.add("p", '<SFOR x @v ORDER=ascend DELIM=",">'
                           "<SFMT @x></SFOR>")
        html = HtmlGenerator(graph, templates).render(page)
        assert html == "9,10,111"

    def test_sfmtlist_tag_attr_expr(self, fig4_site):
        from repro.sites.homepage import fig7_templates
        templates = TemplateSet()
        templates.add("RootPage",
                      "<SFMTLIST @YearPage TAG=@Year DELIM=\" | \">")
        generator = HtmlGenerator(fig4_site, templates)
        html = generator.render(Oid.skolem("RootPage", ()))
        # TAG resolves against each *page object's* default title if an
        # attr expr; here it resolves against the root (no Year attr),
        # so the year pages fall back to their own titles.
        assert "1997" in html and "1998" in html

    def test_dotted_expression_through_multivalued(self, fig4_site):
        templates = TemplateSet()
        templates.add("AbstractsPage", "<SFMT @Abstract.title>")
        generator = HtmlGenerator(fig4_site, templates)
        html = generator.render(Oid.skolem("AbstractsPage", ()))
        assert html  # first abstract page's title text

    def test_pages_listing_is_stable(self, fig4_site):
        from repro.sites.homepage import fig7_templates
        generator = HtmlGenerator(fig4_site, fig7_templates())
        assert generator.pages() == generator.pages()


class TestConcurrentRenders:
    """The click-time server renders over one shared generator from
    several request threads at once; each render must see only its own
    embedding chain, or a shared component reads as a false cycle."""

    THREADS = 8
    ROUNDS = 15

    def test_threads_never_see_another_render_stack(self):
        import sys
        import threading

        from repro.datagen import generate_bibtex
        from repro.sites.homepage import FIG3_QUERY, fig7_templates
        from repro.struql import QueryEngine
        from repro.wrappers import BibTexWrapper

        data = BibTexWrapper().wrap(generate_bibtex(20, seed=6), "BIBTEX")
        site = QueryEngine().evaluate(FIG3_QUERY, data).output
        generator = HtmlGenerator(site, fig7_templates())
        # AbstractsPage embeds every AbstractPage, which is also a page.
        pages = [Oid.skolem("AbstractsPage", ())] + sorted(
            (p for p in generator.pages() if p.skolem_fn == "AbstractPage"),
            key=str)
        expected = {page: generator.render(page) for page in pages}
        barrier = threading.Barrier(self.THREADS)
        errors: list[BaseException] = []
        mismatches: list[Oid] = []

        def worker(offset: int) -> None:
            try:
                barrier.wait(timeout=60)
                for i in range(self.ROUNDS * len(pages)):
                    page = pages[(offset + i) % len(pages)]
                    if generator.render(page) != expected[page]:
                        mismatches.append(page)
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave renders aggressively
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors  # a shared stack raises TemplateEvalError
        assert not mismatches

    def test_recorded_reads_stay_on_their_thread(self, tmp_path):
        """A cached build records each page's reads while click-time
        requests, which record their own reads, run on other threads:
        every recording must equal one made alone, and a thread that
        records nothing must never see a read log."""
        import sys
        import threading

        from repro.datagen import generate_bibtex
        from repro.site import DynamicSiteServer
        from repro.sites.homepage import FIG3_QUERY, fig7_templates
        from repro.struql import QueryEngine
        from repro.wrappers import BibTexWrapper

        data = BibTexWrapper().wrap(generate_bibtex(20, seed=6), "BIBTEX")
        site = QueryEngine().evaluate(FIG3_QUERY, data).output
        generator = HtmlGenerator(site, fig7_templates())
        pages = sorted(generator.pages(), key=str)
        expected: dict = {}
        generator.generate_site(str(tmp_path / "alone"), reads=expected)
        # Render through the click-time generator directly, past the
        # body cache, so every recording renders.
        server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())

        def recorded(page: Oid) -> set:
            reads: set = set()
            server.generator.render_recorded(page, reads)
            return reads

        served = {page: recorded(page) for page in pages}
        # Click time reads the same nodes as the offline build.
        assert served == expected
        stop = threading.Event()
        errors: list[BaseException] = []
        seen_logs: list[object] = []
        mismatches: list[Oid] = []

        def worker() -> None:
            try:
                while not stop.is_set():
                    for page in pages:
                        if recorded(page) != served[page]:
                            mismatches.append(page)
                        generator.render(page)
                        if generator._state.reads is not None:
                            seen_logs.append(generator._state.reads)
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=worker)
                   for _ in range(self.THREADS)]
        try:
            for thread in threads:
                thread.start()
            for round_ in range(3):
                reads: dict = {}
                generator.generate_site(str(tmp_path / f"r{round_}"),
                                        reads=reads)
                assert reads == expected
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert not seen_logs
        assert not mismatches


class TestReadRecording:
    """``generate_site(reads=...)`` logs every node a page's render
    passed to ``get``, ``get_one`` or ``collections_of``."""

    def test_records_misses_links_and_embeds_only(self, tmp_path):
        graph = Graph("site")
        page, linked, part, other = (Oid("page"), Oid("linked"),
                                     Oid("part"), Oid("other"))
        graph.add_edge(page, "link", linked)
        graph.add_edge(page, "part", part)
        graph.add_edge(part, "name", Atom.string("Part"))
        graph.add_edge(linked, "title", Atom.string("Linked"))
        graph.add_edge(other, "title", Atom.string("Unread"))
        templates = TemplateSet()
        templates.add("page", "<SIF @office>x</SIF><SFMT @link>"
                              "<SFMT @part>")
        templates.add("linked", "<SFMT @title>")
        templates.add("other", "<SFMT @title>")
        templates.add("part", "<SFMT @name>", as_page=False)
        generator = HtmlGenerator(graph, templates)
        reads: dict = {}
        generator.generate_site(str(tmp_path), reads=reads)
        # The absent @office is a read of ``page``; the link reads the
        # target's page-ness and title; the embed renders ``part``.
        assert reads[page] == {page, linked, part}
        assert reads[other] == {other}
        assert set(reads) == {page, linked, other}
        assert generator._state.reads is None
