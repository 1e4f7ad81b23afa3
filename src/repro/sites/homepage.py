"""The paper's running example: an author's homepage site.

This module carries the paper's artifacts verbatim:

* :data:`FIG2_DDL` — the Fig 2 data-graph fragment (two publications);
* :data:`FIG3_QUERY` — the Fig 3 site-definition query;
* :func:`fig7_templates` — the Fig 7 HTML templates, transcribed into
  the concrete template syntax.

plus the scaled version used in section 5.1's "mff" homepage experiment:
:func:`build_homepage_site` wraps a (synthetic or real) BibTeX file and
a personal-data DDL file, applies the site query, and returns a
:class:`~repro.site.Website` — with an ``external`` variant whose
templates "exclude patents, and any publications and projects that are
proprietary" (template-level exclusion, exactly the mechanism the paper
chose for this site).
"""

from __future__ import annotations

from repro.datagen.bibtex import generate_bibtex
from repro.graph.model import Graph
from repro.site.builder import Website
from repro.struql.skolem import SkolemRegistry
from repro.templates.generator import TemplateSet
from repro.wrappers.bibtex import BibTexWrapper

#: Fig 2, verbatim (modulo the truncated strings of the paper's layout).
FIG2_DDL = """
collection Publications { abstract text postscript ps }

object pub1 in Publications {
  title "Specifying Representations of Machine Instructions"
  author "Norman Ramsey"
  author "Mary Fernandez"
  year 1997
  month "May"
  journal "Transactions on Programming Languages and Systems"
  pub-type "article"
  abstract "abstracts/toplas97.txt"
  postscript "papers/toplas97.ps.gz"
  volume "19 (3)"
  category "Architecture Specifications"
  category "Programming Languages"
}

object pub2 in Publications {
  title "Optimizing Regular Path Expressions Using Graph Schemas"
  author "Mary Fernandez"
  author "Dan Suciu"
  year 1998
  booktitle "Proc. of ICDE"
  pub-type "inproceedings"
  abstract "abstracts/icde98.txt"
  postscript "papers/icde98.ps.gz"
  category "Semistructured Data"
  category "Programming Languages"
}
"""

#: Fig 3, verbatim structure: root + abstracts pages, per-publication
#: presentations and abstract pages, per-year and per-category pages.
FIG3_QUERY = """
INPUT BIBTEX
// Create Root & Abstracts page and link them
CREATE RootPage(), AbstractsPage()
LINK RootPage()->"AbstractsPage"->AbstractsPage()
// Create a presentation for every publication x
WHERE Publications(x), x->l->v                                // Q1
CREATE PaperPresentation(x), AbstractPage(x)
LINK AbstractPage(x) -> l -> v,
     PaperPresentation(x) -> l -> v,
     PaperPresentation(x)->"Abstract"->AbstractPage(x),
     AbstractsPage() ->"Abstract" -> AbstractPage(x)
{ // Create a page for every year
  WHERE l = "year"                                            // Q2
  CREATE YearPage(v)
  LINK YearPage(v) -> "Year" -> v,
       YearPage(v)->"Paper"->PaperPresentation(x),
       // Link root page to each year page
       RootPage() -> "YearPage" -> YearPage(v)
}
{ // Create a page for every category
  WHERE l = "category"                                        // Q3
  CREATE CategoryPage(v)
  LINK CategoryPage(v) -> "Name" -> v,
       CategoryPage(v)->"Paper"->PaperPresentation(x),
       // Link root page to each category page
       RootPage() -> "CategoryPage" -> CategoryPage(v)
}
OUTPUT HomePage
"""


def fig2_data() -> Graph:
    """The Fig 2 data graph."""
    from repro.ddl.parser import parse_ddl
    return parse_ddl(FIG2_DDL, "BIBTEX")


def fig7_templates(external: bool = False) -> TemplateSet:
    """The Fig 7 templates (internal form), or the external variant.

    The external variant omits the volume/month details and, on paper
    presentations, the direct PostScript download — the kind of
    information the paper's external sites reformat or exclude.
    """
    templates = TemplateSet()
    templates.add("RootPage", """<HTML><HEAD><TITLE>Publications</TITLE></HEAD>
<BODY>
<H1>Publications</H1>
<H2>Publications by Year</H2>
<SFMTLIST @YearPage ORDER=ascend KEY=Year WRAP=UL>
<H2>Publications by Topic</H2>
<SFMTLIST @CategoryPage ORDER=ascend KEY=Name WRAP=UL>
<P><SFMT @AbstractsPage TAG="Paper Abstracts">
</BODY></HTML>""")
    templates.add("AbstractsPage", """<HTML><HEAD><TITLE>Paper Abstracts</TITLE></HEAD>
<BODY>
<H1>Paper Abstracts</H1>
<SFMTLIST @Abstract FORMAT=EMBED DELIM="<HR>">
</BODY></HTML>""")
    templates.add("YearPage", """<HTML><HEAD><TITLE>Publications by year</TITLE></HEAD>
<BODY>
<H1>Publications from <SFMT @Year></H1>
<SFMTLIST @Paper FORMAT=EMBED DELIM="<P>">
</BODY></HTML>""")
    templates.add("CategoryPage", """<HTML><HEAD><TITLE>Publications by topic</TITLE></HEAD>
<BODY>
<H1>Publications on <SFMT @Name></H1>
<SFMTLIST @Paper FORMAT=EMBED DELIM="<P>">
</BODY></HTML>""")
    if external:
        presentation = """<SFMT @title>.
By <SFOR a @author DELIM=", "><SFMT @a></SFOR>.
<SIF @journal><I><SFMT @journal></I></SIF><SIF @booktitle>In <I><SFMT @booktitle></I></SIF>, <SFMT @year>.
<SFMT @Abstract TAG="Abstract">"""
    else:
        presentation = """<SFMT @postscript TAG=@title>.
By <SFOR a @author DELIM=", "><SFMT @a></SFOR>.
<SIF @journal><I><SFMT @journal></I><SIF @volume>, <SFMT @volume></SIF></SIF><SIF @booktitle>In <I><SFMT @booktitle></I></SIF>, <SIF @month><SFMT @month> </SIF><SFMT @year>.
<SFMT @Abstract TAG="Abstract">"""
    templates.add("PaperPresentation", presentation, as_page=False)
    templates.add("AbstractPage", """<HTML><HEAD><TITLE>Abstract</TITLE></HEAD>
<BODY>
<H3><SFMT @title></H3>
<P><SFMT @abstract>
<P><SFMT @postscript TAG="Full paper (PostScript)">
</BODY></HTML>""")
    return templates


def build_homepage_site(data: Graph | None = None,
                        external: bool = False,
                        entries: int = 30, seed: int = 7) -> Website:
    """The complete homepage site over real or synthetic data.

    With no ``data``, a synthetic BibTeX bibliography of ``entries``
    publications is generated and wrapped — the "mff" homepage workload
    of section 5.1 at configurable scale.
    """
    if data is None:
        data = BibTexWrapper().wrap(generate_bibtex(entries, seed=seed),
                                    "BIBTEX")
        data.name = "BIBTEX"
    return Website(data, FIG3_QUERY, fig7_templates(external=external))


# ---------------------------------------------------------------------------
# The full "mff" homepage of section 5.1: two data sources (BibTeX +
# a personal-data STRUDEL file), internal and external versions.

#: The personal-data source: "address, phone, projects, professional
#: activities, patents", with proprietary markers for the external split.
PERSONAL_DDL = """
object me in People {
  name "Mary Fernandez"
  title "Researcher"
  email "mff@research.example.com"
  phone "973-360-8677"
  address { street "180 Park Ave" city "Florham Park" zip "07932" }
  homepage "http://www.research.example.com/~mff/"
  activity "PC member, SIGMOD 1999"
  activity "Editor, SIGMOD Record"
  activity "Workshop co-chair, WebDB"
  patent &pat1
  patent &pat2
  project &strudel
  project &secretdb
}

object pat1 in Patents {
  title "Method for declarative specification of Web sites"
  number "US-5999999"
  year 1998
}
object pat2 in Patents {
  title "Apparatus for semistructured query optimization"
  number "US-6000001"
  year 1998
  proprietary true
}

object strudel in Projects {
  name "STRUDEL"
  synopsis "A Web-site management system."
}
object secretdb in Projects {
  name "SECRETDB"
  synopsis "An unannounced database engine."
  proprietary true
}
"""

#: The mff site-definition query: one query over both sources.
MFF_QUERY = """
INPUT MFF
// Entry points: home, publications, projects, activities, patents.
CREATE HomeRoot(), PubsPage(), AbstractsPage(), ProjectsPage(),
       ActivitiesPage(), PatentsPage()
LINK HomeRoot() -> "Publications" -> PubsPage(),
     HomeRoot() -> "Projects" -> ProjectsPage(),
     HomeRoot() -> "Activities" -> ActivitiesPage(),
     HomeRoot() -> "Patents" -> PatentsPage(),
     PubsPage() -> "Abstracts" -> AbstractsPage()
// Contact block from the personal-data source.
{ WHERE People(p), p -> l -> v                                  // P1
  LINK HomeRoot() -> l -> v
  { WHERE l = "address", v -> m -> w                            // P0
    CREATE AddressPres(v)
    LINK AddressPres(v) -> m -> w,
         HomeRoot() -> "AddressBlock" -> AddressPres(v) }
  { WHERE l = "activity"                                        // P2
    LINK ActivitiesPage() -> "Item" -> v }
  { WHERE l = "patent", v -> m -> w                             // P3
    CREATE PatentPres(v)
    LINK PatentPres(v) -> m -> w,
         PatentsPage() -> "Patent" -> PatentPres(v) }
  { WHERE l = "project", v -> m -> w                            // P4
    CREATE ProjectPres(v)
    LINK ProjectPres(v) -> m -> w,
         ProjectsPage() -> "Project" -> ProjectPres(v) }
}
// Publications: the Fig 3 structure under PubsPage.
{ WHERE Publications(x), x -> l -> v                            // Q1
  CREATE PaperPresentation(x), AbstractPage(x)
  LINK AbstractPage(x) -> l -> v,
       PaperPresentation(x) -> l -> v,
       PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
       AbstractsPage() -> "Abstract" -> AbstractPage(x)
  { WHERE l = "year"                                            // Q2
    CREATE YearPage(v)
    LINK YearPage(v) -> "Year" -> v,
         YearPage(v) -> "Paper" -> PaperPresentation(x),
         PubsPage() -> "YearPage" -> YearPage(v) }
  { WHERE l = "category"                                        // Q3
    CREATE CategoryPage(v)
    LINK CategoryPage(v) -> "Name" -> v,
         CategoryPage(v) -> "Paper" -> PaperPresentation(x),
         PubsPage() -> "CategoryPage" -> CategoryPage(v) }
}
OUTPUT MffSite
"""

#: Template names that differ in the external version (exclude patents
#: and proprietary projects, as the paper describes for the mff site).
MFF_EXTERNAL_OVERRIDES = ("HomeRoot", "ProjectsPage", "PatentsPage",
                          "ProjectPres")


def mff_templates(external: bool = False) -> TemplateSet:
    """The thirteen mff-homepage templates (internal or external)."""
    templates = TemplateSet()

    if external:
        templates.add("HomeRoot", """<HTML><HEAD><TITLE><SFMT @name></TITLE></HEAD>
<BODY>
<H1><SFMT @name></H1>
<P><SFMT @title></P>
<P>Email: <SFMT @email></P>
<UL>
<LI><SFMT @Publications TAG="Publications">
<LI><SFMT @Projects TAG="Projects">
<LI><SFMT @Activities TAG="Professional activities">
</UL>
</BODY></HTML>""")
    else:
        templates.add("HomeRoot", """<HTML><HEAD><TITLE><SFMT @name></TITLE></HEAD>
<BODY>
<H1><SFMT @name></H1>
<P><SFMT @title></P>
<P>Email: <SFMT @email> — Phone: <SFMT @phone></P>
<SFMT @AddressBlock FORMAT=EMBED>
<UL>
<LI><SFMT @Publications TAG="Publications">
<LI><SFMT @Projects TAG="Projects">
<LI><SFMT @Activities TAG="Professional activities">
<LI><SFMT @Patents TAG="Patents">
</UL>
</BODY></HTML>""")

    templates.add("AddressPres", """<P><SFMT @street>, <SFMT @city> <SFMT @zip></P>""",
                  as_page=False)

    templates.add("PubsPage", """<HTML><HEAD><TITLE>Publications</TITLE></HEAD>
<BODY>
<H1>Publications</H1>
<H2>By year</H2>
<SFMTLIST @YearPage ORDER=ascend KEY=Year WRAP=UL>
<H2>By topic</H2>
<SFMTLIST @CategoryPage ORDER=ascend KEY=Name WRAP=UL>
<P><SFMT @Abstracts TAG="All abstracts">
</BODY></HTML>""")

    templates.add("AbstractsPage", """<HTML><HEAD><TITLE>Abstracts</TITLE></HEAD>
<BODY>
<H1>Paper Abstracts</H1>
<SFMTLIST @Abstract FORMAT=EMBED DELIM="<HR>">
</BODY></HTML>""")

    templates.add("YearPage", """<HTML><HEAD><TITLE>Publications by year</TITLE></HEAD>
<BODY>
<H1>Publications from <SFMT @Year></H1>
<SFMTLIST @Paper FORMAT=EMBED DELIM="<P>">
</BODY></HTML>""")

    templates.add("CategoryPage", """<HTML><HEAD><TITLE>Publications by topic</TITLE></HEAD>
<BODY>
<H1>Publications on <SFMT @Name></H1>
<SFMTLIST @Paper FORMAT=EMBED DELIM="<P>">
</BODY></HTML>""")

    templates.add("PaperPresentation", """<SFMT @postscript TAG=@title>.
By <SFOR a @author DELIM=", "><SFMT @a></SFOR>.
<SIF @journal><I><SFMT @journal></I></SIF><SIF @booktitle>In <I><SFMT @booktitle></I></SIF>, <SFMT @year>.
<SFMT @Abstract TAG="Abstract">""", as_page=False)

    templates.add("AbstractPage", """<HTML><HEAD><TITLE>Abstract</TITLE></HEAD>
<BODY>
<H3><SFMT @title></H3>
<P><SFMT @abstract>
<P><SFMT @postscript TAG="Full paper (PostScript)">
</BODY></HTML>""")

    templates.add("ActivitiesPage", """<HTML><HEAD><TITLE>Activities</TITLE></HEAD>
<BODY>
<H1>Professional activities</H1>
<SFMTLIST @Item ORDER=ascend WRAP=UL>
</BODY></HTML>""")

    if external:
        templates.add("ProjectsPage", """<HTML><HEAD><TITLE>Projects</TITLE></HEAD>
<BODY>
<H1>Projects</H1>
<SFMTLIST @Project FORMAT=EMBED DELIM="<HR>">
<P><I>Some projects are not publicly documented.</I></P>
</BODY></HTML>""")
        templates.add("ProjectPres", """<SIF NOT @proprietary><H3><SFMT @name></H3>
<P><SFMT @synopsis></P></SIF>""", as_page=False)
        templates.add("PatentsPage", """<HTML><HEAD><TITLE>Patents</TITLE></HEAD>
<BODY>
<H1>Patents</H1>
<P>Patent information is available on the internal site only.</P>
</BODY></HTML>""")
    else:
        templates.add("ProjectsPage", """<HTML><HEAD><TITLE>Projects</TITLE></HEAD>
<BODY>
<H1>Projects</H1>
<SFMTLIST @Project FORMAT=EMBED DELIM="<HR>">
</BODY></HTML>""")
        templates.add("ProjectPres", """<H3><SFMT @name><SIF @proprietary> (proprietary)</SIF></H3>
<P><SFMT @synopsis></P>""", as_page=False)
        templates.add("PatentsPage", """<HTML><HEAD><TITLE>Patents</TITLE></HEAD>
<BODY>
<H1>Patents</H1>
<SFMTLIST @Patent FORMAT=EMBED DELIM="<HR>">
</BODY></HTML>""")

    templates.add("PatentPres", """<H3><SFMT @title></H3>
<P><SFMT @number>, <SFMT @year></P>""", as_page=False)

    return templates


def mff_data(entries: int = 30, seed: int = 7) -> Graph:
    """The mff data graph: BibTeX + personal-data sources, integrated."""
    from repro.ddl.parser import parse_ddl
    data = BibTexWrapper().wrap(generate_bibtex(entries, seed=seed), "MFF")
    personal = parse_ddl(PERSONAL_DDL, "personal")
    data.import_graph(personal)
    data.name = "MFF"
    return data


def build_mff_site(data: Graph | None = None, external: bool = False,
                   entries: int = 30, seed: int = 7) -> Website:
    """The full mff homepage (internal or external version).

    Both versions share the data graph, the site graph and most
    templates; the external version swaps the four templates named in
    :data:`MFF_EXTERNAL_OVERRIDES`, which "exclude patents, and any
    publications and projects that are proprietary".
    """
    if data is None:
        data = mff_data(entries, seed)
    return Website(data, MFF_QUERY, mff_templates(external=external))
