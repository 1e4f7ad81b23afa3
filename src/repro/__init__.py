"""STRUDEL: a declarative Web-site management system.

A faithful reproduction of *"Overview of Strudel — A Web-Site Management
System"* (Fernandez, Florescu, Kang, Levy, Suciu; SIGMOD 1997 system).
STRUDEL separates the three tasks of Web-site construction — managing
the site's **data**, defining its **structure**, and designing its
**visual presentation** — and makes the middle one declarative: the site
is the result of a **StruQL** query over a semistructured data graph,
rendered to HTML by a template language.

Typical use::

    from repro import BibTexWrapper, Website, TemplateSet

    data = BibTexWrapper().wrap(open("pubs.bib").read())
    templates = TemplateSet()
    templates.add("RootPage", "<h1>My papers</h1><SFMTLIST @YearPage WRAP=UL>")
    ...
    site = Website(data, SITE_QUERY, templates)
    site.generate("public_html/")

Subsystems (see DESIGN.md for the full inventory):

* :mod:`repro.graph` — the labeled-directed-graph data model;
* :mod:`repro.ddl` — the textual data-definition language (Fig 2);
* :mod:`repro.repository` — the indexed schemaless store;
* :mod:`repro.wrappers` — BibTeX / HTML / relational / record / XML;
* :mod:`repro.mediator` — GAV integration, warehoused or virtual;
* :mod:`repro.struql` — the query language, engine and optimizers;
* :mod:`repro.templates` — the HTML-template language and generator;
* :mod:`repro.site` — site builder, site schemas, verification,
  click-time evaluation and the dynamic page server;
* :mod:`repro.obs` — the observability layer: span tracing, metrics
  (counters/gauges/histograms) and JSON/text exporters shared by every
  stage above;
* :mod:`repro.datagen` — seeded synthetic workloads.
"""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".ddl": ("parse_ddl", "parse_ddl_file", "write_ddl"),
    ".errors": (
        "ConstraintViolation",
        "DDLError",
        "StruQLError",
        "StruQLSemanticError",
        "StruQLSyntaxError",
        "StrudelError",
        "TemplateError",
        "TemplateSyntaxError",
        "WrapperError",
    ),
    ".graph": ("Atom", "AtomType", "Database", "Edge", "Graph", "Oid"),
    ".mediator": ("DataSource", "LimitedAccessSource", "Mediator"),
    ".repository": ("GraphIndex", "GraphStatistics", "Repository"),
    ".site": (
        "DynamicSite",
        "DynamicSiteServer",
        "LazySiteGraph",
        "ReachableFromRoot",
        "RequiredLink",
        "SiteSchema",
        "Verifier",
        "Website",
        "build_site_schema",
    ),
    ".struql": (
        "QueryEngine",
        "QueryResult",
        "SkolemRegistry",
        "evaluate",
        "parse_query",
    ),
    ".templates": ("HtmlGenerator", "TemplateSet", "parse_template"),
    ".wrappers": (
        "BibTexWrapper",
        "HtmlWrapper",
        "RelationalWrapper",
        "StructuredFileWrapper",
        "XmlWrapper",
    ),
})

__version__ = "1.0.0"

__all__.append("__version__")
