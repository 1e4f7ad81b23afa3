"""Reference site definitions used by examples, tests and benchmarks.

One module per site the paper reports on in section 5.1:

* :mod:`repro.sites.homepage` — the running example (Fig 2/3/7) and the
  scaled "mff" homepage with internal/external template variants;
* :mod:`repro.sites.cnn` — the CNN demonstration and its sports-only
  derived site;
* :mod:`repro.sites.org` — the AT&T Labs internal/external pair over
  five mediated sources;
* :mod:`repro.sites.rodin` — the bilingual INRIA-Rodin site.

:mod:`repro.sites.monitor` is the odd one out: not from the paper, it
dogfoods the pipeline on STRUDEL's own telemetry (the ``repro monitor``
dashboard).
"""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".cnn": ("CNN_QUERY", "SPORTS_QUERY", "build_cnn_site", "cnn_templates"),
    ".homepage": (
        "FIG2_DDL",
        "FIG3_QUERY",
        "MFF_EXTERNAL_OVERRIDES",
        "MFF_QUERY",
        "PERSONAL_DDL",
        "build_homepage_site",
        "build_mff_site",
        "fig2_data",
        "fig7_templates",
        "mff_data",
        "mff_templates",
    ),
    ".monitor": ("MONITOR_QUERY", "build_monitor_site", "monitor_templates",
                 "telemetry_graph"),
    ".org": ("EXTERNAL_OVERRIDES", "ORG_EXTERNAL_QUERY", "ORG_QUERY",
             "build_org_site", "org_templates"),
    ".rodin": ("RODIN_QUERY", "build_rodin_site", "generate_rodin_records",
               "rodin_templates"),
})
