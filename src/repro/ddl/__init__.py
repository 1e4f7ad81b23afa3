"""STRUDEL data-definition language (paper Fig 2): parser and writer."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".parser": ("DDLParser", "parse_ddl", "parse_ddl_file"),
    ".writer": ("write_ddl",),
})
