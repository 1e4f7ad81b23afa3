"""HTML-template language and generator (paper sections 2.5 and 4)."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".ast": (
        "AttrExpr",
        "CmpCond",
        "Constant",
        "ExistsCond",
        "ForExpr",
        "FormatExpr",
        "IfExpr",
        "ListExpr",
        "Null",
        "Template",
        "Text",
    ),
    ".formats": ("anchor", "escape", "realize_atom"),
    ".generator": ("TEMPLATE_ATTRIBUTE", "HtmlGenerator", "TemplateSet"),
    ".parser": ("TemplateParser", "parse_template"),
})
