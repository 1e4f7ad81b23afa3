"""Source wrappers (paper section 2.2): external data to data graphs."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".base": ("Wrapper",),
    ".bibtex": ("BibTexWrapper",),
    ".html_wrapper": ("HtmlWrapper",),
    ".json_wrapper": ("JsonWrapper",),
    ".relational": ("RelationalWrapper",),
    ".structured_file": ("StructuredFileWrapper",),
    ".xml_wrapper": ("XmlWrapper",),
})
