"""Mutation fuzzing of the three parsers.

The shipped site queries, templates and DDL samples are mutated —
slices deleted, duplicated or swapped, syntax-significant tokens
inserted — and handed to ``parse_query``, ``parse_template`` and
``parse_ddl``.  Each either parses or raises a ``StrudelError``
subclass; no other exception (``IndexError``, ``RecursionError``,
``ValueError``, ...) may escape.  ``derandomize=True`` makes the
examples a fixed function of the test, so tier-1 stays stable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ddl.parser import parse_ddl
from repro.errors import StrudelError
from repro.sites.cnn import CNN_QUERY, cnn_templates
from repro.sites.homepage import (
    FIG2_DDL,
    FIG3_QUERY,
    MFF_QUERY,
    PERSONAL_DDL,
    fig7_templates,
    mff_templates,
)
from repro.sites.monitor import MONITOR_QUERY, monitor_templates
from repro.sites.org import ORG_EXTERNAL_QUERY, ORG_QUERY, org_templates
from repro.sites.rodin import RODIN_QUERY, rodin_templates
from repro.struql.parser import parse_query
from repro.templates.parser import parse_template


def _sources(templates):
    return [templates.get(name).source for name in templates.names()]


QUERIES = [FIG3_QUERY, MFF_QUERY, CNN_QUERY, ORG_QUERY, ORG_EXTERNAL_QUERY,
           RODIN_QUERY, MONITOR_QUERY]
TEMPLATES = [source for templates in (fig7_templates(), mff_templates(),
                                      cnn_templates(), org_templates(),
                                      rodin_templates(), monitor_templates())
             for source in _sources(templates)]
DDL = [FIG2_DDL, PERSONAL_DDL]

#: Fragments that open, close or separate constructs in one of the
#: three languages, plus characters the lexers treat specially.
TOKENS = ["{", "}", "(", ")", "[", "]", "<", ">", "</", '"', "'", "\\",
          "@", "->", "=", "!=", "<=", ",", ".", "*", "+", "|", "?", ":",
          ";", "//", "/*", "*/", "\n", " ", "0", "-1", "1e999", "\x00",
          "WHERE", "CREATE", "LINK", "COLLECT", "INPUT", "OUTPUT", "not(",
          "isPage", "<SIF @a>", "</SIF>", "<SELSE>", "<SFOR x @a>",
          "</SFOR>", "<SFMT @a>", "<SFMTLIST @a>", "ORDER=", "KEY=",
          "FORMAT=", "object", "collection", "in", "true", "text"]

PARSERS = {
    "query": (QUERIES, parse_query),
    "template": (TEMPLATES, lambda text: parse_template("fuzz", text)),
    "ddl": (DDL, lambda text: parse_ddl(text, "FUZZ")),
}


@st.composite
def mutated(draw, corpus):
    """One corpus text with one to four random edits applied."""
    text = draw(st.sampled_from(corpus))
    for _ in range(draw(st.integers(1, 4))):
        size = len(text)
        start = draw(st.integers(0, size))
        end = draw(st.integers(start, min(size, start + 40)))
        edit = draw(st.sampled_from(["delete", "insert", "duplicate",
                                     "swap", "truncate"]))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "insert":
            token = draw(st.sampled_from(TOKENS) | st.text(max_size=3))
            text = text[:start] + token + text[start:]
        elif edit == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        elif edit == "swap":
            other = draw(st.integers(0, size))
            text = text[:start] + text[other:other + end - start] \
                + text[end:]
        else:
            text = text[:start]
    return text


@pytest.mark.parametrize("language", sorted(PARSERS))
@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(data=st.data())
def test_mutated_input_raises_only_strudel_errors(language, data):
    corpus, parse = PARSERS[language]
    text = data.draw(mutated(corpus), label="text")
    try:
        parse(text)
    except StrudelError:
        pass
