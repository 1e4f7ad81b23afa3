"""Query rewriting utilities: flattening, composition, decomposition.

*Flattening* turns a query's block tree into a list of
:class:`ConjunctiveUnit`\\ s — one per block, each carrying the block's
*effective* conditions (its own conjoined with all ancestors') and its
construction clauses.  The paper states the block facility "is nothing
more than syntactic convenience, since the meaning is the same as that
of the query in which all clauses are joint together"; a unit is exactly
that joint form per block.  Site schemas (:mod:`repro.site.schema`) and
incremental evaluation (:mod:`repro.site.incremental`) are both defined
over units.

*Composition* evaluates a pipeline of queries, each reading the previous
output, with one shared Skolem registry — the multi-query site-building
pattern of section 5.1 ("its site graph is built in several successive
steps by multiple, composed StruQL queries").

*Decomposition* extracts, for a Skolem function ``F``, the units whose
links leave ``F`` — the raw material of click-time page queries
[FER 98c].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.graph.model import Graph
from repro.struql.ast import (
    Block,
    CollectSpec,
    Condition,
    LinkSpec,
    Query,
    SkolemTerm,
)
from repro.struql.evaluator import QueryEngine, QueryResult
from repro.struql.parser import parse_query
from repro.struql.skolem import SkolemRegistry

if TYPE_CHECKING:
    from repro.repository.repository import Repository


@dataclass
class ConjunctiveUnit:
    """One block, flattened: effective conditions + construction clauses.

    ``label`` is the conjunction of the where-labels governing the unit,
    e.g. ``"Q1 ^ Q2"`` for Fig 3's YearPage block — the same notation the
    paper uses to label site-schema edges.
    """

    conditions: list[Condition]
    creates: list[SkolemTerm]
    links: list[LinkSpec]
    collects: list[CollectSpec]
    label: str = "true"
    depth: int = 0

    @property
    def is_constructive(self) -> bool:
        """Whether the unit actually builds anything."""
        return bool(self.creates or self.links or self.collects)


def flatten(query: Query | str) -> list[ConjunctiveUnit]:
    """Flatten a query's block tree into conjunctive units, preorder."""
    if isinstance(query, str):
        query = parse_query(query)
    units: list[ConjunctiveUnit] = []

    def walk(block: Block, inherited: list[Condition],
             labels: list[str], depth: int) -> None:
        conditions = inherited + list(block.conditions)
        block_labels = labels + ([block.label] if block.label else [])
        units.append(ConjunctiveUnit(
            conditions=conditions,
            creates=list(block.creates),
            links=list(block.links),
            collects=list(block.collects),
            label=" ^ ".join(block_labels) if block_labels else "true",
            depth=depth,
        ))
        for child in block.children:
            walk(child, conditions, block_labels, depth + 1)

    walk(query.root, [], [], 0)
    return units


def creating_units(units: list[ConjunctiveUnit],
                   fn: str) -> list[ConjunctiveUnit]:
    """Units whose ``create`` clause mentions Skolem function ``fn``."""
    return [u for u in units
            if any(term.fn == fn for term in u.creates)]


def linking_units(units: list[ConjunctiveUnit],
                  fn: str) -> list[tuple[ConjunctiveUnit, LinkSpec]]:
    """Every (unit, link) pair whose link's source is function ``fn`` —
    the decomposition used to compute one page's links at click time."""
    out: list[tuple[ConjunctiveUnit, LinkSpec]] = []
    for unit in units:
        for link in unit.links:
            if link.source.fn == fn:
                out.append((unit, link))
    return out


def compose(queries: list[Query | str], graph: Graph,
            engine: QueryEngine | None = None) -> QueryResult:
    """Evaluate a pipeline of queries, feeding each output to the next.

    Each query's ``input`` name is taken on faith (the pipeline wires
    outputs to inputs positionally); a shared Skolem registry preserves
    node identity across steps, so later steps may link to pages created
    by earlier ones.  Returns the final step's result.
    """
    if not queries:
        raise ValueError("compose() needs at least one query")
    engine = engine or QueryEngine()
    skolem = SkolemRegistry()
    current = graph
    result: QueryResult | None = None
    for step in queries:
        result = engine.evaluate(step, current, skolem=skolem)
        current = result.output
    assert result is not None
    return result


def run_pipeline(queries: list[Query | str], repository: Repository,
                 engine: QueryEngine | None = None) -> QueryResult:
    """Like :func:`compose` but resolving input graphs by name from a
    repository and storing every intermediate output graph in it."""
    if not queries:
        raise ValueError("run_pipeline() needs at least one query")
    engine = engine or QueryEngine()
    skolem = SkolemRegistry()
    result: QueryResult | None = None
    for step in queries:
        result = engine.run(step, repository, skolem=skolem)
    assert result is not None
    return result
