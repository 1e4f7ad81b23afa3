"""StruQL's construction stage: ``create``, ``link``, ``collect``.

Paper section 3 (Semantics):

    For each row in the relation, first construct all new node oids, as
    specified in the ``create`` clause. [...] Next, construct the new
    edges, as described in the ``link`` clause. [...] edges can only be
    added from new nodes to new or existing nodes; existing nodes are
    immutable [...].  Finally, the semantic of the ``collect`` clause is
    obvious.

:class:`GraphBuilder` applies one block's construction clauses to each
binding row, materializing the output graph.  It compiles each block
once: every construction term becomes a closure over the binding row
(:func:`compile_term`), so a row costs only the lookups and Skolem
applications it needs, not a walk of the term ASTs.  It enforces the
immutability rule dynamically as well (the parser already enforces it
statically): nodes imported from the input graph are fenced with
:meth:`~repro.graph.Graph.freeze_existing` semantics.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import StruQLSemanticError, UnboundTermError
from repro.graph.model import Graph, Oid
from repro.graph.values import Atom
from repro.struql.ast import Block, Const, SkolemTerm, Term, Var
from repro.struql.bindings import Binding, RuntimeValue, as_label
from repro.struql.skolem import SkolemRegistry

#: A compiled construction term: the term's runtime value under a row.
TermFn = Callable[[Binding], RuntimeValue]


def compile_term(term: Term, skolem: SkolemRegistry) -> TermFn:
    """Compile a construction term into a function of the binding row.

    A constant yields its value, a variable reads the row (raising
    :class:`UnboundTermError` when unbound) and a Skolem term
    applies ``skolem`` to its compiled arguments.
    """
    if isinstance(term, Const):
        value = term.value
        return lambda row: value
    if isinstance(term, Var):
        name = term.name

        def variable(row: Binding) -> RuntimeValue:
            try:
                return row[name]
            except KeyError:
                raise UnboundTermError(
                    f"variable {name!r} unbound at construction "
                    f"time") from None
        return variable
    if isinstance(term, SkolemTerm):
        fn = term.fn
        args = tuple(compile_term(arg, skolem) for arg in term.args)
        # Fixed-arity closures skip building a list per application
        # (~4% of a cold org build, where most Skolem terms take one
        # argument).
        if not args:
            return lambda row: skolem.apply(fn, ())
        if len(args) == 1:
            (only,) = args
            return lambda row: skolem.apply(fn, (only(row),))
        return lambda row: skolem.apply(fn, [arg(row) for arg in args])
    raise TypeError(f"not a term: {term!r}")


class GraphBuilder:
    """Builds the output graph of a query, row by row."""

    def __init__(self, output: Graph, input_graph: Graph,
                 skolem: SkolemRegistry) -> None:
        self.output = output
        self.input_graph = input_graph
        self.skolem = skolem
        #: Input-graph nodes are immutable; Skolem nodes minted here are
        #: not.  Tracked per builder, since a pre-existing output graph
        #: (multi-query composition) keeps its own created nodes mutable.
        self._input_nodes: set[Oid] = set(input_graph.nodes())
        #: id(block) -> (block, its compiled row function); the block is
        #: kept so its id cannot be reused while the entry lives.
        self._compiled: dict[int, tuple[Block, Callable[[Binding], None]]] \
            = {}

    def apply_block_row(self, block: Block, row: Binding) -> None:
        """Apply one block's construction clauses to one binding row."""
        entry = self._compiled.get(id(block))
        if entry is None or entry[0] is not block:
            entry = self._compiled[id(block)] = (block, self._compile(block))
        entry[1](row)

    def _compile(self, block: Block) -> Callable[[Binding], None]:
        """Compile a block's create, link and collect clauses into one
        function of the binding row."""
        skolem, output = self.skolem, self.output
        input_nodes = self._input_nodes
        creates = [compile_term(term, skolem) for term in block.creates]
        links = [(link, compile_term(link.source, skolem),
                  compile_term(link.label, skolem),
                  compile_term(link.target, skolem))
                 for link in block.links]
        collects = [(collect.name, compile_term(collect.term, skolem))
                    for collect in block.collects]

        def apply_row(row: Binding) -> None:
            for create in creates:
                output.add_node(create(row))
            for link, source_of, label_of, target_of in links:
                source = source_of(row)
                if source in input_nodes:
                    raise StruQLSemanticError(
                        f"link {link} would add an edge out of immutable "
                        f"input node {source}")
                label_value = label_of(row)
                label = as_label(label_value)
                if label is None:
                    raise StruQLSemanticError(
                        f"link {link}: label value {label_value!r} is not "
                        f"usable as an edge label")
                target = target_of(row)
                if isinstance(target, str):  # an arc variable's label
                    target = Atom.string(target)
                output.add_edge(source, label, target)
            for name, value_of in collects:
                value = value_of(row)
                if isinstance(value, str):
                    value = Atom.string(value)
                output.declare_collection(name)
                output.add_to_collection(name, value)
        return apply_row
