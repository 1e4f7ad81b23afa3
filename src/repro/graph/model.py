"""The STRUDEL data model: labeled directed graphs in the style of OEM.

Paper, section 2.1:

    A database consists of a set of graphs and each graph consists of a
    set of objects connected by directed edges labeled with string-valued
    attribute names.  Objects are either nodes, identified by a unique
    object identifier (oid), or are atomic values [...].  Objects are
    grouped into named collections, which are used in queries.  Objects
    may belong to multiple collections, and objects in the same
    collection may have different representations.  [...] Graphs of the
    same database may share objects and/or collections.

This module provides:

* :class:`Oid` — an object identifier, optionally recording the Skolem
  function and arguments that created it.
* :class:`Edge` — a ``(source, label, target)`` triple.
* :class:`Graph` — a mutable labeled directed graph with named
  collections, multi-valued attributes, and an immutability fence used by
  StruQL's construction semantics.
* :class:`Database` — a set of named graphs that may share objects.
* **read keys** — names for the parts of a graph one read depends on,
  which :attr:`Graph.journal` collects for each mutation.

Both the raw data served by a Web site (the *data graph*) and the site
itself (the *site graph*) are instances of :class:`Graph`.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterator, NamedTuple, Union

from repro.errors import (
    GraphError,
    ImmutableNodeError,
    UnknownCollectionError,
    UnknownObjectError,
)
from repro.graph.values import Atom


class Oid:
    """A unique object identifier for an internal (node) object.

    Plain oids carry just a name (``Oid("pub1")``).  Oids minted by a
    Skolem function additionally record the function name and argument
    tuple (``Oid.skolem("YearPage", (Atom.int(1997),))``), which makes
    Skolem identity (same function + same arguments = same oid) a simple
    structural equality and keeps generated oids human-readable, e.g.
    ``YearPage(1997)``.
    """

    __slots__ = ("name", "skolem_fn", "skolem_args", "_hash")

    def __init__(self, name: str, skolem_fn: str | None = None,
                 skolem_args: tuple[Any, ...] = ()) -> None:
        self.name = name
        self.skolem_fn = skolem_fn
        self.skolem_args = skolem_args
        self._hash = hash((name, skolem_fn, skolem_args))

    @staticmethod
    def skolem(fn: str, args: tuple[Any, ...]) -> "Oid":
        """Mint the oid produced by Skolem function ``fn`` on ``args``."""
        rendered = ",".join(_render_skolem_arg(a) for a in args)
        return Oid(f"{fn}({rendered})", skolem_fn=fn, skolem_args=tuple(args))

    @property
    def is_skolem(self) -> bool:
        """Whether this oid was minted by a Skolem function."""
        return self.skolem_fn is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Oid):
            return NotImplemented
        return (self.name == other.name
                and self.skolem_fn == other.skolem_fn
                and self.skolem_args == other.skolem_args)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Oid({self.name!r})"

    def __str__(self) -> str:
        return self.name


def _render_skolem_arg(arg: Any) -> str:
    if isinstance(arg, Oid):
        return arg.name
    if isinstance(arg, Atom):
        return str(arg.value)
    return str(arg)


#: An object of the data model: an internal node or an atomic value.
GraphObject = Union[Oid, Atom]


class Edge(NamedTuple):
    """A directed edge ``source -> label -> target``.

    ``source`` is always a node; ``target`` may be a node or an atom.
    Labels are the string-valued attribute names of the model.
    """

    source: Oid
    label: str
    target: GraphObject


# -- read keys -----------------------------------------------------------------
#
# A read key names the part of a graph that one read returned:
#
# * ``("out", s)`` / ``("in", t)`` — every edge out of ``s`` / into ``t``;
# * ``("out", s, l)`` / ``("in", t, l)`` — the ``l`` edges out of ``s`` /
#   into ``t``;
# * ``("label", l)`` — the extent of label ``l``;
# * ``("collection", c)`` — the members (and existence) of collection ``c``;
# * :data:`EVERYTHING` — a full edge scan or the active domain.
#
# A mutation *meets* the keys whose reads it may change.  The graph is
# add-only, so a read whose keys no mutation met returns what it did.

#: The key of a read of the whole graph; every new node or edge meets it.
EVERYTHING = ("everything",)


def edge_keys(edge: Edge) -> tuple[tuple, ...]:
    """The read keys a new edge meets."""
    source, label, target = edge
    return (("out", source), ("out", source, label), ("in", target),
            ("in", target, label), ("label", label), EVERYTHING)


class Graph:
    """A labeled directed graph with named collections.

    The graph is a *set* of nodes, atoms, and edges: adding the same edge
    twice is a no-op, but an object may carry many edges with the same
    label (multi-valued attributes, e.g. several ``author`` edges).
    Insertion order of edges is preserved, which the template language
    relies on when no explicit ``ORDER`` is requested.

    ``name`` identifies the graph inside a :class:`Database` ("input
    graph" / "output graph" in StruQL queries).  ``version`` is the
    graph's data version: it grows by one with every mutation that
    changes the graph (a repeated, idempotent add leaves it alone), so
    anything derived from the graph is fresh exactly while the version
    it was built at is current.  While :attr:`journal` is a set, each
    such mutation also adds to it the read keys it meets.

    Reverse adjacency (:meth:`in_edges`) is built on its first call,
    from the edges in insertion order, and kept up to date by every
    later :meth:`add_edge`.  Like every structure built on a first read
    (the label maps of :class:`~repro.repository.GraphIndex` too), the
    build assumes that no other thread mutates the graph while it
    runs; the click-time server holds ``DynamicSite.lock`` across both.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.version = 0
        self.journal: set[tuple] | None = None
        self._nodes: dict[Oid, None] = {}
        self._out: dict[Oid, list[Edge]] = {}
        #: Edges by the hash of their target, built on the first
        #: :meth:`in_edges` call (see above).
        self._in: dict[int, list[Edge]] | None = None
        #: Every edge in insertion order (the values are unused).
        self._edges: dict[Edge, None] = {}
        self._collections: dict[str, dict[GraphObject, None]] = {}
        self._frozen: set[Oid] = set()

    def _changed(self, change: tuple) -> None:
        """Count one mutation and journal the read keys it meets:
        ``change`` is a new :class:`Edge`, or the one key it meets."""
        self.version += 1
        if self.journal is not None:
            self.journal.update(edge_keys(change)
                                if isinstance(change, Edge) else (change,))

    # -- nodes ---------------------------------------------------------------

    def add_node(self, oid: Oid) -> Oid:
        """Add a node; returns the oid for chaining.  Idempotent."""
        if oid not in self._nodes:
            self._nodes[oid] = None
            self._out.setdefault(oid, [])
            self._changed(EVERYTHING)
        return oid

    def has_node(self, oid: Oid) -> bool:
        """Whether the graph contains the node ``oid``."""
        return oid in self._nodes

    def nodes(self) -> Iterator[Oid]:
        """Iterate over all node oids in insertion order."""
        return iter(self._nodes)

    @property
    def node_count(self) -> int:
        """Number of internal (node) objects."""
        return len(self._nodes)

    # -- immutability fence ----------------------------------------------------

    def freeze_existing(self) -> None:
        """Mark every current node immutable.

        StruQL's construction stage may reference input-graph nodes but
        must not add edges out of them ("existing nodes are immutable").
        The construction machinery imports the input nodes and then calls
        this before applying ``link`` clauses.
        """
        self._frozen.update(self._nodes)

    def is_frozen(self, oid: Oid) -> bool:
        """Whether ``oid`` is behind the immutability fence."""
        return oid in self._frozen

    # -- edges ---------------------------------------------------------------

    def add_edge(self, source: Oid, label: str,
                 target: GraphObject) -> Edge:
        """Add ``source -> label -> target``; creates endpoints as needed.

        Raises :class:`ImmutableNodeError` if ``source`` is frozen, and
        :class:`GraphError` on malformed endpoints.
        """
        if not isinstance(source, Oid):
            raise GraphError(f"edge source must be a node, got {source!r}")
        if not isinstance(target, (Oid, Atom)):
            raise GraphError(f"edge target must be a node or atom, "
                             f"got {target!r}")
        if not isinstance(label, str):
            raise GraphError(f"edge label must be a string, got {label!r}")
        if source in self._frozen:
            raise ImmutableNodeError(
                f"cannot add edge out of immutable node {source}")
        self.add_node(source)
        if isinstance(target, Oid):
            self.add_node(target)
        edge = Edge(source, label, target)
        if edge not in self._edges:
            self._edges[edge] = None
            self._out[source].append(edge)
            if self._in is not None:
                self._in.setdefault(hash(target), []).append(edge)
            self._changed(edge)
        return edge

    def has_edge(self, source: Oid, label: str, target: GraphObject) -> bool:
        """Whether the exact edge is present."""
        return Edge(source, label, target) in self._edges

    def edges(self) -> Iterator[Edge]:
        """Iterate over every edge (grouped by source, insertion order)."""
        return chain.from_iterable(self._out.values())

    @property
    def edge_count(self) -> int:
        """Number of distinct edges."""
        return len(self._edges)

    def out_edges(self, source: Oid) -> list[Edge]:
        """All edges leaving ``source`` in insertion order."""
        return list(self._out.get(source, ()))

    def in_edges(self, target: GraphObject) -> list[Edge]:
        """All edges arriving at ``target`` in insertion order: those
        whose own target equals ``target``, atoms under coercion.

        Coercing equality is not transitive (``" 3 "`` equals ``3``,
        which equals ``"3"``, but ``" 3 "`` does not equal ``"3"``), so
        the map keys edges by their target's hash, which equal atoms
        share, and compares each edge's own target here.
        """
        incoming = self._in
        if incoming is None:
            # Built into a local and published with one assignment, so
            # a concurrent reader sees the whole map or none of it.
            incoming = {}
            for edge in self._edges:
                key = hash(edge.target)
                found = incoming.get(key)
                if found is None:
                    incoming[key] = found = []
                found.append(edge)
            self._in = incoming
        return [edge for edge in incoming.get(hash(target), ())
                if edge.target == target]

    def get(self, source: Oid, label: str) -> list[GraphObject]:
        """Values of attribute ``label`` on ``source`` (possibly many)."""
        return [e.target for e in self._out.get(source, ())
                if e.label == label]

    def get_one(self, source: Oid, label: str,
                default: GraphObject | None = None) -> GraphObject | None:
        """First value of attribute ``label`` on ``source``, or ``default``."""
        for edge in self._out.get(source, ()):
            if edge.label == label:
                return edge.target
        return default

    def labels_of(self, source: Oid) -> list[str]:
        """Distinct attribute names on ``source`` in first-seen order."""
        seen: dict[str, None] = {}
        for edge in self._out.get(source, ()):
            seen.setdefault(edge.label, None)
        return list(seen)

    # -- schema-level views (the model is schemaless; the schema is data) ------

    def labels(self) -> list[str]:
        """All distinct edge labels in the graph (the *attribute schema*)."""
        seen: dict[str, None] = {}
        for edge in self._edges:
            seen.setdefault(edge.label, None)
        return sorted(seen)

    def atoms(self) -> Iterator[Atom]:
        """Iterate over every distinct atomic value appearing as a target."""
        seen: set[int] = set()
        for edge in self.edges():
            if isinstance(edge.target, Atom):
                key = id(edge.target)
                if key not in seen:
                    seen.add(key)
                    yield edge.target

    def objects(self) -> Iterator[GraphObject]:
        """Iterate over all objects: nodes first, then atom targets."""
        yield from self.nodes()
        yield from self.atoms()

    # -- collections ------------------------------------------------------------

    def add_to_collection(self, name: str, obj: GraphObject) -> None:
        """Add ``obj`` to collection ``name``, creating it if absent."""
        if isinstance(obj, Oid):
            self.add_node(obj)
        members = self._collections.get(name)
        if members is None:
            members = self._collections[name] = {}
        if obj not in members:
            members[obj] = None
            self._changed(("collection", name))

    def declare_collection(self, name: str) -> None:
        """Ensure collection ``name`` exists (possibly empty)."""
        if name not in self._collections:
            self._collections[name] = {}
            self._changed(("collection", name))

    def collection(self, name: str) -> list[GraphObject]:
        """Members of collection ``name`` in insertion order.

        Raises :class:`UnknownCollectionError` for undeclared names.
        """
        try:
            return list(self._collections[name])
        except KeyError:
            raise UnknownCollectionError(name) from None

    def has_collection(self, name: str) -> bool:
        """Whether collection ``name`` is declared."""
        return name in self._collections

    def in_collection(self, name: str, obj: GraphObject) -> bool:
        """Whether ``obj`` is a member of collection ``name``."""
        return obj in self._collections.get(name, {})

    def collection_names(self) -> list[str]:
        """All declared collection names, sorted."""
        return sorted(self._collections)

    def collections_of(self, obj: GraphObject) -> list[str]:
        """Names of the collections ``obj`` belongs to, sorted."""
        return sorted(name for name, members in self._collections.items()
                      if obj in members)

    # -- bulk operations ----------------------------------------------------------

    def import_graph(self, other: "Graph",
                     include_collections: bool = True) -> None:
        """Copy every node, edge and (optionally) collection of ``other``.

        Shared oids unify: importing does not rename anything, mirroring
        the paper's "graphs of the same database may share objects".
        Frozen status is *not* imported; callers decide what to freeze.
        """
        for node in other.nodes():
            self.add_node(node)
        for edge in other.edges():
            self.add_edge(edge.source, edge.label, edge.target)
        if include_collections:
            for name in other.collection_names():
                self.declare_collection(name)
                for member in other.collection(name):
                    self.add_to_collection(name, member)

    def copy(self, name: str | None = None) -> "Graph":
        """A structural copy of this graph (no frozen state)."""
        out = Graph(name if name is not None else self.name)
        out.import_graph(self)
        return out

    def subgraph(self, keep: Callable[[Oid], bool],
                 name: str = "") -> "Graph":
        """The induced subgraph on nodes satisfying ``keep``.

        Edges whose source survives are kept when their target is an atom
        or a surviving node.  Collection memberships of surviving objects
        are preserved.
        """
        out = Graph(name or self.name)
        for node in self.nodes():
            if keep(node):
                out.add_node(node)
        for edge in self.edges():
            if not keep(edge.source):
                continue
            if isinstance(edge.target, Oid) and not keep(edge.target):
                continue
            out.add_edge(edge.source, edge.label, edge.target)
        for cname in self.collection_names():
            for member in self.collection(cname):
                if isinstance(member, Atom) or keep(member):
                    out.declare_collection(cname)
                    out.add_to_collection(cname, member)
        return out

    # -- dunder ---------------------------------------------------------------

    def __contains__(self, obj: object) -> bool:
        if isinstance(obj, Oid):
            return obj in self._nodes
        if isinstance(obj, Edge):
            return obj in self._edges
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (f"Graph({self.name!r}, nodes={self.node_count}, "
                f"edges={self.edge_count}, "
                f"collections={len(self._collections)})")


class Database:
    """A set of named graphs that may share objects and collections.

    The repository (section 2.2) stores databases; StruQL queries name
    their input and output graphs, which this class resolves.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._graphs: dict[str, Graph] = {}

    def add_graph(self, graph: Graph) -> Graph:
        """Register ``graph`` under its own name; replaces any previous."""
        if not graph.name:
            raise GraphError("a database graph must be named")
        self._graphs[graph.name] = graph
        return graph

    def new_graph(self, name: str) -> Graph:
        """Create, register and return an empty graph called ``name``."""
        return self.add_graph(Graph(name))

    def graph(self, name: str) -> Graph:
        """Fetch graph ``name``; raises :class:`UnknownObjectError` if absent."""
        try:
            return self._graphs[name]
        except KeyError:
            raise UnknownObjectError(name) from None

    def has_graph(self, name: str) -> bool:
        """Whether a graph called ``name`` is registered."""
        return name in self._graphs

    def graph_names(self) -> list[str]:
        """Sorted names of all registered graphs."""
        return sorted(self._graphs)

    def remove_graph(self, name: str) -> None:
        """Drop graph ``name``; missing names are ignored."""
        self._graphs.pop(name, None)

    def __contains__(self, name: object) -> bool:
        return name in self._graphs

    def __len__(self) -> int:
        return len(self._graphs)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, graphs={sorted(self._graphs)})"


def ensure_object(value: Any) -> GraphObject:
    """Coerce a Python value to a :data:`GraphObject` (oid or atom)."""
    if isinstance(value, (Oid, Atom)):
        return value
    return Atom.of(value)
