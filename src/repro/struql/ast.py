"""Abstract syntax of StruQL (Site TRansformation Und Query Language).

The core fragment (paper section 3):

.. code-block:: text

    input  G
    where  C1, ..., Ck
    [create N1, ..., Nn]
    [link   L1, ..., Lp]
    [collect G1, ..., Gq]
    output R

plus the *block* facility: ``where/create/link/collect`` clauses may be
intermixed and nested in ``{ ... }`` blocks; a nested block's conditions
conjoin with its ancestors'.  The AST mirrors that structure directly:

* a :class:`Query` holds the input/output graph names and a root
  :class:`Block`;
* a :class:`Block` holds conditions, create/link/collect specs, and
  child blocks;
* conditions are :class:`MembershipCond` (collection membership or
  external predicate — disambiguated *semantically*, per the paper),
  :class:`PathCond` (regular path expressions or single arc-variable
  edges), :class:`ComparisonCond`, :class:`InCond`, :class:`NotCond`;
* regular path expressions are trees of :class:`RLabel`,
  :class:`RConcat`, :class:`RAlt`, :class:`RStar` whose leaves are label
  predicates (:class:`LabelEquals`, :class:`AnyLabel`,
  :class:`LabelPredicate`).

Terms are :class:`Var`, :class:`Const` and — in construction clauses —
:class:`SkolemTerm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.graph.values import Atom

# --------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    """A query variable; node or arc is decided by syntactic position."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant value (wrapping an :class:`~repro.graph.Atom`)."""

    value: Atom

    def __str__(self) -> str:
        if self.value.type.name == "STRING":
            return f'"{self.value.value}"'
        return str(self.value)


@dataclass(frozen=True)
class SkolemTerm:
    """An application of a Skolem function, e.g. ``YearPage(v)``.

    Arguments are variables or constants; by convention the same function
    applied to the same inputs yields the same new oid.
    """

    fn: str
    args: tuple[Union[Var, Const], ...] = ()

    def __str__(self) -> str:
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


#: Anything that may appear as a link endpoint.
Term = Union[Var, Const, SkolemTerm]

#: A link's label: a constant string or an arc variable.
LabelTerm = Union[Var, Const]


# --------------------------------------------------------------------------
# Regular path expressions  (R ::= Pred | R.R | R|R | R*)


@dataclass(frozen=True)
class LabelEquals:
    """Leaf predicate: the edge label equals a constant string."""

    label: str

    def __str__(self) -> str:
        return f'"{self.label}"'


@dataclass(frozen=True)
class AnyLabel:
    """Leaf predicate ``true``: any edge label matches."""

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class LabelPredicate:
    """Leaf predicate: a named (built-in or external) predicate applied
    to the edge label, e.g. ``isName`` in ``isName*``."""

    name: str

    def __str__(self) -> str:
        return self.name


LabelPred = Union[LabelEquals, AnyLabel, LabelPredicate]


@dataclass(frozen=True)
class RLabel:
    """A single edge whose label satisfies a leaf predicate."""

    pred: LabelPred

    def __str__(self) -> str:
        return str(self.pred)


@dataclass(frozen=True)
class RConcat:
    """Path concatenation ``R.R``."""

    parts: tuple["RegularPath", ...]

    def __str__(self) -> str:
        return ".".join(_wrap(p) for p in self.parts)


@dataclass(frozen=True)
class RAlt:
    """Alternation ``R|R``."""

    options: tuple["RegularPath", ...]

    def __str__(self) -> str:
        return "|".join(_wrap(o) for o in self.options)


@dataclass(frozen=True)
class RStar:
    """Kleene closure ``R*`` (zero or more repetitions)."""

    inner: "RegularPath"

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}*"


RegularPath = Union[RLabel, RConcat, RAlt, RStar]

#: The abbreviation ``*`` of the paper: ``true*`` — any path, any length.
ANY_PATH: RegularPath = RStar(RLabel(AnyLabel()))


def _wrap(expr: "RegularPath") -> str:
    text = str(expr)
    if isinstance(expr, (RAlt, RConcat)):
        return f"({text})"
    return text


# --------------------------------------------------------------------------
# Conditions


@dataclass(frozen=True)
class MembershipCond:
    """``Name(t1, ..., tn)`` — collection membership (arity 1, name is a
    collection of the input graph) or an external/built-in predicate.

    The paper resolves the ambiguity semantically; so do we, at
    evaluation time against the input graph's collections and the
    predicate registry.
    """

    name: str
    args: tuple[Union[Var, Const], ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class PathCond:
    """``x -> R -> y`` (regular path) or ``x -> l -> y`` (arc variable).

    Exactly one of ``path`` and ``arc_var`` is set: an identifier in edge
    position that is not a registered predicate is an arc variable and
    binds to the label of a single edge.
    """

    source: Union[Var, Const]
    target: Union[Var, Const]
    path: RegularPath | None = None
    arc_var: str | None = None

    def __post_init__(self) -> None:
        if (self.path is None) == (self.arc_var is None):
            raise ValueError("PathCond needs exactly one of path/arc_var")

    def __str__(self) -> str:
        middle = self.arc_var if self.arc_var else str(self.path)
        return f"{self.source} -> {middle} -> {self.target}"


#: Comparison operators of the language.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class ComparisonCond:
    """``left op right`` with dynamic value coercion."""

    left: Union[Var, Const]
    op: str
    right: Union[Var, Const]

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class InCond:
    """``l in { "Paper", "TechReport", ... }`` — label-set membership."""

    var: Var
    values: tuple[Const, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        return f"{self.var} in {{{inner}}}"


@dataclass(frozen=True)
class NotCond:
    """``not(C)`` — negation, under active-domain semantics."""

    inner: "Condition"

    def __str__(self) -> str:
        return f"not({self.inner})"


#: Aggregate functions of the grouping extension.
AGGREGATE_FUNCTIONS = ("count", "min", "max", "sum", "avg")


@dataclass(frozen=True)
class AggregateCond:
    """``fn(v) [per x, y] as n`` — the grouping/aggregation extension.

    The paper notes the query stage "is independently extensible; for
    example, we could extend it to include grouping and aggregation"
    (section 5.2).  Semantics (window-function style, which keeps the
    two-stage model intact): partition the current binding relation by
    the ``group`` variables' values, aggregate the *distinct* values of
    ``var`` within each partition, and extend every row with ``out``
    bound to its partition's aggregate.  ``count`` works on anything;
    ``min``/``max`` use atom ordering; ``sum``/``avg`` require numeric
    coercion.
    """

    fn: str
    var: Var
    group: tuple[Var, ...]
    out: Var

    def __str__(self) -> str:
        per = f" per {', '.join(str(g) for g in self.group)}" \
            if self.group else ""
        return f"{self.fn}({self.var}){per} as {self.out}"


Condition = Union[MembershipCond, PathCond, ComparisonCond, InCond,
                  NotCond, AggregateCond]


# --------------------------------------------------------------------------
# Construction clauses


@dataclass(frozen=True)
class LinkSpec:
    """One ``link`` expression ``source -> label -> target``.

    StruQL's semantics require the source to be a Skolem term (edges are
    only added out of new nodes); the parser enforces this.
    """

    source: SkolemTerm
    label: LabelTerm
    target: Term

    def __str__(self) -> str:
        return f"{self.source} -> {self.label} -> {self.target}"


@dataclass(frozen=True)
class CollectSpec:
    """One ``collect`` expression ``Name(term)``."""

    name: str
    term: Term

    def __str__(self) -> str:
        return f"{self.name}({self.term})"


@dataclass
class Block:
    """A ``where/create/link/collect`` group plus nested child blocks.

    A block's *effective* conditions are its own conjoined with every
    ancestor's; the construction clauses run once per binding of the
    effective conditions (the paper's two-stage semantics applied per
    block, equivalent to the flattened joint query).
    """

    conditions: list[Condition] = field(default_factory=list)
    creates: list[SkolemTerm] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)
    collects: list[CollectSpec] = field(default_factory=list)
    children: list["Block"] = field(default_factory=list)
    #: Short label (Q1, Q2, ...) assigned in parse order; used by site
    #: schemas to name the where-clauses governing each link.
    label: str = ""

    def walk(self) -> Iterator["Block"]:
        """This block and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def variables(self) -> set[str]:
        """Names of all variables mentioned in this block's conditions."""
        out: set[str] = set()
        for condition in self.conditions:
            out |= condition_variables(condition)
        return out


@dataclass
class Query:
    """A complete StruQL query.

    ``params`` names evaluation-time parameters (form/user input) that
    the caller binds via ``QueryEngine.evaluate(..., initial=...)``.
    """

    input_name: str
    output_name: str
    root: Block
    text: str = ""
    params: tuple[str, ...] = ()

    def blocks(self) -> Iterator[Block]:
        """All blocks, preorder from the root."""
        return self.root.walk()

    def skolem_functions(self) -> list[str]:
        """Names of every Skolem function created anywhere in the query."""
        seen: dict[str, None] = {}
        for block in self.blocks():
            for term in block.creates:
                seen.setdefault(term.fn, None)
        return list(seen)

    def link_count(self) -> int:
        """Total number of ``link`` expressions — the paper's measure of
        a site's structural complexity (Fig 8)."""
        return sum(len(block.links) for block in self.blocks())

    def __str__(self) -> str:
        return self.text or f"input {self.input_name} ... output {self.output_name}"


# --------------------------------------------------------------------------
# Variable accounting helpers


def term_variables(term: Term) -> set[str]:
    """Variable names appearing in a term."""
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, SkolemTerm):
        out: set[str] = set()
        for arg in term.args:
            out |= term_variables(arg)
        return out
    return set()


def condition_variables(condition: Condition) -> set[str]:
    """Variable names appearing anywhere in a condition."""
    if isinstance(condition, MembershipCond):
        out: set[str] = set()
        for arg in condition.args:
            out |= term_variables(arg)
        return out
    if isinstance(condition, PathCond):
        out = term_variables(condition.source) | term_variables(
            condition.target)
        if condition.arc_var:
            out.add(condition.arc_var)
        return out
    if isinstance(condition, ComparisonCond):
        return term_variables(condition.left) | term_variables(
            condition.right)
    if isinstance(condition, InCond):
        return {condition.var.name}
    if isinstance(condition, NotCond):
        return condition_variables(condition.inner)
    if isinstance(condition, AggregateCond):
        out = {condition.var.name, condition.out.name}
        out.update(g.name for g in condition.group)
        return out
    raise TypeError(f"not a condition: {condition!r}")
