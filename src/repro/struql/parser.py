"""Parser for StruQL.

Surface syntax, reconstructed from the paper's grammar and examples
(Fig 3, the TextOnly query, the BIBTEX block query):

.. code-block:: text

    query   ::=  INPUT IDENT body OUTPUT IDENT
    body    ::=  clause*
    clause  ::=  WHERE cond ((","|";"|AND) cond)*
              |  CREATE skolem ("," skolem)*
              |  LINK chain ("," chain)*
              |  COLLECT IDENT "(" term ")" ("," ...)*
              |  "{" body "}"
    cond    ::=  NOT "(" cond ")"
              |  IDENT "(" args ")"                      membership/predicate
              |  endpoint ("->" seg "->" endpoint)+      path chain
              |  term cmp-op term
              |  IDENT IN "{" const ("," const)* "}"
    seg     ::=  IDENT            arc variable (when the segment is one
                                  bare identifier) — binds the edge label
              |  rpe              regular path expression otherwise
    rpe     ::=  alt ;  alt ::= cat ("|" cat)* ;  cat ::= star ("." star)*
    star    ::=  base "*"* ;  base ::= STRING | TRUE | IDENT | "*" | "(" alt ")"
    chain   ::=  term ("->" (STRING|IDENT) "->" term)+   each triple a link

Keywords are case-insensitive (the paper writes both ``where`` and
``WHERE``).  Conditions may separate with ``,``, ``;`` or ``and``.

Disambiguation rules implemented here:

* in a path segment, a *bare* identifier is an **arc variable**; an
  identifier inside a composite expression (with ``*``, ``.``, ``|`` or
  parentheses, e.g. ``isName*``) is a **label predicate**;
* ``true`` is the any-label predicate; a lone ``*`` is the any-path
  abbreviation;
* ``Name(args)`` in a ``where`` clause is collection membership or an
  external predicate — resolved at evaluation time, as the paper
  specifies ("at a semantic, not syntactic, level");
* a ``link`` source must be a Skolem term (existing nodes are
  immutable); violating queries are rejected here with
  :class:`~repro.errors.StruQLSemanticError`.
"""

from __future__ import annotations

from repro.errors import StruQLSemanticError, StruQLSyntaxError
from repro.graph.values import Atom
from repro.lexutil import (
    EOF, FLOAT, IDENT, INT, MAX_NESTING, PUNCT, STRING, ScanError, Token,
    scan,
)
from repro.struql.ast import (
    AGGREGATE_FUNCTIONS,
    ANY_PATH,
    AggregateCond,
    AnyLabel,
    Block,
    CollectSpec,
    ComparisonCond,
    Condition,
    Const,
    InCond,
    LabelEquals,
    LabelPredicate,
    LabelTerm,
    LinkSpec,
    MembershipCond,
    NotCond,
    PathCond,
    Query,
    RAlt,
    RConcat,
    RegularPath,
    RLabel,
    RStar,
    SkolemTerm,
    Term,
    Var,
    condition_variables,
    term_variables,
)

_PUNCTUATION = ("->", "!=", "<=", ">=", "{", "}", "(", ")", ",", ";",
                "=", "<", ">", ".", "|", "*", "-")

_KEYWORDS = frozenset({
    "input", "where", "create", "link", "collect", "output", "in",
    "not", "and", "true",
})

_CLAUSE_STARTS = frozenset({"where", "create", "link", "collect"})


class StruQLParser:
    """Recursive-descent parser building a :class:`~repro.struql.ast.Query`.

    ``params`` names variables supplied at evaluation time (form/user
    input — paper section 1's dynamically created pages); they count as
    bound for the static checks.
    """

    def __init__(self, text: str, params: tuple[str, ...] = ()) -> None:
        self._params = tuple(params)
        self._text = text
        try:
            self._tokens = list(scan(text, _PUNCTUATION))
        except ScanError as exc:
            raise StruQLSyntaxError(str(exc), exc.line, exc.column) from exc
        self._pos = 0
        self._block_counter = 0
        self._depth = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> StruQLSyntaxError:
        token = token or self._peek()
        return StruQLSyntaxError(message, token.line, token.column)

    def _descend(self) -> None:
        """Enter one more level of nesting: a block, ``not(...)`` or a
        parenthesized path.  The caller steps back out by decrementing
        ``_depth``."""
        if self._depth == MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels")
        self._depth += 1

    def _at_punct(self, text: str) -> bool:
        token = self._peek()
        return token.kind == PUNCT and token.text == text

    def _eat_punct(self, text: str) -> bool:
        if self._at_punct(text):
            self._next()
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        if not self._at_punct(text):
            raise self._error(f"expected {text!r}, found {self._peek().text!r}")
        return self._next()

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind == IDENT and token.text.lower() == word

    def _eat_keyword(self, word: str) -> bool:
        if self._at_keyword(word):
            self._next()
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        if not self._at_keyword(word):
            raise self._error(
                f"expected keyword {word!r}, found {self._peek().text!r}")
        return self._next()

    def _expect_name(self) -> Token:
        token = self._peek()
        if token.kind != IDENT or token.text.lower() in _KEYWORDS:
            raise self._error(f"expected a name, found {token.text!r}")
        return self._next()

    # -- entry point ------------------------------------------------------------

    def parse(self) -> Query:
        """Parse a complete query and run static semantic checks."""
        self._expect_keyword("input")
        input_name = self._expect_name().text
        root = self._parse_body()
        self._expect_keyword("output")
        output_name = self._expect_name().text
        trailing = self._peek()
        if trailing.kind != EOF:
            raise self._error(f"unexpected trailing input {trailing.text!r}")
        query = Query(input_name, output_name, root, text=self._text,
                      params=self._params)
        _check_semantics(query, assumed_bound=frozenset(self._params))
        return query

    # -- blocks -----------------------------------------------------------------

    def _parse_body(self) -> Block:
        """Parse a block body with *sequential scoping*.

        Fig 3/Fig 5 fix the intended semantics: a construction clause is
        governed by the ``where`` clauses that precede it (in this block
        and its ancestors) — the top-of-query ``create RootPage()`` is
        governed by ``true`` even though a ``where`` follows it.  Each
        ``where`` that appears after construction clauses therefore
        opens an implicit nested block; consecutive ``where`` clauses
        conjoin into one block.
        """
        root = Block()
        current = root
        depth = self._depth
        while True:
            if self._at_keyword("where"):
                if current.creates or current.links or current.collects \
                        or current.children:
                    self._descend()
                    child = Block()
                    current.children.append(child)
                    current = child
                self._next()
                current.conditions.extend(self._parse_conditions())
                if not current.label:
                    self._block_counter += 1
                    current.label = f"Q{self._block_counter}"
            elif self._at_keyword("create"):
                self._next()
                current.creates.extend(self._parse_create_list())
            elif self._at_keyword("link"):
                self._next()
                current.links.extend(self._parse_link_list())
            elif self._at_keyword("collect"):
                self._next()
                current.collects.extend(self._parse_collect_list())
            elif self._at_punct("{"):
                self._descend()
                self._next()
                child = self._parse_body()
                self._depth -= 1
                self._expect_punct("}")
                current.children.append(child)
                self._eat_punct(",")  # blocks may be comma-separated
            else:
                break
        self._depth = depth  # leave the implicit nested blocks
        return root

    # -- where conditions ----------------------------------------------------------

    def _parse_conditions(self) -> list[Condition]:
        conditions = self._parse_condition_group()
        while self._condition_continues():
            conditions.extend(self._parse_condition_group())
        return conditions

    def _condition_continues(self) -> bool:
        if self._at_punct(",") or self._at_punct(";"):
            # Only continue when what follows starts a condition, not a
            # clause keyword or block.
            save = self._pos
            self._next()
            token = self._peek()
            starts = (token.kind in (IDENT, STRING, INT, FLOAT)
                      and token.text.lower() not in
                      (_CLAUSE_STARTS | {"output"}))
            if starts:
                return True
            self._pos = save
            return False
        if self._at_keyword("and"):
            self._next()
            return True
        return False

    def _parse_condition_group(self) -> list[Condition]:
        """One condition; path chains expand to several PathConds."""
        if self._at_keyword("not"):
            self._descend()
            self._next()
            self._expect_punct("(")
            inner = self._parse_condition_group()
            self._depth -= 1
            self._expect_punct(")")
            if len(inner) == 1:
                return [NotCond(inner[0])]
            # not over a chain negates the conjunction; expand via De
            # Morgan is wrong for conjunctions of generators, so reject.
            raise self._error("not(...) must wrap a single condition")

        token = self._peek()
        if token.kind == IDENT and token.text.lower() not in _KEYWORDS \
                and self._peek(1).kind == PUNCT and self._peek(1).text == "(":
            membership = self._parse_membership()
            aggregate = self._maybe_aggregate(membership, token)
            if aggregate is not None:
                return [aggregate]
            return [membership]

        left = self._parse_endpoint()
        if self._at_punct("->"):
            return self._parse_path_chain(left)
        if self._at_keyword("in"):
            if not isinstance(left, Var):
                raise self._error("'in' requires a variable on the left")
            self._next()
            return [self._parse_in_cond(left)]
        for op in ("!=", "<=", ">=", "=", "<", ">"):
            if self._at_punct(op):
                self._next()
                right = self._parse_endpoint()
                return [ComparisonCond(left, op, right)]
        raise self._error(f"cannot parse condition near {self._peek().text!r}")

    def _parse_membership(self) -> MembershipCond:
        name = self._expect_name().text
        self._expect_punct("(")
        args: list[Var | Const] = []
        if not self._at_punct(")"):
            args.append(self._parse_endpoint())
            while self._eat_punct(","):
                args.append(self._parse_endpoint())
        self._expect_punct(")")
        return MembershipCond(name, tuple(args))

    def _maybe_aggregate(self, membership: MembershipCond,
                         token) -> AggregateCond | None:
        """``count(v) [per x, y] as n`` — the aggregation extension.

        Only recognized when the call is followed by ``per`` or ``as``,
        so collections or predicates named like aggregate functions
        keep working.
        """
        follows = self._peek()
        is_agg_follow = follows.kind == IDENT and \
            follows.text.lower() in ("per", "as")
        if not is_agg_follow:
            return None
        if membership.name.lower() not in AGGREGATE_FUNCTIONS:
            raise self._error(
                f"unknown aggregate function {membership.name!r} "
                f"(known: {', '.join(AGGREGATE_FUNCTIONS)})", token)
        if len(membership.args) != 1 or not isinstance(
                membership.args[0], Var):
            raise self._error(
                "an aggregate takes exactly one variable argument",
                token)
        group: list[Var] = []
        if self._eat_keyword("per"):
            group.append(Var(self._expect_name().text))
            while self._eat_punct(","):
                group.append(Var(self._expect_name().text))
        self._expect_keyword("as")
        out = Var(self._expect_name().text)
        return AggregateCond(membership.name.lower(),
                             membership.args[0], tuple(group), out)

    def _parse_in_cond(self, var: Var) -> InCond:
        self._expect_punct("{")
        values = [self._parse_const()]
        while self._eat_punct(","):
            values.append(self._parse_const())
        self._expect_punct("}")
        return InCond(var, tuple(values))

    def _parse_endpoint(self) -> Var | Const:
        token = self._peek()
        if token.kind == STRING:
            self._next()
            return Const(Atom.string(token.text))
        if token.kind in (INT, FLOAT) or self._at_punct("-"):
            return self._parse_const()
        if token.kind == IDENT and token.text.lower() not in _KEYWORDS:
            self._next()
            return Var(token.text)
        raise self._error(
            f"expected a variable or constant, found {token.text!r}")

    def _parse_const(self) -> Const:
        negative = self._eat_punct("-")
        token = self._next()
        if token.kind == INT:
            value = int(token.text)
            return Const(Atom.int(-value if negative else value))
        if token.kind == FLOAT:
            value = float(token.text)
            return Const(Atom.float(-value if negative else value))
        if negative:
            raise self._error("expected a number after '-'", token)
        if token.kind == STRING:
            return Const(Atom.string(token.text))
        if token.kind == IDENT and token.text.lower() in ("true", "false"):
            return Const(Atom.bool(token.text.lower() == "true"))
        raise self._error(f"expected a constant, found {token.text!r}", token)

    # -- paths -----------------------------------------------------------------

    def _parse_path_chain(self, start: Var | Const) -> list[Condition]:
        conditions: list[Condition] = []
        source = start
        while self._eat_punct("->"):
            segment = self._parse_segment()
            self._expect_punct("->")
            target = self._parse_endpoint()
            if isinstance(segment, str):
                conditions.append(PathCond(source, target, arc_var=segment))
            else:
                conditions.append(PathCond(source, target, path=segment))
            source = target
        return conditions

    def _parse_segment(self) -> RegularPath | str:
        """A path segment: an arc variable (bare identifier) or an RPE."""
        token = self._peek()
        if token.kind == IDENT and token.text.lower() not in _KEYWORDS:
            follower = self._peek(1)
            if follower.kind == PUNCT and follower.text == "->":
                self._next()
                return token.text  # bare identifier: arc variable
        return self._parse_rpe_alt()

    def _parse_rpe_alt(self) -> RegularPath:
        options = [self._parse_rpe_concat()]
        while self._eat_punct("|"):
            options.append(self._parse_rpe_concat())
        if len(options) == 1:
            return options[0]
        return RAlt(tuple(options))

    def _parse_rpe_concat(self) -> RegularPath:
        parts = [self._parse_rpe_star()]
        while self._eat_punct("."):
            parts.append(self._parse_rpe_star())
        if len(parts) == 1:
            return parts[0]
        return RConcat(tuple(parts))

    def _parse_rpe_star(self) -> RegularPath:
        base = self._parse_rpe_base()
        while self._eat_punct("*"):
            base = RStar(base)
        return base

    def _parse_rpe_base(self) -> RegularPath:
        token = self._peek()
        if token.kind == STRING:
            self._next()
            return RLabel(LabelEquals(token.text))
        if self._at_punct("*"):
            self._next()
            return ANY_PATH
        if self._at_punct("("):
            self._descend()
            self._next()
            inner = self._parse_rpe_alt()
            self._depth -= 1
            self._expect_punct(")")
            return inner
        if token.kind == IDENT:
            self._next()
            if token.text.lower() == "true":
                return RLabel(AnyLabel())
            return RLabel(LabelPredicate(token.text))
        raise self._error(
            f"expected a path expression, found {token.text!r}")

    # -- construction clauses -------------------------------------------------------

    def _parse_create_list(self) -> list[SkolemTerm]:
        creates = [self._parse_skolem_term()]
        while self._list_continues():
            creates.append(self._parse_skolem_term())
        return creates

    def _list_continues(self) -> bool:
        if not (self._at_punct(",") or self._at_punct(";")):
            return False
        save = self._pos
        self._next()
        token = self._peek()
        if token.kind == IDENT and token.text.lower() not in _KEYWORDS:
            return True
        self._pos = save
        return False

    def _parse_skolem_term(self) -> SkolemTerm:
        name = self._expect_name().text
        self._expect_punct("(")
        args: list[Var | Const] = []
        if not self._at_punct(")"):
            args.append(self._parse_endpoint())
            while self._eat_punct(","):
                args.append(self._parse_endpoint())
        self._expect_punct(")")
        return SkolemTerm(name, tuple(args))

    def _parse_link_list(self) -> list[LinkSpec]:
        links = self._parse_link_chain()
        while self._list_continues():
            links.extend(self._parse_link_chain())
        return links

    def _parse_link_chain(self) -> list[LinkSpec]:
        source = self._parse_link_term()
        links: list[LinkSpec] = []
        if not self._at_punct("->"):
            raise self._error("a link expression needs '->'")
        while self._eat_punct("->"):
            label = self._parse_link_label()
            self._expect_punct("->")
            target = self._parse_link_term()
            if not isinstance(source, SkolemTerm):
                raise StruQLSemanticError(
                    f"link source must be a Skolem term (existing nodes "
                    f"are immutable): {source}")
            links.append(LinkSpec(source, label, target))
            source = target
        return links

    def _parse_link_label(self) -> LabelTerm:
        token = self._peek()
        if token.kind == STRING:
            self._next()
            return Const(Atom.string(token.text))
        if token.kind == IDENT and token.text.lower() not in _KEYWORDS:
            self._next()
            return Var(token.text)
        raise self._error(
            f"expected a link label (string or arc variable), "
            f"found {token.text!r}")

    def _parse_link_term(self) -> Term:
        token = self._peek()
        if token.kind == IDENT and token.text.lower() not in _KEYWORDS \
                and self._peek(1).kind == PUNCT and self._peek(1).text == "(":
            return self._parse_skolem_term()
        return self._parse_endpoint()

    def _parse_collect_list(self) -> list[CollectSpec]:
        collects = [self._parse_collect_spec()]
        while self._list_continues():
            collects.append(self._parse_collect_spec())
        return collects

    def _parse_collect_spec(self) -> CollectSpec:
        name = self._expect_name().text
        self._expect_punct("(")
        term = self._parse_link_term()
        self._expect_punct(")")
        return CollectSpec(name, term)


def _check_semantics(query: Query,
                     assumed_bound: frozenset[str] = frozenset()) -> None:
    """Static checks from the paper's two semantic conditions plus
    variable-scoping sanity.

    1. Every Skolem term in ``link``/``collect`` names a function that
       some ``create`` clause mentions (with the same arity).
    2. Every variable used in ``create``/``link``/``collect`` of a block
       is bound by the effective conditions of that block.
    (The "edges only from new nodes" rule is enforced during parsing.)
    """
    created: set[tuple[str, int]] = set()
    for block in query.blocks():
        for term in block.creates:
            created.add((term.fn, len(term.args)))

    def check_term(term: Term, bound: set[str], where: str) -> None:
        if isinstance(term, SkolemTerm):
            if (term.fn, len(term.args)) not in created:
                raise StruQLSemanticError(
                    f"{where} mentions Skolem term {term} but no create "
                    f"clause defines {term.fn}/{len(term.args)}")
            for arg in term.args:
                check_term(arg, bound, where)
        elif isinstance(term, Var):
            if term.name not in bound:
                raise StruQLSemanticError(
                    f"{where} uses unbound variable {term.name!r}")

    def walk(block: Block, inherited: set[str]) -> None:
        bound = inherited | block.variables() | set(assumed_bound)
        for term in block.creates:
            for arg in term.args:
                check_term(arg, bound, f"create {term}")
        for link in block.links:
            check_term(link.source, bound, f"link {link}")
            check_term(link.target, bound, f"link {link}")
            if isinstance(link.label, Var) and link.label.name not in bound:
                raise StruQLSemanticError(
                    f"link {link} uses unbound arc variable "
                    f"{link.label.name!r}")
        for collect in block.collects:
            check_term(collect.term, bound, f"collect {collect}")
        for child in block.children:
            walk(child, bound)

    walk(query.root, set())


def parse_query(text: str, params: tuple[str, ...] = ()) -> Query:
    """Parse StruQL text into a checked :class:`~repro.struql.ast.Query`.

    ``params`` declares evaluation-time parameters (form inputs): the
    named variables are assumed bound by the caller of
    :meth:`QueryEngine.evaluate` via its ``initial`` argument.
    """
    return StruQLParser(text, params=params).parse()
