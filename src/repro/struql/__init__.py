"""StruQL — Site TRansformation Und Query Language (paper section 3)."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".analysis": ("RangeWarning", "analyze", "is_range_restricted"),
    ".ast": (
        "ANY_PATH",
        "AnyLabel",
        "Block",
        "CollectSpec",
        "ComparisonCond",
        "Condition",
        "Const",
        "InCond",
        "LabelEquals",
        "LabelPredicate",
        "LinkSpec",
        "MembershipCond",
        "NotCond",
        "PathCond",
        "Query",
        "RAlt",
        "RConcat",
        "RLabel",
        "RStar",
        "RegularPath",
        "SkolemTerm",
        "Var",
    ),
    ".builder": ("QueryBuilder",),
    ".evaluator": ("QueryEngine", "QueryResult", "evaluate"),
    ".parser": ("StruQLParser", "parse_query"),
    ".paths": ("PathAutomaton", "PathEvaluator", "compile_path"),
    ".plan": ("ExecutionContext", "Plan"),
    ".predicates": ("PredicateRegistry", "default_registry"),
    ".skolem": ("SkolemRegistry",),
})
