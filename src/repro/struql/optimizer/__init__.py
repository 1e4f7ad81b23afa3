"""StruQL query optimizers (paper section 2.4).

    In S TRUDEL's first implementation, we built a simple heuristic-based
    optimizer.  Later, we developed a more comprehensive cost-based
    optimization algorithm [FLO 97].  The new optimizer can enumerate
    plans that exploit indexes on the data and the schema in order to
    choose the best plan.

Three optimizer generations are available, selectable by name:

* ``"naive"`` — evaluate conditions in source order (the semantics
  reference; also the baseline for benchmark A2);
* ``"heuristic"`` — the first prototype: rank-based greedy ordering with
  no statistics;
* ``"cost"`` — the [FLO 97]-style optimizer: dynamic-programming plan
  enumeration over condition orders using repository statistics, greedy
  fallback for large conjunctions.
"""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".base": ("Optimizer", "get_optimizer"),
    ".cost": ("CostBasedOptimizer",),
    ".heuristic": ("HeuristicOptimizer", "NaiveOptimizer"),
})
