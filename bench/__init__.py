"""End-to-end and per-layer benchmark for the STRUDEL pipeline.

Four seeded, closed-loop workloads (``bench.workloads``) drive the code
under ``src/`` of the checkout this package sits in: two offline org-site
builds and two click-time serving mixes.  ``bench.run`` measures them
with observability off and prints every metric; ``bench.compare`` judges
two sets of runs against the bounds in ``BENCHMARK.json``.  See
``bench/README.md``.
"""

import os
import sys

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The program under test: always the checkout's own sources, never an
#: installed copy.
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
