#!/usr/bin/env python3
"""Which collective algorithm wins on which fabric?

Runs the ``cross-topology`` scenario: every feasible (topology x algorithm)
all-reduce pairing at 16 and 64 NPUs — the paper's canonical torus, a 2D
torus, a flat ring, a switch group, and a fully-connected fabric — as one
parallel, cached sweep.  The manifest declares the pairings as drive
``grid`` suites, one per group of fabrics that accept the same algorithms
(``tests/test_cross_topology.py`` checks that they are exactly the
planner-feasible ones).  On the torus the paper's hierarchical algorithm
wins; on single-hop fabrics the logarithmic algorithms take over.

Thin wrapper over the scenario CLI; equivalent to::

    PYTHONPATH=src python -m repro run cross-topology

The manifest lives at ``scenarios/cross-topology.json``.

Run with:  python examples/cross_topology_sweep.py
"""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["run", "cross-topology"]))
