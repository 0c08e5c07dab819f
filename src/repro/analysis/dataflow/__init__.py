"""Abstract-interpretation framework over the parsed program.

Pieces:

* :mod:`~repro.analysis.dataflow.engine` — the
  :class:`AbstractInterpreter`, a join-based re-execution of the whole
  pipeline in the symbolic constant domain, mirroring the symbolic
  executor's transfer functions rule for rule, and the worklist
  :func:`fixpoint` solver it runs the parser with.
* :mod:`~repro.analysis.dataflow.prune` — the output-preserving
  dead-path prune / constant-fold pass for the cold pipeline, the
  interpreter's one client.
"""

from repro.analysis.dataflow.engine import AbstractInterpreter, FoldFact, fixpoint
from repro.analysis.dataflow.prune import PruneReport, prune_program

__all__ = [
    "AbstractInterpreter",
    "FoldFact",
    "PruneReport",
    "fixpoint",
    "prune_program",
]
