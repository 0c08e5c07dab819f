"""Abstract-interpretation framework over the parsed program.

Pieces:

* :mod:`~repro.analysis.dataflow.lattice` — pluggable lattices
  (three-valued booleans, intervals, taint sets, the symbolic constant
  domain) and the generic worklist :func:`fixpoint` driver.
* :mod:`~repro.analysis.dataflow.engine` — the
  :class:`AbstractInterpreter`, a join-based re-execution of the whole
  pipeline in the symbolic constant domain, mirroring the symbolic
  executor's transfer functions rule for rule.
* :mod:`~repro.analysis.dataflow.effects` — straight-line dead writes
  (the ``repro lint`` client; read/write sets are :mod:`repro.ir.deps`').
* :mod:`~repro.analysis.dataflow.prune` — the output-preserving
  dead-path prune / constant-fold pass for the cold pipeline.
"""

from repro.analysis.dataflow.effects import DeadWrite, dead_writes
from repro.analysis.dataflow.engine import AbstractInterpreter, FoldFact, Observer
from repro.analysis.dataflow.lattice import (
    Bool3,
    IntervalLattice,
    TaintLattice,
    fixpoint,
    term_join,
)
from repro.analysis.dataflow.prune import PruneReport, prune_program

__all__ = [
    "AbstractInterpreter",
    "Bool3",
    "DeadWrite",
    "FoldFact",
    "IntervalLattice",
    "Observer",
    "PruneReport",
    "TaintLattice",
    "dead_writes",
    "fixpoint",
    "prune_program",
    "term_join",
]
