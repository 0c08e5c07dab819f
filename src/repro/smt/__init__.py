"""Symbolic expression engine — the reproduction's stand-in for Z3.

Public surface:

* :mod:`repro.smt.terms` — hash-consed bitvector/boolean terms with the
  paper's two symbol kinds (data-plane ``@x@``, control-plane ``|x|``),
* :mod:`repro.smt.simplify` — constant folding / CSE / strength reduction,
* :mod:`repro.smt.substitute` — the e-matching-style substitution engine,
* :mod:`repro.smt.interval` — interval abstract domain for fast pre-checks,
* :mod:`repro.smt.cnf` / :mod:`repro.smt.sat` — bit-blasting and
  incremental CDCL (assumptions, clause learning, restarts),
* :mod:`repro.smt.session` — persistent assumption-probing solver session,
* :mod:`repro.smt.solver` — the layered QF_BV decision facade,
* :mod:`repro.smt.arena` — the flat-array term codec warm-state
  snapshots ride in, and the storage behind the CDCL core's clause
  database.
"""

from repro.smt.arena import ClauseArena, TermArena
from repro.smt.sat import SatStats, SolverBudgetExceeded
from repro.smt.session import SolverSession
from repro.smt.simplify import simplify
from repro.smt.solver import SatResult, Solver, SolverStats
from repro.smt.substitute import (
    DeltaSubstitution,
    Substitution,
    substitute,
    substitute_names,
    variable_dependencies,
)
from repro.smt.terms import (
    FALSE,
    TRUE,
    Term,
    TermFactory,
    add,
    bool_and,
    bool_const,
    bool_not,
    bool_or,
    bool_var,
    bv_and,
    bv_const,
    bv_not,
    bv_or,
    bv_xor,
    concat,
    control_var,
    control_variables,
    data_var,
    data_variables,
    eq,
    evaluate,
    extract,
    fresh_data_var,
    implies,
    ite,
    lshr,
    mul,
    ne,
    neg,
    shl,
    sub,
    to_string,
    ule,
    ult,
    variables,
)
