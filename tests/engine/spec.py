"""The specification the engine's verdicts are compared with.

No option switches it on and the engine never runs it: a bare
``QueryEngine(model)`` — no gate, no witness records — deciding every
point from a one-shot ``Substitution`` of a control mapping derived
afresh from the engine's control plane, and ``_table_verdict_uncached``
on every table.  The mapping encodes each precise table as the
first-match ``ite`` chains the engine's lookup nodes stand for
(:func:`chain_encode_table`, a frozen copy of the chain encoder), so every
comparison is also one of the lookup encoding against the chain one.  The
warm path's replays, memos and change-driven sweeps are all claims that
the engine still holds exactly these verdicts.
"""

from repro.analysis.model import TableInfo
from repro.engine.queries import QueryEngine
from repro.engine.specialize import Specializer
from repro.p4.printer import print_program
from repro.runtime.semantics import (
    TableAssignment,
    _overapproximate,
    encode_value_set,
    entry_match_term,
)
from repro.smt import Substitution, terms as T
from repro.smt.substitute import _rebuild_with_args


def chain_encode_table(info, state, threshold) -> TableAssignment:
    """The table's assignment as first-match ``ite`` chains over its
    active entries' match conditions: the encoder the lookup node
    replaced, kept as it was."""
    if threshold is not None and len(state) > threshold:
        return _overapproximate(info, state)
    sel_width = TableInfo.SELECTOR_WIDTH
    default_code = info.action_codes.get(info.default_action, 0)
    matches = [(entry, entry_match_term(info, entry)) for entry in state.active_entries()]

    # Action selector: first matching entry's action, else the default.
    selector = T.bv_const(default_code, sel_width)
    for entry, cond in reversed(matches):
        code = info.action_codes[entry.action]
        selector = T.ite(cond, T.bv_const(code, sel_width), selector)

    # Hit bit: 1 iff any entry matches.
    if matches:
        any_match = T.bool_or(*[cond for _, cond in matches])
        hit = T.ite(any_match, T.bv_const(1, 1), T.bv_const(0, 1))
    else:
        hit = T.bv_const(0, 1)

    mapping = {info.selector_var: selector, info.hit_var: hit}

    # Per-action parameters: the winning matching entry's action data.
    for action_name, params in info.action_params.items():
        relevant = [
            (entry, cond) for entry, cond in matches if entry.action == action_name
        ]
        for index, param in enumerate(params):
            if action_name == info.default_action and index < len(info.default_args):
                fallback_value = info.default_args[index] or 0
            else:
                fallback_value = 0
            value = T.bv_const(fallback_value, param.width)
            for entry, cond in reversed(relevant):
                value = T.ite(cond, T.bv_const(entry.args[index], param.width), value)
            mapping[param.var] = value

    return TableAssignment(
        table=info.name,
        mapping=mapping,
        entry_count=len(state),
        overapproximated=False,
    )


def expand_lookups(term):
    """``term`` with every lookup node replaced by the chain it stands for."""
    memo: dict = {}
    for node in T.iter_dag(term):
        args = tuple(memo[id(arg)] for arg in node.args)
        rebuilt = _rebuild_with_args(node, args) if node.args else node
        memo[id(node)] = T.expand_lookup(rebuilt) if node.op == T.OP_LOOKUP else rebuilt
    return memo[id(term)]


def chain_encode_all(engine) -> tuple:
    """The engine's control plane encoded through :func:`chain_encode_table`:
    ``(mapping, table assignments)``."""
    state, threshold = engine.state, engine.ctx.options.overapprox_threshold
    mapping: dict = {}
    assignments: dict = {}
    for name, info in engine.model.tables.items():
        assignment = assignments[name] = chain_encode_table(
            info, state.tables[name], threshold
        )
        mapping.update(assignment.mapping)
    for name, info in engine.model.value_sets.items():
        mapping.update(encode_value_set(info, state.value_sets[name]))
    return mapping, assignments


def record_sends(engine) -> list:
    """Every write the engine's target hands the device from now on, as
    sent (``lower_batch`` sends through ``lower_update``)."""
    sent: list = []
    target = engine.ctx.target
    if target is not None:
        lower_update = target.lower_update

        def send(update):
            sent.append(lower_update(update))
            return sent[-1]

        target.lower_update = send
    return sent


class Spec:
    """Follows one engine; :meth:`step` after every chunk it processes."""

    def __init__(self, engine, solver=None):
        self.engine = engine
        self.query_engine = QueryEngine(
            engine.model,
            solver=solver,
            solver_node_budget=engine.ctx.query_engine.solver_node_budget,
        )
        self.points, self.tables = self._derive()
        self._printed = None  # ((points, tables), their source)
        self.forwarded = []  # the updates of every chunk decided "forward"
        self.lowered = []  # the ``lowered`` writes of every checked decision
        self.sent = record_sends(engine)
        # The program the device runs: the last one decided "recompile".
        self.compiled = self.specialized_source()

    def _derive(self):
        engine, qe = self.engine, self.query_engine
        mapping, assignments = chain_encode_all(engine)
        one_shot = Substitution(mapping)
        points = {
            pid: qe.point_verdict(point, one_shot)
            for pid, point in engine.model.points.items()
        }
        tables = {
            name: qe._table_verdict_uncached(
                info, assignments[name], engine.state.tables[name]
            )
            for name, info in engine.model.tables.items()
        }
        return points, tables

    def step(self) -> list:
        """Re-derive every verdict from the engine's current mapping and
        assert the engine holds exactly those.  Returns the sorted names
        (pids, tables) whose specialization moved since the last step —
        what the chunk's decision must report as ``changed``."""
        points, tables = self._derive()
        assert self.engine.point_verdicts == points
        assert self.engine.table_verdicts == tables
        moved = [
            name
            for old, new in ((self.points, points), (self.tables, tables))
            for name, verdict in new.items()
            if not verdict.same_specialization(old[name])
        ]
        self.points, self.tables = points, tables
        return sorted(moved)

    def check_decision(self, decision, updates=()) -> None:
        """One chunk's decision (and the ``updates`` it was for) against
        :meth:`step` and a from-scratch specialization.

        ``changed`` lists the verdicts that moved.  The chunk recompiles
        exactly when the program printed for the new verdicts differs from
        the one the device runs; either way the engine's program prints
        that program, so a forward keeps one that is still right under
        the new control plane."""
        moved = self.step()
        assert sorted(decision.changed) == moved
        source = self.specialized_source()
        assert decision.recompiled == (source != self.compiled)
        assert decision.forwarded == (not decision.recompiled)
        assert print_program(self.engine.specialized_program) == source
        self.lowered.extend(decision.lowered)
        if decision.recompiled:
            self.compiled = source
        else:
            self.forwarded.extend(updates)

    def check_lowered(self) -> None:
        """The device was sent exactly the forwarded updates, in order,
        and the decisions' ``lowered`` records list exactly those writes."""
        lowered = [(l.target, l.table, l.update) for l in self.lowered]
        assert lowered == [(l.target, l.table, l.update) for l in self.sent]
        target = self.engine.ctx.target
        forwarded = [] if target is None else self.forwarded
        assert lowered == [(target.name, u.table, u) for u in forwarded]

    def specialized_source(self) -> str:
        """The program a from-scratch specializer prints for these verdicts.

        Specializing is a function of the verdicts, so the last source is
        kept while they stay equal."""
        verdicts = (self.points, self.tables)
        if self._printed is None or self._printed[0] != verdicts:
            program, _ = self.specialize(*verdicts)
            self._printed = (verdicts, print_program(program))
        return self._printed[1]

    def specialize(self, points: dict, tables: dict) -> tuple:
        """A fresh specializer's ``(program, report)`` for the given verdicts."""
        engine = self.engine
        specializer = Specializer(
            engine.program, engine.model, engine.env, effort=engine.ctx.options.effort
        )
        return specializer.specialize(points, tables)

    def solver_calls(self) -> int:
        """``check_sat`` calls the specification has issued so far."""
        return self.query_engine.solver.stats.total

