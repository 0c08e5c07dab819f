"""The specification the engine's verdicts are compared with.

No option switches it on and the engine never runs it: a bare
``QueryEngine(model)`` — no gate, no witness records — deciding every
point from a one-shot ``Substitution`` of a control mapping derived
afresh from the engine's control plane, and :func:`reference_table_verdict`
on every table.  The mapping encodes each precise table as the
first-match ``ite`` chains the engine's lookup nodes stand for
(:func:`chain_encode_table`, a frozen copy of the chain encoder), so every
comparison is also one of the lookup encoding against the chain one; and
a precise table verdict is derived entry by entry from the active entries
(a frozen copy of the per-entry derivation the engine's one pass over the
packed rows replaced).  The warm path's replays, memos and change-driven
sweeps are all claims that the engine still holds exactly these verdicts.
"""

from repro.analysis.model import TableInfo
from repro.engine.queries import ALWAYS, MAYBE, NEVER, QueryEngine, TableVerdict
from repro.engine.specialize import Specializer
from repro.p4.printer import print_program
from repro.runtime.entries import TernaryMatch
from repro.runtime.semantics import (
    TableAssignment,
    _overapproximate,
    encode_value_set,
    entry_match_term,
)
from repro.smt import Substitution, terms as T
from repro.smt.simplify import constant_value, simplify
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


def reference_table_verdict(qe, info, assignment, state) -> TableVerdict:
    """The table's structural verdict, derived entry by entry from
    ``state.active_entries()``: the derivation the engine's one pass over
    the packed active rows replaced, kept as it was (``qe`` lends its
    simplify memo and its selector-values reader)."""
    if assignment.overapproximated:
        return TableVerdict(
            table=info.name,
            feasible_actions=frozenset(info.action_codes),
            hit=MAYBE,
            const_params=tuple(
                ((action, param.name), None)
                for action, params in sorted(info.action_params.items())
                for param in params
            ),
            match_plan=tuple(k.match_kind for k in info.keys),
            entry_count=assignment.entry_count,
            overapproximated=True,
        )
    selector = simplify(assignment.mapping[info.selector_var], memo=qe.simplify_memo)
    codes = qe._selector_values(selector)
    code_to_action = {code: name for name, code in info.action_codes.items()}
    if codes is None:
        feasible = frozenset(info.action_codes)
    else:
        feasible = frozenset(code_to_action[c] for c in codes if c in code_to_action)
    hit_value = constant_value(
        simplify(assignment.mapping[info.hit_var], memo=qe.simplify_memo)
    )
    hit = ALWAYS if hit_value == 1 else NEVER if hit_value == 0 else MAYBE
    entries = state.active_entries()
    default_reachable = hit != ALWAYS
    const_params: list = []
    for action_name, params in sorted(info.action_params.items()):
        if action_name not in feasible:
            continue
        for index, param in enumerate(params):
            values = {entry.args[index] for entry in entries if entry.action == action_name}
            if action_name == info.default_action and default_reachable:
                if index < len(info.default_args):
                    values.add(info.default_args[index] or 0)
                else:
                    values.add(0)
            value = values.pop() if len(values) == 1 else None
            const_params.append(((action_name, param.name), value))
    plan: list = []
    for index, key in enumerate(info.keys):
        if key.match_kind != "ternary":
            plan.append(key.match_kind)
            continue
        if not entries:
            plan.append("none")
            continue
        full = (1 << key.width) - 1
        masks = {
            entry.matches[index].mask
            if isinstance(entry.matches[index], TernaryMatch)
            else full
            for entry in entries
        }
        plan.append("exact" if masks == {full} else "none" if masks == {0} else "ternary")
    return TableVerdict(
        table=info.name,
        feasible_actions=feasible,
        hit=hit,
        const_params=tuple(const_params),
        match_plan=tuple(plan),
        entry_count=assignment.entry_count,
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
            name: reference_table_verdict(
                qe, info, assignments[name], engine.state.tables[name]
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

