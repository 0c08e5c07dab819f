"""The specification the engine's verdicts are compared with.

No option switches it on and the engine never runs it: a bare
``QueryEngine(model)`` — no gate, no witness records — deciding every
point from a one-shot ``Substitution`` of the engine's current control
mapping, and ``_table_verdict_uncached`` on every table.  The warm path's
replays, memos and change-driven sweeps are all claims that the engine
still holds exactly these verdicts.
"""

from repro.engine.queries import QueryEngine
from repro.engine.specialize import Specializer
from repro.p4.printer import print_program
from repro.smt import Substitution


class Spec:
    """Follows one engine; :meth:`step` after every chunk it processes."""

    def __init__(self, engine, solver=None):
        self.engine = engine
        self.query_engine = QueryEngine(
            engine.model, solver=solver, use_solver=engine.ctx.options.use_solver
        )
        self.points, self.tables = self._derive()
        self.forwarded = []  # the updates of every chunk decided "forward"

    def _derive(self):
        engine, qe = self.engine, self.query_engine
        one_shot = Substitution(engine.mapping)
        points = {
            pid: qe.point_verdict(point, one_shot)
            for pid, point in engine.model.points.items()
        }
        tables = {
            name: qe._table_verdict_uncached(
                info, engine.table_assignments[name], engine.state.tables[name]
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
        :meth:`step`."""
        moved = self.step()
        assert sorted(decision.changed) == moved
        assert decision.recompiled == bool(moved)
        assert decision.forwarded == (not moved)
        if not moved:
            self.forwarded.extend(updates)

    def check_lowered(self) -> None:
        """The device was sent exactly the forwarded updates, in order."""
        engine = self.engine
        lowered = [(l.target, l.table, l.update) for l in engine.lowered_updates]
        target = engine.ctx.target
        forwarded = [] if target is None else self.forwarded
        assert lowered == [(target.name, u.table, u) for u in forwarded]

    def specialized_source(self) -> str:
        """The program a from-scratch specializer prints for these verdicts."""
        engine = self.engine
        options = engine.ctx.options
        specializer = Specializer(
            engine.program,
            engine.model,
            engine.env,
            prune_parser_tail=options.prune_parser_tail,
            effort=options.effort,
        )
        program, _ = specializer.specialize(self.points, self.tables)
        return print_program(program)

    def solver_calls(self) -> int:
        """``check_sat`` calls the specification has issued so far."""
        return self.query_engine.solver.stats.total
