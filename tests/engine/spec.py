"""The specification the engine's verdicts are compared with.

No option switches it on and the engine never runs it: a bare
``QueryEngine(model)`` — no gate, no witness records — deciding every
point from a one-shot ``Substitution`` of the engine's current control
mapping, and ``_table_verdict_uncached`` on every table.  The warm path's
replays, memos and change-driven sweeps are all claims that the engine
still holds exactly these verdicts.  :func:`without_prune_pass` builds the
other reference, an engine whose cold pipeline has no prune pass.
"""

from contextlib import contextmanager

import pytest

from repro.engine import engine as engine_module
from repro.engine.pipeline import PrunePass, cold_passes
from repro.engine.queries import QueryEngine
from repro.engine.specialize import Specializer
from repro.p4.printer import print_program
from repro.smt import Substitution


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


@contextmanager
def without_prune_pass():
    """Engines built inside this block run the cold pipeline without
    :class:`PrunePass`: the unpruned reference the prune differential
    compares with.  (A restore still prunes: it runs its own passes.)"""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            engine_module,
            "cold_passes",
            lambda: [p for p in cold_passes() if not isinstance(p, PrunePass)],
        )
        yield
