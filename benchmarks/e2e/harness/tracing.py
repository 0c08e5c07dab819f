"""Span tracing from outside the engine: wrap, record, unwrap.

The traced run installs a timing wrapper around each layer's public entry
points (``WRAP_POINTS``), keeps the spans in memory, and restores the
original attributes afterwards.  Spans are ``(name, start, end, parent,
decision_id)`` per thread; a layer's *self time* is its span's duration
minus the part its child spans cover, computed per thread because
``apply_batch`` runs conflict groups on worker threads.

Entry points that their callers bind by name (``from m import f``) are
wrapped in the *caller's* namespace — that is the binding the call goes
through.  ``smt.simplify``, ``smt.cnf``/``sat`` internals and ``TableFdd``
methods are too hot to wrap from here; their time stays in the self time
of the span that calls them.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional

#: (module, attribute path, span name).  Several entry points of one layer
#: share a span name; ``*_calls`` counts entries into any of them.
WRAP_POINTS = (
    ("repro.engine.pipeline", "ParsePass.run", "p4.frontend"),
    ("repro.engine.pipeline", "TypeCheckPass.run", "p4.frontend"),
    ("repro.engine.pipeline", "PrunePass.run", "analysis.prune"),
    ("repro.engine.pipeline", "AnalysisPass.run", "analysis.symexec"),
    ("repro.engine.pipeline", "EncodePass.run", "engine.encode_cold"),
    ("repro.runtime.semantics", "ControlPlaneState.apply_update", "runtime.apply_update"),
    (
        "repro.runtime.semantics",
        "ControlPlaneState.apply_value_set_update",
        "runtime.apply_update",
    ),
    ("repro.engine.pipeline", "encode_table", "runtime.encode_table"),
    ("repro.engine.batch", "encode_table", "runtime.encode_table"),
    ("repro.smt.substitute", "DeltaSubstitution.set_many", "smt.substitute"),
    ("repro.smt.substitute", "DeltaSubstitution.apply", "smt.substitute"),
    ("repro.smt.substitute", "SubstitutionSlice.set_many", "smt.substitute"),
    ("repro.smt.substitute", "SubstitutionSlice.apply", "smt.substitute"),
    ("repro.engine.queries", "QueryEngine.point_verdict", "engine.point_verdict"),
    ("repro.engine.queries", "QueryEngine.table_verdict", "engine.table_verdict"),
    ("repro.engine.gate", "VerdictGate.screen", "engine.gate_screen"),
    ("repro.engine.gate", "VerdictGate.decide", "engine.gate_decide"),
    ("repro.engine.gate", "VerdictGate.decide_constant", "engine.gate_decide_constant"),
    ("repro.smt.solver", "Solver.check_sat", "smt.solver"),
    ("repro.smt.solver", "Solver.find_constant", "smt.solver"),
    ("repro.smt.solver", "Solver.prove_equal", "smt.solver"),
    ("repro.smt.solver", "Solver.is_valid", "smt.solver"),
    ("repro.engine.specialize", "Specializer.specialize", "engine.specialize"),
    ("repro.targets.tofino.compiler", "TofinoCompiler.compile", "targets.compile"),
    ("repro.targets.bmv2.compiler", "Bmv2Compiler.compile", "targets.compile"),
    ("repro.targets.base", "Target.lower_update", "targets.lower"),
    ("repro.targets.base", "Target.lower_batch", "targets.lower"),
    ("repro.engine.batch", "coalesce", "engine.batch_coalesce"),
    ("repro.engine.batch", "partition", "engine.batch_partition"),
    ("repro.engine.engine", "schedule_batch", "engine.batch_schedule"),
    # Not entry points of a layer, but where the warm path's own glue runs:
    # without them a sub-millisecond forward is mostly unattributed.
    ("repro.engine.pipeline", "ApplyUpdatesPass.run", "engine.warm_pass"),
    ("repro.engine.pipeline", "ReverdictPointsPass.run", "engine.warm_pass"),
    ("repro.engine.pipeline", "ReverdictTablesPass.run", "engine.warm_pass"),
    ("repro.engine.pipeline", "RespecializePass.run", "engine.warm_pass"),
    ("repro.engine.pipeline", "LowerPass.run", "engine.warm_pass"),
    # The match-diagram rebuild runs lazily inside whichever gate call first
    # needs the diagram; unwrapped it would read as gate screening time.
    ("repro.smt.fdd", "TableFdd.rebuild", "smt.fdd_rebuild"),
    ("repro.engine.batch", "WorkerSlice.__init__", "engine.batch_fork"),
    ("repro.engine.batch", "run_group", "engine.batch_group"),
    ("repro.engine.batch", "WorkerSlice.merge_into", "engine.batch_merge"),
)

#: Root span the harness opens around each timed decision.
DECISION_SPAN = "core.decision"


class WrapPointMissing(RuntimeError):
    """A wrap point no longer resolves — a rename in ``src/`` that would
    otherwise leave its layer silently untraced."""


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into the same span list, same thread
    decision_id: Optional[int]  # None outside the measured phase
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the durations of direct children.

    Children are nested inside their parent on the parent's thread (a span
    started on another thread has no parent), so the children of one span
    never overlap and their durations add up to the covered part.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            if spans[span.parent].thread != span.thread:
                raise ValueError("a span's parent must be on its own thread")
            own[span.parent] -= span.duration
    return own


def _resolve(module_name: str, path: str):
    """The object that owns the attribute, and the attribute's name."""
    try:
        owner = importlib.import_module(module_name)
        *holders, name = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        # ``vars`` rather than ``getattr``: the wrapper must replace the
        # attribute where it is defined, not shadow an inherited one.
        vars(owner)[name]
    except (ImportError, AttributeError, KeyError) as exc:
        raise WrapPointMissing(f"wrap point {module_name}:{path} does not exist") from exc
    return owner, name


class _ThreadSpans:
    __slots__ = ("thread", "records", "top")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.records: list = []  # [name, start, end, parent, decision_id]
        self.top: Optional[int] = None


class Tracer:
    """Installs the wrappers, collects spans, removes the wrappers."""

    def __init__(self) -> None:
        self.decision_id: Optional[int] = None
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._installed: list = []  # (owner, name, original)

    # -- install / remove --------------------------------------------------------

    def install(self) -> None:
        resolved = [(*_resolve(module, path), span) for module, path, span in WRAP_POINTS]
        for owner, name, span in resolved:
            original = vars(owner)[name]
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span))

    def remove(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- recording ---------------------------------------------------------------

    def _thread_spans(self) -> _ThreadSpans:
        with self._lock:
            spans = _ThreadSpans(len(self._threads))
            self._threads.append(spans)
        self._local.spans = spans
        return spans

    def _wrap(self, fn, span_name: str):
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                mine = local.spans
            except AttributeError:
                mine = self._thread_spans()
            records = mine.records
            parent = mine.top
            index = len(records)
            records.append(None)
            mine.top = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                records[index] = (span_name, start, clock(), parent, self.decision_id)
                mine.top = parent

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, span_name: str = DECISION_SPAN):
        """``fn`` wrapped in a root span (the harness's own timed call)."""
        return self._wrap(fn, span_name)

    # -- results -----------------------------------------------------------------

    def spans(self) -> list:
        """Every finished span, thread by thread, parents as global indices."""
        out: list[Span] = []
        for spans in self._threads:
            offset = len(out)
            for record in spans.records:
                if record is None:  # still open: the run was interrupted
                    raise RuntimeError("a span was never closed")
                name, start, end, parent, decision_id = record
                out.append(
                    Span(
                        name,
                        start,
                        end,
                        None if parent is None else parent + offset,
                        decision_id,
                        spans.thread,
                    )
                )
        return out


def span_cost() -> float:
    """Seconds one wrapper adds to a call, measured on a no-op with a
    throwaway tracer (so the calibration spans land in no real trace)."""

    def noop():
        return None

    rounds = 20000
    traced = Tracer().root(noop, "core.calibration")
    clock = time.perf_counter
    start = clock()
    for _ in range(rounds):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(rounds):
        traced()
    return max(0.0, clock() - start - bare) / rounds


def write_jsonl(spans: list, path: str) -> None:
    """One span per line: name, start, end, parent, decision_id, thread,
    plus its self time (see README "Reading the span file")."""
    own = self_times(spans)
    with open(path, "w") as handle:
        for index, span in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "decision_id": span.decision_id,
                        "thread": span.thread,
                        "self": own[index],
                    }
                )
                + "\n"
            )
