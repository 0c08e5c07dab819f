"""The staged pass-pipeline engine.

The engine expresses Flay's two computations as declared pass sequences
over one shared :class:`~repro.engine.context.EngineContext`:

* the **cold pipeline** — parse → typecheck → data-plane analysis →
  initial specialization → target lowering — run once per program, and
* the **warm path** — apply updates → re-verdict points/tables →
  respecialize → lower — run per control-plane update (or batch).

Progress, cache activity, and forward/recompile outcomes are published as
typed events on the context's :class:`~repro.engine.events.EventBus`;
errors root at :class:`~repro.errors.FlayError` and carry the pipeline
stage that raised them.
"""

from repro.engine.batch import (
    BatchReport,
    CoalescedOp,
    CoalesceResult,
    ConflictGroup,
    GroupDecision,
    WorkerSlice,
    coalesce,
    conflict_components,
    partition,
    schedule_batch,
)
from repro.engine.context import EngineContext, EngineOptions, EngineTimings
from repro.engine.engine import Engine
from repro.engine.errors import FlayError, OptionsError, SourcePos
from repro.engine.events import (
    BatchMerged,
    BatchScheduled,
    CacheActivity,
    Event,
    EventBus,
    EventLog,
    PassFinished,
    PassStarted,
    TargetCompiled,
    UpdateLowered,
    UpdateProcessed,
)
from repro.engine.passes import Pass, PassManager
from repro.engine.pipeline import (
    BatchDecision,
    UpdateDecision,
    cold_passes,
    warm_passes,
)
