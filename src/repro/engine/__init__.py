"""The staged pass-pipeline engine.

The engine expresses Flay's two computations as declared pass sequences
over one shared :class:`~repro.engine.context.EngineContext`:

* the **cold pipeline** — parse → typecheck → data-plane analysis →
  initial specialization → target lowering — run once per program, and
* the **warm path** — apply updates → re-verdict points/tables →
  respecialize-or-forward — run by :meth:`Engine.decide` per
  control-plane update, and per burst over its net updates once the
  batch scheduler has coalesced and checked them.

Every decision returns one :class:`~repro.engine.pipeline.Decision`, the
whole account of it; errors root at :class:`~repro.errors.FlayError` and
carry the pipeline stage that raised them.
"""

from repro.engine.batch import coalesce, conflict_components, schedule_batch
from repro.engine.context import EngineContext, EngineOptions, EngineTimings
from repro.engine.engine import Engine
from repro.engine.errors import FlayError, OptionsError, SourcePos
from repro.engine.passes import Pass, PassManager
from repro.engine.pipeline import Decision, cold_passes, warm_passes
