"""The control-plane-triggered incremental pipeline (Fig. 2 of the paper).

On every control-plane update: (1) re-encode the update's table and find
the control symbols whose assignment changed, (2) find the program points
those symbols taint via the taint map, (3) recompute the specialization
verdicts for exactly those points, and (4) forward the update untouched
when no verdict changed — otherwise respecialize and hand the result to
the device compiler.

The implementation lives in :mod:`repro.engine`: the steps above are the
declared warm pass sequence run by :class:`~repro.engine.engine.Engine`.
``IncrementalSpecializer`` is the historical name and constructor,
preserved for every caller that predates the engine.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.context import EngineOptions
from repro.engine.engine import Engine
from repro.engine.pipeline import BatchDecision, UpdateDecision
from repro.p4 import ast_nodes as ast
from repro.p4.types import TypeEnv
from repro.runtime.semantics import DEFAULT_OVERAPPROX_THRESHOLD

__all__ = ["BatchDecision", "IncrementalSpecializer", "UpdateDecision"]


class IncrementalSpecializer(Engine):
    """Flay's runtime: shim between the controller and the device.

    ``device_compiler`` is any object with a ``compile(program) -> report``
    method (e.g. :class:`repro.targets.tofino.TofinoCompiler`); it is only
    invoked when respecialization is actually needed.  This class maps the
    pre-engine keyword surface onto :class:`~repro.engine.engine.Engine`.
    """

    def __init__(
        self,
        program: ast.Program,
        env: Optional[TypeEnv] = None,
        skip_parser: bool = False,
        overapprox_threshold: Optional[int] = DEFAULT_OVERAPPROX_THRESHOLD,
        device_compiler: Optional[object] = None,
        use_solver: bool = True,
        prune_parser_tail: bool = True,
        effort: str = "full",
    ) -> None:
        options = EngineOptions(
            skip_parser=skip_parser,
            overapprox_threshold=overapprox_threshold,
            use_solver=use_solver,
            prune_parser_tail=prune_parser_tail,
            target="none",
            effort=effort,
        )
        # The legacy constructor takes the compiler instance itself (None
        # meaning "no device"), so pass it through verbatim rather than
        # resolving options.target.
        super().__init__(
            program, options, env=env, device_compiler=device_compiler
        )
