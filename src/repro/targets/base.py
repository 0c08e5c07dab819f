"""The unified device-backend interface and the target registry.

Every device backend — the Tofino RMT model and the BMv2 software
switch — implements one :class:`Target` ABC:

* :meth:`Target.compile` — lower a (specialized) program to the device,
  returning the backend's compile report;
* :meth:`Target.lower_update` — push one *forwarded* control-plane update
  to the device untouched (the cheap path the paper's pipeline protects).

Backends register themselves by name; the engine and the CLI resolve
names through :func:`create_target`, so an unknown ``--target`` fails
eagerly with the list of registered backends instead of deep inside
lowering.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

from repro.errors import FlayError, STAGE_LOWER

#: The pseudo-target meaning "no device attached".
NO_TARGET = "none"


class TargetError(FlayError):
    """A backend could not lower the program or an update."""

    default_stage = STAGE_LOWER


class UnknownTargetError(TargetError, ValueError):
    """The requested backend name is not registered."""


@dataclass(frozen=True)
class LoweredUpdate:
    """A forwarded update as handed to the device driver.

    ``modeled_micros`` is the modeled driver write latency — the cost of
    the paper's fast path (microseconds, vs. seconds for a recompile).
    """

    target: str
    update: object
    table: Optional[str]
    modeled_micros: float

    def describe(self) -> str:
        where = f" into {self.table}" if self.table else ""
        return f"{self.target}: driver write{where} (~{self.modeled_micros:.0f} µs)"


class Target(ABC):
    """A device backend the engine can lower programs and updates onto."""

    #: Registry name of the backend (subclasses override).
    name: ClassVar[str] = "abstract"
    #: Modeled per-entry driver write latency in microseconds.
    update_micros: ClassVar[float] = 10.0

    @abstractmethod
    def compile(self, program):
        """Lower a whole program; returns the backend's compile report."""

    def lower_update(self, update) -> LoweredUpdate:
        """Push one forwarded update to the device without recompiling."""
        table = getattr(update, "table", None)
        if table is None:
            table = getattr(update, "value_set", None)
        return LoweredUpdate(
            target=self.name,
            update=update,
            table=table,
            modeled_micros=self.update_micros,
        )

    def lower_batch(self, updates) -> list:
        """Push a forwarded burst to the device, in submission order.

        The batch scheduler may coalesce and reorder updates *internally*
        for verdict computation, but the device driver always receives the
        stream exactly as the control plane submitted it — this hook is the
        single place that ordering contract lives, and backends with a
        native bulk-write API can override it.
        """
        return [self.lower_update(update) for update in updates]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[str], Target]] = {}


def register_target(name: str, factory: Callable[[str], Target]) -> None:
    """Register a backend factory: ``factory(program_name) -> Target``."""
    _REGISTRY[name] = factory


def available_targets() -> tuple:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_target(
    name: Optional[str], program_name: str = "program"
) -> Optional[Target]:
    """Instantiate a backend by name; ``"none"``/``None`` yields no target.

    Raises :class:`UnknownTargetError` (naming the registered backends)
    for anything else — this is the engine's eager ``--target`` check.
    """
    if name is None or name == NO_TARGET:
        return None
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(available_targets())
        raise UnknownTargetError(
            f"unknown target {name!r}; registered backends: {known} "
            f"(or {NO_TARGET!r} for no device)"
        )
    return factory(program_name)


# Built-in backends.  The factories import lazily so that merely resolving
# a name does not pull in every backend's dependency graph.


def _tofino(program_name: str) -> Target:
    from repro.targets.tofino.compiler import TofinoCompiler

    return TofinoCompiler(program_name=program_name)


def _bmv2(program_name: str) -> Target:
    from repro.targets.bmv2.compiler import Bmv2Compiler

    return Bmv2Compiler(program_name=program_name)


register_target("tofino", _tofino)
register_target("bmv2", _bmv2)
