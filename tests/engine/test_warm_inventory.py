"""Every structure the engine keeps across updates is a row of WARM_STATE.

:data:`~repro.engine.context.WARM_STATE` is the one inventory the
snapshot, the restore and the fleet store iterate; a memo that is missing
from it is silently dropped by all three.  These tests warm an engine on
each zoo program with the target the end-to-end harness gives it, walk
everything reachable from its :class:`EngineContext`, run more fuzzed
updates (one burst through the batch scheduler among them) and walk again.
They fail on:

- a dict, list or set that is the same object in both walks, has grown,
  and is not at or under a row;
- a row whose path does not resolve;
- a dict, list or set at module level in any ``repro.*`` module that grows
  across the updates;
- an ``id``-keyed row the snapshot or the store would move to another
  engine (``id``s mean nothing outside their process);
- a row path missing from DESIGN.md's "Caching architecture" table, or
  listed there with another lifetime;
- an ``id``-keyed row whose lifetime is not ``generation``, a
  ``generation`` row the owners' ``forget()`` leaves non-empty, and an
  ``engine`` row ``forget()`` changes.

The walk stops at terms and AST nodes: a term's arguments are terms, and
a rebuilt specialized program is a new object, not growth.
"""

import copy
import re
import sys
import types
from pathlib import Path

import pytest

from repro.engine.context import (
    CARRIED,
    ENGINE,
    GENERATION,
    KEY_ID,
    KEY_NODE,
    KEY_TERM,
    KEY_VALUE,
    LOCAL,
    REBUILT,
    SHARED,
    WARM_STATE,
    EngineOptions,
    warm_state,
)
from repro.engine.engine import Engine
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt.terms import Term

#: Device target per zoo program, as the end-to-end harness runs them.
TARGETS = {
    "scion": "tofino",
    "switch": "tofino",
    "middleblock": "bmv2",
    "dash": "bmv2",
    "beaucoup": "tofino",
    "accturbo": "tofino",
    "dta": "tofino",
}

WARMUP, SEQUENTIAL, BURST = 30, 50, 40

#: Objects the walk does not enter.
_LEAVES = (
    Term,
    str,
    bytes,
    int,
    float,
    type(None),
    type,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.ModuleType,
)


def _attributes(obj):
    found = getattr(obj, "__dict__", None)
    if found is not None:
        yield from found.items()
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                yield name, getattr(obj, name)


def _unregistered(ctx) -> dict:
    """id → (path, container, size) for every dict, list and set reachable
    from ``ctx`` that is not at or under a row."""
    rows = {id(container) for _, container in warm_state(ctx)}
    seen = set(rows)
    found: dict = {}
    stack = [(ctx, "ctx")]
    while stack:
        obj, path = stack.pop()
        if id(obj) in seen or isinstance(obj, _LEAVES):
            continue
        if type(obj).__module__ == "repro.p4.ast_nodes":
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            found[id(obj)] = (path, obj, len(obj))
            for key, value in obj.items():
                stack.append((key, f"{path}{{key}}"))
                stack.append((value, f"{path}[{key!r:.40}]"))
        elif isinstance(obj, (list, set)):
            found[id(obj)] = (path, obj, len(obj))
            stack.extend((item, f"{path}[]") for item in obj)
        elif isinstance(obj, (tuple, frozenset)):
            stack.extend((item, f"{path}()") for item in obj)
        else:
            stack.extend((value, f"{path}.{name}") for name, value in _attributes(obj))
    return found


def _module_containers() -> dict:
    """(module, name) → (path, container, size) for every dict, list and
    set at module level in a ``repro.*`` module."""
    return {
        (module_name, name): (f"{module_name}.{name}", value, len(value))
        for module_name, module in list(sys.modules.items())
        if module_name == "repro" or module_name.startswith("repro.")
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set))
    }


def _grown(before: dict, after: dict) -> list:
    return sorted(
        f"{path}: {size} -> {after[key][2]}"
        for key, (path, container, size) in before.items()
        if key in after and after[key][1] is container and after[key][2] > size
    )


@pytest.fixture(scope="module", params=sorted(TARGETS))
def warmed(request):
    """(engine, growth outside every row, module-level growth)."""
    name = request.param
    engine = Engine(
        source=registry.get(name).source(),
        options=EngineOptions(target=TARGETS[name]),
    )
    stream = EntryFuzzer(engine.model, seed=1).update_stream(
        count=WARMUP + SEQUENTIAL + BURST
    )
    for update in stream[:WARMUP]:
        engine.process_update(update)
    first, modules = _unregistered(engine.ctx), _module_containers()
    for update in stream[WARMUP:WARMUP + SEQUENTIAL]:
        engine.process_update(update)
    engine.decide(stream[WARMUP + SEQUENTIAL:])
    grown = _grown(first, _unregistered(engine.ctx))
    return engine, grown, _grown(modules, _module_containers())


def test_nothing_grows_outside_a_row(warmed):
    _, grown, _ = warmed
    assert grown == [], "unregistered warm state:\n" + "\n".join(grown)


def test_no_module_level_container_grows(warmed):
    _, _, grown = warmed
    assert grown == [], "module-level caches:\n" + "\n".join(grown)


def test_every_row_resolves(warmed):
    engine, _, _ = warmed
    for row in WARM_STATE:
        row.resolve(engine.ctx)  # AttributeError names the stale path


def test_every_row_is_declared_once_with_known_kinds():
    paths = [row.path for row in WARM_STATE]
    assert len(paths) == len(set(paths))
    for row in WARM_STATE:
        assert row.key in (KEY_ID, KEY_NODE, KEY_TERM, KEY_VALUE), row
        assert row.carry in (SHARED, CARRIED, REBUILT, LOCAL), row
        assert row.lifetime in (GENERATION, ENGINE), row


def test_no_id_keyed_row_leaves_its_engine():
    """An ``id`` means nothing in another engine's process, so the store
    and the snapshot never move an ``id``- or ``node``-keyed row."""
    for row in WARM_STATE:
        if row.key in (KEY_ID, KEY_NODE):
            assert row.carry in (REBUILT, LOCAL), row


def test_every_id_keyed_row_is_generation():
    """A term ``id`` is reused once a collection frees its term, so every
    memo keyed on one is forgotten at every collection."""
    for row in WARM_STATE:
        if row.key == KEY_ID:
            assert row.lifetime == GENERATION, row


def _contents(ctx, lifetime) -> dict:
    return {
        row.path: (container, copy.copy(container))
        for row, container in warm_state(ctx)
        if row.lifetime == lifetime
    }


def test_forget_empties_every_generation_row(warmed):
    engine, _, _ = warmed
    ctx = engine.ctx
    engine_rows = _contents(ctx, ENGINE)
    assert any(len(container) for container, _ in _contents(ctx, GENERATION).values())
    ctx.query_engine.forget()
    ctx.query_engine.solver.forget()
    for path, (container, _) in _contents(ctx, GENERATION).items():
        assert len(container) == 0, path
    after = _contents(ctx, ENGINE)
    assert after.keys() == engine_rows.keys()
    for path, (container, before) in engine_rows.items():
        assert after[path][0] is container, path
        assert container == before, path


def test_design_documents_every_row():
    design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
    section = design.split("## Caching architecture", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([\w.]+)` \|", section, re.MULTILINE))
    missing = [row.path for row in WARM_STATE if row.path not in documented]
    assert missing == [], f"rows missing from DESIGN.md: {missing}"


def test_design_lists_the_lifetime_column():
    design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
    section = design.split("## Caching architecture", 1)[1].split("\n## ", 1)[0]
    assert "| Path | Key | Carry | Lifetime | What it holds |" in section
    listed = dict(
        re.findall(r"^\| `([\w.]+)` \| \w+ \| \w+ \| (\w+) \|", section, re.MULTILINE)
    )
    wrong = [row.path for row in WARM_STATE if listed.get(row.path) != row.lifetime]
    assert wrong == [], f"rows with another lifetime in DESIGN.md: {wrong}"
