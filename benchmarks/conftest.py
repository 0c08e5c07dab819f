"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the regenerated rows next to the paper's numbers.
"""

import functools

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import pipeline
from repro.engine.queries import QueryEngine
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer


def heading(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


@pytest.fixture(scope="session")
def corpus_programs():
    """Parsed corpus programs, shared across benches."""
    return {name: registry.load(name) for name in registry.CORPUS}


@pytest.fixture()
def solver_free(monkeypatch):
    """Engines built under this fixture never call the solver: their
    query engine's node budget is 0, so every executability query that
    is not trivial or cached is answered MAYBE."""
    monkeypatch.setattr(
        pipeline, "QueryEngine", functools.partial(QueryEngine, solver_node_budget=0)
    )


def make_flay(program, **options) -> Flay:
    return Flay(program, FlayOptions(target="none", **options))


def representative_config(flay: Flay, tables, seed: int = 7):
    """Updates exercising every action of the given tables."""
    fuzzer = EntryFuzzer(flay.model, seed=seed)
    updates = []
    for table in tables:
        updates.extend(fuzzer.representative_updates(table))
    return updates
