"""Shared-store fleet replay vs N isolated engines: byte-identical output.

The tentpole soundness property.  A fleet where switches adopt shared
cold artifacts and term-pure warm caches must lower *exactly* what a
fleet of fully isolated engines lowers on the same correlated trace —
per switch, in order, across targets and batch worker counts.
"""

import pytest

from repro.engine.context import EngineOptions
from repro.fleet import FleetSimulator
from repro.fleet.sim import dedup_ratio
from repro.programs import registry

FIG5 = registry.get("fig5").source()
FIG3 = registry.get("fig3").source()


def _pair(source, options, **kwargs):
    """(shared report, isolated report) over identical replay arguments."""
    shared = FleetSimulator(source, options=options, shared_store=True, **kwargs)
    isolated = FleetSimulator(source, options=options, shared_store=False, **kwargs)
    return shared.run(), isolated.run(), shared


SMALL = dict(
    switches=3,
    seed=3,
    duration=50.0,
    mean_interval=12.0,
    correlation=0.8,
    updates_per_burst=4,
    divergent_prefix=6,
)


@pytest.mark.parametrize("target", ["none", "tofino"])
def test_shared_matches_isolated_per_target(target):
    shared, isolated, _ = _pair(FIG5, EngineOptions(target=target), **SMALL)
    assert shared.lowered_traces() == isolated.lowered_traces()
    assert shared.specialized_sources() == isolated.specialized_sources()


@pytest.mark.parametrize("workers", [1, 4])
def test_shared_matches_isolated_per_worker_count(workers):
    shared, isolated, _ = _pair(
        FIG3, EngineOptions(target="none"), workers=workers, **SMALL
    )
    assert shared.lowered_traces() == isolated.lowered_traces()
    assert shared.specialized_sources() == isolated.specialized_sources()


def test_fleet_shares_one_store_entry():
    shared_report, isolated_report, sim = _pair(
        FIG5, EngineOptions(target="none"), **SMALL
    )
    assert shared_report.store_entries == 1
    assert shared_report.store_donations == 1
    assert shared_report.store_hits == SMALL["switches"] - 1
    assert isolated_report.store_entries == 0
    # All switches probe one encoder object.
    encoders = {
        id(engine.ctx.query_engine.solver._encoder) for engine in sim.engines
    }
    assert len(encoders) == 1


def test_fragment_footprint_shrinks_or_ties():
    # Toy programs may decide every query pre-blasting (footprint 0);
    # sharing must never *grow* the footprint, and the per-switch count
    # collapses to one encoder's worth whenever fragments exist at all.
    shared, isolated, _ = _pair(FIG5, EngineOptions(target="none"), **SMALL)
    assert shared.fragment_footprint <= isolated.fragment_footprint
    assert dedup_ratio(isolated, shared) >= 1.0


def test_replay_is_deterministic():
    a_shared, a_iso, _ = _pair(FIG5, EngineOptions(target="none"), **SMALL)
    b_shared, b_iso, _ = _pair(FIG5, EngineOptions(target="none"), **SMALL)
    assert a_shared.lowered_traces() == b_shared.lowered_traces()
    assert a_iso.lowered_traces() == b_iso.lowered_traces()
    assert a_shared.events == b_shared.events


def test_simulator_replays_once():
    sim = FleetSimulator(FIG3, switches=2, duration=20.0, seed=1)
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


def test_rejects_empty_fleet():
    with pytest.raises(ValueError):
        FleetSimulator(FIG3, switches=0)
