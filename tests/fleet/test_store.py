"""The content-addressed shared store's contract.

Keying must separate exactly the option sets that change verdicts, and
adoption must hand the second engine the *same* warm memos the donor
holds — not copies — while leaving per-switch state private.
"""

import pytest

from repro.engine.context import EngineOptions
from repro.engine.engine import Engine
from repro.engine.events import EventBus, StoreActivity
from repro.fleet.store import COLD_KEY_FIELDS, SharedStore
from repro.p4.printer import print_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer

FIG3 = registry.get("fig3").source()
FIG5 = registry.get("fig5").source()


class TestKeying:
    def test_key_is_stable(self):
        opts = EngineOptions()
        assert SharedStore.key_for(FIG3, opts) == SharedStore.key_for(FIG3, opts)

    def test_key_separates_sources(self):
        opts = EngineOptions()
        assert SharedStore.key_for(FIG3, opts) != SharedStore.key_for(FIG5, opts)

    @pytest.mark.parametrize("field_name", COLD_KEY_FIELDS)
    def test_every_verdict_relevant_option_is_keyed(self, field_name):
        base = EngineOptions()
        value = getattr(base, field_name)
        if isinstance(value, bool):
            changed = EngineOptions(**{field_name: not value})
        elif field_name == "effort":
            changed = EngineOptions(effort="dce")
        else:  # numeric budgets / thresholds (may default to None)
            changed = EngineOptions(**{field_name: 1 if value is None else value + 1})
        assert SharedStore.key_for(FIG3, base) != SharedStore.key_for(FIG3, changed)

    def test_target_does_not_split_entries(self):
        # Lowering never touches terms or verdicts, so switches with
        # different backends share one cold pipeline.
        a = EngineOptions(target="tofino")
        b = EngineOptions(target="none")
        assert SharedStore.key_for(FIG3, a) == SharedStore.key_for(FIG3, b)


class TestAdoption:
    def test_second_engine_adopts(self):
        store = SharedStore()
        opts = EngineOptions()
        donor = Engine(source=FIG3, options=opts, store=store)
        adopter = Engine(source=FIG3, options=opts, store=store)
        assert not donor.ctx.store_hit
        assert adopter.ctx.store_hit
        assert len(store) == 1
        assert store.hits == 1 and store.misses == 1 and store.donations == 1

    def test_adopter_shares_warm_objects_by_identity(self):
        store = SharedStore()
        opts = EngineOptions()
        donor = Engine(source=FIG3, options=opts, store=store)
        adopter = Engine(source=FIG3, options=opts, store=store)
        d, a = donor.ctx.query_engine.solver, adopter.ctx.query_engine.solver
        assert a._results is d._results
        assert (
            adopter.ctx.query_engine._exec_cache
            is donor.ctx.query_engine._exec_cache
        )

    def test_per_switch_state_stays_private(self):
        store = SharedStore()
        opts = EngineOptions()
        donor = Engine(source=FIG3, options=opts, store=store)
        adopter = Engine(source=FIG3, options=opts, store=store)
        assert adopter.ctx.state is not donor.ctx.state
        assert adopter.ctx.substitution is not donor.ctx.substitution
        assert adopter.ctx.gate is not donor.ctx.gate
        for update in EntryFuzzer(adopter.model, seed=5).update_stream(count=8):
            adopter.process_update(update)
        assert all(len(ts) == 0 for ts in donor.ctx.state.tables.values())

    def test_divergent_options_do_not_adopt(self):
        store = SharedStore()
        Engine(source=FIG3, options=EngineOptions(use_solver=True), store=store)
        other = Engine(
            source=FIG3, options=EngineOptions(use_solver=False), store=store
        )
        assert not other.ctx.store_hit
        assert len(store) == 2

    def test_store_activity_events(self):
        bus = EventBus()
        log = bus.attach_log()
        store = SharedStore()
        opts = EngineOptions()
        Engine(source=FIG3, options=opts, store=store, bus=bus)
        Engine(source=FIG3, options=opts, store=store, bus=bus)
        seen = log.of_type(StoreActivity)
        assert [event.hit for event in seen] == [False, True]
        assert seen[0].key == SharedStore.key_for(FIG3, opts)


class TestSharedDifferential:
    def test_adopter_matches_isolated_twin(self):
        # The soundness claim in one assertion: an engine warmed from the
        # store is byte-identical to one that paid the full cold pipeline.
        store = SharedStore()
        opts = EngineOptions()
        Engine(source=FIG5, options=opts, store=store)
        adopter = Engine(source=FIG5, options=opts, store=store)
        isolated = Engine(source=FIG5, options=opts)
        updates = EntryFuzzer(adopter.model, seed=11).update_stream(count=25)
        twin = EntryFuzzer(isolated.model, seed=11).update_stream(count=25)
        assert updates == twin
        for update in updates:
            adopter.process_update(update)
        for update in twin:
            isolated.process_update(update)
        assert [
            (l.target, l.table, l.update) for l in adopter.lowered_updates
        ] == [(l.target, l.table, l.update) for l in isolated.lowered_updates]
        assert print_program(adopter.specialized_program) == print_program(
            isolated.specialized_program
        )
        assert adopter.point_verdicts == isolated.point_verdicts
        assert adopter.table_verdicts == isolated.table_verdicts
