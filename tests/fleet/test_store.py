"""The content-addressed shared store's contract.

Keying must separate exactly the option sets that change verdicts, and
adoption must hand the second engine the *same* warm memos the donor
holds — not copies — while leaving per-switch state private.
"""

import pytest

from repro.engine.context import EngineOptions
from repro.engine.engine import Engine
from repro.fleet.store import COLD_KEY_FIELDS, SharedStore
from repro.p4.printer import print_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt import terms as T

FIG3 = registry.get("fig3").source()
FIG5 = registry.get("fig5").source()


def _lowered(engine, updates):
    """Decide ``updates`` one by one; every write sent to the device."""
    return [
        (l.target, l.table, l.update)
        for update in updates
        for l in engine.process_update(update).lowered
    ]


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
        Engine(source=FIG3, options=EngineOptions(effort="full"), store=store)
        other = Engine(source=FIG3, options=EngineOptions(effort="dce"), store=store)
        assert not other.ctx.store_hit
        assert len(store) == 2

    def test_first_engine_donates_and_second_adopts_under_the_key(self):
        store = SharedStore()
        opts = EngineOptions()
        donor = Engine(source=FIG3, options=opts, store=store)
        adopter = Engine(source=FIG3, options=opts, store=store)
        assert [donor.ctx.store_hit, adopter.ctx.store_hit] == [False, True]
        assert (store.donations, store.hits) == (1, 1)
        assert store.get(FIG3, opts).key == SharedStore.key_for(FIG3, opts)


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
        assert _lowered(adopter, updates) == _lowered(isolated, twin)
        assert print_program(adopter.specialized_program) == print_program(
            isolated.specialized_program
        )
        assert adopter.point_verdicts == isolated.point_verdicts
        assert adopter.table_verdicts == isolated.table_verdicts

    # switch on tofino meets known defect 2 of benchmarks/e2e/README.md.
    @pytest.mark.parametrize("name, target", [("fig5", "tofino"), ("switch", "bmv2")])
    def test_adopter_built_after_its_donor_collected_matches_isolated_twin(
        self, name, target
    ):
        # The donor's warm rows were emptied (the shared ones, for every
        # engine at once) and its dead terms freed before the adopter took
        # the entry: the adopter still starts from the donated sweep.
        source = registry.get(name).source()
        store = SharedStore()
        opts = EngineOptions(target=target)
        donor = Engine(source=source, options=opts, store=store)
        for update in EntryFuzzer(donor.model, seed=3).update_stream(count=20):
            donor.process_update(update)
        assert T.DEFAULT_FACTORY.collect() > 0
        adopter = Engine(source=source, options=opts, store=store)
        assert adopter.ctx.store_hit
        isolated = Engine(source=source, options=opts)
        updates = EntryFuzzer(adopter.model, seed=11).update_stream(count=25)
        ours, theirs = [], []
        for update in updates:
            ours.extend(adopter.process_update(update).lowered)
            theirs.extend(isolated.process_update(update).lowered)
        assert [(l.target, l.table, l.update) for l in ours] == [
            (l.target, l.table, l.update) for l in theirs
        ]
        assert print_program(adopter.specialized_program) == print_program(
            isolated.specialized_program
        )
        assert adopter.point_verdicts == isolated.point_verdicts
        assert adopter.table_verdicts == isolated.table_verdicts
