"""A precise table is one lookup node per control symbol.

Two promises of that encoding, beyond the verdicts every ``Spec`` test
compares with the chain encoding:

* an update of a precise table interns a number of terms that does not
  grow with the table (the chain encoding rebuilt a prefix of each chain,
  O(entries) per symbol);
* every executability point's term is the chain encoding's once its
  lookups are expanded, and is decided the same way — trivially, from the
  cache, by the node-budget punt, or by the probe pair — because each
  layer reads a lookup as its chain.  A lookup that counted smaller than
  its chain would send punted points to the solver.
"""

from collections import Counter

import pytest

from repro.analysis.model import KIND_IF, KIND_SELECT
from repro.core import Flay, FlayOptions
from repro.engine.queries import QueryEngine
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import INSERT, encode_table
from repro.programs.middleblock import PRE_INGRESS_ACL
from repro.smt import DeltaSubstitution, Substitution, terms as T
from repro.smt.simplify import simplify
from tests.engine.spec import Spec, chain_encode_all, expand_lookups


def interned_by_one_insert(installed: int) -> int:
    """Terms the factory interns for one more insert into middleblock's
    ACL, held precise at ``installed`` entries: the encoding, then the
    substitution's push and the tainted points' pulls."""
    flay = Flay(registry.load("middleblock"), FlayOptions(target="none", overapprox_threshold=None))
    info = flay.model.table(PRE_INGRESS_ACL)
    state = flay.state.tables[info.name]
    entries = EntryFuzzer(flay.model, seed=3).unique_entries(
        PRE_INGRESS_ACL, installed + 2, action="set_vrf"
    )
    for entry in entries[:installed]:
        state.apply(INSERT, entry)
    substitution = DeltaSubstitution(dict(flay.mapping))
    substitution.set_many(encode_table(info, state, None).mapping)
    points = [
        flay.model.points[pid].expr
        for pid in sorted(flay.model.points_for_control_vars(info.control_var_names()))
    ]
    for expr in points:
        substitution.apply(expr)
    # One warm-up insert, so both sizes pay the same first-time costs.
    for entry in entries[installed:]:
        before = len(T.DEFAULT_FACTORY._table)
        state.apply(INSERT, entry)
        substitution.set_many(encode_table(info, state, None).mapping)
        for expr in points:
            substitution.apply(expr)
        grown = len(T.DEFAULT_FACTORY._table) - before
    return grown


def test_an_insert_interns_the_same_terms_at_16_and_at_256_entries():
    small, large = interned_by_one_insert(16), interned_by_one_insert(256)
    assert small == large
    assert small < 40


#: Per program, the two wide ternary ACLs the end-to-end benchmark's
#: ``acl_precise`` workload holds precise.
ACLS = {
    "scion": ("ScionIngress.acl_v4", "ScionIngress.acl_v6"),
    "switch": ("SwitchIngress.ipv4_acl", "SwitchIngress.mac_acl"),
    "middleblock": ("MiddleblockIngress.acl_pre_ingress", "MiddleblockIngress.acl_ingress"),
    "dash": ("DashIngress.acl_outbound_stage0", "DashIngress.acl_inbound_stage0"),
}


@pytest.mark.parametrize("name", sorted(ACLS))
def test_points_are_decided_as_under_the_chain_encoding(name):
    """After every decision each executability point tainted by an ACL is
    the chain encoding's term once its lookups are expanded, and a bare
    query engine decides it the same way on both terms (the gate is left
    out: which witnesses it replays depends on the models the SAT core
    happens to find, not on the encoding)."""
    program = registry.load(name)
    flay = Flay(program, FlayOptions(target="none", skip_parser=registry.get(name).skip_parser))
    model = flay.model
    tables = [model.table(table) for table in ACLS[name]]
    points = [
        model.points[pid]
        for pid in sorted(
            model.points_for_control_vars(
                set().union(*(info.control_var_names() for info in tables))
            )
        )
        if model.points[pid].kind in (KIND_IF, KIND_SELECT)
    ]
    stream = EntryFuzzer(model, seed=5).update_stream(
        list(ACLS[name]), count=64, modify_fraction=0.1, delete_fraction=0.1
    )
    cut = len(stream) * 3 // 4
    spec = Spec(flay)
    lookups, chains = QueryEngine(model), QueryEngine(model)
    hows: Counter = Counter()
    for chunk in [[update] for update in stream[:cut]] + [stream[cut:]]:
        spec.check_decision(flay.decide(chunk if len(chunk) > 1 else chunk[0]), chunk)
        one_shot = Substitution(chain_encode_all(flay)[0])
        for point in points:
            new = flay.substitution.apply(point.expr)
            old = simplify(one_shot.apply(point.expr), chains.simplify_memo)
            assert expand_lookups(new) is old
            how = lookups._executability(new).how
            assert how == chains._executability(old).how, point.pid
            hows[how] += 1
    assert hows["punted"] + hows["probed"] > 0
