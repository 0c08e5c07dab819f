"""A burst rejects exactly what applying its updates one at a time rejects.

For every way an update can fail — a double insert, a modify or delete
of a deleted or absent key, a second delete, a malformed entry at any
index, an oversized value set, an unknown table — ``decide(burst)``
raises the exception type a twin engine meets first when it decides the
same updates one at a time, and leaves the control plane, the verdicts
and the specialized program as they were.
"""

import pytest

from repro.core import Flay, FlayOptions
from repro.p4.parser import parse_program
from repro.runtime.entries import ExactMatch, TableEntry, TernaryMatch
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update, ValueSetUpdate
from tests.engine.test_batch_coalesce import SOURCE

PROGRAM = parse_program(SOURCE)


def tern(value, args=(1,), priority=1):
    return TableEntry((TernaryMatch(value, 0xFF),), "set", args, priority)


def flat(value, args=(1,)):
    return TableEntry((ExactMatch(value),), "set", args, 0)


#: Installed before every burst.
INSTALLED = [Update("tern", INSERT, tern(1)), Update("flat", INSERT, flat(1))]
#: Valid updates against ``INSTALLED``, for the bad ones to sit among.
GOOD = [
    Update("tern", INSERT, tern(2)),
    Update("flat", INSERT, flat(2)),
    ValueSetUpdate("vs", (0x800,)),
    Update("tern", MODIFY, tern(1, args=(7,))),
    Update("flat", INSERT, flat(3)),
    Update("flat", DELETE, flat(3)),
]
MALFORMED = Update("flat", INSERT, flat(0x100))  # 9 bits into an 8-bit key

BURSTS = {
    "double_insert": GOOD[:2] + [Update("tern", INSERT, tern(2))] + GOOD[2:],
    "modify_of_deleted_key": GOOD[:3]
    + [Update("flat", DELETE, flat(1)), Update("flat", MODIFY, flat(1, args=(3,)))]
    + GOOD[3:],
    "delete_of_deleted_key": GOOD[:4]
    + [Update("tern", DELETE, tern(1)), Update("tern", DELETE, tern(1))],
    "modify_of_absent_key": GOOD[:1] + [Update("tern", MODIFY, tern(9))] + GOOD[1:],
    "delete_of_absent_key": GOOD + [Update("flat", DELETE, flat(9))],
    "delete_after_cancelled_insert": GOOD[:5]
    + [Update("flat", DELETE, flat(3)), Update("flat", DELETE, flat(3))],
    "oversized_value_set": GOOD[:2] + [ValueSetUpdate("vs", (1, 2, 3))] + GOOD[2:],
    "unknown_table": GOOD[:3] + [Update("nope", INSERT, flat(4))] + GOOD[3:],
    "unknown_value_set": GOOD[:3] + [ValueSetUpdate("nope", (1,))] + GOOD[3:],
    "unknown_table_before_malformed": [MALFORMED] + GOOD[:1]
    + [Update("nope", INSERT, flat(4))],
    "malformed_before_unknown_table": [Update("nope", INSERT, flat(4))] + [MALFORMED],
    "malformed_then_deleted": GOOD[:2] + [MALFORMED, Update("flat", DELETE, MALFORMED.entry)],
}
BURSTS.update(
    {
        f"malformed_at_{index}": GOOD[:index] + [MALFORMED] + GOOD[index:]
        for index in range(len(GOOD) + 1)
    }
)


def engine():
    flay = Flay(PROGRAM, FlayOptions(target="none"))
    flay.decide(list(INSTALLED))
    return flay


def snapshot(flay):
    """The control plane, the verdicts and the specialized program."""
    runtime = flay.runtime
    state = runtime.state
    return (
        {
            name: (table.entries(), table.active_entries(), table.revision())
            for name, table in state.tables.items()
        },
        dict(state.value_sets),
        state.update_count,
        dict(runtime.point_verdicts),
        dict(runtime.table_verdicts),
        flay.specialized_source(),
    )


def first_sequential_error(updates) -> type:
    twin = engine()
    for update in updates:
        try:
            twin.decide(update)
        except Exception as exc:  # noqa: BLE001 - the type is the answer
            return type(exc)
    raise AssertionError("the burst is valid one update at a time")


@pytest.mark.parametrize("case", sorted(BURSTS))
def test_a_burst_rejects_what_sequential_application_rejects(case):
    burst = BURSTS[case]
    expected = first_sequential_error(burst)
    flay = engine()
    before = snapshot(flay)
    with pytest.raises(Exception) as raised:
        flay.decide(burst)
    assert type(raised.value) is expected
    assert snapshot(flay) == before
    # The engine is still usable: the valid updates go through.
    assert flay.decide(list(GOOD)).update_count == len(GOOD)


def test_the_good_updates_are_valid_one_at_a_time():
    flay = engine()
    for update in GOOD:
        flay.decide(update)
