"""Fig. 2 — the control-plane-triggered incremental pipeline.

The figure's four panels: (1) an update arrives at the specializing
compiler, (2) the affected components are identified via taint, (3) their
behaviour is checked, (4) no-change updates are forwarded; changes trigger
recompilation of the affected component.

The bench drives the pipeline through both outcomes and measures the
per-update fast path.
"""

from conftest import heading, make_flay
from repro.programs import registry
from repro.runtime.entries import TableEntry, TernaryMatch
from repro.runtime.semantics import INSERT, Update

FULL48 = (1 << 48) - 1


def _entry(value, type_arg, priority):
    return TableEntry((TernaryMatch(value, FULL48),), "set", (type_arg,), priority)


def test_fig2_forward_path(benchmark, corpus_programs):
    """Steps (1)-(4), no-change outcome: the measured fast path."""
    flay = make_flay(corpus_programs["fig3"])
    flay.process_update(Update("eth_table", INSERT, _entry(0x10, 0x800, 10)))
    flay.process_update(Update("eth_table", INSERT, _entry(0x11, 0x801, 11)))

    counter = [0x100]

    def forward_one():
        counter[0] += 1
        return flay.process_update(
            Update("eth_table", INSERT, _entry(counter[0], 0x900, counter[0]))
        )

    decision = benchmark(forward_one)
    heading("Fig. 2: incremental pipeline — forward path")
    print(f"points re-queried: {decision.affected_points}")
    print(f"decision: {decision.describe()}")
    assert decision.forwarded and not decision.recompiled


def test_fig2_recompile_path(benchmark, corpus_programs):
    """Steps (1)-(4), behaviour-change outcome: respecialize + recompile."""
    program = corpus_programs["fig3"]

    def first_entry_changes_everything():
        flay = make_flay(program)
        return flay.process_update(
            Update("eth_table", INSERT, _entry(0x10, 0x800, 10))
        )

    decision = benchmark(first_entry_changes_everything)
    print(f"\n[Fig 2] recompile path: {decision.describe()}")
    assert decision.recompiled


def test_fig2_taint_narrows_work(corpus_programs, benchmark):
    """Step (2): the taint map confines the check to the updated table's
    program points, not the whole program."""
    flay = make_flay(corpus_programs["scion"])
    total_points = flay.model.point_count
    info = flay.model.table("ScionIngress.bfd_sessions")
    affected = benchmark(
        flay.model.points_for_control_vars, info.control_var_names()
    )
    print(f"\n[Fig 2] taint: {len(affected)}/{total_points} points affected "
          f"by a bfd_sessions update")
    assert len(affected) < total_points / 4
