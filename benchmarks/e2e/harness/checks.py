"""Output checks: incremental == from-scratch, specialized == original.

A :class:`CheckJob` is a picklable snapshot of one engine taken between
two decisions: the live config, the engine's verdicts and its specialized
source.  :func:`run_check` — run in a separate process, after the measured
phase — rebuilds a cold pipeline over the same config (as
``tests/engine/test_fuzz_equivalence.py`` does), compares verdicts and
specialized source, and then runs seeded packets through the
``targets.bmv2`` interpreter on the *original* program and on the engine's
specialized program.  The reference outputs therefore never come from the
engine under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.engine import Engine, EngineOptions
from repro.p4 import ast_nodes as ast
from repro.p4.errors import TypeCheckError
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.p4.types import TypeEnv, eval_const_expr, lvalue_path
from repro.programs import registry
from repro.runtime.entries import TableEntry, as_value_mask
from repro.runtime.semantics import INSERT, Update
from repro.smt import terms as T
from repro.targets.bmv2 import Interpreter, Packet, PacketBuilder
from repro.targets.bmv2.interpreter import InterpreterError

#: Comparisons one job makes besides its packets: point verdicts, table
#: verdicts, specialized source.
STATE_CHECKS = 3

#: Packets per check job; two jobs (midpoint, end) per program.
PACKETS_PER_CHECK = 100
#: Random bytes after the last steered header of every packet.
PAYLOAD_BYTES = 256


def _known_defect(error: InterpreterError, original: ast.Program) -> bool:
    """Is this the engine defect the packet check found at the commit that
    added the benchmark, which that commit was not allowed to fix?

    The specializer drops the declaration of an action no kept table lists
    but keeps direct calls to it in the apply block (switch's
    ``checksum_fix()``, scion's ``drop()``), so the specialized program
    stops at the call.  A packet that runs into it is reported as skipped,
    not failed.  Delete this function together with the fix.
    """
    prefix = "unknown extern "
    text = str(error)
    if not text.startswith(prefix):
        return False
    name = text[len(prefix):].strip("'")
    return any(
        isinstance(local, ast.ActionDecl) and local.name == name
        for decl in original.declarations
        if isinstance(decl, ast.ControlDecl)
        for local in decl.locals
    )


@dataclass
class CheckJob:
    program: str
    label: str  # "mid" | "end"
    #: Live entries per table, in the engine's own insertion order (an
    #: exact table's precedence depends on it).
    entries: dict
    point_verdicts: dict
    table_verdicts: dict
    specialized_source: str
    pruned_headers: tuple
    #: table -> match plan, for the tables whose specialized declaration
    #: matches on fewer keys than the original.
    narrowed_keys: dict
    packet_seed: int


@dataclass
class CheckResult:
    program: str
    label: str
    attempted: int
    failures: list = field(default_factory=list)  # one line per failed check
    skipped: int = 0  # packets that ran into ``_known_defect``


def snapshot(flay, program: str, label: str, packet_seed: int) -> CheckJob:
    """Copy what :func:`run_check` needs out of a live engine."""
    runtime = flay.runtime
    return CheckJob(
        program=program,
        label=label,
        entries={
            name: state.entries()
            for name, state in runtime.state.tables.items()
            if len(state)
        },
        point_verdicts=dict(runtime.point_verdicts),
        table_verdicts=dict(runtime.table_verdicts),
        specialized_source=flay.specialized_source(),
        pruned_headers=tuple(flay.report.pruned_headers),
        narrowed_keys=dict(flay.report.narrowed_keys),
        packet_seed=packet_seed,
    )


def run_check(job: CheckJob) -> CheckResult:
    entry = registry.get(job.program)
    source = entry.source()
    result = CheckResult(job.program, job.label, STATE_CHECKS + PACKETS_PER_CHECK)
    scratch = Engine(
        source=source,
        options=EngineOptions(target="none", skip_parser=entry.skip_parser),
    )
    for table, entries in job.entries.items():
        for installed in entries:
            scratch.ctx.state.apply_update(Update(table, INSERT, installed))
    scratch._encode_initial()
    scratch._evaluate_all_points()
    rebuilt, _ = scratch.ctx.specializer.specialize(
        scratch.point_verdicts, scratch.table_verdicts
    )
    where = f"{job.program}/{job.label}"
    differing = _differing(job.point_verdicts, scratch.point_verdicts)
    if differing:
        result.failures.append(f"{where}: point verdicts differ at {differing[:5]}")
    differing = _differing(job.table_verdicts, scratch.table_verdicts)
    if differing:
        result.failures.append(f"{where}: table verdicts differ at {differing[:5]}")
    if job.specialized_source != print_program(rebuilt):
        result.failures.append(f"{where}: specialized source differs from rebuild")

    original = parse_program(source)
    specialized = parse_program(job.specialized_source)
    reference = Interpreter(original)
    candidate = Interpreter(specialized)
    state = scratch.ctx.state
    narrowed = _NarrowedState(state, job.narrowed_keys)
    rng = random.Random(job.packet_seed)
    settable = set(reference.run(Packet(b""), state).store)
    for number in range(PACKETS_PER_CHECK):
        data, intrinsic = guided_packet(
            original, reference.env, scratch.model, job.entries, settable, rng
        )
        expected = reference.run(Packet(data), state, intrinsic=intrinsic)
        try:
            got = candidate.run(Packet(data), narrowed, intrinsic=intrinsic)
        except InterpreterError as exc:
            if _known_defect(exc, original):
                result.skipped += 1
                result.attempted -= 1
            else:
                result.failures.append(f"{where}: packet {number} ({data.hex()}): {exc}")
            continue
        diff = _output_diff(expected, got, job.pruned_headers)
        if diff:
            result.failures.append(f"{where}: packet {number} ({data.hex()}): {diff}")
    return result


class _NarrowedTable:
    """A table's entries as the specialized program's narrowed table takes
    them: without the matches on keys the specializer dropped (a key every
    entry wildcards needs no match hardware — ``match_plan`` "none")."""

    def __init__(self, table_state, plan: tuple) -> None:
        self._state = table_state
        self._keep = [kind != "none" for kind in plan]
        self.info = self

    def _project(self, values) -> list:
        return [value for value, keep in zip(values, self._keep) if keep]

    def key_widths(self) -> list:
        return self._project(self._state.info.key_widths())

    def ordered_entries(self) -> list:
        return [
            TableEntry(tuple(self._project(e.matches)), e.action, e.args, e.priority)
            for e in self._state.ordered_entries()
        ]


class _NarrowedState:
    """The control plane as the device running the specialized program
    holds it: the same entries, projected onto each narrowed table's keys."""

    def __init__(self, state, narrowed_keys: dict) -> None:
        self.tables = dict(state.tables)
        for table, plan in narrowed_keys.items():
            if "none" in plan:
                self.tables[table] = _NarrowedTable(state.tables[table], plan)


def _differing(ours: dict, theirs: dict) -> list:
    return sorted(
        key for key in ours.keys() | theirs.keys() if ours.get(key) != theirs.get(key)
    )


def _output_diff(expected, got, pruned_headers: tuple) -> str:
    """Empty when the two executions agree on drop, parser error and every
    output path both programs still carry (pruned headers are payload)."""
    if expected.dropped != got.dropped:
        return f"dropped {expected.dropped} != {got.dropped}"
    if expected.parser_error != got.parser_error:
        return f"parser_error {expected.parser_error} != {got.parser_error}"
    ours = expected.output_view(ignore_prefixes=pruned_headers)
    theirs = got.output_view(ignore_prefixes=pruned_headers)
    for path in ours.keys() & theirs.keys():
        if ours[path] != theirs[path]:
            return f"{path}: {ours[path]:#x} != {theirs[path]:#x}"
    return ""


# ---------------------------------------------------------------------------
# Packets that get past the parser
# ---------------------------------------------------------------------------


def guided_packet(
    program: ast.Program,
    env: TypeEnv,
    model,
    entries: dict,
    settable: set,
    rng: random.Random,
) -> tuple:
    """A random packet (and intrinsic metadata) steered along one parser
    path and, half of the time, into one installed entry.

    Uniform random bytes fail the first ``select`` of every zoo parser, so
    no table is ever applied.  Instead the parser's states are walked: each
    extracted header gets random field values, then a random case of the
    state's ``select`` (one that does not reject, if there is one) is
    chosen and its constants written into the fields it tests.  Finally
    the header fields and intrinsic metadata an installed entry of a random
    table matches on are overwritten with values that entry hits.  Any
    input is a valid input, so steering only changes coverage.
    """
    parser = program.find(program.pipeline.parser)
    states = {state.name: state for state in parser.states}
    fields: dict[str, list] = {}  # path -> [value, width], extraction order
    current = "start"
    for _ in range(64):
        state = states.get(current)
        if state is None:
            break
        for stmt in state.statements:
            call = getattr(stmt, "call", None)
            if call is not None and call.method == "pkt_extract":
                header = lvalue_path(call.args[0])
                for decl in env.fields_of(_header_type(parser, env, header)):
                    width = env.width_of(decl.type)
                    fields[f"{header}.{decl.name}"] = [rng.getrandbits(width), width]
        transition = state.transition
        if isinstance(transition, ast.TransitionDirect):
            current = transition.state
            continue
        accepting = [case for case in transition.cases if case.state != ast.REJECT]
        case = rng.choice(accepting or transition.cases)
        for expr, keyset in zip(transition.exprs, case.keys):
            if keyset.is_default or keyset.value_set_name is not None:
                continue
            try:
                slot = fields.get(lvalue_path(expr))
            except TypeCheckError:  # not a plain field: leave it random
                slot = None
            value = eval_const_expr(keyset.value, env)
            if slot is None or value is None:
                continue
            mask = (1 << slot[1]) - 1
            if keyset.mask is not None:
                mask &= eval_const_expr(keyset.mask, env)
            slot[0] = (slot[0] & ~mask) | (value & mask)
        current = case.state
    intrinsic: dict = {}
    if entries and rng.random() < 0.5:
        _aim_at_entry(model, entries, fields, intrinsic, settable, rng)
    builder = PacketBuilder()
    for value, width in fields.values():
        builder.push(value, width)
    # A long payload, so that no parser path runs out of packet: on a
    # truncated packet the original reports a parser error where a parser
    # with its tail pruned no longer looks (see README "Known defects").
    builder.push_bytes(rng.randbytes(PAYLOAD_BYTES))
    return builder.build().data, intrinsic


def _header_type(parser: ast.ParserDecl, env: TypeEnv, header_path: str):
    root, _, rest = header_path.partition(".")
    header_type = next(p.type for p in parser.params if p.name == root)
    for part in rest.split("."):
        header_type = env.member_type(header_type, part)
    return header_type


def _aim_at_entry(
    model, entries: dict, fields: dict, intrinsic: dict, settable: set, rng: random.Random
) -> None:
    """Point the packet fields and intrinsic metadata that one installed
    entry matches on at that entry."""
    table = rng.choice(sorted(entries))
    installed = rng.choice(entries[table])
    for match, key in zip(installed.matches, model.tables[table].keys):
        if key.term.op != T.OP_DATA_VAR:
            continue
        path = key.term.name
        value, mask = as_value_mask(match, key.width)
        slot = fields.get(path)
        if slot is not None:
            slot[0] = (slot[0] & ~mask) | value
        elif path in settable and not path.startswith("hdr."):
            intrinsic[path] = (rng.getrandbits(key.width) & ~mask) | value
