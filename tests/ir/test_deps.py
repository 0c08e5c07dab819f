"""Tests for the table dependency graph."""

import pytest

from repro.core import Flay, FlayOptions
from repro.ir import (
    ACTION_DEP,
    CONTROL_DEP,
    MATCH_DEP,
    DepEdge,
    DependencyGraph,
    build_dependency_graph,
)
from repro.ir.deps import STICKY_FIELDS, NodeFacts, _Builder, _mutually_exclusive
from repro.p4.parser import parse_program
from repro.p4.types import TypeEnv
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.targets.tofino.allocator import allocate
from repro.targets.tofino.compiler import TofinoCompiler


def _program(locals_: str, body: str) -> str:
    return f"""
header h_t {{ bit<8> f; bit<8> g; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> a; bit<8> b; }}
parser P(inout headers_t hdr, inout meta_t meta) {{
    state start {{ transition accept; }}
}}
control C(inout headers_t hdr, inout meta_t meta) {{
{locals_}
    apply {{ {body} }}
}}
Pipeline(P(), C()) main;
"""


TWO_TABLES = """
    action set_a(bit<8> v) { meta.a = v; }
    action read_a_set_b() { meta.b = meta.a; }
    action noop() { }
    table t1 {
        key = { hdr.h.f: exact; }
        actions = { set_a; noop; }
        default_action = noop();
    }
    table t2 {
        key = { meta.a: exact; }
        actions = { read_a_set_b; noop; }
        default_action = noop();
    }
    table t3 {
        key = { hdr.h.g: exact; }
        actions = { set_a; noop; }
        default_action = noop();
    }
"""


class TestEdges:
    def test_match_dependency(self):
        graph = build_dependency_graph(
            parse_program(_program(TWO_TABLES, "t1.apply(); t2.apply();"))
        )
        kinds = {(e.src, e.dst): e.kind for e in graph.edges}
        assert kinds[("C.t1", "C.t2")] == MATCH_DEP

    def test_action_dependency(self):
        graph = build_dependency_graph(
            parse_program(_program(TWO_TABLES, "t1.apply(); t3.apply();"))
        )
        kinds = {(e.src, e.dst): e.kind for e in graph.edges}
        assert kinds[("C.t1", "C.t3")] == ACTION_DEP

    def test_independent_tables_no_edge(self):
        graph = build_dependency_graph(
            parse_program(_program(TWO_TABLES, "t2.apply(); t3.apply();"))
        )
        pairs = {(e.src, e.dst) for e in graph.edges}
        # t2 writes meta.b, t3 matches hdr.h.g and writes meta.a — no overlap.
        assert ("C.t2", "C.t3") not in pairs

    def test_gateway_control_dependency(self):
        graph = build_dependency_graph(
            parse_program(
                _program(TWO_TABLES, "if (meta.a == 0) { t2.apply(); }")
            )
        )
        gateway_edges = [e for e in graph.edges if e.kind == CONTROL_DEP]
        assert any(e.dst == "C.t2" for e in gateway_edges)

    def test_exclusive_branches_have_no_action_dep(self):
        body = """
        if (meta.b == 0) { t1.apply(); } else { t3.apply(); }
        """
        graph = build_dependency_graph(parse_program(_program(TWO_TABLES, body)))
        pairs = {(e.src, e.dst): e.kind for e in graph.edges}
        # Both write meta.a, but they are mutually exclusive.
        assert ("C.t1", "C.t3") not in pairs

    def test_sequential_branches_do_conflict(self):
        body = """
        if (meta.b == 0) { t1.apply(); }
        if (meta.b == 1) { t3.apply(); }
        """
        graph = build_dependency_graph(parse_program(_program(TWO_TABLES, body)))
        pairs = {(e.src, e.dst): e.kind for e in graph.edges}
        # Separate ifs: not provably exclusive, conservative edge stays.
        assert pairs.get(("C.t1", "C.t3")) == ACTION_DEP

    def test_sticky_drop_creates_no_action_dep(self):
        locals_ = """
    action d1() { mark_to_drop(); }
    action d2() { mark_to_drop(); }
    action noop() { }
    table ta {
        key = { hdr.h.f: exact; }
        actions = { d1; noop; }
        default_action = noop();
    }
    table tb {
        key = { hdr.h.g: exact; }
        actions = { d2; noop; }
        default_action = noop();
    }
"""
        graph = build_dependency_graph(
            parse_program(_program(locals_, "ta.apply(); tb.apply();"))
        )
        pairs = {(e.src, e.dst) for e in graph.edges}
        assert ("C.ta", "C.tb") not in pairs
        assert "std.drop" in STICKY_FIELDS

    def test_apply_hit_table_is_gateway(self):
        body = "if (t1.apply().hit) { t2.apply(); }"
        graph = build_dependency_graph(parse_program(_program(TWO_TABLES, body)))
        # t1 guards t2: control dep from the table itself, no synthetic gw.
        kinds = {(e.src, e.dst): e.kind for e in graph.edges}
        assert ("C.t1", "C.t2") in kinds


class TestNodeMetadata:
    def test_key_bits_by_kind(self):
        locals_ = """
    action noop() { }
    table t {
        key = { hdr.h.f: exact; meta.a: ternary; hdr.h.g: lpm; }
        actions = { noop; }
        default_action = noop();
    }
"""
        graph = build_dependency_graph(parse_program(_program(locals_, "t.apply();")))
        node = graph.nodes["C.t"]
        assert node.exact_key_bits == 8
        assert node.ternary_key_bits == 8
        assert node.lpm_key_bits == 8
        assert node.key_bits == 24

    def test_longest_chain(self):
        graph = build_dependency_graph(
            parse_program(_program(TWO_TABLES, "t1.apply(); t2.apply();"))
        )
        assert graph.longest_chain() >= 2


# -- the memoised, indexed graph against the all-pairs reference ------------

TOFINO_ZOO = ("scion", "switch", "beaucoup", "accturbo", "dta")


def pairwise_edges(sequence: list) -> list:
    """Every earlier node against every later one, as ``connect`` did
    before it indexed writers by field: the reference edge list."""
    edges: list = []
    seen: set = set()

    def add(src: str, dst: str, kind: str) -> None:
        if (src, dst) not in seen and src != dst:
            seen.add((src, dst))
            edges.append(DepEdge(src, dst, kind))

    for i, (later, later_guards, later_branch) in enumerate(sequence):
        for j in range(i):
            earlier, _, earlier_branch = sequence[j]
            if _mutually_exclusive(earlier_branch, later_branch):
                continue
            if earlier.writes & later.reads:
                add(earlier.name, later.name, MATCH_DEP)
            elif (earlier.writes & later.writes) - STICKY_FIELDS:
                add(earlier.name, later.name, ACTION_DEP)
        for guard in later_guards:
            add(guard, later.name, CONTROL_DEP)
    return edges


class ScanGraph(DependencyGraph):
    """Predecessors by a scan of every edge, as before the index."""

    def predecessors(self, name: str) -> list:
        return [e for e in self.edges if e.dst == name]


def reference_graph(program, env) -> ScanGraph:
    """Fresh nodes, all-pairs edges, scanned predecessors."""
    builder = _Builder(program, env)
    for control_name in program.pipeline.controls:
        builder.walk_control(program.find(control_name))
    return ScanGraph(builder.nodes, pairwise_edges(builder._sequence), builder.order)


def tofino_flay(name: str) -> Flay:
    entry = registry.get(name)
    return Flay(
        registry.load(name),
        FlayOptions(target="tofino", skip_parser=entry.skip_parser),
    )


def rollouts(flay, count: int, seed: int = 1) -> list:
    return EntryFuzzer(flay.model, seed=seed).rollout_stream(count)


@pytest.mark.parametrize("name", TOFINO_ZOO)
def test_rollout_graphs_match_the_pairwise_reference(name):
    """At every recompile of a roll-out: the memoised, indexed graph has
    the reference's nodes and edges in the same order, the same chain,
    components and stage allocation, and the engine's compile report is
    a fresh compiler's."""
    flay = tofino_flay(name)
    facts = NodeFacts()
    checked = 0
    for update in rollouts(flay, 1):
        decision = flay.process_update(update)
        if not decision.recompiled:
            continue
        program = flay.specialized_program
        env = TypeEnv(program)
        graph = build_dependency_graph(program, env, facts=facts)
        reference = reference_graph(program, env)
        assert graph.edges == reference.edges
        assert graph.order == reference.order
        assert graph.nodes == reference.nodes
        assert graph.longest_chain() == reference.longest_chain()
        assert graph.components() == reference.components()
        assert allocate(program, env=env, graph=graph) == allocate(
            program, env=env, graph=reference
        )
        fresh = TofinoCompiler().compile(program)
        report = decision.compile_report
        assert report.modeled_seconds == fresh.modeled_seconds
        assert report.resources == fresh.resources
        checked += 1
    assert checked > 0


def test_memo_holds_only_the_last_programs_nodes():
    flay = tofino_flay("accturbo")
    compiler = flay.device_compiler
    count = 25
    stream = rollouts(flay, count)
    # Stop after the last roll-out's inserts, with every table installed.
    stream = stream[: len(stream) - len(stream) // (2 * count)]
    recompiles = 0
    for update in stream:
        recompiles += flay.process_update(update).recompiled
    assert recompiles >= 500
    graph = build_dependency_graph(flay.specialized_program)
    assert 0 < len(compiler.facts) <= len(graph.nodes)
