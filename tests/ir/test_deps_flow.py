"""The read/write sets behind the table dependency graph.

One syntactic walk over each table's keys and action bodies builds them
(:mod:`repro.ir.deps`).  The tests pin what it sees:

* a field an action rebuilds before reading it still counts as a read,
  so the earlier writer keeps a match dependency to it;
* a destination-writing extern (``hash``/``update_checksum``) writes its
  first argument and reads the rest, so a write-after-write hazard
  through it orders the two tables;
* tables sharing one action declaration get equal sets in separate nodes;
* the edge counts and longest chains of the whole zoo.
"""

import pytest

from repro.ir import build_dependency_graph
from repro.ir.deps import ACTION_DEP, MATCH_DEP
from repro.p4.parser import parse_program
from repro.programs import registry


def _program(locals_: str, body: str):
    return parse_program(f"""
header h_t {{ bit<8> f; bit<8> g; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> a; bit<8> b; bit<8> c; }}
parser P(inout headers_t hdr, inout meta_t meta) {{
    state start {{ pkt_extract(hdr.h); transition accept; }}
}}
control C(inout headers_t hdr, inout meta_t meta) {{
{locals_}
    apply {{ {body} }}
}}
Pipeline(P(), C()) main;
""")


def edge_kinds(graph):
    return {(e.src, e.dst, e.kind) for e in graph.edges}


# Writer table, then a reader whose action kills meta.a before reading it.
KILLED_READ = """
    action write_a(bit<8> v) { meta.a = v; }
    action kill_then_read() { meta.a = 8w5; meta.b = meta.a; }
    action noop() { }
    table tw {
        key = { hdr.h.f: exact; }
        actions = { write_a; noop; }
        default_action = noop();
    }
    table tr {
        key = { hdr.h.g: exact; }
        actions = { kill_then_read; noop; }
        default_action = noop();
    }
"""


class TestKilledRead:
    def test_syntactic_keeps_the_spurious_match_edge(self):
        graph = build_dependency_graph(
            _program(KILLED_READ, "tw.apply(); tr.apply();")
        )
        assert "meta.a" in graph.nodes["C.tr"].reads
        assert ("C.tw", "C.tr", MATCH_DEP) in edge_kinds(graph)


# An extern writes meta.a from hdr.h.g; a later table writes meta.a too.
EXTERN_WRITER = """
    action digest() {{ {call}; }}
    action write_a(bit<8> v) {{ meta.a = v; }}
    action noop() {{ }}
    table th {{
        key = {{ hdr.h.f: exact; }}
        actions = {{ digest; noop; }}
        default_action = noop();
    }}
    table tw {{
        key = {{ hdr.h.f: exact; }}
        actions = {{ write_a; noop; }}
        default_action = noop();
    }}
"""


class TestExternDestinationWrite:
    def _assert_hazard_is_seen(self, call):
        graph = build_dependency_graph(
            _program(EXTERN_WRITER.format(call=call), "th.apply(); tw.apply();")
        )
        th = graph.nodes["C.th"]
        assert "meta.a" in th.writes
        assert "meta.a" not in th.reads
        assert "hdr.h.g" in th.reads
        assert ("C.th", "C.tw", ACTION_DEP) in edge_kinds(graph)

    def test_the_walk_sees_the_hazard_through_hash(self):
        self._assert_hazard_is_seen("hash(meta.a, hdr.h.g)")

    def test_the_walk_sees_the_hazard_through_update_checksum(self):
        self._assert_hazard_is_seen("update_checksum(meta.a, hdr.h.g)")


# Two tables aliasing the same action declaration.
ALIASED = """
    action shared(bit<8> v) { meta.b = meta.a + v; }
    action noop() { }
    table alias1 {
        key = { hdr.h.f: exact; }
        actions = { shared; noop; }
        default_action = noop();
    }
    table alias2 {
        key = { hdr.h.g: exact; }
        actions = { shared; noop; }
        default_action = noop();
    }
"""


class TestAliasedTables:
    def test_aliased_tables_share_effects_but_not_identity(self):
        graph = build_dependency_graph(
            _program(ALIASED, "alias1.apply(); alias2.apply();")
        )
        a1 = graph.nodes["C.alias1"]
        a2 = graph.nodes["C.alias2"]
        assert a1 is not a2
        assert a1.writes == a2.writes == {"meta.b"}
        assert "meta.a" in a1.reads and "meta.a" in a2.reads


#: Edge count and longest chain (in nodes) of every corpus program's graph.
#: The stage allocator places tables from these edges, so a change here is
#: a change in every Tofino stage count and modeled compile time.
CORPUS_GRAPHS = {
    "scion": (4595, 64),
    "switch": (7042, 85),
    "middleblock": (2904, 35),
    "dash": (5565, 89),
    "beaucoup": (84, 12),
    "accturbo": (37, 10),
    "dta": (36, 8),
    "fig3": (0, 1),
    "fig5": (0, 1),
}


@pytest.mark.parametrize("name", sorted(CORPUS_GRAPHS))
def test_corpus_edge_counts_and_longest_chains(name):
    assert set(CORPUS_GRAPHS) == set(registry.CORPUS)
    graph = build_dependency_graph(registry.load(name))
    assert (len(graph.edges), graph.longest_chain()) == CORPUS_GRAPHS[name]
