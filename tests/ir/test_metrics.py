"""Tests for program metrics."""

from repro.ir import measure
from repro.p4.parser import parse_program
from repro.programs import registry


def _program(body: str, locals_: str = "") -> str:
    return f"""
header h_t {{ bit<8> f; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> m; }}
parser P(inout headers_t hdr, inout meta_t meta) {{
    state start {{ transition accept; }}
}}
control C(inout headers_t hdr, inout meta_t meta) {{
{locals_}
    apply {{ {body} }}
}}
Pipeline(P(), C()) main;
"""


class TestCounts:
    def test_empty_program(self):
        metrics = measure(parse_program(_program("")))
        assert metrics.statements == 0
        assert metrics.tables == 0
        assert metrics.parser_states == 1

    def test_statements_counted(self):
        metrics = measure(parse_program(_program("meta.m = 1; meta.m = 2;")))
        assert metrics.statements == 2

    def test_if_counts_as_statement_and_decision(self):
        metrics = measure(
            parse_program(_program("if (meta.m == 0) { meta.m = 1; }"))
        )
        assert metrics.if_statements == 1
        assert metrics.mccabe == 2
        assert metrics.statements == 2  # the if + the assignment

    def test_table_counts(self):
        locals_ = """
    action a(bit<8> v) { meta.m = v; }
    action noop() { }
    table t {
        key = { hdr.h.f: exact; }
        actions = { a; noop; }
        default_action = noop();
    }
"""
        metrics = measure(parse_program(_program("t.apply();", locals_)))
        assert metrics.tables == 1
        assert metrics.actions == 2
        assert metrics.keys == 1

    def test_register_counted(self):
        locals_ = "    register<bit<32>>(16) reg;"
        metrics = measure(parse_program(_program("", locals_)))
        assert metrics.registers == 1

    def test_paths_multiply_across_ifs(self):
        one = measure(parse_program(_program("if (meta.m == 0) { meta.m = 1; }")))
        two = measure(
            parse_program(
                _program(
                    "if (meta.m == 0) { meta.m = 1; }"
                    "if (meta.m == 1) { meta.m = 2; }"
                )
            )
        )
        assert two.control_paths == one.control_paths * 2

    def test_table_multiplies_paths_by_actions(self):
        locals_ = """
    action a(bit<8> v) { meta.m = v; }
    action b() { }
    action noop() { }
    table t {
        key = { hdr.h.f: exact; }
        actions = { a; b; noop; }
        default_action = noop();
    }
"""
        metrics = measure(parse_program(_program("t.apply();", locals_)))
        assert metrics.control_paths >= 3


class TestCorpusShape:
    def test_statement_counts_track_paper_table2(self):
        """Our corpus programs land within 5% of the paper's statement
        counts and preserve the ordering switch > scion > dash > middleblock."""
        counts = {}
        for name in registry.TABLE2_PROGRAMS:
            entry = registry.get(name)
            counts[name] = measure(entry.parse()).statements
            assert (
                abs(counts[name] - entry.paper_statements)
                <= 0.05 * entry.paper_statements
            ), f"{name}: {counts[name]} vs paper {entry.paper_statements}"
        assert counts["switch"] > counts["scion"] > counts["dash"] > counts["middleblock"]

    def test_sketches_are_small(self):
        for name in ("beaucoup", "accturbo", "dta"):
            assert measure(registry.load(name)).statements < 100


class TestCacheCounters:
    def test_counter_accumulates_and_rates(self):
        from repro.ir import CacheCounter

        counter = CacheCounter("demo")
        counter.hit(3)
        counter.miss()
        counter.invalidate(2)
        assert counter.lookups == 4
        assert counter.hit_rate == 0.75
        assert counter.invalidations == 2
        assert "demo" in counter.describe()

    def test_snapshot_and_since_give_deltas(self):
        from repro.ir import CacheCounter

        counter = CacheCounter("demo", hits=10, misses=5, invalidations=1)
        baseline = counter.snapshot()
        counter.hit(4)
        counter.miss(2)
        delta = counter.since(baseline)
        assert (delta.hits, delta.misses, delta.invalidations) == (4, 2, 0)
        # The snapshot is frozen: mutating the live counter left it alone.
        assert baseline.hits == 10

    def test_report_aggregates_and_describes(self):
        from repro.ir import CacheCounter, CacheReport

        report = CacheReport()
        report.add(CacheCounter("a", hits=2, misses=1))
        report.add(CacheCounter("b", hits=3, misses=0, invalidations=4))
        assert report.total_hits == 5
        assert report.total_misses == 1
        assert report.total_invalidations == 4
        assert report.get("b").hits == 3
        text = report.describe()
        assert "a" in text and "b" in text and "total" in text


class TestPipelineCacheStats:
    def test_warm_update_stream_reports_hits(self):
        from repro.engine import Engine, EngineOptions
        from repro.runtime.entries import TableEntry, TernaryMatch
        from repro.runtime.semantics import INSERT, Update

        source = _program(
            "t.apply();",
            locals_="""
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table t {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
""",
        )
        runtime = Engine(parse_program(source), EngineOptions(target="none"))
        for i in range(1, 6):
            entry = TableEntry((TernaryMatch(i, 0xFF),), "set", (i,), i)
            runtime.process_update(Update("t", INSERT, entry))
        report = runtime.cache_stats()
        names = [c.name for c in report.counters]
        assert names == [
            "substitution",
            "executability",
            "table-verdict",
            "solver-memo",
            "cnf-fragments",
            "active-entries",
        ]
        assert report.get("substitution").hits > 0
        assert report.get("active-entries").hits > 0
        assert report.total_hits > 0
