"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``stats <prog.p4>`` — program metrics (statements, tables, paths).
* ``analyze <prog.p4>`` — run the data-plane analysis, print point counts
  and timings (optionally dump the annotated points).
* ``specialize <prog.p4> [--config cfg.json]`` — specialize against a
  JSON control-plane configuration, decided as one burst (coalesced and
  split into conflict groups), and print (or write) the result.
* ``compile <prog.p4> [--target tofino|bmv2]`` — device-compile and print
  the resource/time report.
* ``fleet-replay <prog.p4> [--switches N]`` — replay correlated churn
  over a multi-switch fleet and print its latency summary.
* ``corpus`` — list the bundled evaluation programs.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import analyze
from repro.core import Flay, FlayOptions
from repro.errors import FlayError
from repro.ir import measure
from repro.p4.parser import parse_program
from repro.runtime import config as config_mod
from repro.smt import to_string
from repro.targets.base import available_targets, create_target


def _load_program(path: str):
    if path.startswith("corpus:"):
        from repro.programs import registry

        return registry.load(path.split(":", 1)[1])
    with open(path) as handle:
        return parse_program(handle.read())


def _load_source(path: str) -> str:
    """The program's canonical source text (content-addressing needs text)."""
    if path.startswith("corpus:"):
        from repro.programs import registry

        return registry.get(path.split(":", 1)[1]).source()
    with open(path) as handle:
        return handle.read()


def cmd_stats(args) -> int:
    program = _load_program(args.program)
    metrics = measure(program)
    print(f"statements:     {metrics.statements}")
    print(f"tables:         {metrics.tables}")
    print(f"actions:        {metrics.actions}")
    print(f"keys:           {metrics.keys}")
    print(f"if statements:  {metrics.if_statements}")
    print(f"parser states:  {metrics.parser_states}")
    print(f"registers:      {metrics.registers}")
    print(f"control paths:  {metrics.control_paths}")
    print(f"mccabe:         {metrics.mccabe}")
    return 0


def cmd_analyze(args) -> int:
    program = _load_program(args.program)
    model = analyze(program, skip_parser=args.skip_parser)
    print(f"program points:   {model.point_count}")
    print(f"tables:           {len(model.tables)}")
    print(f"value sets:       {len(model.value_sets)}")
    print(f"tainted symbols:  {len(model.taint)}")
    print(f"expression nodes: {model.total_expression_size()}")
    print(f"analysis time:    {model.analysis_seconds * 1000:.1f} ms")
    if args.dump_points:
        for pid, point in model.points.items():
            print(f"\n[{point.kind}] {pid}")
            print(f"    {to_string(point.expr, max_depth=12)}")
    return 0


def cmd_specialize(args) -> int:
    program = _load_program(args.program)
    options = FlayOptions(
        target=args.target,
        skip_parser=args.skip_parser,
        effort=args.effort,
    )
    flay = Flay(program, options)
    if args.config:
        decision = flay.decide(config_mod.load(args.config).updates())
        print(f"# config: {decision.describe()}", file=sys.stderr)
    if flay.prune_report is not None:
        print(f"# {flay.prune_report.summary()}", file=sys.stderr)
    print(f"# specializations: {flay.report.summary()}", file=sys.stderr)
    if args.stats:
        print("# cache statistics:", file=sys.stderr)
        for line in flay.cache_stats().describe().splitlines():
            print(f"#   {line}", file=sys.stderr)
        print("# solver statistics:", file=sys.stderr)
        for line in flay.solver_stats().describe().splitlines():
            print(f"#   {line}", file=sys.stderr)
        print("# gate statistics:", file=sys.stderr)
        for line in flay.gate_stats().describe().splitlines():
            print(f"#   {line}", file=sys.stderr)
    text = flay.specialized_source()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"# wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_compile(args) -> int:
    # Resolve the backend before parsing the program: an unknown --target
    # fails immediately with the registered names.
    target = create_target(args.target, program_name=args.program)
    if target is None:
        print(f"nothing to do: --target {args.target}", file=sys.stderr)
        return 0
    program = _load_program(args.program)
    report = target.compile(program)
    print(report.describe())
    resources = getattr(report, "resources", None)
    if args.stages and resources is not None:
        for stage in resources.stage_usages:
            names = ", ".join(stage.tables[:6])
            more = "..." if len(stage.tables) > 6 else ""
            print(f"  stage {stage.index:>2}: {stage.table_count} tables, "
                  f"{stage.gateways} gateways — {names}{more}")
    return 0


def cmd_fleet_replay(args) -> int:
    import json

    from repro.fleet import FleetSimulator

    source = _load_source(args.program)
    options = FlayOptions(target=args.target, skip_parser=args.skip_parser)
    kwargs = dict(
        switches=args.switches,
        options=options,
        seed=args.seed,
        duration=args.duration,
        mean_interval=args.mean_interval,
        correlation=args.correlation,
        updates_per_burst=args.updates_per_burst,
        divergent_prefix=args.divergent_prefix,
    )
    sim = FleetSimulator(source, shared_store=not args.no_shared_store, **kwargs)
    report = sim.run()
    mode = "shared store" if report.shared else "isolated"
    print(
        f"# fleet: {args.switches} switches ({mode}), {report.events} burst "
        f"arrivals, {report.summary['updates']} updates",
        file=sys.stderr,
    )
    print(
        f"# latency: p50 {report.latency_quantile(0.5):.2f} ms, "
        f"p99 {report.latency_quantile(0.99):.2f} ms; "
        f"{report.summary['recompilations']} recompilations",
        file=sys.stderr,
    )
    if sim.store is not None:
        print(f"# {sim.store.describe()}", file=sys.stderr)
    exit_code = 0
    if args.check_isolated:
        isolated = FleetSimulator(source, shared_store=False, **kwargs)
        isolated_report = isolated.run()
        if (
            report.lowered_traces() != isolated_report.lowered_traces()
            or report.specialized_sources()
            != isolated_report.specialized_sources()
        ):
            print(
                "# DIFFERENTIAL FAILURE: shared-store replay diverges from "
                "isolated engines",
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print("# differential OK", file=sys.stderr)
    if args.snapshot_dir:
        paths = sim.save_snapshots(args.snapshot_dir)
        print(f"# wrote {len(paths)} snapshots to {args.snapshot_dir}", file=sys.stderr)
    if args.json:
        payload = {
            "switches": args.switches,
            "shared_store": report.shared,
            "events": report.events,
            "updates": report.summary["updates"],
            "recompilations": report.summary["recompilations"],
            "p50_ms": report.latency_quantile(0.5),
            "p99_ms": report.latency_quantile(0.99),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"# wrote {args.json}", file=sys.stderr)
    return exit_code


def cmd_corpus(_args) -> int:
    from repro.programs import registry

    print(f"{'name':<14} {'stmts':>6}  paper reference")
    for name in sorted(registry.CORPUS):
        entry = registry.get(name)
        stmts = measure(entry.parse()).statements
        notes = []
        if entry.paper_statements:
            notes.append(f"{entry.paper_statements} stmts")
        if entry.paper_compile_seconds:
            notes.append(f"{entry.paper_compile_seconds:g}s compile")
        print(f"{name:<14} {stmts:>6}  {', '.join(notes) or '-'}")
    print("\nuse `corpus:<name>` anywhere a program path is expected")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Flay: incremental specialization of network programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="program metrics")
    p_stats.add_argument("program")
    p_stats.set_defaults(func=cmd_stats)

    p_analyze = sub.add_parser("analyze", help="run the data-plane analysis")
    p_analyze.add_argument("program")
    p_analyze.add_argument("--skip-parser", action="store_true")
    p_analyze.add_argument("--dump-points", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_spec = sub.add_parser("specialize", help="specialize against a config")
    p_spec.add_argument("program")
    p_spec.add_argument("--config", help="JSON control-plane configuration")
    p_spec.add_argument("--output", "-o", help="write the result here")
    p_spec.add_argument("--skip-parser", action="store_true")
    p_spec.add_argument(
        "--effort", choices=("none", "dce", "full"), default="full"
    )
    p_spec.add_argument(
        "--stats",
        action="store_true",
        help="print the config decision and the cache, solver and gate counters to stderr",
    )
    p_spec.add_argument(
        "--target",
        default="none",
        help=f"device backend: {', '.join(available_targets())}, or none",
    )
    p_spec.set_defaults(func=cmd_specialize)

    p_compile = sub.add_parser("compile", help="device-compile a program")
    p_compile.add_argument("program")
    p_compile.add_argument(
        "--target",
        default="tofino",
        help=f"device backend: {', '.join(available_targets())}",
    )
    p_compile.add_argument("--stages", action="store_true", help="per-stage detail")
    p_compile.set_defaults(func=cmd_compile)

    p_fleet = sub.add_parser(
        "fleet-replay",
        help="replay correlated churn over a multi-switch fleet",
    )
    p_fleet.add_argument("program")
    p_fleet.add_argument("--switches", type=int, default=8)
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument(
        "--duration", type=float, default=120.0, help="trace length, seconds"
    )
    p_fleet.add_argument(
        "--mean-interval",
        type=float,
        default=10.0,
        help="mean seconds between churn bursts (Poisson)",
    )
    p_fleet.add_argument(
        "--correlation",
        type=float,
        default=0.7,
        help="probability a burst reaches each other switch (0..1)",
    )
    p_fleet.add_argument("--updates-per-burst", type=int, default=6)
    p_fleet.add_argument(
        "--divergent-prefix",
        type=int,
        default=10,
        help="per-switch config prefix length (switch i gets prefix+i updates)",
    )
    p_fleet.add_argument(
        "--no-shared-store",
        action="store_true",
        help="run every switch fully isolated (the sharing ablation)",
    )
    p_fleet.add_argument(
        "--check-isolated",
        action="store_true",
        help="also run the isolated fleet and fail unless per-switch "
        "lowered output is identical",
    )
    p_fleet.add_argument(
        "--snapshot-dir", help="write per-switch warm snapshots here"
    )
    p_fleet.add_argument("--json", help="write a JSON summary here")
    p_fleet.add_argument("--skip-parser", action="store_true")
    p_fleet.add_argument(
        "--target",
        default="tofino",
        help=f"device backend: {', '.join(available_targets())}, or none",
    )
    p_fleet.set_defaults(func=cmd_fleet_replay)

    p_corpus = sub.add_parser("corpus", help="list bundled programs")
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlayError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
