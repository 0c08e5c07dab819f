"""The text diff that specifies ``TofinoCompiler``'s table-granular delta.

Two programs are compared by printing each pipeline table (keys, action
names, default action, size and the bodies of its actions) and the whole
parser.  The compiler derives the same delta from AST identity and
structural equality instead; the tests check the two agree.
"""

from __future__ import annotations

from repro.p4 import ast_nodes as ast
from repro.p4.printer import print_stmt
from repro.targets.tofino.compiler import ProgramDelta


def _table_signatures(program: ast.Program) -> dict[str, str]:
    """Stable per-table fingerprints: keys, actions, default, size."""
    signatures: dict[str, str] = {}
    for control in program.controls():
        if control.name not in program.pipeline.controls:
            continue
        for local in control.locals:
            if not isinstance(local, ast.TableDecl):
                continue
            parts = [
                f"{_expr_text(k.expr)}:{k.match_kind}" for k in local.keys
            ]
            parts.append("|".join(a.name for a in local.actions))
            if local.default_action is not None:
                parts.append(f"default={local.default_action.name}")
            parts.append(f"size={local.size}")
            # Action bodies are part of the table's compiled artifact.
            for ref in local.actions:
                body = _action_body_text(control, ref.name)
                parts.append(body)
            signatures[f"{control.name}.{local.name}"] = ";".join(parts)
    return signatures


def _expr_text(expr) -> str:
    from repro.p4.printer import print_expr

    return print_expr(expr)


def _action_body_text(control: ast.ControlDecl, name: str) -> str:
    for local in control.locals:
        if isinstance(local, ast.ActionDecl) and local.name == name:
            return "\n".join(print_stmt(s) for s in local.body.statements)
    return ""


def _parser_text(program: ast.Program) -> str:
    from repro.p4.printer import print_program

    parser_name = program.pipeline.parser
    decl = program.find(parser_name)
    # Cheap but stable: print the whole parser declaration.
    return print_program(ast.Program((decl,)))


def diff_programs(previous: ast.Program, current: ast.Program) -> ProgramDelta:
    """Table-granular diff between two programs."""
    prev_sigs = _table_signatures(previous)
    curr_sigs = _table_signatures(current)
    added = tuple(sorted(set(curr_sigs) - set(prev_sigs)))
    removed = tuple(sorted(set(prev_sigs) - set(curr_sigs)))
    common = set(prev_sigs) & set(curr_sigs)
    changed = tuple(sorted(n for n in common if prev_sigs[n] != curr_sigs[n]))
    unchanged = tuple(sorted(n for n in common if prev_sigs[n] == curr_sigs[n]))
    parser_changed = _parser_text(previous) != _parser_text(current)
    return ProgramDelta(added, removed, changed, unchanged, parser_changed)
