"""Command-line interface.

Subcommands: solve (extensions and recommended actions), map (bundle to
textual framework), check (validate only), explain (supports and attacks),
oracle (differential fuzzing against the brute-force reference).

Exit codes: 0 success, 1 validation failure, 2 parse failure, 3 size limit
exceeded, 4 oracle disagreement, 141 (128 + SIGPIPE) when the reader closes
stdout before the output is written.

Each subcommand imports what its input needs: the core, goal and error
modules always, the textual format for ``--aba``, the bundle reader, the
guideline model and the mapper for ``--bundle``, and the generators and the
brute-force reference only under ``oracle``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .aba_core import (
    AbaFramework,
    _check_size,
    attack_witnesses,
    canonical_attackers,
    compute_supports,
    extension_sort_key,
    preferred_extensions,
    validate_framework,
)
from .aba_goals import (
    AbapgFramework,
    GoalRanking,
    rank_goals,
    validate_abapg,
)
from .errors import (
    ArgClinicError,
    OracleSizeExceeded,
    ParseError,
    SizeLimitExceeded,
    ValidationError,
)

if TYPE_CHECKING:
    from .bundle import GuidelineBundle
    from .mapper import MappingReport, Solution

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_DISAGREEMENT = 4
EXIT_BROKEN_PIPE = 141


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, as json.loads does for bytes
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start]
        raise ParseError(
            f"{path} is not UTF-8 text ({exc.reason})",
            before.count(b"\n") + 1,
            exc.start - before.rfind(b"\n"),
        ) from None


def _braced(symbols) -> str:
    return "{" + ", ".join(symbols) + "}"


def _extension_text(extension) -> str:
    return _braced(extension_sort_key(extension))


def _solution_payload(result: GoalRanking, goals: bool, solution: Solution | None) -> dict:
    """``solve``'s report: what ``--format json`` writes and the text prints.

    The goal keys appear when ``goals`` is set; the recommendation sets,
    plans and warnings appear when a bundle's ``solution`` is given.
    """
    payload: dict = {"preferred_extensions": [sorted(e) for e in result.preferred]}
    if goals:
        for key in ("goal_extensions", "top_goal_extensions"):
            payload[key] = [
                {"achieved": sorted(g.achieved), "sources": [sorted(s) for s in g.sources]}
                for g in getattr(result, key)
            ]
    if solution is not None:
        payload["recommendation_sets"] = [list(r) for r in solution.preferred_recommendations]
        payload["follow"] = [
            {
                "source": list(plan.source),
                "items": [
                    {"recommendation": i.recommendation, "action": i.action, "avoid": i.avoid}
                    for i in plan.items
                ],
            }
            for plan in solution.follow
        ]
        payload["warnings"] = list(solution.report.warnings)
    return payload


def _row_text(row) -> str:
    if isinstance(row, dict):  # a goal extension
        return f"{_braced(row['achieved'])}  <-  " + " | ".join(map(_braced, row["sources"]))
    return _braced(row)


def _print_solution(
    result: GoalRanking, args, goals: bool, solution: Solution | None = None
) -> None:
    """Print ``solve`` output for either input from its one payload.

    The text writes the payload's lists under their titles, then its
    warnings, then one ``FOLLOW:`` line per plan.
    """
    payload = _solution_payload(result, goals, solution)
    out = sys.stdout
    if args.format == "json":
        import json

        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if args.quiet:
        out.writelines(_braced(e) + "\n" for e in payload["preferred_extensions"])
        return
    for key in (
        "preferred_extensions", "recommendation_sets", "goal_extensions", "top_goal_extensions"
    ):
        if key in payload:
            out.write(key.replace("_", " ") + ":\n")
            out.writelines("  " + _row_text(row) + "\n" for row in payload[key])
    out.writelines(f"warning: {w}\n" for w in payload.get("warnings", ()))
    for plan in solution.follow if solution is not None else ():
        shown = ", ".join(i.display() for i in plan.items)
        out.write(f"FOLLOW: {shown or '(no recommendations)'}\n")


def _parse_program(path: str) -> tuple[AbapgFramework, bool]:
    """A textual framework and whether it declares goals.

    A program without goal statements gets an empty goal layer.
    """
    from .aba_text import parse_aba_text

    program = parse_aba_text(_read(path))
    framework = validate_framework(program.raw)
    goal_framework = validate_abapg(framework, program.goals, program.priorities)
    return goal_framework, program.has_goals


def _map_bundle(path: str) -> tuple[GuidelineBundle, AbapgFramework, MappingReport]:
    """A guideline bundle, the framework it maps to and the mapping report."""
    from .bundle import parse_bundle
    from .mapper import build_patient_framework

    bundle = parse_bundle(_read(path))
    goal_framework, report = build_patient_framework(
        bundle.recommendations, bundle.interactions, bundle.context
    )
    return bundle, goal_framework, report


def _cmd_solve(args) -> int:
    if args.bundle:
        from .bundle import parse_bundle
        from .mapper import resolve

        bundle = parse_bundle(_read(args.bundle))
        solution = resolve(bundle.recommendations, bundle.interactions, bundle.context)
        _print_solution(solution, args, True, solution)
    else:
        goal_framework, goals = _parse_program(args.aba)
        _print_solution(rank_goals(goal_framework), args, goals)
    return EXIT_OK


def _cmd_map(args) -> int:
    from .aba_text import serialize_abapg

    _, goal_framework, report = _map_bundle(args.bundle)
    sys.stdout.write(serialize_abapg(goal_framework))
    counts = ", ".join(
        f"{name}={count}" for name, count in sorted(report.rule_counts.items()) if count
    )
    sys.stdout.write(f"# rule counts: {counts or 'none'}\n")
    for (kind, display), symbol in sorted(report.symbol_table.items()):
        sys.stdout.write(f"# symbol: {symbol} := {kind} {display!r}\n")
    for first, second in report.symmetric_interactions:
        sys.stdout.write(
            f"# same-sign interaction treated as symmetric conflict: {first} ~ {second}\n"
        )
    for warning in report.warnings:
        sys.stdout.write(f"# warning: {warning}\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    prefix, warnings = "", ()
    if args.bundle:
        bundle, goal_framework, report = _map_bundle(args.bundle)
        prefix = (
            f"{len(bundle.recommendations)} recommendations, "
            f"{len(bundle.interactions)} interactions -> "
        )
        goals, warnings = True, report.warnings
    else:
        goal_framework, goals = _parse_program(args.aba)
    base = goal_framework.base
    summary = f"ok: {prefix}{len(base.assumptions)} assumptions, {len(base.rules)} rules"
    if goals:
        summary += f", {len(goal_framework.goals)} goals"
    sys.stdout.write(summary + "\n")
    sys.stdout.writelines(f"warning: {w}\n" for w in warnings)
    return EXIT_OK


def _singleton_attack_lines(framework: AbaFramework) -> list[str]:
    return [
        f"{{{attacker}}} attacks {{{target}}} [{kind}] "
        f"via {framework.contrary(member)} <- {_extension_text(support)}"
        for attacker in framework.assumption_order
        for target in framework.assumption_order
        for kind, member, support in attack_witnesses(framework, [attacker], [target])
    ]


def _cmd_explain(args) -> int:
    if args.bundle:
        framework = _map_bundle(args.bundle)[1].base
    else:
        framework = _parse_program(args.aba)[0].base
    _check_size(framework)
    table = compute_supports(framework)
    sys.stdout.write("supports:\n")
    for sentence in sorted(table.sentences()):
        supports = sorted(table.supports_of(sentence), key=extension_sort_key)
        rendered = ", ".join(_extension_text(s) for s in supports)
        sys.stdout.write(f"  {sentence} <- {rendered}\n")
    sys.stdout.write("singleton attacks:\n")
    for line in _singleton_attack_lines(framework):
        sys.stdout.write("  " + line + "\n")
    sys.stdout.write("canonical attackers:\n")
    for target in framework.assumption_order:
        attackers = canonical_attackers(framework, [target])
        rendered = ", ".join(_extension_text(a) for a in attackers)
        sys.stdout.write(f"  of {{{target}}}: {rendered or 'none'}\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    import random

    from .aba_text import serialize_abapg, serialize_framework
    from .generators import random_abapg, random_framework
    from .oracle import ORACLE_CAP, brute_force_preferred, brute_force_top_goals

    if args.max_assumptions > ORACLE_CAP:
        raise OracleSizeExceeded(
            f"--max-assumptions {args.max_assumptions} exceeds the oracle cap "
            f"of {ORACLE_CAP}"
        )
    rng = random.Random(args.seed)
    goal_rounds = max(1, args.count // 2)
    for index in range(args.count):
        framework = random_framework(rng, max_assumptions=args.max_assumptions)
        engine = set(preferred_extensions(framework))
        reference = set(brute_force_preferred(framework))
        if engine != reference:
            sys.stdout.write(
                f"disagreement on preferred extensions (instance {index}):\n"
            )
            sys.stdout.write(serialize_framework(framework))
            _report_sets("engine", engine)
            _report_sets("oracle", reference)
            return EXIT_DISAGREEMENT
    for index in range(goal_rounds):
        goal_framework = random_abapg(rng, max_assumptions=args.max_assumptions)
        engine_tops = rank_goals(goal_framework).top_goal_extensions
        if engine_tops != brute_force_top_goals(goal_framework):
            sys.stdout.write(
                f"disagreement on top goal extensions (instance {index}):\n"
            )
            sys.stdout.write(serialize_abapg(goal_framework))
            return EXIT_DISAGREEMENT
    sys.stdout.write(
        f"agreement: {args.count} frameworks, {goal_rounds} goal instances "
        f"(seed {args.seed}, max {args.max_assumptions} assumptions)\n"
    )
    return EXIT_OK


def _report_sets(label: str, extensions) -> None:
    rendered = ", ".join(
        _extension_text(e) for e in sorted(extensions, key=extension_sort_key)
    )
    sys.stdout.write(f"  {label}: {rendered or '(none)'}\n")


def _add_input_arguments(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--bundle", help="guideline bundle (JSON)")
    group.add_argument("--aba", help="framework in textual form")


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1, else a usage error."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argclinic",
        description="Argumentation-based reconciliation of clinical recommendations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="compute extensions and actions")
    _add_input_arguments(solve)
    solve.add_argument("--format", choices=["text", "json"], default="text")
    solve.add_argument(
        "--quiet", action="store_true", help="print preferred extensions only"
    )
    solve.set_defaults(func=_cmd_solve)

    mapper = commands.add_parser("map", help="print the framework built from a bundle")
    mapper.add_argument("--bundle", required=True, help="guideline bundle (JSON)")
    mapper.set_defaults(func=_cmd_map)

    check = commands.add_parser("check", help="validate input and exit")
    _add_input_arguments(check)
    check.set_defaults(func=_cmd_check)

    explain = commands.add_parser("explain", help="list supports and attacks")
    _add_input_arguments(explain)
    explain.set_defaults(func=_cmd_explain)

    oracle = commands.add_parser("oracle", help="fuzz the engine against brute force")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--count", type=positive_int, default=200)
    oracle.add_argument("--max-assumptions", type=positive_int, default=8)
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone; send the unflushed rest to devnull so the flush
        # at shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ArgClinicError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, SizeLimitExceeded):
            return EXIT_SIZE
        return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
