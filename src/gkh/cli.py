"""Command line surface: `kh <subcommand>` over diagrams and fixtures.

Input comes from --name (bundled fixture), --pd, --braid, or stdin. Stdin
text whose first non-blank character is P, p, X or x is read as a planar
diagram code (PD[...], pd[...] or a bare X(...) list), since no braid word
starts with those letters; anything else is read as a braid word. Exit
codes: 0 success or verification pass, 1 verification failure, 2 bad input
or usage, 141 (128 + SIGPIPE, as a shell reports a process the signal
ended) when the reader of standard output closes it early.

`main` can be called any number of times in one process. The argument
parser is built on the first call and reused: argparse keeps no state of a
parse on the parser, so each call sees only its own arguments and defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .codec import CodecError, parse_braid, parse_pd, serialize_pd
from .coloring import (
    ColoringAnalysis,
    ColoringError,
    EnumerationLimitError,
    coloring_group,
    coloring_matrix,
    crossing_matrix,
    enumerate_colorings,
    link_determinant,
)
from .diagram import Diagram, DiagramError, braid_closure, from_pd
from .fixtures import FixtureError, fixture, fixture_diagram, fixture_names
from .pseudo import PseudoError, pseudo_from_inverse_columns, tunnel_pseudo
from .verify import (
    VerifyError,
    hypotheses_of,
    random_alternating_diagram,
    verify_connected_sum,
    verify_gkh,
)

EXIT_BROKEN_PIPE = 141

INPUT_ERRORS = (
    CodecError,
    ColoringError,
    DiagramError,
    FixtureError,
    PseudoError,
    VerifyError,
)


def _diagram_options(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--name", help="bundled fixture name")
    group.add_argument("--pd", help="planar diagram code, PD[X(a,b,c,d),...]")
    group.add_argument("--braid", help="braid word, e.g. '1 1 1'")
    parser.add_argument("--json", action="store_true", help="machine output")


def _load_diagram(args) -> tuple[str, Diagram]:
    if args.name:
        return args.name, fixture_diagram(args.name)
    if args.pd:
        return "pd", from_pd(parse_pd(args.pd))
    if args.braid:
        return "braid", braid_closure(parse_braid(args.braid))
    text = sys.stdin.read().strip()
    if not text:
        raise CodecError("no input: pass --name, --pd, --braid, or pipe text")
    if text[0] in "PpXx":
        return "stdin", from_pd(parse_pd(text))
    return "stdin", braid_closure(parse_braid(text))


def _emit(payload: dict) -> int:
    print(json.dumps(payload))
    return 0


def _cmd_parse(args) -> int:
    name, d = _load_diagram(args)
    hyp = hypotheses_of(d)
    if args.json:
        return _emit(
            {
                "name": name,
                "pd": serialize_pd(d.to_pd()),
                "crossings": len(d.crossings),
                "arcs": len(d.arcs),
                "components": d.component_count,
                "alternating": hyp.alternating,
                "reduced": hyp.reduced,
                "prime": hyp.prime,
                "determinant": hyp.determinant,
            }
        )
    print(serialize_pd(d.to_pd()))
    print(
        f"crossings {len(d.crossings)}, arcs {len(d.arcs)}, "
        f"components {d.component_count}"
    )
    flags = [
        "alternating" if hyp.alternating else "non-alternating",
        "reduced" if hyp.reduced else "not reduced",
        "prime" if hyp.prime else "composite or split",
    ]
    print(", ".join(flags) + f", determinant {hyp.determinant}")
    return 0


def _cmd_det(args) -> int:
    _, d = _load_diagram(args)
    value = link_determinant(d)
    if args.json:
        return _emit({"determinant": value})
    print(value)
    return 0


def _group_text(group) -> str:
    return " + ".join(f"Z_{n}" for n in group.invariant_factors) or "trivial"


def _cmd_group(args) -> int:
    _, d = _load_diagram(args)
    group = coloring_group(d)
    if args.json:
        return _emit(
            {
                "factors": list(group.invariant_factors),
                "determinant": group.determinant,
            }
        )
    print(_group_text(group))
    print(f"determinant {group.determinant}")
    return 0


def _cmd_matrix(args) -> int:
    _, d = _load_diagram(args)
    if args.which == "cprime":
        matrix = crossing_matrix(d)
    elif args.which == "l":
        matrix = coloring_matrix(d, args.base).l
    else:  # c and lmod need no exact column of L
        analysis = ColoringAnalysis(d, args.base)
        analysis.group  # a zero determinant exits 2 here, as it does for l
        matrix = analysis.c.dense() if args.which == "c" else analysis.l_mod
    if args.json:
        return _emit({"which": args.which, "rows": matrix.row_list()})
    print(matrix)
    return 0


def _cmd_colorings(args) -> int:
    _, d = _load_diagram(args)
    try:
        found = enumerate_colorings(d, args.mod)
        colorings = [list(f.colors) for f in found]
        count = len(found)
    except EnumerationLimitError as err:
        colorings = None
        count = err.count
    if args.json:
        return _emit({"modulus": args.mod, "count": count, "colorings": colorings})
    print(f"{count} colorings mod {args.mod}")
    if colorings is None:
        print("(enumeration space too large; count via the Smith form)")
        return 0
    for colors in colorings:
        print(" ".join(str(x) for x in colors))
    return 0


def _cmd_distinguish(args) -> int:
    _, d = _load_diagram(args)
    analysis = ColoringAnalysis(d, args.base)
    r = analysis.report
    if args.json:
        return _emit(
            {
                "baseArc": r.base_arc,
                "modulus": r.modulus,
                "t": r.t,
                "witnessColumns": list(r.t_columns),
                "perfectColumns": list(analysis.perfect_columns),
                "failures": [list(p) for p in r.failures],
            }
        )
    print(f"base arc {r.base_arc}, modulus {r.modulus}")
    if r.injective:
        print(f"all arc pairs distinguished, t = {r.t} via columns {list(r.t_columns)}")
    else:
        print(f"undistinguished pairs: {[list(p) for p in r.failures]}")
    print(f"perfect columns: {list(analysis.perfect_columns)}")
    return 0


def _verify_payload(name, report) -> dict:
    hyp = report.hypotheses
    return {
        "name": name,
        "hypotheses": {
            "alternating": hyp.alternating,
            "reduced": hyp.reduced,
            "prime": hyp.prime,
            "determinant": hyp.determinant,
            "components": hyp.components,
        },
        "determinant": report.group.determinant,
        "factors": list(report.group.invariant_factors),
        "partA": report.part_a,
        "partB": {"t": report.t, "witnessColumns": list(report.t_columns)},
        "partC": {"s": report.s},
        "failures": [list(p) for p in report.failures],
        "pseudo": {
            "found": [
                {"column": p.column, "epsilon": p.epsilon} for p in report.inverse_pseudos
            ]
        },
    }


def _print_verify(name, report):
    hyp = report.hypotheses
    status = "pass" if report.passed else "FAIL"
    guarantee = "" if report.guaranteed else " (hypotheses not satisfied)"
    print(f"{name}: {status}{guarantee}")
    print(
        f"  alternating={hyp.alternating} reduced={hyp.reduced} "
        f"prime={hyp.prime} determinant={hyp.determinant}"
    )
    print(f"  group {_group_text(report.group)}")
    print(f"  part a: {'pass' if report.part_a else 'fail'} (rows pairwise distinct)")
    print(
        f"  part b: {'pass' if report.part_b else 'fail'}, "
        f"t={report.t} columns={list(report.t_columns)}"
    )
    print(f"  part c: {'pass' if report.part_c else 'fail'}, s={report.s}")
    if report.failures:
        print(f"  undistinguished pairs: {[list(p) for p in report.failures]}")
    print(f"  inverse-column pseudo colorings: {report.inverse_pseudo_count}")


def _cmd_verify(args) -> int:
    if args.all_fixtures:
        return _verify_all_fixtures(args)
    name, d = _load_diagram(args)
    report = verify_gkh(d, name=name, base=args.base)
    if args.json:
        _emit(_verify_payload(name, report))
    else:
        _print_verify(name, report)
    return 0 if report.passed else 1


def _verify_all_fixtures(args) -> int:
    results = []
    for name in fixture_names():
        e = fixture(name)
        d = fixture_diagram(name)
        hyp = hypotheses_of(d)
        det = hyp.determinant
        factors = coloring_group(d).invariant_factors if det != 0 else ()
        expected = (e.determinant, e.factors, e.alternating, e.reduced, e.prime, e.components)
        ok = (det, factors, hyp.alternating, hyp.reduced, hyp.prime, hyp.components) == expected
        results.append((name, ok, det, factors))
    passed = all(ok for _, ok, _, _ in results)
    if args.json:
        _emit(
            {
                "fixtures": [
                    {
                        "name": name,
                        "ok": ok,
                        "determinant": det,
                        "factors": list(factors),
                    }
                    for name, ok, det, factors in results
                ],
                "passed": passed,
            }
        )
    else:
        for name, ok, det, factors in results:
            print(
                f"{name:<11} {'ok' if ok else 'MISMATCH'} "
                f"det={det} factors={list(factors)}"
            )
    return 0 if passed else 1


def _cmd_pseudo(args) -> int:
    name, d = _load_diagram(args)
    found = pseudo_from_inverse_columns(d, args.base)
    tunnel = None
    if not d.is_alternating:
        try:
            tunnel = tunnel_pseudo(d)
        except PseudoError:
            tunnel = None
    if args.json:
        def payload(p):
            return {
                "column": p.column,
                "epsilon": p.epsilon,
                "plusCrossing": p.plus_crossing,
                "epsCrossing": p.eps_crossing,
                "colors": list(p.colors),
            }

        return _emit(
            {
                "name": name,
                "found": [payload(p) for p in found],
                "tunnel": payload(tunnel) if tunnel else None,
            }
        )
    if not found and tunnel is None:
        print("no pseudo colorings found")
        return 0
    for p in found:
        print(
            f"column {p.column}: epsilon {p.epsilon:+d} at crossings "
            f"({p.plus_crossing}, {p.eps_crossing}), colors {list(p.colors)}"
        )
    if tunnel:
        print(
            f"tunnel: epsilon {tunnel.epsilon:+d} at crossings "
            f"({tunnel.plus_crossing}, {tunnel.eps_crossing}), "
            f"colors {list(tunnel.colors)}"
        )
    return 0


def _cmd_sum(args) -> int:
    parts = [fixture_diagram(name) for name in args.parts]
    report = verify_connected_sum(parts)
    if args.json:
        _emit(
            {
                "parts": list(args.parts),
                "factors": list(report.group.invariant_factors),
                "directSum": list(report.direct_sum_factors),
                "junctions": [list(p) for p in report.junction_pairs],
                "failures": [list(p) for p in report.failures],
                "passed": report.passed,
            }
        )
    else:
        print(f"sum of {' # '.join(args.parts)}: {'pass' if report.passed else 'FAIL'}")
        print(f"  group {_group_text(report.group)}")
        print(f"  junction pairs {[list(p) for p in report.junction_pairs]}")
        print(f"  undistinguished pairs {[list(p) for p in report.failures]}")
    return 0 if report.passed else 1


def _cmd_fuzz(args) -> int:
    if args.count < 1:
        raise VerifyError(f"fuzz count must be at least 1, got {args.count}")
    records = []
    for seed in range(args.seed, args.seed + args.count):
        d = random_alternating_diagram(args.max_crossings, seed)
        report = verify_gkh(d, name=f"seed {seed}")
        records.append(
            {
                "seed": seed,
                "crossings": len(d.crossings),
                "determinant": report.group.determinant,
                "s": report.s,
                "t": report.t,
                "ok": report.passed and report.pseudo_free,
            }
        )
    failures = [r["seed"] for r in records if not r["ok"]]
    if args.json:
        _emit(
            {
                "count": args.count,
                "maxCrossings": args.max_crossings,
                "failures": failures,
                "passed": not failures,
                "seeds": records,
            }
        )
    else:
        for r in records:
            print(
                f"seed {r['seed']}: {r['crossings']} crossings, determinant {r['determinant']}, "
                f"{'ok' if r['ok'] else 'FAIL'}"
            )
        print(f"{args.count - len(failures)}/{args.count} passed")
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `kh` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="kh",
        description="Fox coloring groups and arc-distinguishing checks for link diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="canonical form and basic facts")
    _diagram_options(p)
    p.set_defaults(run=_cmd_parse)

    p = sub.add_parser("det", help="diagram determinant")
    _diagram_options(p)
    p.set_defaults(run=_cmd_det)

    p = sub.add_parser("group", help="reduced coloring group")
    _diagram_options(p)
    p.set_defaults(run=_cmd_group)

    p = sub.add_parser("matrix", help="crossing and coloring matrices")
    _diagram_options(p)
    p.add_argument("--base", type=int, default=None)
    p.add_argument(
        "--which",
        choices=["cprime", "c", "l", "lmod"],
        default="cprime",
    )
    p.set_defaults(run=_cmd_matrix)

    p = sub.add_parser("colorings", help="enumerate Fox k-colorings")
    _diagram_options(p)
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(run=_cmd_colorings)

    p = sub.add_parser("distinguish", help="arc separation by coloring columns")
    _diagram_options(p)
    p.add_argument("--base", type=int, default=None)
    p.set_defaults(run=_cmd_distinguish)

    p = sub.add_parser("verify", help="run the full property verification")
    _diagram_options(p)
    p.add_argument("--base", type=int, default=None)
    p.add_argument(
        "--all-fixtures",
        action="store_true",
        help="recheck every bundled fixture against its expected values",
    )
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("pseudo", help="search for pseudo colorings")
    _diagram_options(p)
    p.add_argument("--base", type=int, default=None)
    p.set_defaults(run=_cmd_pseudo)

    p = sub.add_parser("sum", help="verify an iterated connected sum of fixtures")
    p.add_argument("parts", nargs="+", metavar="fixture")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_sum)

    p = sub.add_parser("fuzz", help="verify random alternating diagrams")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-crossings", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's last flush
        return code
    except INPUT_ERRORS as err:
        print(f"kh: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe: what is still buffered goes to devnull,
        # so the interpreter's last flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
