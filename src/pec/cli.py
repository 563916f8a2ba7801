"""Command line interface: validate, query, translate, graph, sample.

Exit codes: 0 success, 1 usage/syntax/I-O problems, 2 semantic problems
(validation failures, zero-probability conditioning, concurrent rule
activation).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .aspgen import TranslationError, emit
from .core import (
    ConcurrentActivation,
    ConditionZero,
    format_decimal,
    format_state,
    fraction_text,
)
from .engine import (
    conditional,
    marginal,
    sample_frequency,
    transition_graph,
)
from .syntax import (
    DomainValidationError,
    PecSyntaxError,
    parse_domain,
    parse_query,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
MAX_PRECISION = 100_000  # format_decimal is quadratic in its digits


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for semantics
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _usage_error(args, message: str):
    print(f"pec {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _digits(args) -> int:
    digits = args.precision
    if digits is None:
        setting = os.environ.get("PEC_PRECISION", "6")
        try:
            digits = int(setting)
        except ValueError:
            _usage_error(args, f"PEC_PRECISION must be an integer, not {setting!r}")
    if digits < 0:
        _usage_error(args, "precision must be non-negative")
    if digits > MAX_PRECISION:
        _usage_error(args, f"precision must be at most {MAX_PRECISION}")
    return digits


def _load(path: str):
    # utf-8-sig: a byte-order mark some editors put first is not a character
    return parse_domain(Path(path).read_text(encoding="utf-8-sig"))


def cmd_check(args) -> int:
    try:
        dd = _load(args.file)
    except DomainValidationError as exc:
        print(exc.report)
        return EXIT_SEMANTIC
    sig = dd.signature
    values = sum(len(v) for v in sig.vals.values())
    print(f"{args.file}: valid domain description")
    print(f"  fluents {len(sig.fluents)}, actions {len(sig.actions)}, "
          f"values {values}, instants 0..{sig.maxinst}")
    print(f"  causal rules {len(dd.cprops)}, occurrences {len(dd.pprops)}, "
          f"initial outcomes {len(dd.iprop.head)}")
    return EXIT_OK


def cmd_query(args) -> int:
    dd = _load(args.file)
    phi = parse_query(args.query, dd.signature)
    psi = None if args.given is None else parse_query(args.given, dd.signature)
    # a usage error comes before any inference; --exact reads only an explicit --precision
    digits = None if args.exact and args.precision is None else _digits(args)
    value = marginal(dd, phi) if psi is None else conditional(dd, phi, psi)
    print(fraction_text(value) if args.exact else format_decimal(value, digits))
    return EXIT_OK


def cmd_translate(args) -> int:
    dd = _load(args.file)
    out = Path(args.output or Path(args.file).with_suffix(".lp"))
    if out.exists() and out.samefile(args.file):
        _usage_error(args, f"output {out} is the input file; name another with -o")
    out.write_text(emit(dd, with_axioms=args.with_axioms))
    return EXIT_OK


def cmd_graph(args) -> int:
    dd = _load(args.file)
    edges = transition_graph(dd)
    rows = sorted(
        (format_state(e.source),
         "{" + ", ".join(sorted(e.actions)) + "}",
         format_state(e.target),
         e.weight)
        for e in edges
    )
    nodes = sorted({r[0] for r in rows} | {r[2] for r in rows})
    print("\n".join(["digraph transitions {", *(f'  "{node}";' for node in nodes), *(
        f'  "{source}" -> "{target}" [label="{acts}, {weight}"];'
        for source, acts, target, weight in rows), "}"]))
    return EXIT_OK


def cmd_sample(args) -> int:
    dd = _load(args.file)
    phi = parse_query(args.query, dd.signature)
    digits = _digits(args)
    try:
        frequency = sample_frequency(dd, phi, args.count, args.seed)
    except ValueError as exc:
        print(f"pec sample: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"samples   {args.count}")
    print(f"frequency {format_decimal(frequency, digits)}")
    print(f"exact     {format_decimal(marginal(dd, phi), digits)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pec",
        description="Exact reasoning over probabilistic event calculus domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a domain file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("query", help="probability of a query formula")
    p.add_argument("file")
    p.add_argument("-q", "--query", required=True,
                   help='for instance "[Coin=Heads]@2"')
    p.add_argument("--given", help="condition on another query formula")
    p.add_argument("--precision", type=int,
                   help="decimal digits (default 6 or PEC_PRECISION)")
    p.add_argument("--exact", action="store_true",
                   help="print the exact fraction instead of a decimal")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("translate", help="emit the answer set program")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="output path (default: input stem + .lp)")
    p.add_argument("--with-axioms", action="store_true",
                   help="append the domain-independent clauses")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("graph", help="transition graph in DOT form")
    p.add_argument("file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("sample", help="empirical query frequency")
    p.add_argument("file")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--precision", type=int)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head -1`): not a failure;
        # point stdout at devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except DomainValidationError as exc:
        print(f"pec {args.command}: invalid domain", file=sys.stderr)
        print(exc.report, file=sys.stderr)
        return EXIT_SEMANTIC
    except (ConditionZero, ConcurrentActivation, TranslationError) as exc:
        print(f"pec {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (PecSyntaxError, OSError) as exc:
        print(f"pec {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"pec {args.command}: error: {args.file}: not UTF-8 text "
              f"({exc.reason} at offset {exc.start})", file=sys.stderr)
        return EXIT_USAGE
