"""Command-line interface: run session blocks, generate corpora, check suites.

Exit codes: 0 determinate verdict, 2 input error, 3 inconclusive
(randomized construction or membership gave up), 4 internal invariant
breach (always a bug).  A session's seed comes from its own ``seed``
line, then --seed, then the REDSOP_SEED environment variable, then 0;
``corpus`` and ``check`` take --seed, then REDSOP_SEED, then 0.  A
REDSOP_SEED that is not an integer is an input error wherever it is
read.  A session block with ``output human`` is rendered as with --human.
"""

from __future__ import annotations

import argparse
import os
import sys

from .corpus import CorpusSpec
from .session import (
    EXIT_INPUT_ERROR,
    SCHEMA,
    _integer,
    check_theorems,
    corpus_report,
    error_status,
    render_human,
    render_report,
    report_head,
    run_block_with_output,
)

SEED_ENV = "REDSOP_SEED"


def integer(text):
    """An integer in ASCII digits, as session text has them; argparse shows this name."""
    return _integer(text)


def _seed(args):
    """--seed, else REDSOP_SEED, else None; a non-integer REDSOP_SEED raises ValueError."""
    if args.seed is not None:
        return args.seed
    value = os.environ.get(SEED_ENV)
    if value is None:
        return None
    try:
        return _integer(value)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {value!r}") from None


def _error_report(command, exc):
    """(report, exit code) for an exception raised outside a session block."""
    status, error, code = error_status(exc)
    return {"schema": SCHEMA, "command": command,
            "status": status, "error": error, "timing_ms": None}, code


def _emit(report, human):
    sys.stdout.write(render_human(report) if human else render_report(report))


def _cmd_run(args):
    try:  # one UTF-8 check of the bytes given, whatever their source
        if args.expr is not None:
            if args.target is not None:
                raise ValueError("give a session file or -e TEXT, not both")
            data = os.fsencode(args.expr)  # undoes argv's surrogate escapes
        elif args.target in (None, "-"):
            data = sys.stdin.buffer.read()
        else:
            with open(args.target, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except (OSError, ValueError) as exc:  # UnicodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        default_seed = _seed(args)
    except ValueError as exc:
        report, code = _error_report(None, exc)
        _emit(report, args.human)
        return code
    report, code, output = run_block_with_output(text, default_seed, timings=args.timings)
    _emit(report, args.human or output == "human")
    return code


def _cmd_corpus(args):
    try:
        spec = CorpusSpec(
            n=args.vars,
            max_gens=args.max_gens,
            max_degree=args.max_degree,
            squarefree=args.squarefree,
            count=args.count,
            seed=_seed(args) or 0,
            p=args.characteristic,
            force=args.force,
        )
        report, code = corpus_report(spec, args.command)
    except Exception as exc:
        report, code = _error_report("generate-corpus", exc)
    _emit(report, args.human)
    return code


def _cmd_check(args):
    given = (("count", args.count), ("vars", args.vars),
             ("max-gens", args.max_gens), ("max-degree", args.max_degree))
    options = [(key, value) for key, value in given if value is not None]
    try:
        seed = _seed(args) or 0
        report = report_head("check-theorems", seed)
        code = check_theorems(report, args.suites, options, seed)
    except Exception as exc:
        report, code = _error_report("check-theorems", exc)
    _emit(report, args.human)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="redsop",
        description="Systems of parameters, reducing sequences and "
                    "Cohen-Macaulay tests over graded polynomial rings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_p = sub.add_parser("run", help="run a session block from a file, stdin or -e")
    run_p.add_argument("target", nargs="?",
                       help="session file, or '-' for standard input")
    run_p.add_argument("-e", "--expr", help="inline session text")
    run_p.add_argument("--seed", type=integer, help="default seed when the session has none")
    run_p.add_argument("--human", action="store_true", help="render the report as text")
    run_p.add_argument("--timings", action="store_true",
                       help="fill in timing_ms (breaks byte-reproducibility)")
    run_p.set_defaults(fn=_cmd_run)

    corpus_p = sub.add_parser("corpus", help="emit deterministic monomial-ideal fixtures")
    corpus_p.add_argument("--count", type=integer, default=10)
    corpus_p.add_argument("--vars", type=integer, default=3, help="number of variables")
    corpus_p.add_argument("--max-gens", type=integer, default=4)
    corpus_p.add_argument("--max-degree", type=integer, default=3)
    corpus_p.add_argument("--squarefree", action="store_true")
    corpus_p.add_argument("--characteristic", type=integer, default=32003)
    corpus_p.add_argument("--seed", type=integer)
    corpus_p.add_argument("--command", default="dim",
                          help="command embedded in every fixture block")
    corpus_p.add_argument("--force", action="store_true",
                          help="override the desk-scale bound caps")
    corpus_p.add_argument("--human", action="store_true")
    corpus_p.set_defaults(fn=_cmd_corpus)

    check_p = sub.add_parser("check", help="run the theorem-verification suites")
    check_p.add_argument("--suites", default="all",
                         help="comma-separated suite names, or 'all'")
    check_p.add_argument("--count", type=integer,
                         help="instances per suite (default: per-suite counts)")
    check_p.add_argument("--seed", type=integer)
    check_p.add_argument("--vars", help="comma-separated variable counts, e.g. 2,3,4")
    check_p.add_argument("--max-gens", type=integer)
    check_p.add_argument("--max-degree", type=integer)
    check_p.add_argument("--human", action="store_true")
    check_p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
