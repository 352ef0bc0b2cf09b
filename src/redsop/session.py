"""Session blocks, command dispatch and JSON certificate reports.

A session is a small self-describing text block::

    ring [X,Y,Z] p=32003
    ideal XY, XZ
    seq xs: Y; X+Y+Z
    prime P: X, Y
    seed 42
    output structured
    is-reducing-sop xs

One statement per line, ``#`` starts a comment, exactly one command line.
Sequences are semicolon-separated polynomials; command arguments may name
a declared ``seq``/``prime`` or carry the inline text directly.  Reports
are a single JSON document rendered with sorted keys, so identical input
plus an identical seed yields a byte-identical report; timings are only
filled in on request to keep that true.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .cmlocus import cm_membership_general, cm_membership_monomial, cm_locus_monomial_r
from .corpus import default_ring, fixtures
from .groebner import Ideal
from .monomial import MonomialPrime, ass_monomial, assh_monomial
from .poly import HomogeneityError, ParseError, PolyRing
from .sop import (
    CyclicModule,
    ParamSequence,
    RetryBudgetError,
    depth_with_certificate,
    is_cm_reducing,
    is_part_of_sop,
    is_regular_sequence,
    is_reducing_sop,
    make_reducing,
)
from .suites import REGISTRY, run_suites

SCHEMA = "redsop.report/1"

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

COMMANDS = (
    "dim",
    "ass",
    "is-sop",
    "is-reducing-sop",
    "is-part-reducing",
    "make-reducing",
    "is-regular-sequence",
    "is-cm",
    "depth",
    "cm-member",
    "cm-locus",
    "check-theorems",
)

_RING_RE = re.compile(r"^\[\s*([^\]]*)\]\s*(?:p\s*=\s*(\d+))?\s*$")


class SessionError(ValueError):
    """Malformed session text; carries the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class SessionInput:
    ring: PolyRing | None = None
    ideal: Ideal | None = None
    ideal_texts: tuple = ()
    sequences: dict = field(default_factory=dict)
    primes: dict = field(default_factory=dict)
    command: str | None = None
    arg: str = ""
    seed: int | None = None
    output: str | None = None


def parse_session(text):
    session = SessionInput()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "ring":
                m = _RING_RE.match(rest)
                if not m:
                    raise SessionError("expected: ring [A,B,C] p=<char|0>", line_no)
                names = tuple(s.strip() for s in m.group(1).split(",") if s.strip())
                p = int(m.group(2)) if m.group(2) is not None else 32003
                session.ring = PolyRing(names, p)
            elif head == "ideal":
                _need_ring(session, line_no)
                texts = [s.strip() for s in rest.split(",") if s.strip()]
                session.ideal_texts = tuple(texts)
                session.ideal = Ideal(session.ring, [session.ring.poly(t) for t in texts])
            elif head == "seq":
                _need_ring(session, line_no)
                name, _, body = rest.partition(":")
                name = name.strip()
                if not name or not body.strip():
                    raise SessionError("expected: seq <name>: f1; f2; ...", line_no)
                session.sequences[name] = ParamSequence.parse(session.ring, body)
            elif head == "prime":
                _need_ring(session, line_no)
                name, _, body = rest.partition(":")
                name = name.strip()
                gens = [s.strip() for s in body.split(",") if s.strip()]
                if not name or not gens:
                    raise SessionError("expected: prime <name>: g1, g2, ...", line_no)
                session.primes[name] = Ideal(session.ring, [session.ring.poly(t) for t in gens])
            elif head == "seed":
                session.seed = int(rest)
            elif head == "output":
                if rest not in ("structured", "human"):
                    raise SessionError("output must be 'structured' or 'human'", line_no)
                session.output = rest
            elif head in COMMANDS:
                if session.command is not None:
                    raise SessionError("a session may hold only one command", line_no)
                session.command = head
                session.arg = rest
            else:
                raise SessionError(f"unknown statement {head!r}", line_no)
        except (ParseError, ValueError) as exc:
            if isinstance(exc, SessionError):
                raise
            raise SessionError(str(exc), line_no) from exc
    if session.command is None:
        raise SessionError("session has no command", len(text.splitlines()) or 1)
    return session


def _need_ring(session, line_no):
    if session.ring is None:
        raise SessionError("declare the ring first", line_no)


# ---------------------------------------------------------------------------
# serialization helpers

def _poly_text(f):
    """Canonical expression for a polynomial, reparseable by the grammar.

    Over the rationals, denominators are cleared and the content reduced
    so that coefficients stay integers (a harmless rescale for ideal
    generators); prime-field coefficients already live in [0, p).
    """
    if f.ring.p == 0 and f.terms:
        den = 1
        for c in f.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in f.terms.values():
            num = gcd(num, abs(c.numerator * den // c.denominator))
        scale = Fraction(den, num or 1)
        if f.leading_coeff() < 0:
            scale = -scale
        f = f.scale(scale)
    return str(f)


def _ideal_texts(J):
    """Canonical generator strings: the reduced grevlex basis."""
    return [_poly_text(g) for g in J.groebner_basis()]


def _seq_texts(xs):
    return [_poly_text(x) for x in xs]


def _witness_dict(w):
    if w is None:
        return None
    return {
        "kind": w.kind,
        "index": w.index,
        "threshold": w.threshold,
        "dim": w.dim,
        "ideal": _ideal_texts(w.ideal) if w.ideal is not None else None,
        "prime": list(w.prime.sorted_vars()) if w.prime is not None else None,
    }


def _prime_repr(prime):
    if isinstance(prime, MonomialPrime):
        return list(prime.sorted_vars())
    return _ideal_texts(prime)


def _entry_dict(entry):
    return {
        "prime": _prime_repr(entry.prime),
        "status": entry.status,
        "dim_point": entry.dim_point,
        "r": entry.r,
        "dim_local": entry.dim_local,
        "depth_local": entry.depth_local,
        "certificate": _seq_texts(entry.certificate) if entry.certificate is not None else None,
        "reason": entry.reason,
    }


def render_report(report):
    """The canonical byte-stable JSON rendering of a report."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_human(report):
    lines = [f"command: {report.get('command')}  status: {report.get('status')}"]
    for key in sorted(report):
        if key in ("schema", "command", "status"):
            continue
        lines.append(f"  {key}: {json.dumps(report[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command dispatch

def _resolve_sequence(session, arg):
    arg = arg.strip()
    if not arg:
        raise ValueError("missing parameter sequence argument")
    if arg in session.sequences:
        return session.sequences[arg]
    return ParamSequence.parse(session.ring, arg)


def _resolve_prime(session, arg):
    arg = arg.strip()
    if not arg:
        raise ValueError("missing prime argument")
    if arg in session.primes:
        return session.primes[arg]
    gens = [s.strip() for s in arg.split(",") if s.strip()]
    return Ideal(session.ring, [session.ring.poly(t) for t in gens])


def _as_monomial_prime(P):
    """Reinterpret an ideal generated by variables as a monomial prime."""
    names = set()
    for g in P.gens:
        if g.is_zero():
            continue
        if len(g.terms) != 1:
            return None
        (m, _), = g.terms.items()
        if sum(m) != 1:
            return None
        names.add(P.ring.var_names[m.index(1)])
    if not names:
        return None
    return MonomialPrime(P.ring, frozenset(names))


def _module(session):
    if session.ring is None:
        raise ValueError("session declares no ring")
    ideal = session.ideal if session.ideal is not None else Ideal(session.ring, ())
    return CyclicModule(session.ring, ideal)


def check_theorems(report, suites, options, seed):
    """Validate suite names and options, run the suites, fill in the report.

    ``suites`` is a comma-separated list of suite names, or ``all``;
    ``options`` holds (name, value) pairs for ``count``, ``vars``,
    ``max-gens``, ``max-degree`` and ``squarefree``, values as text or
    int.  Bad names or options raise ValueError before any suite runs.
    Adds the ``suites`` and ``passed`` fields and returns the exit code.
    """
    names = [s.strip() for s in suites.split(",") if s.strip()]
    opts = {}
    count = None
    for key, val in options:
        if key == "count":
            count = int(val)
            if count < 1:
                raise ValueError(f"count must be at least 1, got {count}")
        elif key == "vars":
            opts["n_values"] = tuple(int(v) for v in val.split(","))
            for n in opts["n_values"]:
                default_ring(n)  # rejects variable counts the suites cannot build
        elif key in ("max-gens", "max-degree"):
            bound = int(val)
            if bound < 1:
                raise ValueError(f"{key} must be at least 1, got {bound}")
            opts[key.replace("-", "_")] = bound
        elif key == "squarefree":
            opts["squarefree"] = val in ("1", "true", "yes")
        else:
            raise ValueError(f"unknown check-theorems option {key!r}")
    for name in names:
        if name != "all" and name not in REGISTRY:
            raise ValueError(f"unknown suite {name!r}")
    results = run_suites(names, seed, count, **opts)
    report["suites"] = [r.to_dict() for r in results]
    report["passed"] = all(r.passed for r in results)
    return EXIT_OK if report["passed"] else EXIT_INTERNAL


def run_command(session, default_seed=None, timings=False):
    """Dispatch one session; returns (report dict, exit code)."""
    seed = session.seed if session.seed is not None else (default_seed if default_seed is not None else 0)
    report = {
        "schema": SCHEMA,
        "command": session.command,
        "seed": seed,
        "status": "ok",
        "timing_ms": None,
        "input": {
            "ring": None if session.ring is None else {
                "vars": list(session.ring.var_names),
                "p": session.ring.p,
            },
            "ideal": list(session.ideal_texts),
            "arg": session.arg,
        },
    }
    start = time.monotonic()
    try:
        code = _dispatch(session, seed, report)
    except (SessionError, ParseError, HomogeneityError) as exc:
        report["status"] = "input_error"
        report["error"] = str(exc)
        code = EXIT_INPUT_ERROR
    except RetryBudgetError as exc:
        report["status"] = "inconclusive"
        report["error"] = str(exc)
        code = EXIT_INCONCLUSIVE
    except (ValueError, KeyError, TypeError) as exc:
        report["status"] = "input_error"
        report["error"] = str(exc)
        code = EXIT_INPUT_ERROR
    except Exception as exc:  # anything else is a bug, not bad input
        report["status"] = "internal_error"
        report["error"] = f"{type(exc).__name__}: {exc}"
        code = EXIT_INTERNAL
    if timings:
        report["timing_ms"] = round((time.monotonic() - start) * 1000.0, 3)
    return report, code


def _dispatch(session, seed, report):
    cmd = session.command

    if cmd == "check-theorems":
        tokens = session.arg.split()
        if not tokens:
            raise ValueError("expected: check-theorems <suite,...> [count=N] [vars=2,3,4] ...")
        options = [tok.partition("=")[::2] for tok in tokens[1:]]
        return check_theorems(report, tokens[0], options, seed)

    M = _module(session)
    report["input"]["dim"] = M.d

    if cmd == "dim":
        report["dim"] = M.d
        return EXIT_OK

    if cmd == "ass":
        if M.ideal.monomial_exponents() is None:
            raise ValueError("unsupported: associated primes need a monomial ideal")
        primes = sorted(ass_monomial(M.ideal), key=lambda P: (P.dim, P.sorted_vars()))
        report["associated_primes"] = [
            {"vars": list(P.sorted_vars()), "dim": P.dim} for P in primes
        ]
        report["assh"] = [list(P.sorted_vars())
                          for P in sorted(assh_monomial(M.ideal), key=lambda P: P.sorted_vars())]
        return EXIT_OK

    if cmd == "is-sop":
        xs = _resolve_sequence(session, session.arg)
        quotient_dim = (M.ideal + xs.elems).dim_quotient() if xs.r else M.d
        report["verdict"] = is_part_of_sop(xs, M)
        report["r"] = xs.r
        report["quotient_dim"] = quotient_dim
        return EXIT_OK

    if cmd in ("is-reducing-sop", "is-part-reducing"):
        xs = _resolve_sequence(session, session.arg)
        if cmd == "is-reducing-sop" and (xs.r != M.d or M.d < 1):
            raise ValueError(f"expected a full candidate sequence of length d = {M.d} >= 1")
        if cmd == "is-part-reducing" and xs.r >= M.d:
            raise ValueError("sequence must be shorter than dim M; use is_reducing_sop for r = d")
        check = is_reducing_sop(xs, M)
        report["verdict"] = check.ok
        report["witness"] = _witness_dict(check.witness)
        return EXIT_OK

    if cmd == "make-reducing":
        xs = _resolve_sequence(session, session.arg)
        res = make_reducing(xs, M, seed)
        report["verdict"] = res.ok
        report["attempts"] = res.attempts
        if res.ok:
            report["sequence"] = _seq_texts(res.sequence)
            return EXIT_OK
        report["status"] = "inconclusive"
        report["witness"] = _witness_dict(res.witness)
        return EXIT_INCONCLUSIVE

    if cmd == "is-regular-sequence":
        xs = _resolve_sequence(session, session.arg)
        report["verdict"] = is_regular_sequence(xs, M)
        return EXIT_OK

    if cmd == "depth":
        depth, cuts = depth_with_certificate(M, seed)
        report["depth"] = depth
        report["dim"] = M.d
        report["cuts"] = _seq_texts(cuts)
        return EXIT_OK

    if cmd == "is-cm":
        method = session.arg.strip() or "both"
        if method not in ("reducing", "depth", "both"):
            raise ValueError("is-cm method must be 'reducing', 'depth' or 'both'")
        report["dim"] = M.d
        if method in ("reducing", "both"):
            ok, cert = is_cm_reducing(M, seed)
            report["reducing_test"] = ok
            report["certificate"] = {
                "sop": _seq_texts(cert.sop) if cert.sop is not None else None,
                "last_is_nzd": cert.last_is_nzd,
            }
            report["verdict"] = ok
        if method in ("depth", "both"):
            depth, cuts = depth_with_certificate(M, seed + 1 if method == "both" else seed)
            report["depth"] = depth
            report["depth_test"] = depth == M.d
            report["verdict"] = depth == M.d
        if method == "both":
            report["agree"] = report["reducing_test"] == report["depth_test"]
            if not report["agree"]:
                raise RuntimeError("the two Cohen-Macaulay tests disagree")
        return EXIT_OK

    if cmd == "cm-member":
        P = _resolve_prime(session, session.arg)
        mono = _as_monomial_prime(P)
        if mono is not None and M.ideal.monomial_exponents() is not None:
            entry = cm_membership_monomial(mono, M, seed)
        else:
            entry = cm_membership_general(P, M, seed)
        report["entry"] = _entry_dict(entry)
        report["verdict"] = entry.status
        if entry.status == "inconclusive":
            report["status"] = "inconclusive"
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if cmd == "cm-locus":
        arg = session.arg.strip()
        if not arg:
            raise ValueError("expected: cm-locus <r>")
        r = int(arg)
        entries = cm_locus_monomial_r(M, r, seed)
        report["r"] = r
        report["entries"] = [_entry_dict(e) for e in entries]
        return EXIT_OK

    raise ValueError(f"unknown command {session.command!r}")


def run_block(text, default_seed=None, timings=False):
    """Parse and run a session block; input errors become reports too."""
    try:
        session = parse_session(text)
    except (SessionError, ParseError, ValueError) as exc:
        report = {
            "schema": SCHEMA,
            "command": None,
            "seed": default_seed if default_seed is not None else 0,
            "status": "input_error",
            "error": str(exc),
            "timing_ms": None,
            "input": {"ring": None, "ideal": [], "arg": ""},
        }
        return report, EXIT_INPUT_ERROR
    return run_command(session, default_seed, timings)


# ---------------------------------------------------------------------------
# corpus generation

def generate_corpus(spec, command="dim"):
    """Deterministic fixture blocks, each accepted by :func:`run_block`."""
    if command not in COMMANDS or command == "check-theorems":
        raise ValueError(f"fixtures cannot carry command {command!r}")
    blocks = []
    ring = default_ring(spec.n, spec.p)
    header = f"ring [{','.join(ring.var_names)}] p={spec.p}"
    for idx, J in enumerate(fixtures(spec)):
        lines = [
            header,
            "ideal " + ", ".join(_poly_text(g) for g in J.gens),
            f"seed {spec.seed + idx}",
            command,
        ]
        blocks.append("\n".join(lines) + "\n")
    return blocks


def corpus_report(spec, command="dim"):
    blocks = generate_corpus(spec, command)
    report = {
        "schema": SCHEMA,
        "command": "generate-corpus",
        "seed": spec.seed,
        "status": "ok",
        "timing_ms": None,
        "params": {
            "n": spec.n,
            "max_gens": spec.max_gens,
            "max_degree": spec.max_degree,
            "squarefree": spec.squarefree,
            "count": spec.count,
            "p": spec.p,
            "fixture_command": command,
        },
        "fixtures": blocks,
    }
    return report, EXIT_OK
