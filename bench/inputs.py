"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed.  The suite
plans say which suites ``run_suites`` gets, with which counts and ring
sizes; the session stream is plain ``redsop run`` text.  The fixtures
are drawn with the benchmark's own exponent arithmetic, so a change to
``redsop.corpus`` cannot change what is measured.  Alongside each block
the generator records the answers it knows independently of redsop
(dimension, top-dimensional primes, that a sequence is a system of
parameters), which ``run.py`` checks the reports against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from redsop import Polynomial, PolyRing

P = 32003
VARS = ("X", "Y", "Z", "W")

# (suite, vars, count).  Each suite runs once per ring size instead of
# drawing the size per instance, so the mix of sizes is the same for every
# seed.  The instances themselves come from the seed, and at four
# variables their cost is heavy-tailed: one locus-roundtrip instance can
# take 12 s, a hundred times the median, and locus-identities instances
# vary tenfold.  With them in, the pass time varied by 15% between seeds;
# at three variables (two for locus-roundtrip, whose three-variable
# instances still reach a second) it is set by several hundred instances
# of similar cost.
CHECK_COLON = (
    ("cm-equivalence", 3, 550),
    ("locus-identities", 3, 90),
    ("locus-roundtrip", 2, 80),
)

# The monomial suites are cheap per instance (about 1 ms), so counts 75
# times their defaults, with the default size mix drawn per instance,
# already make the cost the same for every seed.
CHECK_MONOMIAL = (
    ("reducing-literal", None, 7500),
    ("localization", None, 7500),
    ("zero-divisor", None, 7500),
)

# Fixtures per ring size in one sessions pass; each yields 16 queries.
SESSION_FIXTURES = {2: 16, 3: 26, 4: 12}

# The monomial fixtures of the sessions workload are one fixed corpus.
# The cost of a fixture varies a lot (coefficient of variation about 0.9
# at four variables), so drawing them per seed made the pass time differ
# between seeds by far more than any bound could absorb.  The workload
# seed draws everything else: the parameter sequences, the coordinate
# changes and the seed line of every block.
SESSION_CORPUS_SEED = "sessions-corpus"


SUITE_PLANS = {"check-colon": CHECK_COLON, "check-monomial": CHECK_MONOMIAL}


def suite_calls(workload, seed):
    """(suite, seed, count, opts) for each ``run_suites`` call of one pass."""
    calls = []
    for name, n, count in SUITE_PLANS[workload]:
        opts = {} if n is None else {"n_values": (n,)}
        calls.append((name, seed, count, opts))
    return calls


def expected_instances(name, count):
    """Instances a suite reports for ``count``; locus-roundtrip adds its fixed example."""
    return count + 1 if name == "locus-roundtrip" else count


# ---------------------------------------------------------------------------
# sessions

# The session block from the README, then the library tour as sessions.
# Expected values are the ones the README states.
README_BLOCKS = (
    ("ring [X,Y,Z] p=32003\nideal XY, XZ\nseq xs: Y; X+Y+Z\nprime P: X, Y\n"
     "seed 42\noutput structured\nis-reducing-sop xs\n", {"verdict": False}),
    ("ring [X,Y,Z] p=32003\nideal XY, XZ\nis-sop Y; X+Y+Z\n", {"verdict": True}),
    ("ring [X,Y,Z] p=32003\nideal XY, XZ\nis-reducing-sop X+Y+Z; Y\n", {"verdict": True}),
    ("ring [X,Y,Z] p=32003\nideal XY, XZ\nseed 5\nmake-reducing Y; X+Y+Z\n", {"verdict": True}),
    ("ring [X,Y,Z] p=32003\nideal XY, XZ\nseed 1\ndepth\n", {"depth": 1, "dim": 2}),
    ("ring [X,Y,Z] p=32003\nideal XY, XZ\nseed 1\nis-cm reducing\n", {"verdict": False}),
    ("ring [X,Y,Z] p=32003\nideal XY, XZ\ncm-locus 1\n", {"entries": 2}),
)


@dataclass
class Query:
    """One session block, the answers known without redsop, and its pairing tag."""

    text: str
    expect: dict = field(default_factory=dict)
    # Queries sharing a tag ask the same question of a monomial fixture
    # and of its coordinate change, so their answers must agree.
    pair: str | None = None


def _random_exponents(rng, n, max_gens, max_degree):
    """Minimal generators of a random monomial ideal, as module_stream draws them."""
    exps = set()
    for _ in range(rng.randint(1, max_gens)):
        e = [0] * n
        for _ in range(rng.randint(1, max_degree)):
            e[rng.randrange(n)] += 1
        exps.add(tuple(e))
    ordered = sorted(exps, key=lambda m: (sum(m), m))
    return [m for i, m in enumerate(ordered)
            if not any(all(a <= b for a, b in zip(k, m)) for k in ordered[:i])]


def independent_sets(exps, n):
    """Maximal variable sets S such that no generator is supported inside S.

    These are the complements of the minimal primes of the ideal, so the
    largest size is dim R/J.
    """
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in exps]
    free = [frozenset(c) for size in range(n + 1) for c in combinations(range(n), size)
            if not any(s <= frozenset(c) for s in supports)]
    return [s for s in free if not any(s < t for t in free)]


def _rank(rows, p=P):
    a = [list(r) for r in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c] % p), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        for r in range(len(a)):
            if r != rank and a[r][c] % p:
                f = a[r][c] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _random_sop(rng, n, d, maximal):
    """d linear forms (coefficient rows) cutting V(J) down to the origin.

    V(J) is the union of the coordinate subspaces spanned by the maximal
    independent sets, so the forms are a system of parameters exactly when
    their restriction to every such set has full column rank.
    """
    while True:
        rows = [[rng.randrange(1, P) for _ in range(n)] for _ in range(d)]
        if all(_rank([[r[i] for i in sorted(s)] for r in rows]) == len(s)
               for s in maximal if s):
            return rows


def _random_invertible(rng, n):
    while True:
        rows = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        if _rank(rows) == n:
            return rows


def _linear(ring, row):
    return sum((ring.gen(i).scale(c) for i, c in enumerate(row) if c), ring.zero)


def _substitute(f, images):
    """f(x_1 .. x_n) with each x_i replaced by the linear form images[i]."""
    ring = f.ring
    out = ring.zero
    for m, c in f.terms.items():
        term = ring.const(c)
        for img, e in zip(images, m):
            if e:
                term = term * img ** e
        out = out + term
    return out


def _block(ring, ideal, lines, command):
    head = [f"ring [{','.join(ring.var_names)}] p={P}", "ideal " + ", ".join(ideal)]
    return "\n".join(head + lines + [command]) + "\n"


def _fixture_queries(corpus, rng, n, tag):
    """The 16 queries of one fixture: 9 on the monomial ideal, 7 on its coordinate change.

    ``corpus`` draws the ideal and which questions to ask; ``rng`` draws
    the coefficients and seeds.
    """
    ring = PolyRing(VARS[:n], P)
    while True:
        exps = _random_exponents(corpus, n, 5, 4)
        maximal = independent_sets(exps, n)
        d = max(len(s) for s in maximal)
        if d >= 1 and all(sum(m) for m in exps):
            break
    gens = [Polynomial(ring, {m: 1}) for m in exps]
    sop = [_linear(ring, row) for row in _random_sop(rng, n, d, maximal)]
    r = corpus.randint(1, d)
    top = sorted(sorted(set(range(n)) - s) for s in maximal if len(s) == d)
    prime_idx = corpus.choice([top[corpus.randrange(len(top))], list(range(n))])
    prime = [ring.gen(i) for i in prime_idx]
    assh = sorted([VARS[i] for i in t] for t in top)
    locus_r = corpus.randint(0, d)

    mat = _random_invertible(rng, n)
    images = [_linear(ring, row) for row in mat]

    def sides(polys):
        return [str(f) for f in polys], [str(_substitute(f, images)) for f in polys]

    ideal_m, ideal_t = sides(gens)
    sop_m, sop_t = sides(sop)
    prime_m, prime_t = sides(prime)

    out = []
    for ideal, seqs, pr, kind in ((ideal_m, sop_m, prime_m, "m"), (ideal_t, sop_t, prime_t, "t")):
        def q(command, expect=None, pair=None, seeded=True):
            lines = [f"seed {rng.getrandbits(32)}"] if seeded else []
            out.append(Query(_block(ring, ideal, lines, command), expect or {},
                             f"{tag}:{pair}" if pair else None))

        full = "; ".join(seqs)
        q("dim", {"dim": d}, seeded=False)
        if kind == "m":
            q("ass", {"assh": assh}, seeded=False)
        q("is-sop " + "; ".join(seqs[:r]), {"verdict": True, "quotient_dim": d - r})
        q("is-reducing-sop " + full, pair="is-reducing-sop", seeded=False)
        q("make-reducing " + full, {"verdict": True})
        q("depth", {"dim": d}, pair="depth")
        q("is-cm both", {"dim": d}, pair="is-cm")
        q("cm-member " + ", ".join(pr), pair="cm-member")
        if kind == "m":
            q(f"cm-locus {locus_r}")
    return out


def session_stream(seed):
    """The queries of one sessions pass: README blocks, then fixtures by ring size."""
    corpus = random.Random(SESSION_CORPUS_SEED)
    rng = random.Random(f"sessions:{seed}")
    queries = [Query(text, dict(expect)) for text, expect in README_BLOCKS]
    for n, count in SESSION_FIXTURES.items():
        for k in range(count):
            queries.extend(_fixture_queries(corpus, rng, n, f"{n}.{k}"))
    return queries
