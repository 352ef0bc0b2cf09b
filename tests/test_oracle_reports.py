"""Byte pins of the session reports that the monomial oracle answers.

`ass`, `cm-locus r` at every r in 0..d and `cm-member` at every nonzero
monomial prime, on `redsop corpus` fixtures in 2, 3 and 4 variables;
and `ass_monomial` on seeded random monomial ideals in 9 and 12
variables.  The digests were recorded before the oracle's prime
lookups were merged into one path, which must not change a byte.
"""

import hashlib
import itertools
import json
import random

import pytest

from redsop import PolyRing, ass_monomial
from redsop.corpus import CorpusSpec, random_monomial_ideal
from redsop.session import generate_corpus, render_report, run_block

REPORT_DIGESTS = {
    2: "8b6930d7e8b115e3eccad595d2a64d4cd3e6ade0e04c703c7faddd72f332713e",
    3: "670226246075078fc0f39009749ba9bbf19543bedd5d92e653a015c511e4d3e5",
    4: "5cff1bb4caa7c6a962f539296cb99fce0baa5d378b90dba3952404b4a9f4ae2e",
}

ASS_DIGESTS = {
    9: "1907da33aa67d6df6b3c590ad7ec68aec973724fa51ee4656363928ae5adafba",
    12: "0ce7d85b17249ccaa5b9890c9f80ef2f9c56ae309806777c4bc355d5f49f9002",
}


def _blocks(n):
    """Each fixture's session text without its command line, and its dimension."""
    for block in generate_corpus(CorpusSpec(n=n, count=15, seed=1), "dim"):
        head = block[:block.rindex("dim\n")]
        report, code = run_block(head + "dim\n")
        assert code == 0
        yield head, report["dim"]


@pytest.mark.parametrize("n", sorted(REPORT_DIGESTS))
def test_oracle_session_report_bytes(n):
    names = ["X", "Y", "Z", "W"][:n]
    digest = hashlib.sha256()
    for head, d in _blocks(n):
        commands = ["ass"] + [f"cm-locus {r}" for r in range(d + 1)]
        commands += [f"cm-member {', '.join(vs)}"
                     for k in range(1, n + 1) for vs in itertools.combinations(names, k)]
        for command in commands:
            report, code = run_block(head + command + "\n")
            assert code == 0, (head, command, report)
            digest.update(render_report(report).encode())
    assert digest.hexdigest() == REPORT_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(ASS_DIGESTS))
def test_ass_monomial_past_eight_variables(n):
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    rng = random.Random(n)
    found = []
    while len(found) < 50:
        J = random_monomial_ideal(ring, rng, 6, 4)
        if J.is_proper():
            found.append(sorted(P.sorted_vars() for P in ass_monomial(J)))
    digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
    assert digest == ASS_DIGESTS[n]
