"""The seeded draw streams of corpus: pinned digests, and the stdlib stream its
monomial draws reproduce."""

import hashlib
import random

import pytest

from redsop import corpus
from redsop.corpus import CorpusSpec, fixtures, greedy_monomial_sequence, module_stream


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# SHA-256 of each fixture list, one ideal a line, recorded while corpus still
# drew every exponent through randrange
FIXTURE_DIGESTS = [
    (CorpusSpec(n=3, count=40, seed=0),
     "931084346df47c4449819c884b7fee4632300c3bc46e569cd35fa1f8a1b242db"),
    (CorpusSpec(n=4, max_gens=6, max_degree=4, count=40, seed=7),
     "7616a803027dc371efb60bdd81679efdc1334aae3a3cba589139edc268e7957b"),
    (CorpusSpec(n=3, squarefree=True, count=40, seed=3),
     "fee02d8cbcae51596a92cd2bbdddaa49208bf625a21fa115cd34cb1013f43727"),
    (CorpusSpec(n=6, max_gens=7, squarefree=True, count=30, seed=5, force=True),
     "e1498f171767e2cbec1def23a7d3c7e257d2780e1c8233e480507f2ae61ac7e5"),
    (CorpusSpec(n=1, max_degree=4, count=10, seed=2),
     "4d00ebe3e8db267624443106737b97fb495b1b0cc94c29cbf8571f7055441b77"),
    (CorpusSpec(n=8, max_gens=9, max_degree=7, count=30, seed=11, force=True),
     "231f82544df6b3bfc5215301388433fca97815f64dc0dd928047bd835fd60559"),
]

# the first 50 modules of module_stream(seed), each with the next float of its
# own rng, so the position where the draw left the rng is pinned too
STREAM_DIGESTS = {
    (1, False): "54bec8bc4dbcf123e0aad88546874cf740f2b0c6e8b19007fac07049ad775a76",
    (2, True): "fc75b3947457dff1d3eebd1e3dad4226e88983077d04caf6d8ce6702135abf2a",
}

# greedy sequences of every length up to d + 1 over the first 30 modules of
# module_stream(5), drawn from each module's own rng in turn
GREEDY_DIGEST = "7586bcbe2fd635b87137f7a35fb02e0b26756ece885a90f464357e4d719bfe75"


@pytest.mark.parametrize("spec,digest", FIXTURE_DIGESTS)
def test_fixtures_are_pinned(spec, digest):
    assert _sha(str(J) for J in fixtures(spec)) == digest


@pytest.mark.parametrize("seed,squarefree", sorted(STREAM_DIGESTS))
def test_module_stream_is_pinned(seed, squarefree):
    stream = module_stream(seed, squarefree=squarefree)
    lines = []
    for _ in range(50):
        M, rng = next(stream)
        lines.append(f"{M} | {rng.random()!r}")
    assert _sha(lines) == STREAM_DIGESTS[seed, squarefree]


def test_greedy_over_a_stream_is_pinned():
    stream = module_stream(5)
    lines = []
    for _ in range(30):
        M, rng = next(stream)
        for length in range(1, M.d + 2):
            seq = greedy_monomial_sequence(M, length, rng)
            lines.append(f"{M} | {length} | {'None' if seq is None else ', '.join(map(str, seq))}")
        lines.append(repr(rng.random()))
    assert _sha(lines) == GREEDY_DIGEST


def _stdlib_monomial(rng, n, max_degree):
    e = [0] * n
    for _ in range(rng.randint(1, max_degree)):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _stdlib_exact(rng, n, deg):
    e = [0] * n
    for _ in range(deg):
        e[rng.randrange(n)] += 1
    return tuple(e)


def test_monomial_draws_follow_the_stdlib_stream():
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 9):
            for max_degree in (1, 3, 5, 12):
                assert corpus.random_monomial(ours, n, max_degree) == _stdlib_monomial(
                    theirs, n, max_degree)
                assert corpus.random_monomials(ours, n, max_degree, 24) == [
                    _stdlib_monomial(theirs, n, max_degree) for _ in range(24)]
                assert corpus.random_monomial_exact(ours, n, max_degree) == _stdlib_exact(
                    theirs, n, max_degree)
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("n,max_degree", [(0, 3), (3, 0), (-1, 2)])
def test_monomial_draws_refuse_empty_ranges(n, max_degree):
    with pytest.raises(ValueError):
        corpus.random_monomials(random.Random(0), n, max_degree, 1)
    with pytest.raises(ValueError):
        corpus.random_monomial(random.Random(0), n, max_degree)
