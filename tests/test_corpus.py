import hashlib
import random

import pytest

from redsop import CyclicModule, corpus
from redsop.corpus import greedy_monomial_sequence, module_stream
from redsop.suites import run_suites

# SHA-256 of every greedy sequence drawn below, one line per call
GREEDY_DIGEST = "76a7579921b6fec992ded2be31c8bab8c16f19a1fda145493e3d444e1d2c137a"


def _greedy_lines():
    lines = []
    for n in range(2, 9):
        stream = module_stream(7000 + n, n_values=(n,), min_dim=1)
        for k in range(5):
            M, _ = next(stream)
            for length in range(1, M.d + 2):
                rng = random.Random(f"{n}-{k}-{length}")
                seq = greedy_monomial_sequence(M, length, rng)
                shown = "None" if seq is None else ", ".join(str(x) for x in seq)
                lines.append(f"{M} | {length} | {shown}")
    return lines


def test_greedy_sequences_are_pinned():
    lines = _greedy_lines()
    assert any(line.endswith("| None") for line in lines)
    assert any(not line.endswith("| None") for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GREEDY_DIGEST


# (instances, checks) of the monomial-oracle suites at seed 1 and count 300,
# recorded before the oracle's decomposition and dimension memo were rewritten
MONOMIAL_SUITE_COUNTS = {
    "reducing-literal": (300, 300),
    "localization": (300, 549),
    "zero-divisor": (300, 385),
}


@pytest.mark.parametrize("name", sorted(MONOMIAL_SUITE_COUNTS))
def test_monomial_suite_draws_are_pinned(name):
    res = run_suites([name], 1, 300)[0]
    assert res.passed
    assert (res.instances, res.checks) == MONOMIAL_SUITE_COUNTS[name]


def test_greedy_sequences_need_a_monomial_module(R):
    M = CyclicModule(R.ideal("X^2 + Y*Z"))
    with pytest.raises(ValueError, match="monomial module"):
        greedy_monomial_sequence(M, 1, random.Random(0))


def test_greedy_sequences_search_once_per_step(monkeypatch):
    calls = []
    search = corpus.monomial_dim_core

    def counted(n, exps):
        calls.append(n)
        return search(n, exps)

    monkeypatch.setattr(corpus, "monomial_dim_core", counted)
    stream = module_stream(11, n_values=(4,), min_dim=2)
    for _ in range(10):
        M, rng = next(stream)
        for length in range(1, M.d + 2):
            calls.clear()
            seq = greedy_monomial_sequence(M, length, rng)
            assert len(calls) <= length
            assert seq is None or len(calls) == length
