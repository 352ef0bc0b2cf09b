"""Exact monomial depth from Betti numbers against the randomized depth."""

import random

import pytest

from redsop import (
    CyclicModule,
    MonomialPrime,
    PolyRing,
    cm_membership_monomial,
    depth_oracle,
    monomial,
)
from redsop.corpus import default_ring, random_monomial_ideal
from redsop.monomial import depth_monomial, localize_at_monomial_prime

# Stanley-Reisner ideal of the 6-vertex real projective plane: its
# homology has 2-torsion, so the depth of R/J drops over GF(2)
RP2 = ("ABC", "ABE", "ACD", "ADF", "AEF", "BCF", "BDE", "BDF", "CDE", "CEF")


def rp2(p):
    return PolyRing(tuple("ABCDEF"), p).ideal(*RP2)


@pytest.mark.parametrize("p, depth", [(32003, 3), (3, 3), (0, 3), (2, 2)])
def test_rp2_depth_depends_on_the_field(p, depth):
    assert depth_monomial(rp2(p)) == depth


@pytest.mark.parametrize("p", [32003, 3, 2])
def test_rp2_depth_agrees_with_the_oracle(p):
    J = rp2(p)
    assert depth_oracle(CyclicModule(J), seed=1) == depth_monomial(J)


def test_depth_of_small_ideals(R):
    assert depth_monomial(R.ideal("XY", "XZ")) == 1
    assert depth_monomial(R.ideal("X^2", "XY", "Y^2")) == 1
    assert depth_monomial(R.ideal("X", "Y", "Z")) == 0
    assert depth_monomial(R.ideal()) == 3
    with pytest.raises(ValueError):
        depth_monomial(R.ideal("X + Y"))


def _seeded_ideals(p, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        J = random_monomial_ideal(default_ring(rng.randint(2, 5), p), rng, 6, 4)
        if J.is_proper():
            out.append((J, rng.getrandbits(32)))
    return out


@pytest.mark.parametrize("p", [32003, 3])
def test_agrees_with_the_oracle_on_seeded_ideals(p):
    for J, seed in _seeded_ideals(p, 200, seed=p):
        assert depth_monomial(J) == depth_oracle(CyclicModule(J), seed), str(J)


def test_lattice_budget_falls_back_to_the_oracle(monkeypatch):
    calls = []

    def spy(M, seed=0):
        calls.append(seed)
        return depth_oracle(M, seed)

    monkeypatch.setattr(monomial, "LCM_LATTICE_BUDGET", 2)
    monkeypatch.setattr("redsop.cmlocus.depth_oracle", spy)
    R = PolyRing(("X", "Y", "Z"))
    M = CyclicModule(R.ideal("XY", "XZ", "YZ^2"))
    assert depth_monomial(M.ideal) is None
    P = MonomialPrime(R, frozenset(R.var_names))
    entry = cm_membership_monomial(P, M, seed=9)
    assert calls == [9]
    Mp = CyclicModule(localize_at_monomial_prime(M.ideal, P))
    assert entry.depth_local == depth_oracle(Mp, 9)
