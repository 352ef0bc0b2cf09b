import random

import pytest

from redsop import (
    Ideal,
    MonomialPrime,
    Polynomial,
    PolyRing,
    ass_monomial,
    assh_monomial,
    irreducible_decomposition,
    localize_at_monomial_prime,
    member_of_monomial_prime,
    monomial_intersection,
    oracle_dim,
)
from redsop.corpus import CorpusSpec, default_ring, fixtures, random_monomial_ideal
from redsop import monomial
from redsop.monomial import (
    monomial_primes,
    monomial_primes_over,
    restrict_monomial_poly,
)


def prime(R, *names):
    return MonomialPrime(R, frozenset(names))


def prime_sets(primes):
    return {p.vars for p in primes}


def test_decomposition_of_fixture(R):
    comps = irreducible_decomposition(R.ideal("XY", "XZ"))
    assert sorted(str(c) for c in comps) == ["(X)", "(Y, Z)"]


def test_decomposition_pure_power(R):
    comps = irreducible_decomposition(R.ideal("X^2"))
    assert [str(c) for c in comps] == ["(X^2)"]


def test_decomposition_with_embedded_component(R):
    comps = irreducible_decomposition(R.ideal("Y^2", "YZ"))
    assert sorted(str(c) for c in comps) == ["(Y)", "(Y^2, Z)"]


def test_decomposition_rejects_non_monomial(R):
    with pytest.raises(ValueError):
        irreducible_decomposition(R.ideal("X+Y"))


def test_decomposition_rejects_unit(R):
    with pytest.raises(ValueError):
        irreducible_decomposition(R.ideal("1"))


def test_ass_of_fixture(R):
    assert prime_sets(ass_monomial(R.ideal("XY", "XZ"))) == {
        frozenset({"X"}), frozenset({"Y", "Z"})}


def test_ass_of_prime_power(R):
    assert prime_sets(ass_monomial(R.ideal("X^2"))) == {frozenset({"X"})}


def test_ass_with_embedded_prime(R):
    assert prime_sets(ass_monomial(R.ideal("Y^2", "YZ"))) == {
        frozenset({"Y"}), frozenset({"Y", "Z"})}


def test_assh(R):
    assert prime_sets(assh_monomial(R.ideal("XY", "XZ"))) == {frozenset({"X"})}
    assert prime_sets(assh_monomial(R.ideal("X"))) == {frozenset({"X"})}
    ring2 = PolyRing(("X", "Y"))
    assert prime_sets(assh_monomial(ring2.ideal("XY"))) == {
        frozenset({"X"}), frozenset({"Y"})}


def test_zero_ideal_has_zero_prime(R):
    assert prime_sets(ass_monomial(Ideal(R, ()))) == {frozenset()}
    assert oracle_dim(Ideal(R, ())) == 3


def test_membership(R):
    P = prime(R, "Y", "Z")
    assert member_of_monomial_prime(R.poly("Y"), P)
    assert not member_of_monomial_prime(R.poly("X+Y+Z"), P)
    assert member_of_monomial_prime(R.zero, P)
    assert member_of_monomial_prime(R.poly("XY + Z^2"), P)


def test_localization_kills_other_component(R):
    I = R.ideal("XY", "XZ")
    loc = localize_at_monomial_prime(I, prime(R, "Y", "Z"))
    assert loc.ring.var_names == ("Y", "Z")
    assert loc == loc.ring.ideal("Y", "Z")


def test_localization_keeps_regular_point(R):
    I = R.ideal("XY", "XZ")
    loc = localize_at_monomial_prime(I, prime(R, "X", "Y"))
    assert loc == loc.ring.ideal("X")


def test_localization_at_irrelevant_is_identity(R):
    I = R.ideal("XY", "XZ")
    loc = localize_at_monomial_prime(I, prime(R, "X", "Y", "Z"))
    assert loc.ring.var_names == R.var_names
    assert [str(g) for g in loc.groebner_basis()] == [str(g) for g in I.groebner_basis()]


def test_localization_outside_support_is_unit(R):
    I = R.ideal("XY", "XZ")
    assert localize_at_monomial_prime(I, prime(R, "Y")).is_unit()


def test_localization_rejects_zero_prime(R):
    with pytest.raises(ValueError):
        localize_at_monomial_prime(R.ideal("X"), prime(R))


def test_restrict_monomial_poly(R):
    P = prime(R, "X", "Y")
    f = restrict_monomial_poly(R.poly("X^2YZ"), P)
    assert f.ring.var_names == ("X", "Y")
    assert f == f.ring.poly("X^2Y")


def test_monomial_prime_enumeration(R):
    primes = monomial_primes(R)
    assert len(primes) == 8
    assert primes[0].vars == frozenset()
    over = monomial_primes_over(R.ideal("XY", "XZ"))
    assert prime_sets(over) == {
        frozenset({"X"}), frozenset({"Y", "Z"}),
        frozenset({"X", "Y"}), frozenset({"X", "Z"}),
        frozenset({"X", "Y", "Z"})}
    assert len(monomial_primes(PolyRing(tuple(f"x{i}" for i in range(8))))) == 256
    with pytest.raises(ValueError):
        monomial_primes(PolyRing(tuple(f"x{i}" for i in range(9))))


def test_decomposition_soundness_random():
    rng = random.Random(41)
    ring = default_ring(3)
    for _ in range(40):
        J = random_monomial_ideal(ring, rng, 5, 4)
        comps = irreducible_decomposition(J)
        inter = comps[0].to_ideal()
        for c in comps[1:]:
            inter = monomial_intersection(inter, c.to_ideal())
        assert inter == J
        # irredundancy: every component is needed
        for skip in range(len(comps)):
            rest = [c for i, c in enumerate(comps) if i != skip]
            if not rest:
                continue
            inter = rest[0].to_ideal()
            for c in rest[1:]:
                inter = monomial_intersection(inter, c.to_ideal())
            assert inter != J


def _powers_contain(big, small):
    """Whether the irreducible ideal with generators ``small`` lies inside the one with ``big``."""
    mine = dict(big)
    return all(i in mine and mine[i] <= a for i, a in small)


def test_ass_past_the_prime_table():
    ring = PolyRing(tuple(f"x{i}" for i in range(10)))
    assert prime_sets(ass_monomial(ring.ideal("x0*x9", "x5^2"))) == {
        frozenset({"x0", "x5"}), frozenset({"x5", "x9"})}


def test_decomposition_properties_in_one_to_six_variables():
    for n in range(1, 7):
        spec = CorpusSpec(n=n, max_gens=7, max_degree=4, count=40, seed=19 + n, force=True)
        for J in fixtures(spec):
            comps = irreducible_decomposition(J)
            inter = comps[0].to_ideal()
            for c in comps[1:]:
                inter = monomial_intersection(inter, c.to_ideal())
            assert inter == J
            for a in comps:
                assert not any(b is not a and _powers_contain(a.powers, b.powers) for b in comps)
            keys = [(len(c.powers), c.powers) for c in comps]
            assert keys == sorted(set(keys))
            radicals = {frozenset(J.ring.var_names[i] for i, _ in c.powers) for c in comps}
            assert prime_sets(ass_monomial(J)) == radicals


def test_ass_localization_law_random():
    rng = random.Random(42)
    ring = default_ring(3)
    for _ in range(30):
        J = random_monomial_ideal(ring, rng, 4, 3)
        ass = ass_monomial(J)
        for P in monomial_primes_over(J):
            loc = localize_at_monomial_prime(J, P)
            got = {q.vars for q in ass_monomial(loc)}
            assert got == {q.vars for q in ass if q.vars <= P.vars}


def is_zero_divisor_oracle(f, J):
    """Zero-divisor test on R/J: membership in some associated prime."""
    return any(member_of_monomial_prime(f, P) for P in ass_monomial(J))


def test_zero_divisor_law_random(R):
    rng = random.Random(43)
    ring = default_ring(3)
    from redsop.corpus import random_homogeneous_element

    for _ in range(30):
        J = random_monomial_ideal(ring, rng, 4, 3)
        f = random_homogeneous_element(ring, rng, 3)
        assert is_zero_divisor_oracle(f, J) == (J.quotient(f) != J)


def _decomposed(J):
    return [c.powers for c in irreducible_decomposition(J)], prime_sets(ass_monomial(J))


def test_decomposition_reads_minimal_generators_only():
    rng = random.Random(43)
    for n in range(1, 6):
        ring = default_ring(n)
        for _ in range(40):
            J = random_monomial_ideal(ring, rng, 5, 4)
            if not J.is_proper():
                continue
            want = _decomposed(J)
            exps = list(J.monomial_exponents())
            multiples = [tuple(e + rng.randint(0, 2) for e in m) for m in exps]
            noisy = exps + exps[:2] + multiples
            rng.shuffle(noisy)
            misses = monomial._components.cache_info().misses
            other = Ideal(ring, tuple(Polynomial(ring, {m: 1}) for m in noisy))
            assert _decomposed(other) == want
            assert monomial._components.cache_info().misses == misses  # the same entry


def test_decomposition_memo_matches_a_fresh_computation():
    assert monomial._components.cache_info().maxsize == 256
    rng = random.Random(44)
    ideals = []
    while len(ideals) < 500:
        J = random_monomial_ideal(default_ring(rng.randint(1, 5)), rng, 6, 4)
        if J.is_proper():
            ideals.append(J)
    memoized = [_decomposed(J) for J in ideals]
    assert monomial._components.cache_info().currsize == 256
    for J, want in zip(ideals, memoized):
        monomial._components.cache_clear()
        assert _decomposed(J) == want
