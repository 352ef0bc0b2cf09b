import collections

import pytest

from redsop import (
    CyclicModule,
    Ideal,
    MonomialPrime,
    PolyRing,
    cm_locus_monomial_r,
    cm_membership_general,
    cm_membership_monomial,
    construct_reducing_part_in_prime,
    groebner,
    is_reducing_sop,
)
from redsop.sop import RETRIES


def prime(R, *names):
    return MonomialPrime(R, frozenset(names))


def test_top_component_is_zero_stratum_member(R, M):
    entry = cm_membership_monomial(prime(R, "X"), M)
    assert entry.member and entry.r == 0
    assert entry.dim_point + entry.r == M.d


def test_small_component_fails_dimension_condition(R, M):
    entry = cm_membership_monomial(prime(R, "Y", "Z"), M)
    assert entry.status == "non_member"
    assert "dim R/P + dim M_P" in entry.reason


def test_irrelevant_ideal_membership_iff_cm(R, M):
    entry = cm_membership_monomial(prime(R, "X", "Y", "Z"), M)
    assert entry.status == "non_member"
    assert entry.depth_local == 1 and entry.dim_local == 2


def test_prime_outside_support(R, M):
    entry = cm_membership_monomial(prime(R, "Y"), M)
    assert entry.status == "non_member" and "support" in entry.reason


def test_locus_strata_of_fixture(R, M):
    assert {e.prime.vars for e in cm_locus_monomial_r(M, 0)} == {frozenset({"X"})}
    assert {e.prime.vars for e in cm_locus_monomial_r(M, 1)} == {
        frozenset({"X", "Y"}), frozenset({"X", "Z"})}
    assert cm_locus_monomial_r(M, 2) == []
    with pytest.raises(ValueError):
        cm_locus_monomial_r(M, 3)


def test_zero_prime_on_free_module(R):
    free = CyclicModule(Ideal(R, ()))
    entry = cm_membership_monomial(prime(R), free)
    assert entry.member and entry.r == 0


def test_locus_requires_monomial_ideal(R):
    N = CyclicModule(R.ideal("X^2 + YZ"))
    with pytest.raises(ValueError):
        cm_locus_monomial_r(N, 0)


def test_construct_inside_good_prime(R, M):
    res = construct_reducing_part_in_prime(M, R.ideal("X", "Y"), 1, seed=5)
    assert res.ok
    xs = res.sequence
    assert xs.r == 1 and is_reducing_sop(xs, M).ok
    assert R.ideal("X", "Y").contains(xs[0])


def test_construct_fails_inside_bad_prime(R, M):
    res = construct_reducing_part_in_prime(M, R.ideal("Y", "Z"), 1, seed=5)
    assert not res.ok and res.sequence is None and res.attempts == RETRIES


def test_construct_part_in_irrelevant_ideal_of_cm_ring():
    ring = PolyRing(("X", "Y"))
    free = CyclicModule(Ideal(ring, ()))
    res = construct_reducing_part_in_prime(free, ring.irrelevant_ideal(), 1, seed=6)
    assert res.ok and is_reducing_sop(res.sequence, free).ok


def test_construct_validates_input(R, M):
    with pytest.raises(ValueError):
        construct_reducing_part_in_prime(M, R.ideal("Y"), 1, seed=1)  # Y does not contain I
    with pytest.raises(ValueError):
        construct_reducing_part_in_prime(M, R.ideal("X", "Y"), 0, seed=1)
    with pytest.raises(ValueError):  # a full sop: cm_membership_general uses depth there
        construct_reducing_part_in_prime(M, R.irrelevant_ideal(), M.d, seed=1)


def test_general_membership_with_certificate(R, M):
    entry = cm_membership_general(R.ideal("X", "Y"), M, seed=5)
    assert entry.member and entry.r == 1
    assert entry.certificate is not None and entry.certificate.r == 1


def test_general_membership_non_monomial_prime_on_free_module():
    ring = PolyRing(("X", "Y", "Z"))
    free = CyclicModule(Ideal(ring, ()))
    entry = cm_membership_general(ring.ideal("X+Y", "Z"), free, seed=5)
    assert entry.member and entry.r == 2


def test_general_membership_outside_support(R, M):
    entry = cm_membership_general(R.ideal("Y", "X+Z"), M, seed=5)
    assert entry.status == "non_member" and "support" in entry.reason


def test_general_membership_inconclusive_never_non_member(R, M):
    # (Y+Z, Y-Z) generates the monomial prime (Y, Z) but is not presented
    # by variables, so the randomized route applies and must give up
    entry = cm_membership_general(R.ideal("Y+Z", "Y-Z"), M, seed=5)
    assert entry.status == "inconclusive"


def test_general_membership_at_irrelevant_ideal(R, M):
    entry = cm_membership_general(R.irrelevant_ideal(), M, seed=5)
    assert entry.status == "non_member" and entry.depth_local == 1
    free = CyclicModule(Ideal(R, ()))
    entry = cm_membership_general(R.irrelevant_ideal(), free, seed=5)
    assert entry.member and entry.r == 3


def test_general_membership_top_stratum(R, M):
    # dim R/P = d forces membership (minimal prime of maximal dimension)
    entry = cm_membership_general(R.ideal("X"), M, seed=5)
    assert entry.member and entry.r == 0


@pytest.mark.parametrize("gens,status", [(("X", "Y+Z"), "member"),
                                         (("Y", "X+Z"), "non_member"),
                                         (("Y+Z", "Y-Z"), "inconclusive"),
                                         (("X+Y", "X-Y", "Z"), "non_member")])
def test_general_membership_runs_the_kernel_once_per_prime(monkeypatch, R, M, gens, status):
    """The properness check, the support test and the dimension of R/P read
    one kernel run on P's generators, as does every other ideal built."""
    built = collections.Counter()
    kernel = groebner._buchberger_raw

    def counted_kernel(polys, packing, p):
        # keyed by the packed input, read before the kernel takes the leading terms out
        built[tuple((tuple(sorted(t.items())), s) for t, s in polys), packing] += 1
        return kernel(polys, packing, p)

    monkeypatch.setattr(groebner, "_buchberger_raw", counted_kernel)
    monkeypatch.setattr(groebner, "_GB_CACHE", {})  # no basis from an earlier test
    assert cm_membership_general(R.ideal(*gens), M, seed=5).status == status
    assert built and set(built.values()) == {1}, built


def test_general_membership_requires_homogeneous_prime(R, M):
    with pytest.raises(ValueError):
        cm_membership_general(R.ideal("X^2 + Y"), M, seed=1)
