"""The strong Cohen-Macaulay locus of a cyclic module.

A prime P in Supp M belongs to the locus when dim R/P + dim M_P = dim M
and M_P is Cohen-Macaulay; the stratum of the locus with dim M_P = r is
enumerated exactly over monomial primes (localization is combinatorial
there, and the local depth comes from Betti numbers with no random draw),
while general homogeneous primes get a one-sided randomized
membership test built on an inductive construction: pick elements of P,
one at a time, that avoid every associated prime of the successive
quotients of too-large dimension.  When the construction succeeds, P is
a minimal prime of top dimension over the quotient ideal, hence an
associated prime of the quotient, which certifies membership; when it
runs out of retries the answer is reported as inconclusive, never as a
proven non-member.
"""

from __future__ import annotations

import random

from .groebner import Ideal
from .monomial import (
    MonomialPrime,
    depth_monomial,
    localize_at_monomial_prime,
    monomial_exponents_strict,
    monomial_primes_over,
    monomials_in_prime,
)
from .poly import _Record
from .sop import (
    RETRIES,
    ConstructionResult,
    CyclicModule,
    ParamSequence,
    _assoc_dim_witness,
    depth_oracle,
    is_reducing_sop,
    random_homogeneous,
)


class CmLocusEntry(_Record):
    """Membership verdict for one prime, with enough data to re-verify.

    For members, dim R/P + r = dim M always holds.  ``certificate`` holds
    the constructed sequence for the randomized test; exact monomial
    answers carry the localized dimension/depth pair instead, the depth
    computed by :func:`monomial.depth_monomial` (the randomized depth
    only past its lattice budget).  ``status`` is ``"member"``,
    ``"non_member"`` or ``"inconclusive"``; the last one only arises from
    the randomized test on general primes, so monomial answers never
    carry it.
    """

    __slots__ = _fields = ("prime", "status", "dim_point", "r", "dim_local", "depth_local",
                           "certificate", "reason")
    __hash__ = None

    def __init__(self, prime, status, dim_point, r=None, dim_local=None, depth_local=None,
                 certificate=None, reason=""):
        self.prime = prime  # MonomialPrime or Ideal (asserted prime)
        self.status, self.dim_point, self.r = status, dim_point, r
        self.dim_local, self.depth_local = dim_local, depth_local
        self.certificate, self.reason = certificate, reason

    @property
    def member(self):
        return self.status == "member"


def cm_membership_monomial(P, M, seed=0):
    """Exact locus membership of a monomial prime for monomial M.

    The seed feeds only the randomized depth, which runs when the lcm
    lattice of the localized ideal passes LCM_LATTICE_BUDGET.
    """
    if not isinstance(P, MonomialPrime):
        raise TypeError("expected a MonomialPrime")
    exps = monomial_exponents_strict(M.ideal)
    d = M.d
    dim_point = P.dim
    if not P.vars:
        # the zero prime: in the support only for the zero ideal
        if exps:
            return CmLocusEntry(P, "non_member", dim_point,
                                reason="outside the support")
        return CmLocusEntry(P, "member", dim_point, r=0, dim_local=0,
                            depth_local=0, reason="generic point of a domain")
    if not monomials_in_prime(exps, P):
        return CmLocusEntry(P, "non_member", dim_point,
                            reason="outside the support")
    Jp = localize_at_monomial_prime(M.ideal, P)
    Mp = CyclicModule(Jp)
    dim_local = Mp.d
    if dim_point + dim_local != d:
        return CmLocusEntry(P, "non_member", dim_point, r=dim_local,
                            dim_local=dim_local,
                            reason=f"dim R/P + dim M_P = {dim_point + dim_local} != {d}")
    depth_local = depth_monomial(Jp)
    if depth_local is None:  # lcm lattice past LCM_LATTICE_BUDGET
        depth_local = depth_oracle(Mp, seed)
    if depth_local != dim_local:
        return CmLocusEntry(P, "non_member", dim_point, r=dim_local,
                            dim_local=dim_local, depth_local=depth_local,
                            reason="localization is not Cohen-Macaulay")
    return CmLocusEntry(P, "member", dim_point, r=dim_local,
                        dim_local=dim_local, depth_local=depth_local)


def cm_locus_monomial_r(M, r, seed=0):
    """All monomial primes in the locus stratum with dim M_P = r."""
    if not 0 <= r <= M.d:
        raise ValueError(f"r must lie in [0, {M.d}]")
    out = []
    for P in monomial_primes_over(M.ideal):
        entry = cm_membership_monomial(P, M, seed)
        if entry.member and entry.r == r:
            out.append(entry)
    return out


def _random_element_of(P, degree, rng):
    """Random homogeneous degree-``degree`` combination of P's generators."""
    ring = P.ring
    acc = ring.zero
    for g in P.gens:
        if g.is_zero():
            continue
        gap = degree - g.degree()
        if gap < 0:
            continue
        mult = random_homogeneous(ring, gap, rng, allow_zero=True)
        if mult.is_zero():
            continue
        acc = acc + mult * g
    return acc


def _check_prime(P, M):
    """Refuse a P that is not a homogeneous Ideal of M's ring."""
    if not isinstance(P, Ideal):
        raise TypeError("expected an Ideal asserted to be prime")
    if P.ring != M.ring:
        raise ValueError("ring mismatch")
    if not P.is_homogeneous():
        raise ValueError("P must be homogeneous")


def construct_reducing_part_in_prime(M, P, r, seed):
    """Build x1..xr in P, 1 <= r < d, forming part of a reducing sop of M.

    The paper's Theorem 2 loop: step i draws random homogeneous
    combinations of P's generators until one avoids every associated
    prime of M/(x1..x_{i-1})M of dimension >= d - i, a number read off
    Hilbert series.  Exhausting the budget at some step yields a failure
    report; for true locus members an avoiding element exists and a
    random draw finds it with overwhelming probability.
    """
    _check_prime(P, M)
    if not all(P.contains(g) for g in M.ideal.gens):
        raise ValueError("P does not contain the defining ideal")
    d = M.d
    if not 1 <= r < d:
        raise ValueError(f"r must satisfy 1 <= r < dim M = {d}")
    rng = random.Random(seed)
    degree = max((g.degree() for g in P.gens if not g.is_zero()), default=0)
    if degree < 1:
        raise ValueError("P has no positive-degree generators")
    elems = []
    J = M.ideal
    attempts = 0
    for i in range(1, r + 1):
        for _ in range(RETRIES):
            attempts += 1
            x = _random_element_of(P, degree, rng)
            if not x.is_zero() and _assoc_dim_witness(J, x) < d - i:
                break
        else:
            return ConstructionResult(False, None, attempts)
        elems.append(x)
        J = J + (x,)
    xs = ParamSequence(M.ring, elems)
    if not is_reducing_sop(xs, M).ok:
        raise RuntimeError("stepwise construction failed the final verification")
    return ConstructionResult(True, xs, attempts)


def cm_membership_general(P, M, seed):
    """Randomized one-sided locus membership for a homogeneous prime.

    Primality of P is the caller's assertion and is not verified.  With
    r = d - dim R/P, a successful construction of a reducing part inside
    P makes P minimal of top dimension over the quotient ideal, hence an
    associated prime of the quotient, which proves membership in the
    r-stratum; the construction's final reducing check has verified its
    dimension drop.  Construction failure is reported as inconclusive.  The
    dim R/P = 0 case (the irrelevant ideal) falls back to the exact depth
    oracle, where membership means M itself is Cohen-Macaulay.
    """
    _check_prime(P, M)
    P.groebner_basis()  # the one kernel run: is_proper reads its leading monomials
    if not P.is_proper():
        raise ValueError("P must be proper")
    d = M.d
    if not all(P.contains(g) for g in M.ideal.gens):
        return CmLocusEntry(P, "non_member", P.dim_quotient(),
                            reason="outside the support")
    dim_point = P.dim_quotient()
    r = d - dim_point
    if r == 0:
        # P contains I with dim R/P = d: a minimal prime of top dimension
        return CmLocusEntry(P, "member", dim_point, r=0,
                            certificate=ParamSequence(M.ring, ()),
                            reason="minimal prime of maximal dimension")
    if dim_point == 0:
        depth = depth_oracle(M, seed)
        if depth == d:
            return CmLocusEntry(P, "member", 0, r=d, dim_local=d,
                                depth_local=d,
                                reason="module is Cohen-Macaulay")
        return CmLocusEntry(P, "non_member", 0, r=d, dim_local=d,
                            depth_local=depth,
                            reason="module is not Cohen-Macaulay")
    res = construct_reducing_part_in_prime(M, P, r, seed)
    if not res.ok:
        return CmLocusEntry(P, "inconclusive", dim_point, r=r,
                            reason="randomized construction exhausted its retries")
    xs = res.sequence
    if not all(P.contains(x) for x in xs):
        raise RuntimeError("constructed element escaped P")
    return CmLocusEntry(P, "member", dim_point, r=r, certificate=xs)
