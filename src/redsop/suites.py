"""Seeded verification suites cross-checking the engine against oracles.

A suite is a law over one module: ``suite_x(res, M, rng)`` evaluates one
family of identities or equivalences on the monomial module M, draws
whatever else it needs from M's own generator ``rng``, records every
check in ``res`` and counts zero, one or several instances, stopping
once ``res.done``.  :func:`run_suites` is the one driver: it draws the
modules, counts them against the target and stops.  A failure keeps
the first counterexample, serialized well enough to replay by hand.
The suites back both the ``check-theorems`` command and the acceptance
tests.
"""

from __future__ import annotations

import itertools
import random

from .cmlocus import (
    cm_locus_monomial_r,
    cm_membership_general,
    cm_membership_monomial,
    construct_reducing_part_in_prime,
)
from .corpus import (
    default_ring,
    greedy_monomial_sequence,
    module_stream,
    random_homogeneous_element,
    random_monomial,
    random_monomial_exact,
    random_monomial_ideal,
)
from .groebner import Ideal
from .monomial import (
    MonomialPrime,
    ass_monomial,
    assh_monomial,
    irreducible_decomposition,
    localize_at_monomial_prime,
    member_of_monomial_prime,
    monomial_intersection,
    monomial_primes_over,
    oracle_dim,
    restrict_monomial_poly,
)
from .poly import Polynomial, _Record, mono_lcm
from .sop import (
    CyclicModule,
    ParamSequence,
    depth_oracle,
    is_cm_reducing,
    is_part_of_sop,
    is_reducing_sop,
    is_regular_sequence,
    make_reducing,
    max_assoc_dim_containing,
    random_homogeneous,
    random_sop,
)

EXAMPLE_IDEAL_GENS = ("XY", "XZ")


def example_module(p=32003):
    """The canonical 2-dimensional non-CM fixture k[X,Y,Z]/(XY, XZ)."""
    ring = default_ring(3, p)
    return CyclicModule(ring.ideal(*EXAMPLE_IDEAL_GENS))


class SuiteResult(_Record):
    __slots__ = _fields = ("name", "instances", "checks", "violations", "first_counterexample",
                           "target")
    __hash__ = None

    def __init__(self, name, instances=0, checks=0, violations=0, first_counterexample=None,
                 target=0):
        self.name, self.instances, self.checks = name, instances, checks
        self.violations, self.first_counterexample = violations, first_counterexample
        self.target = target  # instances the driver asks for; not reported

    @property
    def passed(self):
        return self.violations == 0

    @property
    def done(self):
        return self.instances >= self.target

    def record(self, ok, detail):
        """Count one check; on the first failure keep the replay data."""
        self.checks += 1
        if not ok:
            self.violations += 1
            if self.first_counterexample is None:
                self.first_counterexample = detail() if callable(detail) else detail

    def to_dict(self):
        return {
            "suite": self.name,
            "instances": self.instances,
            "checks": self.checks,
            "violations": self.violations,
            "passed": self.passed,
            "first_counterexample": self.first_counterexample,
        }


def _fixture_detail(M, **extra):
    data = {
        "ring": str(M.ring),
        "ideal": [str(g) for g in M.ideal.gens],
    }
    data.update({k: str(v) if not isinstance(v, (int, bool, list, type(None))) else v
                 for k, v in extra.items()})
    return data


def _sub_seed(rng):
    return rng.getrandbits(64)


# ---------------------------------------------------------------------------
# kernel invariants

def _random_homogeneous_ideal(ring, rng):
    """Random homogeneous non-monomial test ideal: 1-3 linear and binomial gens."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            gens.append(random_homogeneous(ring, 1, rng))
        else:
            deg = rng.randint(1, 2)
            m1 = random_monomial(rng, ring.n, deg)
            m2 = random_monomial(rng, ring.n, deg)
            while sum(m2) != sum(m1):
                m2 = random_monomial(rng, ring.n, deg)
            c = rng.randrange(1, ring.p) if ring.p else rng.randint(1, 9)
            gens.append(Polynomial(ring, {m1: 1}) + Polynomial(ring, {m2: c}))
    return Ideal(ring, gens)


def _spoly_of(f, g):
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lmf, lmg)
    ring = f.ring
    mf = Polynomial(ring, {tuple(a - b for a, b in zip(lcm, lmf)): ring.coeff_inv(f.leading_coeff())})
    mg = Polynomial(ring, {tuple(a - b for a, b in zip(lcm, lmg)): ring.coeff_inv(g.leading_coeff())})
    return mf * f - mg * g


def _saturation_iterated(J, f):
    """Saturation as the stable value of the colon chain J, (J:f), ((J:f):f), ..."""
    while True:
        nxt = J.quotient(f)
        if nxt == J:
            return J
        J = nxt


def suite_kernel(res, M, rng):
    ring = M.ring
    J = M.ideal
    res.instances += 1

    # reduced-basis determinism under permutation and rescaling
    for K in (J, _random_homogeneous_ideal(ring, rng)):
        gens = list(K.gens)
        rng.shuffle(gens)
        scaled = []
        for g in gens:
            c = rng.randrange(1, ring.p) if ring.p else rng.randint(1, 9)
            scaled.append(g.scale(c))
        K2 = Ideal(ring, scaled)
        res.record(K.groebner_basis() == K2.groebner_basis(),
                   lambda: _fixture_detail(M, law="determinism", gens=str(K)))

    # basis postconditions on a non-monomial ideal
    H = _random_homogeneous_ideal(ring, rng)
    basis = H.groebner_basis()
    res.record(all(H.reduce(g).is_zero() for g in H.gens),
               lambda: _fixture_detail(M, law="generators reduce to zero", gens=str(H)))
    spolys_ok = True
    for a, b in itertools.combinations(basis, 2):
        if not H.reduce(_spoly_of(a, b)).is_zero():
            spolys_ok = False
    res.record(spolys_ok,
               lambda: _fixture_detail(M, law="s-polynomials reduce to zero", gens=str(H)))

    # colon laws
    f = random_homogeneous_element(ring, rng, 2)
    g = random_homogeneous_element(ring, rng, 2)
    Qf = J.quotient(f)
    res.record(all(Qf.contains(x) for x in J.gens),
               lambda: _fixture_detail(M, law="J inside (J : f)", f=f))
    res.record(Qf.quotient(g) == J.quotient(f * g),
               lambda: _fixture_detail(M, law="((J:f):g) = (J:fg)", f=f, g=g))
    sat = J.saturation(f)
    res.record(sat.quotient(f) == sat and sat == _saturation_iterated(J, f),
               lambda: _fixture_detail(M, law="saturation stability", f=f))
    res.record((Qf == J) == (not any(member_of_monomial_prime(f, P)
                                     for P in ass_monomial(J))),
               lambda: _fixture_detail(M, law="colon detects zero-divisors", f=f))

    # monomial colon shortcut agrees with the engine's tag route
    m = Polynomial(ring, {random_monomial(rng, ring.n, 2): 1})
    res.record(J.quotient(m) == J._tag_colon(m, saturate=False),
               lambda: _fixture_detail(M, law="colon route agreement", f=m))

    # intersection against the combinatorial oracle
    K = random_monomial_ideal(ring, rng, 3, 3)
    inter = J.intersect(K)
    res.record(inter == monomial_intersection(J, K),
               lambda: _fixture_detail(M, law="intersection vs oracle", other=str(K)))

    # dimension against the oracle
    res.record(J.dim_quotient() == oracle_dim(J),
               lambda: _fixture_detail(M, law="dimension vs oracle"))

    # homogeneity preservation
    derived = [J + (f,), Qf, sat, inter]
    res.record(all(all(b.is_homogeneous() for b in D.groebner_basis())
                   for D in derived),
               lambda: _fixture_detail(M, law="homogeneity preservation", f=f))

    # cached basis generates the same ideal: cross-reduce a fresh copy
    fresh = Ideal(ring, H.gens)
    res.record(all(fresh.reduce(b).is_zero() for b in basis),
               lambda: _fixture_detail(M, law="cache coherence", gens=str(H)))


# ---------------------------------------------------------------------------
# monomial-oracle internal laws

def suite_oracle(res, M, rng):
    J = M.ideal
    idx = res.instances
    res.instances += 1

    comps = irreducible_decomposition(J)
    inter = comps[0].to_ideal()
    for c in comps[1:]:
        inter = monomial_intersection(inter, c.to_ideal())
    res.record(inter == J, lambda: _fixture_detail(M, law="decomposition soundness"))
    if idx % 4 == 0:
        via_tag = comps[0].to_ideal()
        for c in comps[1:]:
            via_tag = via_tag.intersect(c.to_ideal())
        res.record(via_tag == J,
                   lambda: _fixture_detail(M, law="decomposition soundness (tag route)"))

    ass = ass_monomial(J)
    support = monomial_primes_over(J)
    for P in support:
        loc = localize_at_monomial_prime(J, P)
        got = {frozenset(q.vars) for q in ass_monomial(loc)}
        want = {frozenset(q.vars) for q in ass if q.vars <= P.vars}
        res.record(got == want,
                   lambda: _fixture_detail(M, law="ass-localization", prime=P))

    f = random_homogeneous_element(M.ring, rng, 3)
    res.record(any(member_of_monomial_prime(f, P) for P in ass)
               == (J.quotient(f) != J),
               lambda: _fixture_detail(M, law="zero-divisor law", f=f))

    d = oracle_dim(J)
    attained = False
    law_ok = True
    for P in support:
        loc = localize_at_monomial_prime(J, P)
        dim_loc = oracle_dim(loc) if P.vars else 0
        if P.dim + dim_loc > d:
            law_ok = False
        if P.dim + dim_loc == d:
            attained = True
    res.record(law_ok and attained,
               lambda: _fixture_detail(M, law="dimension law"))


# ---------------------------------------------------------------------------
# the dimension filter against explicit associated primes

def suite_dimension_filter(res, M, rng):
    res.instances += 1
    x = random_homogeneous_element(M.ring, rng, 3)
    got = max_assoc_dim_containing(x, M)
    dims = [P.dim for P in ass_monomial(M.ideal) if member_of_monomial_prime(x, P)]
    want = max(dims, default=-1)
    res.record(got == want,
               lambda: _fixture_detail(M, x=x, got=got, want=want))


# ---------------------------------------------------------------------------
# the reducing checker against the literal definition

def _literal_reducing(M, xs):
    """Brute-force definition: sop-ness plus the equality-threshold test."""
    d = oracle_dim(M.ideal)
    J = M.ideal + xs.elems
    if not J.is_proper() or oracle_dim(J) != 0:
        return False
    for i in range(1, d):
        prev = M.ideal + xs.elems[:i - 1]
        for P in ass_monomial(prev):
            if P.dim == d - i and member_of_monomial_prime(xs[i - 1], P):
                return False
    return True


def suite_reducing_literal(res, M, rng):
    candidates = []
    greedy = greedy_monomial_sequence(M, M.d, rng)
    if greedy is not None:
        candidates.append(greedy)
    for _ in range(2):
        elems = [Polynomial(M.ring, {random_monomial(rng, M.ring.n, 3): 1})
                 for _ in range(M.d)]
        candidates.append(ParamSequence(M.ring, elems))
    for xs in candidates:
        if res.done:
            break
        res.instances += 1
        got = is_reducing_sop(xs, M).ok
        want = _literal_reducing(M, xs)
        res.record(got == want,
                   lambda: _fixture_detail(M, seq=xs, got=got, want=want))


# ---------------------------------------------------------------------------
# the two Cohen-Macaulay tests agree

def suite_cm_equivalence(res, M, rng):
    res.instances += 1
    via_reducing, cert = is_cm_reducing(M, _sub_seed(rng))
    via_depth = depth_oracle(M, _sub_seed(rng)) == M.d
    res.record(via_reducing == via_depth,
               lambda: _fixture_detail(M, reducing=via_reducing, depth=via_depth,
                                       sop=cert.sop))


# ---------------------------------------------------------------------------
# regular sequences vs sops vs reducing parts

def suite_cm_regular(res, M, rng):
    res.instances += 1
    cm = depth_oracle(M, _sub_seed(rng)) == M.d
    for _ in range(2):
        sop = random_sop(M, _sub_seed(rng))
        res.record(is_regular_sequence(sop, M) == cm,
                   lambda: _fixture_detail(M, seq=sop, cm=cm,
                                           law="every/no sop is regular"))
    if cm and M.d >= 2:
        sop = random_sop(M, _sub_seed(rng))
        for r in range(1, M.d):
            part = sop.prefix(r)
            reg = is_regular_sequence(part, M)
            red = is_reducing_sop(part, M).ok
            sp = is_part_of_sop(part, M)
            res.record(reg and red and sp,
                       lambda: _fixture_detail(M, seq=part, law="CM equivalences",
                                               regular=reg, reducing=red, part=sp))
        # arbitrary short sequences: the three predicates coincide
        elems = [random_homogeneous(M.ring, 1, rng) for _ in range(rng.randint(1, M.d - 1))]
        xs = ParamSequence(M.ring, elems)
        reg = is_regular_sequence(xs, M)
        red = is_reducing_sop(xs, M).ok
        sp = is_part_of_sop(xs, M)
        res.record(reg == red == sp,
                   lambda: _fixture_detail(M, seq=xs, law="CM equivalences",
                                           regular=reg, reducing=red, part=sp))


# ---------------------------------------------------------------------------
# permutation invariance of reducing parts (r < d)

def _sampled_reducing_parts(M, rng):
    """A few verified reducing parts of M with 1 <= r < d: three tries, one greedy."""
    out = []
    if M.d < 2:
        return out
    m_ideal = M.ring.irrelevant_ideal()
    for _ in range(3):
        r = rng.randint(1, M.d - 1)
        res = construct_reducing_part_in_prime(M, m_ideal, r, _sub_seed(rng))
        if res.ok:
            out.append(res.sequence)
    xs = greedy_monomial_sequence(M, rng.randint(1, M.d - 1), rng)
    if xs is not None and is_reducing_sop(xs, M).ok:
        out.append(xs)
    return out


def _order_dependence(res, M, rng):
    """The pinned instance of ``permutation``: on the example module
    ``Y; X+Y+Z`` is not reducing and its reverse is (r = d)."""
    fwd = is_reducing_sop(ParamSequence.parse(M.ring, "Y; X+Y+Z"), M)
    rev = is_reducing_sop(ParamSequence.parse(M.ring, "X+Y+Z; Y"), M)
    res.instances += 1
    res.record(not fwd.ok and rev.ok,
               lambda: _fixture_detail(M, law="full-length order dependence"))


def suite_permutation(res, M, rng):
    for xs in _sampled_reducing_parts(M, rng):
        if res.done:
            break
        res.instances += 1
        ok = True
        for perm in itertools.permutations(range(xs.r)):
            if not is_reducing_sop(xs.permuted(perm), M).ok:
                ok = False
                break
        res.record(ok, lambda: _fixture_detail(M, seq=xs, perm=list(perm)))


# ---------------------------------------------------------------------------
# reducing parts vs localized Cohen-Macaulay points (r < d)

def suite_local_cm(res, M, rng):
    r = rng.randint(1, M.d - 1)
    xs = greedy_monomial_sequence(M, r, rng)
    if xs is None:
        return
    res.instances += 1
    verdict = is_reducing_sop(xs, M).ok
    conj = True
    for P in monomial_primes_over(M.ideal):
        if P.dim != M.d - r or not all(member_of_monomial_prime(x, P) for x in xs):
            continue
        entry = cm_membership_monomial(P, M, _sub_seed(rng))
        if not (entry.member and entry.r == r):
            conj = False
            break
    res.record(verdict == conj,
               lambda: _fixture_detail(M, seq=xs, verdict=verdict, local=conj))
    if verdict:
        built = make_reducing(xs, M, _sub_seed(rng))
        res.record(built.ok,
                   lambda: _fixture_detail(M, seq=xs, law="positive instance rebuilds"))


# ---------------------------------------------------------------------------
# localization stability of (reducing) parts at good monomial primes

def suite_localization(res, M, rng):
    r = rng.randint(1, M.d)
    xs = greedy_monomial_sequence(M, r, rng)
    if xs is None or not is_part_of_sop(xs, M):
        return
    reducing = is_reducing_sop(xs, M).ok
    for P in monomial_primes_over(M.ideal):
        if not all(member_of_monomial_prime(x, P) for x in xs):
            continue
        Mp = CyclicModule(localize_at_monomial_prime(M.ideal, P))
        if P.dim + Mp.d != M.d:
            continue
        res.instances += 1
        xs_p = ParamSequence(Mp.ring, [restrict_monomial_poly(x, P) for x in xs])
        if r > Mp.d:
            res.record(False, lambda: _fixture_detail(M, seq=xs, prime=P,
                                                      law="r exceeds local dimension"))
            continue
        res.record(is_part_of_sop(xs_p, Mp),
                   lambda: _fixture_detail(M, seq=xs, prime=P, law="localized part of sop"))
        if reducing:
            res.record(is_reducing_sop(xs_p, Mp).ok,
                       lambda: _fixture_detail(M, seq=xs, prime=P,
                                               law="localized reducing part"))
        if res.done:
            break


# ---------------------------------------------------------------------------
# minimal associated primes containing a zero-divisor survive the cut

def suite_zero_divisor(res, M, rng):
    x = Polynomial(M.ring, {random_monomial(rng, M.ring.n, 3): 1})
    hitting = [P for P in ass_monomial(M.ideal) if member_of_monomial_prime(x, P)]
    if not hitting:
        return  # not a zero-divisor on M
    res.instances += 1
    minimal = [P for P in hitting if not any(Q.vars < P.vars for Q in hitting)]
    after = ass_monomial(M.ideal + (x,))
    for P in minimal:
        res.record(P in after,
                   lambda: _fixture_detail(M, x=x, prime=P,
                                           after=[str(q) for q in sorted(after, key=lambda z: z.sorted_vars())]))


# ---------------------------------------------------------------------------
# support containment transfers part-of-sop downwards

def suite_support_containment(res, M, rng):
    ring = M.ring
    r = rng.randint(1, M.d)
    xs_elems = [random_homogeneous(ring, 1, rng) if rng.random() < 0.5
                else Polynomial(ring, {random_monomial(rng, ring.n, 2): 1})
                for _ in range(r)]
    xs = ParamSequence(ring, xs_elems)
    target = max(x.degree() for x in xs) + rng.randint(0, 1)
    Jx = M.ideal + xs.elems
    ys_elems = []
    pool = list(xs.elems) + [g for g in M.ideal.gens if not g.is_zero()]
    for _ in range(r):
        acc = ring.zero
        for b in pool:
            gap = target - b.degree()
            if gap < 0:
                continue
            mono = random_monomial_exact(rng, ring.n, gap)
            c = rng.randrange(ring.p) if ring.p else rng.randint(-9, 9)
            acc = acc + b * Polynomial(ring, {mono: c})
        if acc.is_zero():
            gap = max(target - xs[0].degree(), 0)
            acc = xs[0] * Polynomial(ring, {random_monomial_exact(rng, ring.n, gap): 1})
        ys_elems.append(acc)
    if any(y.degree() < 1 for y in ys_elems):
        return
    ys = ParamSequence(ring, ys_elems)
    res.instances += 1
    res.record(all(Jx.radical_contains(y) for y in ys),
               lambda: _fixture_detail(M, seq=ys, law="construction stays in the radical"))
    if is_part_of_sop(ys, M):
        res.record(is_part_of_sop(xs, M),
                   lambda: _fixture_detail(M, xs=xs, ys=ys,
                                           law="part-of-sop transfers down"))


# ---------------------------------------------------------------------------
# locus identities

def suite_locus_identities(res, M, rng):
    res.instances += 1
    locus0 = {e.prime for e in cm_locus_monomial_r(M, 0, _sub_seed(rng))}
    res.record(locus0 == assh_monomial(M.ideal),
               lambda: _fixture_detail(M, law="stratum 0 equals top associated primes"))
    if M.d >= 1:
        locus1 = {e.prime for e in cm_locus_monomial_r(M, 1, _sub_seed(rng))}
        ass = ass_monomial(M.ideal)
        want = {P for P in monomial_primes_over(M.ideal)
                if P.dim == M.d - 1} - ass
        res.record(locus1 == want,
                   lambda: _fixture_detail(M, law="stratum 1 formula",
                                           got=[str(p) for p in sorted(locus1, key=lambda z: z.sorted_vars())],
                                           want=[str(p) for p in sorted(want, key=lambda z: z.sorted_vars())]))
    full = MonomialPrime(M.ring, frozenset(M.ring.var_names))
    entry = cm_membership_monomial(full, M, _sub_seed(rng))
    res.record(entry.member == (depth_oracle(M, _sub_seed(rng)) == M.d),
               lambda: _fixture_detail(M, law="irrelevant ideal membership iff CM"))


# ---------------------------------------------------------------------------
# locus constructive round-trip

def suite_locus_roundtrip(res, M, rng):
    res.instances += 1
    d = M.d
    for P in monomial_primes_over(M.ideal):
        r = d - P.dim
        exact = cm_membership_monomial(P, M, _sub_seed(rng)).member
        if r == 0 or r >= d:
            if r == 0:
                res.record(exact == (P in assh_monomial(M.ideal)),
                           lambda: _fixture_detail(M, prime=P, law="r=0 members are Assh"))
            general = cm_membership_general(P.to_ideal(), M, _sub_seed(rng))
            res.record(general.member == exact, lambda: _fixture_detail(
                M, prime=P, law="general agrees at r=" + ("0" if r == 0 else "d")))
            continue
        built = construct_reducing_part_in_prime(M, P.to_ideal(), r, _sub_seed(rng))
        res.record(built.ok == exact,
                   lambda: _fixture_detail(M, prime=P, r=r, exact=exact,
                                           law="construction succeeds iff member"))
        general = cm_membership_general(P.to_ideal(), M, _sub_seed(rng))
        if general.status == "member":
            res.record(exact,
                       lambda: _fixture_detail(M, prime=P, law="member certificates confirmed"))
        elif general.status == "inconclusive":
            res.record(not exact,
                       lambda: _fixture_detail(M, prime=P, law="members never inconclusive"))


# ---------------------------------------------------------------------------
# constructor postconditions and determinism

def suite_construction(res, M, rng):
    res.instances += 1
    sop_seed = _sub_seed(rng)
    red_seed = _sub_seed(rng)
    xs = random_sop(M, sop_seed)
    res.record(xs == random_sop(M, sop_seed),
               lambda: _fixture_detail(M, law="random_sop determinism"))
    built = make_reducing(xs, M, red_seed)
    res.record(built.ok, lambda: _fixture_detail(M, seq=xs, law="make_reducing succeeds"))
    if built.ok:
        ys = built.sequence
        res.record(Ideal(M.ring, ys.elems) == Ideal(M.ring, xs.elems),
                   lambda: _fixture_detail(M, seq=ys, law="generated ideal preserved"))
        res.record(is_reducing_sop(ys, M).ok,
                   lambda: _fixture_detail(M, seq=ys, law="output verifies"))
        again = make_reducing(xs, M, red_seed)
        res.record(again.ok and again.sequence == ys,
                   lambda: _fixture_detail(M, seq=ys, law="make_reducing determinism"))


# name -> (suite, default instance count, least dim M it draws,
#          law run first on the example module as one more instance, or None)
SUITES = {
    "kernel": (suite_kernel, 200, 0, None),
    "oracle": (suite_oracle, 200, 0, None),
    "dimension-filter": (suite_dimension_filter, 200, 0, None),
    "reducing-literal": (suite_reducing_literal, 100, 1, None),
    "cm-equivalence": (suite_cm_equivalence, 200, 0, None),
    "cm-regular": (suite_cm_regular, 60, 1, None),
    "permutation": (suite_permutation, 100, 2, _order_dependence),
    "local-cm": (suite_local_cm, 100, 2, None),
    "localization": (suite_localization, 100, 1, None),
    "zero-divisor": (suite_zero_divisor, 100, 0, None),
    "support-containment": (suite_support_containment, 100, 1, None),
    "locus-identities": (suite_locus_identities, 100, 0, None),
    "locus-roundtrip": (suite_locus_roundtrip, 50, 0, suite_locus_roundtrip),
    "construction": (suite_construction, 60, 1, None),
}


def selected_suites(names):
    """Every suite when the list is empty or holds ``all``, else the names;
    ValueError on a name that is neither a suite nor ``all``."""
    for name in names:
        if name != "all" and name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    return list(SUITES) if not names or "all" in names else list(names)


def run_suites(names, seed, count=None, **opts):
    """Run the named suites (or all); the one driver every suite runs under.

    A suite checks one module; the driver draws, counts and stops.  Per
    suite it seeds a master generator from the seed and the suite's
    name and sets the target to ``count`` instances (the suite's default
    when None).  A suite with a pinned law runs it first on the example
    module, with the master as its rng, and reaches for one instance
    more.  The driver then seeds :func:`module_stream` from the master
    and hands the suite one module of at least its min_dim, with that
    module's rng, until the suite has counted its target.
    """
    results = []
    for name in selected_suites(names):
        suite, default_count, min_dim, pinned = SUITES[name]
        res = SuiteResult(name, target=default_count if count is None else count)
        master = random.Random(random.Random(f"{seed}:{name}").getrandbits(64))
        if pinned is not None:
            res.target += 1
            pinned(res, example_module(opts.get("p", 32003)), master)
        stream = module_stream(_sub_seed(master), min_dim=min_dim, **opts)
        while not res.done:
            suite(res, *next(stream))
        results.append(res)
    return results
