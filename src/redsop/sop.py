"""Parameter-sequence predicates and Cohen-Macaulay tests for cyclic modules.

Everything works on M = R/I for a proper homogeneous ideal I of a graded
polynomial ring, viewed through the graded-local dictionary: dimension,
depth, associated primes and the Cohen-Macaulay property of homogeneous
quotients agree with those of the localization at the irrelevant ideal.

The engine never enumerates associated primes of a general ideal.  The
one question it needs, whether x lies in an associated prime of R/J of
dimension at least t, is decided through the kernel K = (0 :_{R/J} x)
= (J : x)/J of multiplication by x.  K is Hom(R/(x), R/J), and
Ass Hom(N, M) = Supp N cap Ass M (Bruns & Herzog, Cohen-Macaulay Rings,
ch. 1), so Ass K is the set of associated primes of R/J containing x:

    max{dim R/P : P in Ass R/J, x in P} = dim K,

with the convention -1 when x is a non-zero-divisor, i.e. when K
vanishes.  The x-power torsion T = S/J, S = (J : x^inf), has the same
associated primes and the same dimension; its annihilator W = (J : S)
is built only for the witness a failed reducing check returns.

K is read off Hilbert series, with no colon.  For homogeneous J and x
of degree e the exact sequence

    0 -> K(-e) -> (R/J)(-e) -> R/J -> R/(J + x) -> 0

gives t^e HS(K) = HS(R/(J + x)) - (1 - t^e) HS(R/J).  Over (1 - t)^n the
right side has numerator N(J + x) - (1 - t^e) N(J), so x is a
non-zero-divisor exactly when N(J + x) = (1 - t^e) N(J), and otherwise
dim K is the pole order of that numerator at t = 1, read off grevlex
leading-term ideals once per ideal.  _assoc_dim_witness is this one
kernel test: depth cuts, regular sequences, the avoidance question and
the last step of the Cohen-Macaulay test all call it.  A walk along a
sequence reads the sections I, I + (x_1), ..., I + (x_1..x_r) through
``+``, and an ideal keeps its last sum, so each section, with its basis
and numerator, is built once: random_sop, make_reducing's check and the
last test of is_cm_reducing share the sections of the sop they accept.

A depth level whose first draw x is a zero-divisor runs one colon,
Q = J : x: when (1 - t)^n divides N(J) - N(Q), the kernel Q/J is a
nonzero module of finite length, its one associated prime m is
associated to R/J, and the depth is 0.  Only where that test fails does
the socle colon (J : m) != J decide.  The verification suites pin these
identities against the combinatorial oracle on monomial input.
"""

from __future__ import annotations

import random
from itertools import accumulate, zip_longest

from .groebner import Ideal
from .monomial import (
    _rank,
    ass_monomial,
    member_of_monomial_prime,
    times_one_minus,
)
from .poly import (
    HomogeneityError,
    Polynomial,
    _Record,
    monomials_of_degree,
)

# Random draws per degree in a search step; make_reducing tries the
# identity first, then RETRIES transforms of a full sop.
RETRIES = 32
# Highest degree of the forms a search step draws once its linear draws fail.
CUT_DEGREE_CAP = 5


class RetryBudgetError(RuntimeError):
    """A verified randomized search ran out of retries.

    Expected only over tiny coefficient fields; over the default field the
    failure probability of any single draw is negligible.
    """


class CyclicModule(_Record):
    """M = R/I for a proper homogeneous ideal I; caches d = dim M.

    The module is its ideal: ``CyclicModule(R.ideal("XY", "XZ"))`` is
    R/(XY, XZ), its ring is the ideal's ring, and two modules are equal
    exactly when their ideals are.
    """

    __slots__ = _fields = ("ideal", "d")
    __hash__ = None

    def __init__(self, ideal):
        self.ideal = ideal
        for g in ideal.gens:
            if not g.is_homogeneous():
                raise HomogeneityError(f"generator {g} is not homogeneous")
        if not self.ideal.is_proper():
            raise ValueError("defining ideal is the unit ideal: zero module")
        self.d = self.ideal.dim_quotient()

    @property
    def ring(self):
        return self.ideal.ring

    def __str__(self):
        return f"{self.ring}/{self.ideal}"


class ParamSequence:
    """Candidate sequence of homogeneous positive-degree ring elements."""

    __slots__ = ("ring", "elems")

    def __init__(self, ring, elems):
        elems = tuple(elems)
        for x in elems:
            if not isinstance(x, Polynomial) or x.ring != ring:
                raise ValueError("ring mismatch")
            if not x.is_homogeneous():
                raise HomogeneityError(f"{x} is not homogeneous")
            if x.degree() < 1:
                raise ValueError(f"{x} does not have positive degree")
        self.ring = ring
        self.elems = elems

    @classmethod
    def parse(cls, ring, text):
        """Parse a semicolon-separated list of polynomial expressions."""
        text = text.strip()
        if not text:
            return cls(ring, ())
        return cls(ring, tuple(ring.poly(part) for part in text.split(";")))

    @property
    def r(self):
        return len(self.elems)

    def prefix(self, k):
        return ParamSequence(self.ring, self.elems[:k])

    def permuted(self, order):
        return ParamSequence(self.ring, tuple(self.elems[i] for i in order))

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def __eq__(self, other):
        if not isinstance(other, ParamSequence):
            return NotImplemented
        return self.ring == other.ring and self.elems == other.elems

    def __str__(self):
        return "; ".join(str(x) for x in self.elems)


class ViolationWitness(_Record):
    """Certificate for a failed sequence check.

    ``kind`` is ``"not_system_of_parameters"`` (the quotient dimension is
    off; ``ideal`` is the quotient-defining ideal) or
    ``"associated_prime"`` (element ``index``, 1-based, lies in an
    associated prime of dimension ``dim`` >= ``threshold``; ``ideal`` is
    the annihilator of the torsion it witnesses).  ``prime`` carries an
    explicit monomial witness when the oracle applies.
    """

    __slots__ = _fields = ("kind", "dim", "index", "threshold", "ideal", "prime")
    __hash__ = None

    def __init__(self, kind, dim, index=None, threshold=None, ideal=None, prime=None):
        self.kind, self.dim, self.index = kind, dim, index
        self.threshold, self.ideal, self.prime = threshold, ideal, prime


class ReducingCheck(_Record):
    __slots__ = _fields = ("ok", "witness")
    __hash__ = None

    def __init__(self, ok, witness=None):
        self.ok, self.witness = ok, witness

    def __bool__(self):
        return self.ok


class ConstructionResult(_Record):
    """Outcome of a verified randomized construction."""

    __slots__ = _fields = ("ok", "sequence", "attempts", "witness")
    __hash__ = None

    def __init__(self, ok, sequence, attempts, witness=None):
        self.ok, self.sequence, self.attempts, self.witness = ok, sequence, attempts, witness


class CmCertificate(_Record):
    """Data behind a Cohen-Macaulay verdict from the reducing-sop test.

    ``last_is_nzd`` says whether the last element of the reducing sop is
    a non-zero-divisor modulo the others, decided by Hilbert series.
    """

    __slots__ = _fields = ("d", "sop", "last_is_nzd")
    __hash__ = None

    def __init__(self, d, sop, last_is_nzd):
        self.d, self.sop, self.last_is_nzd = d, sop, last_is_nzd


# ---------------------------------------------------------------------------
# basic operations

def is_part_of_sop(xs, M):
    """Whether the sequence is (part of) a system of parameters of M."""
    r = xs.r
    if r > M.d:
        raise ValueError(f"sequence longer ({r}) than dim M ({M.d})")
    J = M.ideal + xs.elems if r else M.ideal
    return J.dim_quotient() == M.d - r


def max_assoc_dim_containing(x, N):
    """Largest dim R/P over associated primes P of N that contain x.

    Returns -1 when x is a non-zero-divisor on N.  See the module
    docstring for why the dimension of the kernel of x decides this.  x
    must be homogeneous (HomogeneityError otherwise), as the Hilbert
    test needs.
    """
    return _assoc_dim_witness(N.ideal, x)


def _difference(a, b):
    """The coefficient list of a(t) - b(t)."""
    return [u - v for u, v in zip_longest(a, b, fillvalue=0)]


def _pole_order(n, num):
    """Order of the pole of num(t) / (1 - t)^n at t = 1, for a nonzero num.

    n minus the multiplicity of t = 1 as a root of num.  For the Hilbert
    series of a nonzero graded module this is its dimension, and 0
    exactly when the module has finite length (Bruns & Herzog 4.1).
    """
    if not any(num):
        raise ValueError("the zero series has no pole")
    while not sum(num):  # num(1) = 0: divide by 1 - t, whose quotient has the partial sums
        num = list(accumulate(num))[:-1]
        n -= 1
    return n


def _assoc_dim_witness(J, x):
    """dim (0 :_{R/J} x): its pole order at t = 1, -1 for a non-zero-divisor.

    The one kernel test (see the module docstring); x must be homogeneous.
    """
    if not x.is_homogeneous():
        raise HomogeneityError(f"{x} is not homogeneous")
    num = _difference((J + (x,)).hilbert_numerator(),
                      times_one_minus(J.hilbert_numerator(), x.degree()))
    return _pole_order(J.ring.n, num) if any(num) else -1


def _has_depth_zero(J, x):
    """Whether the irrelevant ideal m is associated to R/J, given a zero-divisor x on it.

    The kernel (J : x)/J of x is nonzero, and its associated primes are
    the associated primes of R/J that contain x.  When it has finite
    length, that is (1 - t)^n divides N(J) - N(J : x), they are {m}.
    Otherwise the socle colon (J : m) != J decides.
    """
    kernel = _difference(J.hilbert_numerator(), J.quotient(x).hilbert_numerator())
    if _pole_order(J.ring.n, kernel) == 0:
        return True
    return J.quotient_ideal(J.ring.irrelevant_ideal()) != J


def _monomial_prime_witness(J, x, dim):
    """Explicit associated monomial prime when the oracle applies."""
    if J.monomial_exponents() is None:
        return None
    try:
        primes = [P for P in ass_monomial(J)
                  if P.dim == dim and member_of_monomial_prime(x, P)]
    except ValueError:
        return None
    if not primes:
        return None
    return min(primes, key=lambda P: P.sorted_vars())


def is_reducing_sop(xs, M):
    """Decide whether xs is a reducing system of parameters of M, or part of one.

    A sequence of length r <= d = dim M qualifies when it is part of a
    system of parameters (the quotient has dimension d - r) and each x_i,
    for i <= min(r, d - 1), avoids every associated prime of
    M/(x_1..x_{i-1})M of dimension >= d - i.  For r = d this is the
    defining equality dim R/P = d - i: a hit in dimension > d - i would
    already contradict the dimension drop of a system of parameters.  The
    literal-definition suite pins this equivalence on monomial corpora.
    """
    d = M.d
    if xs.r > d:
        raise ValueError(f"sequence longer ({xs.r}) than dim M ({d})")
    J = M.ideal
    for x in xs:
        J = J + (x,)
    dim = J.dim_quotient()
    if dim != d - xs.r:
        return ReducingCheck(False, ViolationWitness(
            kind="not_system_of_parameters", dim=dim, ideal=J))
    J = M.ideal  # the step walk reads the sums the dimension walk built
    for i in range(1, min(xs.r, d - 1) + 1):
        x = xs[i - 1]
        found = _assoc_dim_witness(J, x)
        if found >= d - i:
            return ReducingCheck(False, ViolationWitness(
                kind="associated_prime", dim=found, index=i, threshold=d - i,
                ideal=J.quotient_ideal(J.saturation(x)),
                prime=_monomial_prime_witness(J, x, found)))
        J = J + (x,)
    return ReducingCheck(True)


def is_regular_sequence(xs, M):
    """Each element a non-zero-divisor modulo its predecessors."""
    J = M.ideal
    for x in xs:
        if _assoc_dim_witness(J, x) >= 0:
            return False
        J = J + (x,)
    return J.is_proper()


# ---------------------------------------------------------------------------
# randomized constructions (verified step by step, deterministic per seed)

def _random_coeff(ring, rng):
    if ring.p:
        return rng.randrange(ring.p)
    return rng.randint(-99, 99)


def random_homogeneous(ring, degree, rng, allow_zero=False):
    """Random homogeneous polynomial of the given total degree."""
    while True:
        terms = {}
        for m in monomials_of_degree(ring.n, degree):
            c = ring.coeff(_random_coeff(ring, rng))
            if c:
                terms[m] = c
        if terms or allow_zero:
            return Polynomial(ring, terms, _raw=True)


def _random_invertible(m, ring, rng):
    """Random m x m matrix of full rank over the coefficient field."""
    while True:
        rows = [[_random_coeff(ring, rng) for _ in range(m)] for _ in range(m)]
        if _rank([{j: v for j, v in enumerate(row) if v} for row in rows], ring.p) == m:
            return rows


def _degree_block_transform(xs, rng):
    """Random invertible change of the sequence preserving the ideal.

    Elements of equal degree are mixed by a random invertible matrix over
    the field (mixing across degrees would break homogeneity); the result
    is then randomly permuted.  Both steps are unimodular, so the
    generated ideal is unchanged.
    """
    ring = xs.ring
    by_degree = {}
    for idx, x in enumerate(xs):
        by_degree.setdefault(x.degree(), []).append(idx)
    new_elems = list(xs.elems)
    for indices in by_degree.values():
        m = len(indices)
        if m == 1:
            continue
        mat = _random_invertible(m, ring, rng)
        block = [xs[i] for i in indices]
        for row, idx in zip(mat, indices):
            acc = ring.zero
            for c, x in zip(row, block):
                acc = acc + x.scale(c)
            new_elems[idx] = acc
    perm = list(range(len(new_elems)))
    rng.shuffle(perm)
    return ParamSequence(ring, tuple(new_elems[i] for i in perm))


def make_reducing(xs, M, seed):
    """Rearrange a system of parameters, or part of one, into a reducing one.

    Applies verified random degree-preserving invertible transforms (the
    identity first), so the output generates the same ideal as the input.
    A part (r < d) gets the identity only: by the paper's Theorem 1 it is
    reducing when any same-ideal sequence is, so its failure is a verdict
    with the checker's witness.  A full sop gets RETRIES transforms more.
    The identity's check also decides sop-ness (ValueError otherwise), and
    only a transform that passes is compared with the input's ideal.
    """
    rng = random.Random(seed)
    best = None
    tries = RETRIES + 1 if xs.r == M.d else 1
    for attempt in range(tries):
        ys = xs if attempt == 0 else _degree_block_transform(xs, rng)
        check = is_reducing_sop(ys, M)
        if check.ok:
            if attempt and Ideal(M.ring, ys.elems) != Ideal(M.ring, xs.elems):
                raise RuntimeError("transform changed the generated ideal")
            return ConstructionResult(True, ys, attempt)
        if check.witness.kind == "not_system_of_parameters":
            raise ValueError("input is not part of a system of parameters")
        w = check.witness  # keep the one showing the deepest progress
        best = w if best is None or (w.index or 0) > (best.index or 0) else best
    return ConstructionResult(False, None, tries, best)


def _ladder(ring, rng):
    """RETRIES random forms of each degree 1..CUT_DEGREE_CAP, linear first.

    Over a small field every linear form can fail where a higher degree
    works (graded prime avoidance; Bruns & Herzog 1.5.12).
    """
    for draw in range(RETRIES * CUT_DEGREE_CAP):
        yield random_homogeneous(ring, 1 + draw // RETRIES, rng)


def random_sop(M, seed):
    """Random system of parameters, each element drawn from the degree ladder.

    Each prefix is verified to drop the dimension by exactly one, so the
    returned sequence is a certified sop; deterministic per seed.
    """
    rng = random.Random(seed)
    elems = []
    J = M.ideal
    d = M.d
    for i in range(1, d + 1):
        for x in _ladder(M.ring, rng):
            K = J + (x,)
            if K.dim_quotient() == d - i:
                elems.append(x)
                J = K
                break
        else:
            raise RetryBudgetError(f"no parameter found at step {i}")
    return ParamSequence(M.ring, elems)


def depth_with_certificate(M, seed=0):
    """Depth of M together with the verified regular sequence it used.

    Every cut, a form from the degree ladder, is a non-zero-divisor
    verified by Hilbert series, so the count is exact.  A level ends the
    search with depth 0 when R/J is Artinian (dim 0, checked before any
    draw), or when its first draw x is a zero-divisor and m is
    associated to R/J: either the kernel (J : x)/J has finite length,
    read off the Hilbert series of the one colon J : x, or, as the
    fallback, the socle colon (J : m) != J finds a nonzero socle.  A
    nonzero socle makes every draw a zero-divisor, so drawing first
    changes no answer.  Only a level whose first draw is a zero-divisor
    runs a colon, and a generic linear form is one only at depth 0.
    """
    rng = random.Random(seed)
    ring = M.ring
    J = M.ideal
    cuts = []
    while J.dim_quotient() > 0:
        for draw, x in enumerate(_ladder(ring, rng)):
            if _assoc_dim_witness(J, x) < 0:
                J = J + (x,)
                cuts.append(x)
                break
            if draw == 0 and _has_depth_zero(J, x):
                return len(cuts), cuts
        else:
            raise RetryBudgetError(f"no non-zero-divisor found at depth {len(cuts)}")
        if len(cuts) > ring.n:
            raise RuntimeError("depth exceeded the number of variables")
    return len(cuts), cuts


def depth_oracle(M, seed=0):
    """Depth of M by greedy certified cuts with random forms, linear first."""
    return depth_with_certificate(M, seed)[0]


def is_cm_reducing(M, seed):
    """Cohen-Macaulay test by one non-zero-divisor test on a reducing sop.

    Builds a verified random sop, rearranges it into a reducing one, and
    returns whether the last element is a non-zero-divisor modulo the
    others, decided by Hilbert series; for a reducing system of
    parameters this single test decides the Cohen-Macaulay property.
    """
    if M.d == 0:
        return True, CmCertificate(0, None, None)
    rng = random.Random(seed)
    s1 = rng.getrandbits(64)
    s2 = rng.getrandbits(64)
    xs = random_sop(M, s1)
    res = make_reducing(xs, M, s2)
    if not res.ok:
        raise RetryBudgetError("failed to build a reducing system of parameters")
    ys = res.sequence
    J = M.ideal
    for y in ys.elems[:-1]:
        J = J + (y,)
    nzd = _assoc_dim_witness(J, ys[-1]) < 0
    return nzd, CmCertificate(M.d, ys, nzd)
