"""Parameter-sequence predicates and Cohen-Macaulay tests for cyclic modules.

Everything works on M = R/I for a proper homogeneous ideal I of a graded
polynomial ring, viewed through the graded-local dictionary: dimension,
depth, associated primes and the Cohen-Macaulay property of homogeneous
quotients agree with those of the localization at the irrelevant ideal.

The engine never enumerates associated primes of a general ideal.  The
one question it needs, whether x lies in an associated prime of R/J of
dimension at least t, is decided through the x-power torsion
T = (J : x^inf)/J.  Its annihilator is W = (J : (J : x^inf)); Supp T is
V(W); every associated prime of R/J containing x supports T, and every
minimal prime of Supp T is an associated prime of R/J containing x.
Hence

    max{dim R/P : P in Ass R/J, x in P} = dim R/W,

with the convention -1 when x is a non-zero-divisor, i.e. when the
saturation equals J and the torsion vanishes.  The verification suites
pin this identity against the combinatorial oracle on monomial input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .groebner import Ideal
from .monomial import ass_monomial, member_of_monomial_prime
from .poly import (
    HomogeneityError,
    Polynomial,
    monomials_of_degree,
)


class RetryBudgetError(RuntimeError):
    """A verified randomized search ran out of retries.

    Expected only over tiny coefficient fields; over the default field the
    failure probability of any single draw is negligible.
    """


@dataclass
class CyclicModule:
    """M = R/I for a proper homogeneous ideal I; caches d = dim M."""

    ring: object
    ideal: Ideal
    d: int = field(init=False)

    def __post_init__(self):
        if self.ideal.ring != self.ring:
            raise ValueError("ring mismatch")
        for g in self.ideal.gens:
            if not g.is_homogeneous():
                raise HomogeneityError(f"generator {g} is not homogeneous")
        if not self.ideal.is_proper():
            raise ValueError("defining ideal is the unit ideal: zero module")
        self.d = self.ideal.dim_quotient()

    def __eq__(self, other):
        if not isinstance(other, CyclicModule):
            return NotImplemented
        return self.ring == other.ring and self.ideal == other.ideal

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


@dataclass
class ViolationWitness:
    """Certificate for a failed sequence check.

    ``kind`` is ``"not_system_of_parameters"`` (the quotient dimension is
    off; ``ideal`` is the quotient-defining ideal) or
    ``"associated_prime"`` (element ``index``, 1-based, lies in an
    associated prime of dimension ``dim`` >= ``threshold``; ``ideal`` is
    the annihilator of the torsion it witnesses).  ``prime`` carries an
    explicit monomial witness when the oracle applies.
    """

    kind: str
    dim: int
    index: int | None = None
    threshold: int | None = None
    ideal: Ideal | None = None
    prime: object | None = None


@dataclass
class ReducingCheck:
    ok: bool
    witness: ViolationWitness | None = None

    def __bool__(self):
        return self.ok


@dataclass
class ConstructionResult:
    """Outcome of a verified randomized construction."""

    ok: bool
    sequence: ParamSequence | None
    attempts: int
    witness: ViolationWitness | None = None


@dataclass
class CmCertificate:
    """Data behind a Cohen-Macaulay verdict from the one-colon test."""

    d: int
    sop: ParamSequence | None
    last_is_nzd: bool | None


# ---------------------------------------------------------------------------
# basic operations

def quotient_module(M, xs):
    """M/(x1..xr)M as a cyclic module; None when the quotient is zero."""
    if xs.r == 0:
        return M
    J = M.ideal + xs.elems
    if not J.is_proper():
        return None
    return CyclicModule(M.ring, J)


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
    docstring for why the torsion annihilator decides this.
    """
    dim, _ = _assoc_dim_witness(x, N.ideal)
    return dim


def _assoc_dim_witness(x, J):
    sat = J.saturation(x)
    if sat == J:
        return -1, None
    W = J.quotient_ideal(sat)
    return W.dim_quotient(), W


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


def _reducing_violations(xs, M, upto):
    """First violated avoidance condition among steps 1..upto, else None."""
    J = M.ideal
    d = M.d
    for i in range(1, upto + 1):
        x = xs[i - 1]
        threshold = d - i
        found, W = _assoc_dim_witness(x, J)
        if found >= threshold:
            prime = _monomial_prime_witness(J, x, found)
            return ViolationWitness(
                kind="associated_prime",
                dim=found,
                index=i,
                threshold=threshold,
                ideal=W,
                prime=prime,
            )
        J = J + (x,)
    return None


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
    r = xs.r
    if r > d:
        raise ValueError(f"sequence longer ({r}) than dim M ({d})")
    J = M.ideal + xs.elems if r else M.ideal
    dim = J.dim_quotient()
    if dim != d - r:
        return ReducingCheck(False, ViolationWitness(
            kind="not_system_of_parameters", dim=dim, ideal=J))
    witness = _reducing_violations(xs, M, min(r, d - 1))
    return ReducingCheck(witness is None, witness)


def is_regular_sequence(xs, M):
    """Each element a non-zero-divisor modulo its predecessors."""
    J = M.ideal
    for x in xs:
        if J.quotient(x) != J:
            return False
        J = J + (x,)
    return J.is_proper()


# ---------------------------------------------------------------------------
# randomized constructions (verified step by step, deterministic per seed)

def _random_coeff(ring, rng):
    if ring.p:
        return rng.randrange(ring.p)
    return rng.randint(-99, 99)


def random_linear_form(ring, rng):
    """Random nonzero degree-one form."""
    n = ring.n
    while True:
        coeffs = [_random_coeff(ring, rng) for _ in range(n)]
        terms = {}
        for i, c in enumerate(coeffs):
            c = ring.coeff(c)
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        if terms:
            return Polynomial(ring, terms, _raw=True)


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


def _det(rows, ring):
    """Determinant over the coefficient field by Gaussian elimination."""
    m = len(rows)
    a = [[ring.coeff(v) for v in row] for row in rows]
    det = ring.coeff(1)
    p = ring.p
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col]), None)
        if pivot is None:
            return ring.coeff(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det % p if p else -det
        pv = a[col][col]
        det = det * pv % p if p else det * pv
        inv = ring.coeff_inv(pv)
        for r in range(col + 1, m):
            factor = a[r][col] * inv
            if p:
                factor %= p
            if not factor:
                continue
            for c2 in range(col, m):
                v = a[r][c2] - factor * a[col][c2]
                a[r][c2] = v % p if p else v
    return det


def _random_invertible(m, ring, rng):
    while True:
        rows = [[_random_coeff(ring, rng) for _ in range(m)] for _ in range(m)]
        if _det(rows, ring):
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


def _better(old, new):
    """Prefer the witness showing the deepest progress."""
    if old is None:
        return new
    if new is None:
        return old
    return new if (new.index or 0) > (old.index or 0) else old


def make_reducing(xs, M, seed, max_retries=32):
    """Rearrange a system of parameters, or part of one, into a reducing one.

    Applies verified random degree-preserving invertible transforms (the
    identity first), so the output generates the same ideal as the input.
    For r < d a success therefore certifies the input itself as part of a
    reducing system of parameters, and failure after the budget is the
    expected outcome on negative instances: the operation doubles as an
    equivalence probe.
    """
    if not is_part_of_sop(xs, M):
        raise ValueError("input is not part of a system of parameters")
    rng = random.Random(seed)
    best = None
    for attempt in range(max_retries + 1):
        ys = xs if attempt == 0 else _degree_block_transform(xs, rng)
        check = is_reducing_sop(ys, M)
        if check.ok:
            if Ideal(M.ring, ys.elems) != Ideal(M.ring, xs.elems):
                raise RuntimeError("transform changed the generated ideal")
            return ConstructionResult(True, ys, attempt)
        best = _better(best, check.witness)
    return ConstructionResult(False, None, max_retries + 1, best)


def random_sop(M, seed, max_retries=32):
    """Random system of parameters made of degree-one forms.

    Each prefix is verified to drop the dimension by exactly one, so the
    returned sequence is a certified sop; deterministic per seed.
    """
    rng = random.Random(seed)
    elems = []
    J = M.ideal
    d = M.d
    for i in range(1, d + 1):
        for _ in range(max_retries):
            x = random_linear_form(M.ring, rng)
            K = J + (x,)
            if K.dim_quotient() == d - i:
                elems.append(x)
                J = K
                break
        else:
            raise RetryBudgetError(f"no parameter found at step {i}")
    return ParamSequence(M.ring, elems)


def depth_with_certificate(M, seed=0, max_retries=32):
    """Depth of M together with the verified regular sequence it used.

    depth = 0 is certified by (J : m) != J, i.e. a nonzero socle; every
    cut is a verified non-zero-divisor, so the count is exact.  The socle
    test runs only once the first draw at a level is a zero-divisor: a
    nonzero socle makes every draw one, so drawing first changes no answer.
    """
    rng = random.Random(seed)
    ring = M.ring
    m_ideal = ring.irrelevant_ideal()
    J = M.ideal
    cuts = []
    while True:
        for attempt in range(max_retries):
            x = random_linear_form(ring, rng)
            if J.quotient(x) == J:
                J = J + (x,)
                cuts.append(x)
                break
            if attempt == 0 and J.quotient_ideal(m_ideal) != J:
                return len(cuts), cuts
        else:
            raise RetryBudgetError(f"no non-zero-divisor found at depth {len(cuts)}")
        if len(cuts) > ring.n:
            raise RuntimeError("depth exceeded the number of variables")


def depth_oracle(M, seed=0, max_retries=32):
    """Depth of M by greedy certified cuts with random degree-one forms."""
    return depth_with_certificate(M, seed, max_retries)[0]


def is_cm_reducing(M, seed, max_retries=32):
    """Cohen-Macaulay test by one colon comparison on a reducing sop.

    Builds a verified random sop, rearranges it into a reducing one, and
    returns whether the last element is a non-zero-divisor modulo the
    others; for a reducing system of parameters this single test decides
    the Cohen-Macaulay property.
    """
    if M.d == 0:
        return True, CmCertificate(0, None, None)
    rng = random.Random(seed)
    s1 = rng.getrandbits(64)
    s2 = rng.getrandbits(64)
    xs = random_sop(M, s1, max_retries)
    res = make_reducing(xs, M, s2, max_retries)
    if not res.ok:
        raise RetryBudgetError("failed to build a reducing system of parameters")
    ys = res.sequence
    J = M.ideal + ys.elems[:-1]
    nzd = J.quotient(ys[-1]) == J
    return nzd, CmCertificate(M.d, ys, nzd)


def is_cm_depth(M, seed=0, max_retries=32):
    """Cohen-Macaulay test by the independent depth oracle."""
    return depth_oracle(M, seed, max_retries) == M.d
