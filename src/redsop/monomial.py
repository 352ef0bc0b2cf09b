"""Combinatorial brute-force oracle for monomial ideals.

Everything here is exact and finite: irreducible decomposition by
generator splitting (:func:`irreducible_decomposition`, over a vector
of pure powers and a list of mixed generators), associated primes as
radicals of the irredundant components, membership of arbitrary
polynomials in monomial primes, and localization at a monomial prime by
turning the outside variables into units.  The rest of the package
cross-validates its general-purpose predicates against these answers.

Repeated work is done once, in bounded memos: the components of each
set of minimal generators (:func:`_components`), the prime of each
variable mask (:func:`_prime_of_mask`), the sorted 2^n monomial primes
of a ring (:func:`monomial_primes`) and the ring of each localization
(:func:`_restriction`).

Hilbert numerators of monomial ideals (:func:`hilbert_numerator`) come
from the same exponent tuples; the engine reads them off leading-term
ideals to decide non-zero-divisors without a colon.

Depth is exact too (:func:`depth_monomial`): n minus the projective
dimension, read off the Betti numbers at the points of the lcm lattice,
each the reduced homology of an upper Koszul simplicial complex over the
ring's own field.  It makes no random draw and needs no Groebner basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_

from .groebner import Ideal, _minimalize_monomials, _monomial_ideal
from .poly import Polynomial, PolyRing, _Record, mono_divides, mono_lcm

# monomial_primes lists all 2^n primes; beyond this many variables it refuses
MONOMIAL_PRIME_VARS = 8

# lcm-lattice points depth_monomial builds; past it the answer is None
LCM_LATTICE_BUDGET = 1 << 10


class MonomialPrime(_Record):
    """Prime generated by a subset of the variables; empty set is (0)."""

    _fields = ("ring", "vars")
    __slots__ = _fields + ("indices",)  # vars' positions in the ring; not compared, hashed or shown

    def __init__(self, ring, vars):
        self.ring, self.vars = ring, vars
        self.indices = tuple(i for i, n in enumerate(ring.var_names) if n in vars)

    @property
    def dim(self):
        """Dimension of R/P."""
        return self.ring.n - len(self.vars)

    def sorted_vars(self):
        return tuple(n for n in self.ring.var_names if n in self.vars)

    def to_ideal(self):
        return Ideal(self.ring, tuple(self.ring.var(n) for n in self.sorted_vars()))

    def __str__(self):
        return "(" + ", ".join(self.sorted_vars()) + ")"


class IrreducibleComponent(_Record):
    """Ideal generated by pure variable powers x_i^(a_i)."""

    __slots__ = _fields = ("ring", "powers")

    def __init__(self, ring, powers):
        self.ring = ring
        self.powers = powers  # ((var_index, exponent), ...) sorted by index

    def to_ideal(self):
        n = self.ring.n
        exps = []
        for i, a in self.powers:
            m = [0] * n
            m[i] = a
            exps.append(tuple(m))
        return _monomial_ideal(self.ring, exps)

    def __str__(self):
        parts = []
        for i, a in self.powers:
            name = self.ring.var_names[i]
            parts.append(name if a == 1 else f"{name}^{a}")
        return "(" + ", ".join(parts) + ")"


def monomial_exponents_strict(J):
    """Exponent tuples of a monomial ideal; rejects other generators."""
    exps = J.monomial_exponents()
    if exps is None:
        raise ValueError("non-monomial generator")
    if any(sum(m) == 0 for m in exps):
        raise ValueError("ideal must be proper")
    return exps


def irreducible_decomposition(J):
    """Irredundant irreducible components of a proper monomial ideal,
    sorted by (number of generators, generators): see :func:`_components`."""
    minimal = tuple(_minimalize_monomials(monomial_exponents_strict(J)))
    return [IrreducibleComponent(J.ring, powers) for powers in _components(J.ring.n, minimal)]


@lru_cache(maxsize=256)
def _components(n, minimal):
    """Components of the ideal with these minimal generators, as power tuples.

    A node is a vector of pure powers (0 where a variable has none) and a
    list of mixed generators, none divisible by a pure power.  It splits
    the first mixed generator g = x_i^a * h, with i its first variable, by
    (N, g) = (N, x_i^a) cap (N, h): the first branch drops the mixed
    generators that x_i^a divides, the second puts h in place of g, as a
    pure power when one variable is left.  A node with no mixed generator
    is a component.  A leaf containing another leaf is dropped at the end,
    which leaves the unique irredundant decomposition (irreducible monomial
    ideals are meet-irreducible).
    """
    pure = [0] * n
    mixed = []
    for m in minimal:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            pure[support[0]] = m[support[0]]
        else:
            mixed.append(m)
    leaves = set()

    def split(pure, mixed):
        if not mixed:
            leaves.add(pure)
            return
        g, rest = mixed[0], mixed[1:]
        i = next(i for i, e in enumerate(g) if e)
        a = g[i]
        split(pure[:i] + (a,) + pure[i + 1:], [m for m in rest if m[i] < a])
        h = g[:i] + (0,) + g[i + 1:]
        support = [j for j, e in enumerate(h) if e]
        if len(support) == 1:
            j = support[0]
            b = h[j]
            split(pure[:j] + (b,) + pure[j + 1:], [m for m in rest if m[j] < b])
        else:
            split(pure, [h] + rest)

    split(tuple(pure), mixed)
    kept = leaves if len(leaves) == 1 else [
        c for c in leaves if not any(o != c and all(0 < e <= f for e, f in zip(c, o) if f)
                                     for o in leaves)]
    return tuple(sorted((tuple((i, e) for i, e in enumerate(c) if e) for c in kept),
                        key=lambda powers: (len(powers), powers)))


def ass_monomial(J):
    """Associated primes of R/J for proper monomial J: the radicals of its components."""
    ring = J.ring
    masks = {sum(1 << i for i, _ in c.powers) for c in irreducible_decomposition(J)}
    return {_prime_of_mask(ring, mask) for mask in masks}


def oracle_dim(J):
    """Krull dimension of R/J read off the associated primes."""
    return max(p.dim for p in ass_monomial(J))


def assh_monomial(J):
    """Associated primes of maximal dimension."""
    primes = ass_monomial(J)
    d = max(p.dim for p in primes)
    return {p for p in primes if p.dim == d}


def member_of_monomial_prime(f, P):
    """True when f lies in P, i.e. every term involves a variable of P."""
    if f.ring != P.ring:
        raise ValueError("ring mismatch")
    return monomials_in_prime(f.terms, P)


def monomials_in_prime(exps, P):
    """True when every exponent tuple involves a variable of P.

    For the generators of a monomial ideal J this says J <= P, i.e. P
    lies in the support of R/J.
    """
    idx = P.indices
    return all(any(m[i] for i in idx) for m in exps)


def localize_at_monomial_prime(J, P):
    """Present (R/J) localized at P over the subring in P's variables.

    Variables outside P become units, so each monomial generator maps to
    its sub-monomial in P's variables; a generator supported entirely
    outside P collapses to a unit, which happens exactly when P is not in
    the support of R/J.  P must involve at least one variable.
    """
    if J.ring != P.ring:
        raise ValueError("ring mismatch")
    if not P.vars:
        raise ValueError("localization at the zero prime is the fraction field")
    exps = J.monomial_exponents()
    if exps is None:
        raise ValueError("non-monomial generator")
    kept, sub = _restriction(P)
    mapped = []
    for m in exps:
        restricted = tuple(m[i] for i in kept)
        if sum(restricted) == 0:
            return Ideal(sub, (sub.one,))
        mapped.append(restricted)
    return _monomial_ideal(sub, mapped)


@lru_cache(maxsize=256)
def _restriction(P):
    """(indices of P's variables, the ring in them) for localizing at P."""
    return P.indices, PolyRing(P.sorted_vars(), P.ring.p)


def restrict_monomial_poly(f, P):
    """Image of a monomial under localization at P, over the subring."""
    if len(f.terms) != 1:
        raise ValueError("expected a monomial")
    kept, sub = _restriction(P)
    (m, c), = f.terms.items()
    return Polynomial(sub, {tuple(m[i] for i in kept): c})


def monomial_intersection(A, B):
    """Combinatorial A cap B: pairwise lcms of the generators."""
    if A.ring != B.ring:
        raise ValueError("ring mismatch")
    ea = A.monomial_exponents()
    eb = B.monomial_exponents()
    if ea is None or eb is None:
        raise ValueError("non-monomial generator")
    return _monomial_ideal(A.ring, [mono_lcm(a, b) for a in ea for b in eb])


def hilbert_numerator(n, exps):
    """Numerator N of HS(k[x_0..x_{n-1}]/(x^e : e in exps)) = N(t) / (1 - t)^n.

    Integer coefficients of t^0, t^1, ... with no trailing zeros; () for
    the unit ideal.  Bigatti's pivot recursion (Bigatti 1997; Bruns &
    Herzog, Cohen-Macaulay Rings, 4.1): pairwise coprime generators form
    a complete intersection, N = prod (1 - t^deg g); otherwise take the
    variable x_i in the most generators and p = x_i^a with a the lower
    median of its exponents there, and N(I) = N(I + (p)) + t^a N(I : p).
    Both sides have smaller generator degree sums, so the recursion ends,
    and the median keeps it shallow: a staircase of k generators needs
    about log k levels, where the least exponent as pivot would peel one
    generator per level.  The generators need not be minimal.
    """
    num = _numerator(list(exps))
    while num and not num[-1]:
        num.pop()
    return tuple(num)


def _numerator(gens):
    """Hilbert numerator of monomial generators, as a coefficient list."""
    if not all(map(any, gens)):  # a constant generates the unit ideal
        return []
    counts = [len(col) - col.count(0) for col in zip(*gens)]  # generators per variable
    most = max(counts, default=0)
    if most <= 1:
        num = [1]
        for m in gens:
            num = times_one_minus(num, sum(m))
        return num
    n = len(counts)
    i = counts.index(most)
    powers = sorted(m[i] for m in gens if m[i])
    a = powers[(len(powers) - 1) // 2]
    pivot = tuple(a if j == i else 0 for j in range(n))
    num = _numerator([m for m in gens if m[i] < a] + [pivot])
    colon = _minimalize_monomials(
        [m[:i] + (max(m[i] - a, 0),) + m[i + 1:] for m in gens])
    for k, c in enumerate(_numerator(colon)):
        if k + a >= len(num):
            num.extend([0] * (k + a + 1 - len(num)))
        num[k + a] += c
    return num


def times_one_minus(num, e):
    """The coefficient list of num(t) * (1 - t^e), with no trailing zeros."""
    out = list(num) + [0] * e
    for k, c in enumerate(num):
        out[k + e] -= c
    while out and not out[-1]:
        out.pop()
    return out


@lru_cache(maxsize=256)  # every prime of the largest ring monomial_primes lists
def _prime_of_mask(ring, mask):
    """The prime generated by the variables in the bit mask."""
    return MonomialPrime(ring, frozenset(n for i, n in enumerate(ring.var_names) if mask >> i & 1))


@lru_cache(maxsize=64)
def monomial_primes(ring):
    """All 2^n monomial primes, the zero prime included; n > MONOMIAL_PRIME_VARS raises."""
    if ring.n > MONOMIAL_PRIME_VARS:
        raise ValueError(f"monomial primes are listed for at most {MONOMIAL_PRIME_VARS} variables")
    return tuple(sorted((_prime_of_mask(ring, mask) for mask in range(1 << ring.n)),
                        key=lambda p: (len(p.vars), p.sorted_vars())))


def monomial_primes_over(J):
    """Monomial primes containing J, i.e. the monomial part of Supp R/J."""
    exps = monomial_exponents_strict(J)
    return [P for P in monomial_primes(J.ring) if monomials_in_prime(exps, P)]


def depth_monomial(J):
    """Depth of R/J for a proper monomial ideal J, with no random draws.

    Auslander-Buchsbaum gives depth R/J = n - pd R/J, and pd R/J is
    1 + pd J for J != 0.  The Betti numbers of J are
    beta_{i,b}(J) = dim H~_{i-1}(K^b(J)) on the upper Koszul simplicial
    complex K^b(J) = {squarefree tau <= b : x^(b - tau) in J} (Miller &
    Sturmfels 2005, Thm 1.34), and only points b of the lcm lattice of
    the minimal generators carry one (Gasharov, Peeva & Welker 1999).
    Homology is taken by ranks over the ring's own field, GF(p) or the
    rationals for p = 0: torsion makes it depend on the field.  Returns
    None when the lattice has more than LCM_LATTICE_BUDGET points.
    """
    n = J.ring.n
    gens = _minimalize_monomials(monomial_exponents_strict(J))
    if not gens:
        return n
    lattice = _lcm_lattice(gens)
    if lattice is None:
        return None
    pd = 0  # beta_{0,g}(J) = 1 at every minimal generator g
    for size, b in sorted(((sum(map(bool, b)), b) for b in lattice), reverse=True):
        if size - 1 <= pd:  # H~_j(K^b) vanishes for j > size - 2
            break
        j = _top_homology(_upper_koszul_facets(b, gens), size, pd, J.ring.p)
        if j is not None:
            pd = j + 1
    return n - pd - 1


def _lcm_lattice(gens):
    """All lcms of nonempty sets of generators, by joins; None past the budget."""
    points = set(gens)
    if len(points) > LCM_LATTICE_BUDGET:
        return None
    frontier = list(points)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = mono_lcm(a, g)
                if c not in points:
                    if len(points) == LCM_LATTICE_BUDGET:
                        return None
                    points.add(c)
                    fresh.append(c)
        frontier = fresh
    return points


def _upper_koszul_facets(b, gens):
    """Facets of K^b as variable bit masks.

    For a generator g dividing x^b, x^g divides x^(b - tau) exactly when
    tau avoids the variables where g reaches b, so K^b is the union of
    the simplices on supp b minus those variables.
    """
    support = sum(1 << i for i, e in enumerate(b) if e)
    return {support & ~sum(1 << i for i, e in enumerate(g) if e == b[i])
            for g in gens if mono_divides(g, b)}


def _top_homology(facets, size, floor, p):
    """The largest j >= floor with H~_j of the complex nonzero, or None.

    Reduced homology over GF(p), or over the rationals for p = 0, of the
    complex with these facets on ``size`` vertices: dim H~_j = f_j -
    rank d_j - rank d_{j+1}, where d_j sends faces of j + 1 vertices to
    their faces of j vertices with alternating signs.
    """
    if reduce(and_, facets):  # a vertex in every facet: a cone, acyclic
        return None
    faces = [set() for _ in range(size + 1)]
    for F in facets:
        sub = F
        while True:
            faces[sub.bit_count()].add(sub)
            if not sub:
                break
            sub = (sub - 1) & F
    faces = [sorted(level) for level in faces]

    def rank(j):  # rank of d_j: faces of j + 1 vertices to faces of j vertices
        if not faces[j + 1]:
            return 0
        index = {tau: k for k, tau in enumerate(faces[j])}
        rows = []
        for tau in faces[j + 1]:
            row, sign, rest = {}, 1, tau
            while rest:
                v = rest & -rest
                row[index[tau ^ v]] = sign % p if p else sign
                sign, rest = -sign, rest ^ v
            rows.append(row)
        return _rank(rows, p)

    above = rank(size - 1)
    for j in range(size - 2, floor - 1, -1):
        here = rank(j)
        if len(faces[j + 1]) - here - above > 0:
            return j
        above = here
    return None


def _rank(rows, p):
    """Rank of sparse rows {column: entry} over GF(p), or over Q when p = 0."""
    pivots = {}
    for row in rows:
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], p - 2, p) if p else Fraction(1, row[col])
                pivots[col] = {k: v * inv % p if p else v * inv for k, v in row.items()}
                break
            c = row[col]
            for k, v in pivot.items():
                w = row.get(k, 0) - c * v
                if p:
                    w %= p
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    return len(pivots)
