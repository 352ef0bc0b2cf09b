"""Deterministic seeded corpora: random monomial ideals and sequences.

All sampling goes through explicit :class:`random.Random` instances
(Mersenne Twister), so a seed pins every fixture byte for byte, also where
:func:`random_monomial_exact` reads ``getrandbits`` as ``randrange`` does.
Bounds default to desk scale and are enforced unless ``force`` is set; no
generator-count or degree bound may pass BOUND_LIMIT, forced or not.
"""

from __future__ import annotations

import functools
import random

from .groebner import _dim_core, _minimal_supports, _monomial_ideal
from .poly import Polynomial, PolyRing, _Record, monomials_of_degree
from .sop import CyclicModule, ParamSequence

_VAR_POOL = ("X", "Y", "Z", "W", "V", "U", "T", "S")

MAX_VARS = 4
MAX_GENS = 6
MAX_DEGREE = 4
# draws cost time linear in both bounds; larger values are refused outright
BOUND_LIMIT = 64


class CorpusSpec(_Record):
    """Bounds for random monomial-ideal fixtures."""

    __slots__ = _fields = ("n", "max_gens", "max_degree", "squarefree", "count", "seed", "p",
                           "force")

    def __init__(self, n=3, max_gens=4, max_degree=3, squarefree=False, count=10, seed=0,
                 p=32003, force=False):
        self.n, self.max_gens, self.max_degree = n, max_gens, max_degree
        self.squarefree, self.count, self.seed, self.p, self.force = squarefree, count, seed, p, force

    def validate(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.n < 1 or self.n > len(_VAR_POOL):
            raise ValueError(f"n must lie in [1, {len(_VAR_POOL)}]")
        if self.max_gens < 1 or self.max_degree < 1:
            raise ValueError("generator count and degree bounds must be positive")
        if not self.force:
            if self.n > MAX_VARS:
                raise ValueError(f"n > {MAX_VARS}; pass force to override the cap")
            if self.max_gens > MAX_GENS:
                raise ValueError(f"max_gens > {MAX_GENS}; pass force to override the cap")
            if self.max_degree > MAX_DEGREE:
                raise ValueError(f"max_degree > {MAX_DEGREE}; pass force to override the cap")
        if max(self.max_gens, self.max_degree) > BOUND_LIMIT:
            raise ValueError(f"generator count and degree bounds must be at most {BOUND_LIMIT}")


@functools.lru_cache(maxsize=64)
def default_ring(n, p=32003):
    """The ring over the first n names of the variable pool, 1 <= n <= 8."""
    if not 1 <= n <= len(_VAR_POOL):
        raise ValueError(f"number of variables must lie in [1, {len(_VAR_POOL)}], got {n}")
    return PolyRing(_VAR_POOL[:n], p)


def random_monomial_exact(rng, n, deg):
    """Random exponent tuple of total degree exactly ``deg``: ``deg`` units on variables
    ``rng.randrange(n)``, read off ``rng.getrandbits`` by ``randrange``'s rule (bit_length
    bits, drawn again while they reach the bound) without its call layers."""
    if n < 1:  # randrange refuses it; the loop would not end
        raise ValueError(f"random monomials need n >= 1, got {n}")
    bits, k = rng.getrandbits, n.bit_length()
    e = [0] * n
    for _ in range(deg):
        r = bits(k)
        while r >= n:
            r = bits(k)
        e[r] += 1
    return tuple(e)


def random_monomials(rng, n, max_degree, count):
    """``count`` nonconstant exponent tuples of :func:`random_monomial_exact`, each of
    degree ``rng.randint(1, max_degree)``, read off ``rng.getrandbits`` by the same rule."""
    if max_degree < 1:  # randint refuses it; the loop would not end
        raise ValueError(f"random monomials need max_degree >= 1, got {max_degree}")
    bits, kd = rng.getrandbits, max_degree.bit_length()
    out = []
    for _ in range(count):
        deg = bits(kd)  # deg + 1 is the randint(1, max_degree) draw
        while deg >= max_degree:
            deg = bits(kd)
        out.append(random_monomial_exact(rng, n, deg + 1))
    return out


def random_monomial(rng, n, max_degree, squarefree=False):
    """Random nonconstant exponent tuple of degree at most ``max_degree``."""
    if squarefree:
        size = rng.randint(1, n)
        chosen = rng.sample(range(n), size)
        return tuple(1 if i in chosen else 0 for i in range(n))
    return random_monomials(rng, n, max_degree, 1)[0]


def random_monomial_ideal(ring, rng, max_gens, max_degree, squarefree=False):
    """Random proper monomial ideal with minimalized generators."""
    k = rng.randint(1, max_gens)
    exps = [random_monomial(rng, ring.n, max_degree, squarefree) for _ in range(k)]
    return _monomial_ideal(ring, exps)


def fixtures(spec):
    """The deterministic fixture list described by the spec."""
    spec.validate()
    rng = random.Random(spec.seed)
    ring = default_ring(spec.n, spec.p)
    out = []
    while len(out) < spec.count:
        J = random_monomial_ideal(ring, rng, spec.max_gens, spec.max_degree,
                                  spec.squarefree)
        if J.is_proper():
            out.append(J)
    return out


def module_stream(seed, n_values=(2, 3, 4), max_gens=5, max_degree=4,
                  squarefree=False, p=32003, min_dim=0):
    """Yield (module, per-instance rng) pairs forever, deterministically."""
    master = random.Random(seed)
    while True:
        sub = master.getrandbits(64)
        rng = random.Random(sub)
        n = rng.choice(list(n_values))
        ring = default_ring(n, p)
        J = random_monomial_ideal(ring, rng, max_gens, max_degree, squarefree)
        if not J.is_proper():
            continue
        M = CyclicModule(J)
        if M.d < min_dim:
            continue
        yield M, rng


def random_homogeneous_element(ring, rng, max_degree=3):
    """Random nonzero homogeneous polynomial of positive degree; half are monomials."""
    deg = rng.randint(1, max_degree)
    if rng.random() < 0.5:
        m = random_monomial(rng, ring.n, deg)
        return Polynomial(ring, {m: 1})
    while True:
        terms = {}
        for m in monomials_of_degree(ring.n, deg):
            if rng.random() < 0.5:
                c = ring.coeff(rng.randrange(1, ring.p) if ring.p else rng.randint(1, 99))
                terms[m] = c
        if terms:
            return Polynomial(ring, terms, _raw=True)


def greedy_monomial_sequence(M, length, rng):
    """Monomial sequence dropping the dimension by one at every step.

    Builds part of a system of parameters out of monomials, as a
    :class:`ParamSequence`, when the candidate pool allows it; returns
    None when some step gets stuck (many modules admit no monomial
    parameters at all).  M must be a monomial module.  The candidates of a step are each x_i and x_i^2
    and 24 random monomials of degree at most 3.  Each step runs the
    dimension search (:func:`_dim_core`) once on the minimal supports of
    its ideal plus the steps so far, carried from step to step, and takes
    the first shuffled candidate whose support lies inside the core, which
    is exactly a candidate lowering the dimension by one.
    """
    ring, n = M.ring, M.ring.n
    exps = M.ideal.monomial_exponents()
    if exps is None:
        raise ValueError("greedy monomial sequences need a monomial module")
    supports = _minimal_supports(exps)
    powers = [(0,) * v + (e,) + (0,) * (n - 1 - v) for v in range(n) for e in (1, 2)]
    elems = []
    for _ in range(length):
        candidates = powers + random_monomials(rng, n, 3, 24)
        rng.shuffle(candidates)
        core = _dim_core(n, tuple(sorted(supports)))[1]
        if not core:  # no nonconstant monomial lies inside an empty core
            return None
        outside = [v for v in range(n) if not core >> v & 1]
        step = next((m for m in candidates if not any(m[v] for v in outside)), None)
        if step is None:
            return None
        elems.append(Polynomial(ring, {step: 1}))
        # inside the core, the step's support contains no support: it is a new minimal one
        mask = sum(1 << v for v, e in enumerate(step) if e)
        supports = {s for s in supports if s & mask != mask} | {mask}
    return ParamSequence(ring, elems)
