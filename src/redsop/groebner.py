"""Buchberger engine and the ideal toolbox built on top of it.

Ideals cache their reduced grevlex basis (other orders call buchberger);
the reduced basis is unique (monic generators, no term divisible by
another leading term, sorted ascending by leading monomial), so
recomputation from any permutation or rescaling returns the same tuple.

Inside the Buchberger kernel a monomial is one int (Monagan & Pearce
2011): the order's weight rows (grevlex as partial sums e_1 + .. + e_k,
the elimination blocks, the tag order's weighted degree) fill the high
fields and the exponents the low ones, each with a guard bit above, so
``<`` is the order, ``+`` multiplies and a divides b exactly when
``(b - a) & guard`` is 0.  Generators are packed once on entry and the
basis unpacked once on exit.  A field holds the square of the largest
weighted degree of the input; a term reaching a guard bit, or a new
leading monomial reaching half a field, restarts the run on fields twice
as wide, so exponents of any size stay exact.  Pairs come from the
update of Gebauer & Moeller (1988), reduced by sugar (Giovini et al.
1991), then lcm.  Inside the same restart the minimal basis it ends with
has two readers: :func:`buchberger` reduces each tail once against the
others, leaving every element reduced; :func:`_leading_exponents` only
unpacks the leading monomials.

Colons and saturations come from one basis (Bayer & Stillman 1987).
For homogeneous J and f of degree e, adjoin a tag y of degree e, placed
last, and take the reduced weighted-grevlex basis G of I = J + (y - f).
Mapping y -> f sends I onto J and (I : y^k) onto (J : f^k).  Under a
reverse-lexicographic order with y last, y divides the leading term of
a homogeneous element only when it divides every term, so dividing y
out of each element of G once gives a basis of (I : y), and dividing
out every power a basis of (I : y^inf); their images are (J : f) and
(J : f^inf).  Radical membership is a unit saturation.  Intersections
are one elimination basis of ``t*A + (1-t)*B`` with the tag t placed
first.  Monomial ideals take exact combinatorial shortcuts; the
verification suites pin them against the tag route and the saturation
against the iterated colon.

Dimension is one search over supports held as bit masks
(:func:`monomial_dim_core`) of :meth:`Ideal.leading_exponents`: a
monomial generator set gives its own exponents and needs no basis; any
other ideal gives the leading monomials of its reduced grevlex basis
when it holds one, else of one uninterreduced kernel run, kept on the
ideal and never in the basis cache.  The same search returns the
variables lying in every largest free set, which tells which monomials
lower the dimension by one.  A memo of 256 entries keeps it once per
sorted set of minimal supports.  The Hilbert test for non-zero-divisors,
``is_unit`` and ``is_zero`` read the same accessor: J is the unit ideal
exactly when in(J) holds a constant.
"""

from __future__ import annotations

import functools
from operator import mul

from .poly import (
    GREVLEX,
    EliminationOrder,
    HomogeneityError,
    Polynomial,
    PolyRing,
    _Record,
    _nf_raw,
    mono_divides,
)

_GB_CACHE = {}
_GB_CACHE_LIMIT = 8192

# free sets dim_quotient may visit; no ring of at most 12 variables needs more
DIM_SEARCH_BUDGET = 1 << 12


def _poly_key(terms):
    return tuple(sorted(terms.items()))


@functools.lru_cache(maxsize=64)
def _weights(order, n):
    """Weights of the n variables bounding every row of the order and every exponent."""
    return tuple(max([1] + [r[i] for r in order.rows(n)]) for i in range(n))


@functools.lru_cache(maxsize=256)
class _Packing:
    """Monomials of one order in n variables as ints: from the most significant
    field down, the order's weight rows, then e_1 .. e_n; ``bits`` to a field
    and a guard bit above each.  One instance per (order, n, bits)."""

    def __init__(self, order, n, bits):
        fields = order.rows(n) + [tuple(int(i == k) for i in range(n)) for k in range(n)]
        width = bits + 1
        self.var = [sum(f[i] << width * (len(fields) - 1 - k) for k, f in enumerate(fields))
                    for i in range(n)]
        self.guard = sum(1 << width * k + bits for k in range(len(fields)))
        self.half = self.guard >> 1
        self.weights = _weights(order, n)
        self._shifts = [width * (n - 1 - i) for i in range(n)]
        self._mask = (1 << bits) - 1

    def pack(self, exps):
        return sum(map(mul, exps, self.var))

    def unpack(self, m):
        mask = self._mask
        return tuple([m >> s & mask for s in self._shifts])


def _packed(fn, order, n, term_dicts):
    """fn(packing, the largest weighted degree of each term dict), on fields that hold
    the square of the largest, doubled in bits each time fn raises OverflowError."""
    weights = _weights(order, n)
    degrees = [max([sum(map(mul, m, weights)) for m in t], default=0) for t in term_dicts]
    bits = 2 * max(degrees).bit_length() + 1
    while True:
        try:
            return fn(_Packing(order, n, bits), degrees)
        except OverflowError:
            bits *= 2


def _buchberger_raw(polys, packing, p):
    """Monic records (leading monomial, tail) of the minimal basis, ascending, tails not
    interreduced, of packed (term dict, sugar) inputs.  Raises OverflowError once a new
    leading monomial reaches ``packing.half`` in some field."""
    unpack, var, weights = packing.unpack, packing.var, packing.weights
    guard, half = packing.guard, packing.half
    lms, exps, offsets = [], [], []  # offset: sugar minus the degree of the lm
    records = []  # (lm, tail) of every element: dividing by dropped ones too keeps QQ small
    live = []  # elements whose leading monomial no later one divides
    pairs = []  # (sugar, lcm, j, i), descending, so pop() takes the next one

    def insert(terms, sugar):
        nonlocal live, pairs
        lm = max(terms)
        if lm & half:
            raise OverflowError("a leading monomial outgrew half its packed fields")
        lc = terms.pop(lm)
        if lc != 1:
            inv = pow(lc, p - 2, p) if p else 1 / lc
            terms = {m: c * inv % p if p else c * inv for m, c in terms.items()}
        e = unpack(lm)
        off = sugar - sum(map(mul, e, weights))
        h = len(lms)
        les = [tuple(map(max, e, x)) for x in exps]  # exponents of lcm(lm, lm_g) for every g
        lcms = [sum(map(mul, le, var)) for le in les]
        # criterion B: drop an old pair whose lcm lm(h) divides, unless h shares it with a side
        pairs = [q for q in pairs if (q[1] - lm) & guard or q[1] in (lcms[q[2]], lcms[q[3]])]
        # criterion M by ascending lcm: one pair per minimal lcm, none if that one is coprime
        new = sorted((lcms[g], lcms[g] != lm + lms[g],  # (lcm, not coprime, sugar, g)
                      sum(map(mul, les[g], weights)) + max(off, offsets[g]), g) for g in live)
        kept = []
        for lcm, paired, s, g in new:
            if all((lcm - k) & guard for k in kept):
                kept.append(lcm)
                if paired:
                    pairs.append((s, lcm, h, g))
        pairs.sort(reverse=True)
        lms.append(lm)
        exps.append(e)
        offsets.append(off)
        records.append((lm, terms))
        live = [g for g in live if (lms[g] - lm) & guard] + [h]

    for terms, sugar in polys:
        insert(terms, sugar)
    while pairs:
        sugar, lcm, j, i = pairs.pop()
        ui, uj = lcm - lms[i], lcm - lms[j]
        spoly = {m + ui: c for m, c in records[i][1].items()}
        for m, c in records[j][1].items():
            mm = m + uj
            v = spoly.get(mm, 0) - c
            if p:
                v %= p
            if v:
                spoly[mm] = v
            else:
                del spoly[mm]
        h = _nf_raw(spoly, records, p, guard)
        if h:
            insert(h, sugar)

    # minimalize: drop any element whose leading monomial another one divides
    basis = []
    for g in sorted(live, key=lms.__getitem__):
        if all((lms[g] - lm) & guard for lm, _ in basis):
            basis.append(records[g])
    return basis


def _kernel(ring, order, nonzero, read):
    """read(packing, records of the minimal basis) of the nonzero term dicts: one
    _buchberger_raw run, read inside the field-widening restart of _packed."""
    def run(packing, sugars):
        var = packing.var
        return read(packing, _buchberger_raw([({sum(map(mul, m, var)): c for m, c in t.items()}, s)
                                              for t, s in zip(nonzero, sugars)], packing, ring.p))

    return _packed(run, order, ring.n, nonzero)


def _leading_exponents(ring, nonzero):
    """Leading exponents of the grevlex basis of the nonzero term dicts, ascending, each
    unpacked once from the minimal basis: no tail reduced, no Polynomial, no cache entry."""
    return _kernel(ring, GREVLEX, nonzero, lambda pk, rs: tuple([pk.unpack(m) for m, _ in rs]))


def _element(ring, g, text=True):
    """g as an element of ring: text is parsed when ``text`` is set, anything
    else that is not a Polynomial is a TypeError and another ring a ValueError."""
    if text and isinstance(g, str):
        g = ring.poly(g)
    if not isinstance(g, Polynomial):
        raise TypeError(f"expected Polynomial, got {type(g).__name__}")
    if g.ring != ring:
        raise ValueError("ring mismatch")
    return g


def buchberger(gens, order=GREVLEX):
    """Unique reduced Groebner basis of the given generators.

    Monomial generator sets short-circuit to their minimal monic
    generators, which already form the reduced basis for every order.
    Each element's first term is its leading monomial.
    """
    gens = list(gens)
    if not gens:
        return ()
    ring = getattr(gens[0], "ring", None)
    for g in gens:
        _element(ring, g, text=False)
    key = (ring, order, tuple(_poly_key(g.terms) for g in gens))
    hit = _GB_CACHE.get(key)
    if hit is not None:
        return hit

    nonzero = [g.terms for g in gens if g.terms]
    one = ring.coeff(1)
    if all(len(t) == 1 for t in nonzero):
        exps = _minimalize_monomials([next(iter(t)) for t in nonzero])
        basis = tuple(Polynomial(ring, {m: one}, _raw=True) for m in sorted(exps, key=order.key))
    else:
        def reduced(packing, basis):
            unpack = packing.unpack
            # one pass reduces every tail: no leading monomial changes or divides its own tail
            for i, (lm, tail) in enumerate(basis):
                basis[i] = (lm, _nf_raw(tail, basis, ring.p, packing.guard))
            return [{unpack(lm): one, **{unpack(m): c for m, c in tail.items()}}
                    for lm, tail in basis]

        basis = tuple(Polynomial(ring, t, _raw=True)
                      for t in _kernel(ring, order, nonzero, reduced))

    if len(_GB_CACHE) >= _GB_CACHE_LIMIT:
        _GB_CACHE.clear()
    _GB_CACHE[key] = basis
    return basis


def _minimalize_monomials(exps):
    """Minimal generators of a monomial ideal given as exponent tuples."""
    uniq = sorted(set(exps), key=lambda m: (sum(m), m))
    kept = []
    for m in uniq:
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return kept


def monomial_dim_core(n, exps):
    """(dimension, core) of k[x_0..x_{n-1}]/(x^e : e in exps); (-1, 0) for the unit ideal.

    A free set is a set of variables containing no generator's support.
    The dimension is the size of the largest free sets, that is n minus
    the fewest variables meeting every support (Stanley-Reisner; Bruns &
    Herzog, Cohen-Macaulay Rings, 5.1).  The core is the bit mask of the
    variables lying in every largest free set: adding a nonconstant
    monomial lowers the dimension, by exactly one, when its support lies
    inside the core.  Both depend only on the minimal supports, as bit
    masks, so the search runs once per sorted set of them
    (:func:`_dim_core`, a bounded memo); permuted, repeated or redundant
    generators read the same entry.  Raises ValueError once the search
    visits more than DIM_SEARCH_BUDGET free sets, on every call.
    """
    return _dim_core(n, tuple(sorted(_minimal_supports(exps))))


def _minimal_supports(exps):
    """Minimal support bit masks of the exponent tuples, as a set ({0} for a unit)."""
    masks = set()
    for m in exps:
        mask = 0
        for i, e in enumerate(m):
            if e:
                mask |= 1 << i
        masks.add(mask)
    minimal = set()
    for mask in sorted(masks, key=int.bit_count):
        for s in minimal:  # a loop, not any() over a generator: dim_quotient runs it on every call
            if s & mask == s:
                break
        else:
            minimal.add(mask)
    return minimal


@functools.lru_cache(maxsize=256)
def _dim_core(n, supports):
    """monomial_dim_core of the sorted minimal support masks.

    While the free set contains a support, some variable of that support
    must leave it, and the search branches on each, keeping the largest
    size and the AND of the cores of the branches reaching it.  The cache
    keeps no raised error, so an over-budget search raises every time.
    """
    supports = [(s, tuple(1 << i for i in range(n) if s >> i & 1)) for s in supports]
    memo = {}

    def largest(free):
        if free not in memo:
            if len(memo) >= DIM_SEARCH_BUDGET:
                raise ValueError(f"dimension search too large: over {DIM_SEARCH_BUDGET} sets")
            bits = next((bits for s, bits in supports if s & free == s), None)
            if bits is None:
                memo[free] = free.bit_count(), free
            else:
                best, core = -1, 0
                for b in bits:
                    size, mask = largest(free ^ b)
                    if size > best:
                        best, core = size, mask
                    elif size == best:
                        core &= mask
                memo[free] = best, core
        return memo[free]

    return largest((1 << n) - 1)


def _tag_ring(ring, first):
    """(R[t], the lift R -> R[t]) for a tag t the ring does not name, placed first or last."""
    name = "t"
    while name in ring.var_names:
        name = name + "0"
    if first:
        ext = PolyRing((name,) + ring.var_names, ring.p)
        return ext, lambda g: Polynomial(ext, {(0,) + m: c for m, c in g.terms.items()}, _raw=True)
    ext = PolyRing(ring.var_names + (name,), ring.p)
    return ext, lambda g: Polynomial(ext, {m + (0,): c for m, c in g.terms.items()}, _raw=True)


class _TagOrder(_Record):
    """Grevlex on R[y], the tag y placed last and counted in degree ``weight``."""

    __slots__ = _fields = ("weight",)

    def __init__(self, weight):
        self.weight = weight

    def key(self, exps):
        return (sum(exps) + (self.weight - 1) * exps[-1], tuple(-e for e in reversed(exps)))

    def rows(self, n):
        return [(1,) * (n - 1) + (self.weight,)] + GREVLEX.rows(n)[1:]


class Ideal:
    """Finitely generated ideal of a :class:`PolyRing` caching its grevlex basis, its
    leading exponents (from an uninterreduced kernel run when it holds no basis), its
    Hilbert numerator and its last sum: ``J + gens`` with equal ``gens`` returns the
    ideal it built last time, so a walk builds each prefix ideal once."""

    __slots__ = ("ring", "gens", "_gb", "_mono", "_lead", "_hilb", "_sum")

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple([_element(ring, g) for g in gens])
        self._gb = None  # reduced grevlex basis, not computed yet
        self._mono = -1  # not computed yet
        self._lead = None  # leading exponents, not computed yet
        self._hilb = None  # Hilbert numerator, not computed yet
        # (gens, self + gens) of the last sum, not a dict: a walk extends the sum
        # it accepted last, and a dict keeps rejected draws (160 a depth level) alive
        self._sum = None

    # -- bases ----------------------------------------------------------

    def groebner_basis(self):
        if self._gb is None:
            self._gb = buchberger(self.gens)
        return self._gb

    def reduce(self, f):
        """Normal form of f against the reduced grevlex basis.

        The one division entry point: the reduced basis is monic and each
        element starts with its leading term, so packed it gives the records
        :func:`poly._nf_raw` divides by.
        """
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        basis = self.groebner_basis()

        def run(packing, _):
            pack = packing.pack
            records = [(pack(lm), {pack(m): c for m, c in g.terms.items() if m != lm})
                       for g in basis for lm in [next(iter(g.terms))]]
            rem = _nf_raw({pack(m): c for m, c in f.terms.items()}, records, f.ring.p,
                          packing.guard)
            return {packing.unpack(m): c for m, c in rem.items()}

        return Polynomial(f.ring, _packed(run, GREVLEX, f.ring.n, [g.terms for g in (*basis, f)]),
                          _raw=True)

    def contains(self, f):
        return self.reduce(f).is_zero()

    def is_zero(self):
        return not self.leading_exponents()

    def is_unit(self):
        return not all(map(any, self.leading_exponents()))  # in(J) holds a constant

    def is_proper(self):
        return not self.is_unit()

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def monomial_exponents(self):
        """Exponent tuples when every generator is a term, else None."""
        if self._mono == -1:
            exps = []
            for g in self.gens:
                if g.is_zero():
                    continue
                if len(g.terms) != 1:
                    exps = None
                    break
                exps.append(next(iter(g.terms)))
            self._mono = tuple(exps) if exps is not None else None
        return self._mono

    def leading_exponents(self):
        """Exponent tuples generating in(J) for grevlex, kept on the ideal.

        J's own exponents when every generator is a term (no basis), else the
        leading monomials of the reduced basis the ideal holds, or with none, of
        an uninterreduced kernel run (:func:`_leading_exponents`).  R/J and
        R/in(J) share dimension and Hilbert series.
        """
        if self._lead is None:
            exps = self.monomial_exponents()
            if exps is None:
                exps = (tuple([next(iter(g.terms)) for g in self._gb]) if self._gb is not None
                        else _leading_exponents(self.ring, [g.terms for g in self.gens if g.terms]))
            self._lead = exps
        return self._lead

    def hilbert_numerator(self):
        """Numerator N of HS(R/J) = N(t) / (1 - t)^n, computed once per ideal.

        :func:`monomial.hilbert_numerator` of :meth:`leading_exponents`.
        """
        if self._hilb is None:
            from .monomial import hilbert_numerator

            self._hilb = hilbert_numerator(self.ring.n, self.leading_exponents())
        return self._hilb

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    __hash__ = None

    def __add__(self, gens):
        """J + (g1, ..., gk); the ideal the last sum built when the generators are equal."""
        gens = tuple(gens)
        if self._sum is None or self._sum[0] != gens:
            self._sum = gens, Ideal(self.ring, self.gens + gens)
        return self._sum[1]

    # -- ideal operations --------------------------------------------------

    def quotient(self, f):
        """Colon ideal (J : f) = {g : g*f in J}."""
        return self._colon(f, saturate=False)

    def quotient_ideal(self, other):
        """Colon ideal (J : A), the intersection of (J : a) over A's reduced basis."""
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        basis = other.groebner_basis()
        if not basis:
            raise ValueError("quotient by the zero ideal")
        result = self.quotient(basis[0])
        for g in basis[1:]:
            result = result.intersect(self.quotient(g))
        return result

    def saturation(self, f):
        """Saturation (J : f^inf) = {g : g*f^k in J for some k}.

        Monomial J and f take the exact shortcut; any other input is read
        off the same tag-last basis as the colon (see the module
        docstring), and must be homogeneous (HomogeneityError otherwise).
        """
        return self._colon(f, saturate=True)

    def _colon(self, f, saturate):
        """(J : f^inf) when saturate, else (J : f): the monomial shortcut or the tag route."""
        f = _element(self.ring, f)
        if f.is_zero():
            raise ValueError("colon by the zero polynomial")
        if f.degree() == 0:
            return self
        exps = self.monomial_exponents()
        if exps is not None and f.is_monomial():
            fm = next(iter(f.terms))
            return _monomial_ideal(self.ring, [
                tuple(0 if saturate and d else max(e - d, 0) for e, d in zip(g, fm))
                for g in exps])
        return self._tag_colon(f, saturate)

    def _tag_colon(self, f, saturate):
        """(J : f^inf) when saturate, else (J : f), from the basis of J + (y - f).

        The tag y is placed last with the degree of f (see the module
        docstring); J and f must be homogeneous.
        """
        if not (self.is_homogeneous() and f.is_homogeneous()):
            raise HomogeneityError("colons need a homogeneous ideal and element")
        ring = self.ring
        ext, lift = _tag_ring(ring, first=False)
        gens = [lift(g) for g in self.gens if g.terms]
        gens.append(ext.gen(ring.n) - lift(f))
        powers = [ring.one]  # f^k
        colon = []
        for g in buchberger(gens, _TagOrder(f.degree())):
            shift = min(m[-1] for m in g.terms)
            if not saturate:
                shift = min(shift, 1)
            by_power = {}  # y-exponent left after the shift -> coefficient in R
            for m, c in g.terms.items():
                by_power.setdefault(m[-1] - shift, {})[m[:-1]] = c
            image = ring.zero
            for k, terms in by_power.items():
                while len(powers) <= k:
                    powers.append(powers[-1] * f)
                image = image + Polynomial(ring, terms, _raw=True) * powers[k]
            if image:
                colon.append(image)
        return Ideal(ring, colon)

    def intersect(self, other):
        """A cap B: the t-free part of the elimination basis of t*A + (1-t)*B."""
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        ring = self.ring
        ext, lift = _tag_ring(ring, first=True)
        t = ext.gen(0)
        gens = [t * lift(a) for a in self.gens if a.terms]
        gens += [(ext.one - t) * lift(b) for b in other.gens if b.terms]
        basis = buchberger(gens, EliminationOrder(1))
        return Ideal(ring, [Polynomial(ring, {m[1:]: c for m, c in g.terms.items()}, _raw=True)
                            for g in basis if not any(m[0] for m in g.terms)])

    def radical_contains(self, f):
        """Membership f in rad(J): whether the saturation (J : f^inf) is the unit ideal."""
        f = _element(self.ring, f)
        return f.is_zero() or self.saturation(f).is_unit()

    def dim_quotient(self):
        """Krull dimension of R/J; -1 when J is the unit ideal.

        The first component of :func:`monomial_dim_core` on
        :meth:`leading_exponents`, so only a generator set with a non-term
        needs a basis.  Raises ValueError past DIM_SEARCH_BUDGET.
        """
        return monomial_dim_core(self.ring.n, self.leading_exponents())[0]

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self):
        return f"<ideal {self} of {self.ring}>"


def _monomial_ideal(ring, exps):
    exps = _minimalize_monomials(list(exps))
    return Ideal(ring, tuple(Polynomial(ring, {m: ring.coeff(1)}, _raw=True) for m in exps))

