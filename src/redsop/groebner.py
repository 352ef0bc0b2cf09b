"""Buchberger engine and the ideal toolbox built on top of it.

Ideals cache one reduced Groebner basis per monomial order; the reduced
basis is unique (monic generators, no term divisible by another leading
term, sorted ascending by leading monomial), so recomputation from any
permutation or rescaling of the generators returns the identical tuple.

Quotients, saturations, intersections and eliminations all reduce to one
elimination basis with a tag variable t placed first: ``t*A + (1-t)*B``
for intersections, ``(J : f) = (J cap (f))/f`` for quotients, and the
Rabinowitsch form ``(J : f^inf) = (J + (1 - t*f)) cap R`` for saturations,
whose unit test also decides radical membership.  Monomial ideals take
exact combinatorial shortcuts; the verification suites pin them, and the
saturation, against the generic and iterated-colon routes.
"""

from __future__ import annotations

import itertools

from .poly import (
    GREVLEX,
    EliminationOrder,
    Polynomial,
    PolyRing,
    _nf_raw,
    _normal_form,
    mono_divides,
    mono_lcm,
)

_GB_CACHE = {}
_GB_CACHE_LIMIT = 8192


def _poly_key(terms):
    return tuple(sorted(terms.items()))


def _monic_for(terms, p, okey):
    lm = max(terms, key=okey)
    lc = terms[lm]
    if lc == 1:
        return terms
    if p:
        inv = pow(lc, p - 2, p)
        return {m: (c * inv) % p for m, c in terms.items()}
    return {m: c / lc for m, c in terms.items()}


def _spoly(t1, lm1, t2, lm2, p):
    """S-polynomial of two monic polynomials given as raw dicts."""
    lcm = mono_lcm(lm1, lm2)
    u1 = tuple(a - b for a, b in zip(lcm, lm1))
    u2 = tuple(a - b for a, b in zip(lcm, lm2))
    res = {}
    for m, c in t1.items():
        res[tuple(x + y for x, y in zip(m, u1))] = c
    for m, c in t2.items():
        mm = tuple(x + y for x, y in zip(m, u2))
        v = res.get(mm, 0) - c
        if p:
            v %= p
        if v:
            res[mm] = v
        else:
            res.pop(mm, None)
    return res


def _buchberger_raw(polys, okey, p):
    """Reduced Groebner basis of raw term dicts, monic, sorted ascending."""
    G = []
    lms = []
    for t in polys:
        if not t:
            continue
        t = _monic_for(t, p, okey)
        G.append(t)
        lms.append(max(t, key=okey))

    def sel_key(pair):
        i, j = pair
        lcm = mono_lcm(lms[i], lms[j])
        return (sum(lcm), okey(lcm), i, j)

    pending = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    done = set()
    prepped = [(lms[i], 1, 1 if p else None, G[i]) for i in range(len(G))]
    while pending:
        pair = min(pending, key=sel_key)
        pending.discard(pair)
        done.add(pair)
        i, j = pair
        lmi, lmj = lms[i], lms[j]
        # product criterion: coprime leading monomials
        if all(a == 0 or b == 0 for a, b in zip(lmi, lmj)):
            continue
        # chain criterion
        lcm = mono_lcm(lmi, lmj)
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if mono_divides(lms[k], lcm):
                ik = (i, k) if i < k else (k, i)
                jk = (j, k) if j < k else (k, j)
                if ik not in pending and jk not in pending:
                    skip = True
                    break
        if skip:
            continue
        h = _nf_raw(_spoly(G[i], lmi, G[j], lmj, p), prepped, okey, p)
        if h:
            h = _monic_for(h, p, okey)
            lm = max(h, key=okey)
            G.append(h)
            lms.append(lm)
            prepped.append((lm, 1, 1 if p else None, h))
            new = len(G) - 1
            pending.update((k, new) for k in range(new))

    # minimalize: drop any element whose leading monomial another one divides
    order_idx = sorted(range(len(G)), key=lambda i: okey(lms[i]))
    kept = []
    for i in order_idx:
        if not any(mono_divides(lms[k], lms[i]) for k in kept):
            kept.append(i)
    basis = [G[i] for i in kept]
    blms = [lms[i] for i in kept]

    # inter-reduce tails until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = [(blms[k], 1, 1 if p else None, basis[k])
                      for k in range(len(basis)) if k != i]
            r = _nf_raw(basis[i], others, okey, p)
            r = _monic_for(r, p, okey)
            if r != basis[i]:
                basis[i] = r
                changed = True

    pairs = sorted(zip(blms, basis), key=lambda t: okey(t[0]))
    return [t for _, t in pairs]


def buchberger(gens, order=GREVLEX):
    """Unique reduced Groebner basis of the given generators.

    Monomial generator sets short-circuit to their minimal monic
    generators, which already form the reduced basis for every order.
    """
    gens = list(gens)
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        if not isinstance(g, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(g).__name__}")
        if g.ring != ring:
            raise ValueError("ring mismatch")
    key = (ring, order, tuple(_poly_key(g.terms) for g in gens))
    hit = _GB_CACHE.get(key)
    if hit is not None:
        return hit

    nonzero = [g.terms for g in gens if g.terms]
    if all(len(t) == 1 for t in nonzero):
        exps = _minimalize_monomials([next(iter(t)) for t in nonzero])
        basis = tuple(
            Polynomial(ring, {m: ring.coeff(1)}, _raw=True)
            for m in sorted(exps, key=order.key)
        )
    else:
        raw = _buchberger_raw(nonzero, order.key, ring.p)
        basis = tuple(Polynomial(ring, t, _raw=True) for t in raw)

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


def _fresh_name(base, taken):
    name = base
    while name in taken:
        name = name + "0"
    return name


def _tagged(ring):
    """Ring with a fresh tag variable placed first, and the lift of R into it."""
    tag = _fresh_name("t", set(ring.var_names))
    ext = PolyRing((tag,) + ring.var_names, ring.p)

    def lift(g):
        return Polynomial(ext, {(0,) + m: c for m, c in g.terms.items()}, _raw=True)

    return ext, lift


def _contract(gens, k, sub):
    """Contraction to ``sub`` of (gens), eliminating the first k variables."""
    basis = buchberger(gens, EliminationOrder(k))
    return Ideal(sub, [Polynomial(sub, {m[k:]: c for m, c in g.terms.items()}, _raw=True)
                       for g in basis if not any(any(m[:k]) for m in g.terms)])


class Ideal:
    """Finitely generated ideal of a :class:`PolyRing` with a basis cache."""

    __slots__ = ("ring", "gens", "_gb", "_mono")

    def __init__(self, ring, gens):
        self.ring = ring
        polys = []
        for g in gens:
            if isinstance(g, str):
                g = ring.poly(g)
            if not isinstance(g, Polynomial):
                raise TypeError(f"expected Polynomial, got {type(g).__name__}")
            if g.ring != ring:
                raise ValueError("ring mismatch")
            polys.append(g)
        self.gens = tuple(polys)
        self._gb = {}
        self._mono = -1  # not computed yet

    # -- bases ----------------------------------------------------------

    def groebner_basis(self, order=GREVLEX):
        basis = self._gb.get(order)
        if basis is None:
            basis = buchberger(self.gens, order)
            self._gb[order] = basis
        return basis

    def reduce(self, f, order=GREVLEX):
        """Normal form of f against the reduced basis for the order."""
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        basis = self.groebner_basis(order)
        if not basis:
            return f
        return _normal_form(f, basis, order)

    def contains(self, f):
        return self.reduce(f).is_zero()

    def is_zero(self):
        return not self.groebner_basis()

    def is_unit(self):
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].degree() == 0

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

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            extra = other.gens
        elif isinstance(other, Polynomial):
            extra = (other,)
        else:
            extra = tuple(other)
        return Ideal(self.ring, self.gens + tuple(extra))

    # -- ideal operations --------------------------------------------------

    def _element(self, f):
        """f as an element of this ring: text is parsed, other rings refused."""
        if isinstance(f, str):
            f = self.ring.poly(f)
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        return f

    def _rabinowitsch(self, f):
        """The ideal J + (1 - t*f) of the tag ring."""
        ext, lift = _tagged(self.ring)
        gens = [lift(g) for g in self.gens if not g.is_zero()]
        gens.append(ext.one - ext.gen(0) * lift(f))
        return Ideal(ext, gens)

    def quotient(self, f):
        """Colon ideal (J : f) = {g : g*f in J}."""
        f = self._element(f)
        if f.is_zero():
            raise ValueError("quotient by zero polynomial")
        if f.degree() == 0:
            return self
        exps = self.monomial_exponents()
        if exps is not None and f.is_monomial():
            fm = next(iter(f.terms))
            quots = [tuple(max(e - d, 0) for e, d in zip(g, fm)) for g in exps]
            return _monomial_ideal(self.ring, quots)
        inter = self.intersect(Ideal(self.ring, (f,)))
        return Ideal(self.ring, tuple(_exact_div(g, f) for g in inter.gens))

    def quotient_ideal(self, other):
        """Colon ideal (J : A), the intersection of (J : a) over generators."""
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        nz = [g for g in other.gens if not g.is_zero()]
        if not nz:
            raise ValueError("quotient by the zero ideal")
        result = self.quotient(nz[0])
        for g in nz[1:]:
            result = result.intersect(self.quotient(g))
        return result

    def saturation(self, f):
        """Saturation (J : f^inf), from one elimination basis of J + (1 - t*f)."""
        f = self._element(f)
        if f.is_zero():
            raise ValueError("saturation by zero polynomial")
        if f.degree() == 0:
            return self
        exps = self.monomial_exponents()
        if exps is not None and f.is_monomial():
            fm = next(iter(f.terms))
            freed = [tuple(0 if d else e for e, d in zip(g, fm)) for g in exps]
            return _monomial_ideal(self.ring, freed)
        return _contract(self._rabinowitsch(f).gens, 1, self.ring)

    def intersect(self, other):
        """A cap B via elimination of a tag variable from t*A + (1-t)*B."""
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        ext, lift = _tagged(self.ring)
        t = ext.gen(0)
        gens = [t * lift(a) for a in self.gens if not a.is_zero()]
        gens += [(ext.one - t) * lift(b) for b in other.gens if not b.is_zero()]
        return _contract(gens, 1, self.ring)

    def eliminate(self, drop):
        """Contract to the subring without the dropped variables."""
        drop = set(drop)
        unknown = drop - set(self.ring.var_names)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        if not drop:
            return self
        kept_names = tuple(n for n in self.ring.var_names if n not in drop)
        if not kept_names:
            raise ValueError("cannot eliminate every variable")
        dropped_names = tuple(n for n in self.ring.var_names if n in drop)
        perm_ring = PolyRing(dropped_names + kept_names, self.ring.p)
        positions = [self.ring.var_names.index(n) for n in perm_ring.var_names]

        def permute(g):
            return Polynomial(
                perm_ring,
                {tuple(m[i] for i in positions): c for m, c in g.terms.items()},
                _raw=True,
            )

        return _contract([permute(g) for g in self.gens if not g.is_zero()],
                         len(dropped_names), PolyRing(kept_names, self.ring.p))

    def radical_contains(self, f):
        """Membership f in rad(J): whether J + (1 - t*f) is the unit ideal."""
        f = self._element(f)
        if f.is_zero():
            return True
        return self._rabinowitsch(f).is_unit()

    def dim_quotient(self):
        """Krull dimension of R/J; -1 when J is the unit ideal.

        Maximum size of a variable subset meeting no leading-term support
        of the reduced grevlex basis, searched exhaustively (n <= 8).
        """
        n = self.ring.n
        if n > 8:
            raise ValueError("dimension search limited to rings with at most 8 variables")
        basis = self.groebner_basis()
        if len(basis) == 1 and basis[0].degree() == 0:
            return -1
        supports = set()
        for g in basis:
            lm = g.leading_monomial()
            supports.add(frozenset(i for i, e in enumerate(lm) if e))
        for size in range(n, -1, -1):
            for combo in itertools.combinations(range(n), size):
                s = set(combo)
                if not any(supp <= s for supp in supports):
                    return size
        raise RuntimeError("unreachable")  # size 0 always returns for proper ideals

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self):
        return f"<ideal {self} of {self.ring}>"


def _monomial_ideal(ring, exps):
    exps = _minimalize_monomials(list(exps))
    return Ideal(ring, tuple(Polynomial(ring, {m: ring.coeff(1)}, _raw=True) for m in exps))


def _exact_div(g, f):
    """Quotient g/f for g in (f); raises if the division leaves a remainder."""
    ring = g.ring
    okey = GREVLEX.key
    p = ring.p
    fm = f.leading_monomial()
    fc = f.leading_coeff()
    finv = ring.coeff_inv(fc)
    work = dict(g.terms)
    quot = {}
    while work:
        lm = max(work, key=okey)
        lc = work.pop(lm)
        if not mono_divides(fm, lm):
            raise RuntimeError("exact division left a remainder")
        qm = tuple(a - b for a, b in zip(lm, fm))
        qc = (lc * finv) % p if p else lc * finv
        quot[qm] = qc
        for tm, tc in f.terms.items():
            if tm == fm:
                continue
            mm = tuple(x + y for x, y in zip(tm, qm))
            v = work.get(mm, 0) - qc * tc
            if p:
                v %= p
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return Polynomial(ring, quot, _raw=True)
