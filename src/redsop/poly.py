"""Exact multivariate polynomials over the rationals and prime fields.

Monomials are exponent tuples with one slot per ring variable; every
variable sits in degree one.  Coefficients are plain ints reduced into
``[0, p)`` over a prime field and :class:`fractions.Fraction` in
characteristic zero.  Monomial orders are small immutable objects passed
explicitly wherever an order matters; nothing here keeps global state
beyond a memo of the primality check on the characteristic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le


class ParseError(ValueError):
    """Malformed expression or session text; carries the offending offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HomogeneityError(ValueError):
    """Raised where the graded model requires homogeneous input."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=256)
def _is_prime(p):
    """Deterministic Miller-Rabin; the bases 2..37 are exact for p < 2^64."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# monomials (bare exponent tuples)

def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_divides(a, b):
    """True when a | b, i.e. componentwise a <= b."""
    return all(map(le, a, b))


@functools.lru_cache(maxsize=256)
def monomials_of_degree(n, d):
    """Every exponent tuple of total degree d in n variables, as a tuple.

    Ordered by the first exponent descending, then recursively by the
    rest; memoized per (n, d), so random forms draw from a stored tuple.
    """
    if n == 1:
        return ((d,),)
    return tuple((first,) + rest for first in range(d, -1, -1)
                 for rest in monomials_of_degree(n - 1, d - first))


# ---------------------------------------------------------------------------
# monomial orders: frozen objects whose ``key`` sorts exponent tuples into a
# total multiplicative order; ``rows(n)`` gives it as nonnegative weight rows
# compared in turn, then the exponents lexicographically

def _grev_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class GrevlexOrder:
    key = staticmethod(_grev_key)

    @staticmethod
    def rows(n):
        return EliminationOrder(0).rows(n)


@dataclass(frozen=True)
class LexOrder:
    def key(self, exps):
        return exps

    def rows(self, n):
        return []


@dataclass(frozen=True)
class EliminationOrder:
    """Block order that eliminates the first ``first`` variables.

    Both blocks are compared by grevlex; any monomial involving an
    eliminated variable is larger than any monomial that avoids them all.
    """

    first: int

    def key(self, exps):
        k = self.first
        head = exps[:k]
        tail = exps[k:]
        return (_grev_key(head), _grev_key(tail))

    def rows(self, n):
        k = min(self.first, n)  # head sums down to x_0 alone, tail sums down to two
        return ([(1,) * j + (0,) * (n - j) for j in range(k, 0, -1)]
                + [(0,) * k + (1,) * (j - k) + (0,) * (n - j) for j in range(n, k + 1, -1)])


GREVLEX = GrevlexOrder()
LEX = LexOrder()


# ---------------------------------------------------------------------------
# rings

@dataclass(frozen=True)
class PolyRing:
    """Graded polynomial ring k[x1..xn] with every variable in degree one.

    ``p`` selects the coefficient field: a prime for GF(p), 0 for the
    rationals.  The ring doubles as the graded-local model (the ring
    localized at the ideal generated by all the variables), so dimension,
    depth and associated primes of homogeneous quotients can be read off
    the graded side throughout the package.
    """

    var_names: tuple[str, ...]
    p: int = 32003
    # len(var_names), read on every monomial built; not compared, hashed or shown
    n: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        names = tuple(self.var_names)
        object.__setattr__(self, "var_names", names)
        object.__setattr__(self, "n", len(names))
        if len(names) < 1:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ValueError(f"bad variable name {name!r}")
            if not all(c.isalnum() or c == "_" for c in name):
                raise ValueError(f"bad variable name {name!r}")
        if self.p >= 2 ** 64:
            raise ValueError(f"characteristic must be below 2^64, got {self.p}")
        if self.p != 0 and not _is_prime(self.p):
            raise ValueError(f"characteristic must be 0 or a prime, got {self.p}")

    def coeff(self, a):
        """Canonicalize a scalar into the coefficient field."""
        if self.p:
            return int(a) % self.p
        return a if isinstance(a, Fraction) else Fraction(a)

    def coeff_inv(self, a):
        if self.p:
            return pow(a, self.p - 2, self.p)
        return Fraction(1) / a

    @property
    def zero(self):
        return Polynomial(self, {}, _raw=True)

    @property
    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.coeff(c)
        if not c:
            return self.zero
        return Polynomial(self, {(0,) * self.n: c}, _raw=True)

    def gen(self, i):
        e = [0] * self.n
        e[i] = 1
        return Polynomial(self, {tuple(e): self.coeff(1)}, _raw=True)

    def gens(self):
        return tuple(self.gen(i) for i in range(self.n))

    def var(self, name):
        try:
            return self.gen(self.var_names.index(name))
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def poly(self, text):
        return parse_poly(text, self)

    def ideal(self, *gens):
        from .groebner import Ideal

        return Ideal(self, gens)

    def irrelevant_ideal(self):
        """The ideal generated by all variables (the maximal graded ideal)."""
        from .groebner import Ideal

        return Ideal(self, self.gens())

    def __str__(self):
        field = "QQ" if self.p == 0 else f"GF({self.p})"
        return f"{field}[{', '.join(self.var_names)}]"


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, *, _raw=False):
        self.ring = ring
        if _raw:
            self.terms = terms
            return
        clean = {}
        n = ring.n
        for m, c in terms.items():
            m = tuple(m)
            if len(m) != n or any(e < 0 or not isinstance(e, int) for e in m):
                raise ValueError(f"bad exponent tuple {m!r} for {ring}")
            c = ring.coeff(c)
            if c:
                clean[m] = c
        self.terms = clean

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self):
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def is_monomial(self):
        return len(self.terms) == 1

    def leading_monomial(self, order=GREVLEX):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def sorted_terms(self):
        """Terms as (monomial, coefficient), descending under grevlex."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=GREVLEX.key, reverse=True)]

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check_ring(other)
        p = self.ring.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = res.get(m, 0) + c
            if p:
                v %= p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res, _raw=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.ring.p
        if p:
            return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()}, _raw=True)
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()}, _raw=True)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        p = self.ring.p
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                v = res.get(m, 0) + c1 * c2
                if p:
                    v %= p
                if v:
                    res[m] = v
                else:
                    res.pop(m, None)
        return Polynomial(self.ring, res, _raw=True)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ring.coeff(c)
        if not c:
            return self.ring.zero
        p = self.ring.p
        if p:
            return Polynomial(self.ring, {m: (v * c) % p for m, v in self.terms.items()}, _raw=True)
        return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()}, _raw=True)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _power(self, k, Polynomial.__mul__)

    # -- equality / hashing / display ----------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.var_names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            negative = self.ring.p == 0 and c < 0
            mag = -c if negative else c
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append("-" + body if negative else body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self} in {self.ring}>"


def _power(base, k, mul):
    """base^k for an int k >= 0, by square-and-multiply through ``mul``."""
    result = base.ring.one
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base) if k > 1 else base
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# parsing

# term products (len(a) * len(b) per multiplication) one expression may spend
PARSE_PRODUCT_BUDGET = 100_000
# bits a parsed coefficient may reach; over a prime field every one is below p
PARSE_COEFF_BITS = 4096

_OPERATORS = set("+-*^()")


def _tokenize(text, ring):
    names = sorted(ring.var_names, key=len, reverse=True)
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit also takes '²' and '٣'
            j = i
            while j < size and "0" <= text[j] <= "9":
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"coefficient too large: more than {PARSE_COEFF_BITS} bits",
                                 i) from None
            i = j
        elif ch.isalpha() or ch == "_":
            for name in names:
                if text.startswith(name, i):
                    tokens.append(("var", ring.var_names.index(name), i))
                    i += len(name)
                    break
            else:
                raise ParseError(f"unknown variable name starting at {text[i]!r}", i)
        elif ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, size))
    return tokens


def _coeff_bits(f):
    """Bit length of f's largest coefficient (numerator; parsed ones are integers)."""
    return max((abs(c.numerator).bit_length() for c in f.terms.values()), default=0)


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.ring = ring
        self.k = 0
        self.budget = PARSE_PRODUCT_BUDGET

    def mul(self, a, b, pos):
        """a * b, refused before it would overspend the product budget or
        grow a coefficient past PARSE_COEFF_BITS."""
        self.budget -= len(a) * len(b)
        if self.budget < 0:
            raise ParseError(f"expression too large: more than {PARSE_PRODUCT_BUDGET} "
                             "term products", pos)
        self.check_coeffs(pos, a, b)
        return a * b

    def check_coeffs(self, pos, *factors):
        """Refuse factors whose product could pass PARSE_COEFF_BITS; only p = 0 needs it."""
        if not self.ring.p and sum(map(_coeff_bits, factors)) > PARSE_COEFF_BITS:
            raise ParseError(f"coefficient too large: more than {PARSE_COEFF_BITS} bits", pos)

    def peek(self):
        return self.tokens[self.k][0]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.unary()
        while True:
            kind, _, pos = self.tokens[self.k]
            if kind == "*":
                self.next()
            elif kind not in ("int", "var", "("):
                return node
            # "*" or implicit multiplication of adjacent symbols, e.g. "XY", "2X"
            node = self.mul(node, self.unary(), pos)

    def unary(self):
        if self.peek() == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", pos)
            base = _power(base, value, lambda a, b: self.mul(a, b, pos))
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            node = self.ring.const(value)
            self.check_coeffs(pos, node)
            return node
        if kind == "var":
            return self.ring.gen(value)
        if kind == "(":
            node = self.expr()
            kind2, _, pos2 = self.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return node
        raise ParseError(f"unexpected token {kind!r}", pos)


def parse_poly(text, ring):
    """Parse an expression with integer coefficients and + - * ^ ( ).

    Adjacent symbols multiply implicitly ("XY", "2X", "Y(X+Z)"); longest
    declared variable name wins when tokenizing letter runs.
    """
    parser = _Parser(_tokenize(text, ring), ring)
    node = parser.expr()
    kind, _, pos = parser.tokens[parser.k]
    if kind != "end":
        raise ParseError(f"unexpected token {kind!r}", pos)
    return node


# ---------------------------------------------------------------------------
# division

def _nf_raw(fterms, basis, p, guard):
    """Remainder of terms divided by monic records (leading monomial, tail), all
    packed as in ``groebner._Packing``; OverflowError once a term reaches a guard bit."""
    work = dict(fterms)
    rem = {}
    while work:
        lm = max(work)
        if lm & guard:
            raise OverflowError("a monomial outgrew its packed fields")
        lc = work.pop(lm)
        for glm, gtail in basis:
            q = lm - glm
            if not q & guard:
                for gm, gc in gtail.items():
                    mm = gm + q
                    v = work.get(mm, 0) - lc * gc
                    if p:
                        v %= p
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
                break
        else:
            rem[lm] = lc
    return rem
