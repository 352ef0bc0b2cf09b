import hashlib
import random
from fractions import Fraction

import pytest

from redsop import (
    GREVLEX,
    LEX,
    EliminationOrder,
    ParseError,
    PolyRing,
    parse_poly,
)
from redsop.corpus import random_monomial
from redsop.groebner import _Packing, _TagOrder
from redsop.poly import _is_prime, _nf_raw, mono_divides
from redsop.session import run_block


def test_parse_implicit_product(R):
    assert R.poly("XY") == R.var("X") * R.var("Y")


def test_parse_linear_form(R):
    f = R.poly("X+Y+Z")
    assert len(f.terms) == 3
    assert f.is_homogeneous() and f.degree() == 1


def test_parse_cancellation(R):
    assert R.poly("X - X").is_zero()


def test_parse_coefficients_and_powers(R):
    f = R.poly("2X^2Y - 3*Z^3")
    assert f.terms[(2, 1, 0)] == 2
    assert f.terms[(0, 0, 3)] == 32000  # -3 mod 32003


def test_parse_parentheses(R):
    assert R.poly("Y(X+Z)") == R.poly("XY + YZ")
    assert R.poly("-(X - Y)^2") == R.poly("-X^2 + 2XY - Y^2")


def test_parse_unknown_variable(R):
    with pytest.raises(ParseError) as err:
        R.poly("XW")
    assert err.value.position == 1


def test_parse_syntax_error_position(R):
    with pytest.raises(ParseError) as err:
        R.poly("X + + Y")
    assert err.value.position == 4


def test_parse_rejects_trailing_garbage(R):
    with pytest.raises(ParseError):
        R.poly("X + Y)")


@pytest.mark.parametrize("text, position", [("X\u00b2", 1), ("X^\u00b2", 2), ("\u0663*X", 0)])
def test_parse_refuses_digits_outside_ascii(R, text, position):
    # str.isdigit accepts a superscript two and an Arabic-Indic three; the parser does not
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_poly(text, R)
    assert err.value.position == position


def test_longest_variable_name_wins():
    ring = PolyRing(("X", "XY"), 0)
    f = ring.poly("XY")
    assert f == ring.var("XY")


def test_difference_of_squares(R):
    assert R.poly("X+Y") * R.poly("X-Y") == R.poly("X^2 - Y^2")


def test_additive_identity(R):
    f = R.poly("3XY + Z")
    assert f + R.zero == f


def test_frobenius_in_characteristic_two():
    ring = PolyRing(("X", "Y"), 2)
    assert ring.poly("X+Y") ** 2 == ring.poly("X^2 + Y^2")


def test_ring_mismatch_raises(R):
    other = PolyRing(("A", "B"))
    with pytest.raises(ValueError):
        R.poly("X") + other.poly("A")


def test_rational_coefficients():
    ring = PolyRing(("X", "Y"), 0)
    f = ring.poly("X - 2Y")
    g = f.scale(ring.coeff_inv(ring.coeff(2)))
    assert (g * ring.const(2)) == f


def test_homogeneity(R):
    assert R.poly("X+Y+Z").is_homogeneous()
    assert not R.poly("X^2+Y").is_homogeneous()
    assert R.zero.is_homogeneous()


def test_degree_conventions(R):
    assert R.zero.degree() == -1
    assert R.one.degree() == 0
    assert R.poly("X^2Y").degree() == 3


def test_normal_form_member_of_basis(R):
    assert R.ideal("XY", "XZ").reduce(R.poly("XY")).is_zero()


def test_normal_form_irreducible(R):
    assert R.ideal("XY", "XZ").reduce(R.poly("YZ")) == R.poly("YZ")


def test_normal_form_single_step(R):
    assert R.ideal("XY").reduce(R.poly("X^2Y + Z")) == R.poly("Z")


def _random_mono(rng, n):
    return random_monomial(rng, n, 4)


@pytest.mark.parametrize("order", [GREVLEX, LEX, EliminationOrder(1)])
def test_order_axioms(order):
    rng = random.Random(11)
    n = 3
    one = (0,) * n
    for _ in range(300):
        a, b, c = (_random_mono(rng, n) for _ in range(3))
        ka, kb = order.key(a), order.key(b)
        # total: keys compare iff monomials differ
        assert (ka == kb) == (a == b)
        # multiplicative
        if ka < kb:
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.key(ac) < order.key(bc)
        # one is the minimum
        assert order.key(one) <= ka


def test_elimination_order_blocks():
    order = EliminationOrder(1)
    # any monomial involving the first variable beats any that avoids it
    assert order.key((1, 0, 0)) > order.key((0, 5, 7))


@pytest.mark.parametrize("order", [GREVLEX, LEX, EliminationOrder(1), EliminationOrder(2),
                                   _TagOrder(1), _TagOrder(3)],
                         ids=["grevlex", "lex", "elim1", "elim2", "tag1", "tag3"])
def test_packed_monomials_follow_the_order(order):
    # < on packed ints is the order's key, + multiplies, the guard test divides
    rng = random.Random(13)
    packing = _Packing(order, 4, 9)
    monos = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(200)]
    packed = {m: packing.pack(m) for m in monos}
    assert sorted(monos, key=order.key) == sorted(monos, key=packed.__getitem__)
    for a, b in zip(monos, monos[1:]):
        assert packing.unpack(packed[a]) == a
        assert packed[a] + packed[b] == packing.pack(tuple(x + y for x, y in zip(a, b)))
        assert (not (packed[b] - packed[a]) & packing.guard) == mono_divides(a, b)


def _records(polys, packing, p):
    """Monic (leading monomial, tail) records of packed polynomials."""
    records = []
    for g in polys:
        terms = {packing.pack(m): c for m, c in g.terms.items()}
        lm = max(terms)
        inv = pow(terms.pop(lm), p - 2, p)
        records.append((lm, {m: c * inv % p for m, c in terms.items()}))
    return records


def test_division_contract_random(R):
    # Buchberger divides by monic records of lists that are not bases yet
    packing = _Packing(GREVLEX, 3, 9)
    rng = random.Random(23)
    for _ in range(60):
        f_terms = {_random_mono(rng, 3): rng.randrange(1, 32003) for _ in range(rng.randint(1, 5))}
        from redsop.poly import Polynomial

        f = Polynomial(R, f_terms)
        basis = []
        for _ in range(rng.randint(1, 3)):
            terms = {_random_mono(rng, 3): rng.randrange(1, 32003)
                     for _ in range(rng.randint(1, 3))}
            g = Polynomial(R, terms)
            if not g.is_zero():
                basis.append(g)
        records = _records(basis, packing, R.p)

        def nf(h):
            packed = {packing.pack(m): c for m, c in h.terms.items()}
            rem = _nf_raw(packed, records, R.p, packing.guard)
            return Polynomial(R, {packing.unpack(m): c for m, c in rem.items()})

        rem = nf(f)
        # remainder is irreducible
        lts = [g.leading_monomial() for g in basis]
        for m in rem.terms:
            assert not any(all(a <= b for a, b in zip(lt, m)) for lt in lts)
        # f - rem reduces to zero
        assert nf(f - rem).is_zero()


def test_division_refuses_a_term_past_its_fields(R):
    packing = _Packing(LEX, 3, 3)  # exponents 0..7
    f = {packing.pack((4, 0, 0)): 1}
    x = _records([R.poly("X - Y^3")], packing, R.p)
    with pytest.raises(OverflowError):
        _nf_raw(f, x, R.p, packing.guard)  # X^4 -> X^3*Y^3 -> .. -> X*Y^9


def test_ring_axioms_spot_check(R):
    rng = random.Random(5)
    from redsop.poly import Polynomial

    def rand_poly():
        return Polynomial(R, {_random_mono(rng, 3): rng.randrange(32003)
                              for _ in range(rng.randint(0, 4))})

    for _ in range(40):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(())
    with pytest.raises(ValueError):
        PolyRing(("X", "X"))
    # composite characteristics, Carmichael and strong pseudoprimes, and
    # primes past the 2^64 bound of the deterministic primality test
    for p in (15, 561, 2047, 3215031751, 2 ** 64 + 13):
        with pytest.raises(ValueError):
            PolyRing(("X",), p)
    with pytest.raises(ValueError):
        PolyRing(("2bad",))
    assert PolyRing(("X", "Y"), 10 ** 18 + 3).p == 10 ** 18 + 3


def test_primality_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == by_trial(n) for n in range(-3, 20000))


def test_units_parse_fine(R):
    # degree-0 polynomials are units and parse without complaint
    assert R.poly("7").degree() == 0
    assert R.poly("7 - 7").is_zero()


def test_parse_refuses_oversized_literals():
    rational = PolyRing(("X",), 0)
    assert rational.poly("9" * 1000 + "X").terms == {(1,): Fraction(int("9" * 1000))}
    for digits in (2000, 5000):
        with pytest.raises(ParseError, match="coefficient too large"):
            rational.poly("9" * digits + "X")


# ---------------------------------------------------------------------------
# the parser pinned on seeded texts: terms in dict order, or the error and its position

_PIN_RINGS = (("X", "X1", "Y"), ("x0", "x1", "x10"))
_PIN_STRAYS = ("$", "é", "²", "٣", "!", "Q", "q1", ")", "(", "^", "*", "+", " ")


def _pin_expr(rng, names, p, depth):
    text = _pin_term(rng, names, p, depth)
    for _ in range(rng.randrange(4)):
        text += rng.choice((" + ", " - ", "+", "-")) + _pin_term(rng, names, p, depth)
    return text


def _pin_term(rng, names, p, depth):
    text = _pin_factor(rng, names, p, depth)
    for _ in range(rng.randrange(4)):
        text += rng.choice(("*", "", " ", " * ")) + _pin_factor(rng, names, p, depth)
    return text


def _pin_factor(rng, names, p, depth):
    roll = rng.random()
    if roll < 0.4:
        atom, exps = rng.choice(names), (0, 1, 2, 3, 7, 12)
    elif roll < 0.75 or depth >= 2:
        atom = str(rng.choice((0, 1, 2, 3, 10, p, p + 1, 2 * p, 10 ** 20 + 7,
                               rng.randrange(10 ** 6))))
        exps = (0, 1, 2, 5)
    else:
        atom, exps = "(" + _pin_expr(rng, names, p, depth + 1) + ")", (0, 1, 2, 3)
    if rng.random() < 0.3:
        atom += "^" + str(rng.choice(exps))
    return "-" * rng.choice((0, 0, 0, 1, 2)) + atom


def _pin_mutate(rng, text):
    roll = rng.random()
    if roll < 0.5:
        return text
    at = rng.randrange(len(text) + 1)
    if roll < 0.7:
        return text[:at] + rng.choice(_PIN_STRAYS) + text[at:]
    if roll < 0.85:
        return text[:at] + text[at + 1:]
    return text + rng.choice(("+", "-", "*", "^", " ^", "("))


def _pin_outcome(text, ring):
    try:
        f = parse_poly(text, ring)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)
    return list(f.terms.items())


def _pin_cases():
    rng = random.Random(20260421)
    cases = []
    for p in (0, 2, 32003):
        for names in _PIN_RINGS:
            ring = PolyRing(names, p)
            for _ in range(400):
                # half the texts are flat sums of products, as sessions send them
                text = _pin_mutate(rng, _pin_expr(rng, names, p, rng.choice((0, 2))))
                cases.append((text, names, p, _pin_outcome(text, ring)))
    return cases


def test_parser_outcomes_are_pinned():
    # recorded with the parser that built a Polynomial for every factor
    digest = hashlib.sha256(repr(_pin_cases()).encode()).hexdigest()
    assert digest == "f6eb7cf971fec9a6feb39decd09247d60c6a5e9ce1e9379b9210e3a50d2dc7b4"


def test_parse_bounds_at_their_edges():
    ring = PolyRing(("X", "Y"), 32003)
    # X*X*...*X: 100 000 products spend the budget exactly, one more is refused at its '*'
    assert parse_poly("*".join(["X"] * 100_001), ring).terms == {(100_001, 0): 1}
    text = "*".join(["X"] * 100_002)
    with pytest.raises(ParseError, match="expression too large") as err:
        parse_poly(text, ring)
    assert err.value.position == len(text) - 2
    # X^e costs e.bit_count() + e.bit_length() - 1: three X^(2^14000 - 1) and their two
    # products leave 16 001, which X^(2^8001 - 1) spends exactly; X^(2^8002 - 2) costs one more
    e = 2 ** 14000 - 1
    head = f"X^{e}*X^{e}*X^{e} + X^"
    exact = 2 ** 8001 - 1
    assert parse_poly(head + str(exact), ring).terms == {(3 * e, 0): 1, (exact, 0): 1}
    with pytest.raises(ParseError, match="expression too large") as err:
        parse_poly(head + str(2 ** 8002 - 2), ring)
    assert err.value.position == len(head)
    # over p = 0 a 4096-bit literal parses alone; a product with X adds X's own bit
    rational = PolyRing(("X", "Y"), 0)
    c = str(2 ** 4096 - 1)
    assert parse_poly(c, rational).terms == {(0, 0): Fraction(2 ** 4096 - 1)}
    for text, position in ((c + "*X", 1234), ("X*" + c, 1), (c + "X", 1234),
                           ("Y + X^2*" + c, 7), (str(2 ** 4096), 0)):
        with pytest.raises(ParseError, match="coefficient too large") as err:
            parse_poly(text, rational)
        assert err.value.position == position, text


def test_long_literals_reduce_over_a_prime_field():
    # past int()'s digit limit a prime field reduces the digits mod p; p = 0 still refuses
    digits = "3" * 5000
    want = 0
    for s in range(0, len(digits), 7):
        want = (want * 10 ** len(digits[s:s + 7]) + int(digits[s:s + 7])) % 32003
    ring = PolyRing(("X", "Y"), 32003)
    assert parse_poly(digits + "*X", ring).terms == {(1, 0): want}
    assert parse_poly(digits + "^2*X", ring).terms == {(1, 0): want * want % 32003}
    report, code = run_block(f"ring [X,Y] p=32003\nideal {digits}*X\ndim\n")
    assert (code, report["status"], report["dim"]) == (0, "ok", 1)
    # an exponent is not reduced mod p, and p = 0 keeps its refusal
    for text, p, position in (("X^" + digits, 32003, 2), (digits + "*X", 0, 0)):
        with pytest.raises(ParseError, match="coefficient too large") as err:
            parse_poly(text, PolyRing(("X", "Y"), p))
        assert err.value.position == position
