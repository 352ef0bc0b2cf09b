import random

import pytest

from redsop import (
    GREVLEX,
    LEX,
    EliminationOrder,
    ParseError,
    PolyRing,
    normal_form,
)
from redsop.corpus import random_monomial
from redsop.poly import _is_prime, mono_mul


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
    assert f.coefficient((2, 1, 0)) == 2
    assert f.coefficient((0, 0, 3)) == 32000  # -3 mod 32003


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
    basis = [R.poly("XY"), R.poly("XZ")]
    assert normal_form(R.poly("XY"), basis).is_zero()


def test_normal_form_irreducible(R):
    basis = [R.poly("XY"), R.poly("XZ")]
    assert normal_form(R.poly("YZ"), basis) == R.poly("YZ")


def test_normal_form_single_step(R):
    assert normal_form(R.poly("X^2Y + Z"), [R.poly("XY")]) == R.poly("Z")


def test_normal_form_rejects_zero_basis(R):
    with pytest.raises(ValueError):
        normal_form(R.poly("X"), [R.zero])


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
            assert order.key(mono_mul(a, c)) < order.key(mono_mul(b, c))
        # one is the minimum
        assert order.key(one) <= ka


def test_elimination_order_blocks():
    order = EliminationOrder(1)
    # any monomial involving the first variable beats any that avoids it
    assert order.key((1, 0, 0)) > order.key((0, 5, 7))


def test_division_contract_random(R):
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
        rem = normal_form(f, basis)
        # remainder is irreducible
        lts = [g.leading_monomial() for g in basis]
        for m in rem.terms:
            assert not any(all(a <= b for a, b in zip(lt, m)) for lt in lts)
        # f - rem reduces to zero
        assert normal_form(f - rem, basis).is_zero()


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
