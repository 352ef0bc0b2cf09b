import random

import pytest

from redsop import Ideal, PolyRing, buchberger
from redsop.corpus import default_ring, random_monomial_ideal
from redsop.monomial import monomial_intersection, oracle_dim


def gb_strs(ideal_or_basis):
    basis = ideal_or_basis.groebner_basis() if isinstance(ideal_or_basis, Ideal) else ideal_or_basis
    return sorted(str(g) for g in basis)


def test_monomial_basis_already_reduced(R):
    assert gb_strs(buchberger([R.poly("XY"), R.poly("XZ")])) == ["X*Y", "X*Z"]


def test_linear_basis(R):
    assert gb_strs(buchberger([R.poly("X+Y"), R.poly("X-Y")])) == ["X", "Y"]


def test_zero_generators(R):
    assert buchberger([R.zero]) == ()
    assert buchberger([]) == ()


def test_buchberger_postconditions(R):
    gens = [R.poly("X^2 + YZ"), R.poly("XY - Z^2"), R.poly("Y^3 - XZ")]
    J = Ideal(R, gens)
    basis = J.groebner_basis()
    assert all(J.reduce(g).is_zero() for g in gens)
    # reduced: no term of any element is divisible by another leading term
    for g in basis:
        for h in basis:
            if g is h:
                continue
            lt = h.leading_monomial()
            assert not any(all(a <= b for a, b in zip(lt, m)) for m in g.terms)


def test_ideal_equality(R):
    assert R.ideal("XY", "XZ") == R.ideal("XZ", "XY")
    assert R.ideal("X") != R.ideal("X^2")
    assert R.ideal("Y", "X+Y+Z") == R.ideal("Y", "X+Z")


def test_quotient_by_poly(R):
    I = R.ideal("XY", "XZ")
    assert I.quotient(R.poly("Y")) == R.ideal("X")
    assert I.quotient(R.one) == I
    assert I.quotient(R.poly("X+Y+Z")) == I
    with pytest.raises(ValueError):
        I.quotient(R.zero)


def test_quotient_by_ideal(R):
    I = R.ideal("XY", "XZ")
    assert I.quotient_ideal(R.ideal("X")) == R.ideal("Y", "Z")
    assert I.quotient_ideal(R.ideal("1")) == I
    assert I.quotient_ideal(R.irrelevant_ideal()) == I
    with pytest.raises(ValueError):
        I.quotient_ideal(Ideal(R, (R.zero,)))


def test_saturation(R):
    I = R.ideal("XY", "XZ")
    assert I.saturation(R.poly("Y")) == R.ideal("X")
    assert I.saturation(R.poly("X+Y+Z")) == I
    assert R.ideal("X^2").saturation(R.poly("X")).is_unit()
    with pytest.raises(ValueError):
        I.saturation(R.zero)


@pytest.mark.parametrize("p", [32003, 0])
def test_saturation_by_non_monomials(p):
    ring = PolyRing(("X", "Y", "Z"), p)
    J = ring.ideal("(X+Y)Y", "(X+Y)Z")
    assert J.saturation(ring.poly("Y")) == ring.ideal("X+Y")
    assert J.saturation(ring.poly("X+Y")) == ring.ideal("Y", "Z")


def test_foreign_ring_element_is_refused(R):
    other = PolyRing(("A", "B", "C"))
    J = R.ideal("XY", "XZ")
    for op in (J.saturation, J.radical_contains):
        with pytest.raises(ValueError):
            op(other.poly("A"))


def test_intersection(R):
    assert R.ideal("X").intersect(R.ideal("Y", "Z")) == R.ideal("XY", "XZ")
    A = R.ideal("XY", "Z^2")
    assert A.intersect(A) == A
    assert R.ideal("X").intersect(R.ideal("Y")) == R.ideal("XY")


def test_eliminate_tag_variable():
    ring = PolyRing(("t", "X", "Y"))
    J = Ideal(ring, [ring.poly("tX"), ring.poly("Y - tY")])
    out = J.eliminate({"t"})
    assert out.ring.var_names == ("X", "Y")
    assert out == out.ring.ideal("XY")


def test_eliminate_middle_variable(R):
    out = R.ideal("X - Y", "Y - Z").eliminate({"Y"})
    assert out.ring.var_names == ("X", "Z")
    assert out == out.ring.ideal("X - Z")


def test_eliminate_nothing(R):
    J = R.ideal("XY")
    assert J.eliminate(set()) == J


def test_eliminate_everything_in_support(R):
    out = R.ideal("X - Y").eliminate({"X"})
    assert out.ring.var_names == ("Y", "Z")
    assert out.is_zero()


def test_radical_membership(R):
    assert R.ideal("X^2").radical_contains(R.poly("X"))
    assert not R.ideal("XY", "XZ").radical_contains(R.poly("Y"))
    assert R.ideal("XY").radical_contains(R.zero)


def test_dim_quotient(R):
    assert R.ideal("XY", "XZ").dim_quotient() == 2
    assert Ideal(R, ()).dim_quotient() == 3
    assert R.irrelevant_ideal().dim_quotient() == 0
    assert R.ideal("1").dim_quotient() == -1


def test_dim_quotient_variable_cap():
    big = PolyRing(tuple(f"x{i}" for i in range(9)))
    with pytest.raises(ValueError):
        Ideal(big, ()).dim_quotient()


def test_determinism_under_permutation_and_rescaling(R):
    rng = random.Random(3)
    gens = [R.poly("XY + Z^2"), R.poly("X^2 - YZ"), R.poly("Y^2Z")]
    reference = Ideal(R, gens).groebner_basis()
    for _ in range(20):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g.scale(rng.randrange(1, 32003)) for g in shuffled]
        assert Ideal(R, scaled).groebner_basis() == reference


def test_monomial_agreement_with_oracle():
    rng = random.Random(17)
    ring = default_ring(3)
    for _ in range(30):
        J = random_monomial_ideal(ring, rng, 4, 3)
        K = random_monomial_ideal(ring, rng, 3, 3)
        assert J.dim_quotient() == oracle_dim(J)
        assert J.intersect(K) == monomial_intersection(J, K)


def test_homogeneous_operations_stay_homogeneous(R):
    J = R.ideal("XY", "XZ")
    f = R.poly("X + 2Y")
    for K in (J + (f,), J.quotient(f), J.saturation(f), J.intersect(R.ideal("Y^2"))):
        assert all(b.is_homogeneous() for b in K.groebner_basis())


def test_ideal_generator_ring_check(R):
    other = PolyRing(("A", "B"))
    with pytest.raises(ValueError):
        Ideal(R, [other.poly("A")])
