import hashlib
import random
from fractions import Fraction

import pytest

from redsop import (
    GREVLEX,
    LEX,
    EliminationOrder,
    HomogeneityError,
    Ideal,
    Polynomial,
    PolyRing,
    buchberger,
    groebner,
)
from redsop.corpus import CorpusSpec, default_ring, fixtures, random_monomial_ideal
from redsop.monomial import monomial_intersection, oracle_dim
from redsop.poly import monomials_of_degree
from redsop.sop import _random_invertible
from redsop.suites import run_suites


def gb_strs(ideal_or_basis):
    basis = ideal_or_basis.groebner_basis() if isinstance(ideal_or_basis, Ideal) else ideal_or_basis
    return sorted(str(g) for g in basis)


def test_an_ideal_keeps_its_last_sum_only(R):
    J = R.ideal("XY", "XZ")
    x, y = R.poly("X+Y+Z"), R.poly("Y")
    Jx = J + (x,)
    assert J + (x,) is Jx
    Jy = J + (y,)
    assert Jy is not Jx and J + (y,) is Jy
    again = J + (x,)
    assert again is not Jx and again == Jx


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


@pytest.mark.parametrize("p", [32003, 0, 2])
def test_saturation_by_non_monomials(p):
    ring = PolyRing(("X", "Y", "Z"), p)
    J = ring.ideal("(X+Y)Y", "(X+Y)Z")
    assert J.saturation(ring.poly("Y")) == ring.ideal("X+Y")
    assert J.saturation(ring.poly("X+Y")) == ring.ideal("Y", "Z")


@pytest.mark.parametrize("p", [32003, 0, 2])
def test_colons_by_forms_of_degree_two_and_three(p):
    ring = PolyRing(("X", "Y", "Z"), p)
    for e in (2, 3):
        f = ring.poly(f"(X+Y)^{e}")
        J = ring.ideal(f"(X+Y)^{e} Y", f"(X+Y)^{e} Z")
        assert J.quotient(f) == ring.ideal("Y", "Z")
        assert J.saturation(f) == ring.ideal("Y", "Z")
        assert J.quotient(ring.poly("(X+Y)Y")) == ring.ideal(f"(X+Y)^{e - 1}")
        assert J.saturation(ring.poly("X^2 + Z^2")) == J


def _is_colon(Q, J, f):
    """Q = (J : f), checked through the elimination route: Q*f inside J and
    (J cap (f)) inside f*Q."""
    ring = J.ring
    fQ = Ideal(ring, [f * q for q in Q.gens])
    return (all(J.contains(f * q) for q in Q.gens)
            and all(fQ.contains(g) for g in J.intersect(Ideal(ring, (f,))).gens))


@pytest.mark.parametrize("p", [0, 2])
def test_colons_of_non_monomial_ideals(p):
    ring = PolyRing(("X", "Y", "Z"), p)
    J = ring.ideal("X^2 Y + Y Z^2", "X Z^2 - Y^2 Z")
    for text in ("X", "Y + Z", "X^2 - YZ", "XYZ"):
        f = ring.poly(text)
        Q = J.quotient(f)
        S = J.saturation(f)
        assert Q != J and not S.is_unit(), text
        assert _is_colon(Q, J, f), text
        # (J : f^4) is stable under (- : f), so it is the saturation
        assert _is_colon(S, J, f ** 4) and S.quotient(f) == S, text
    assert J.saturation(ring.poly("X")) != J.quotient(ring.poly("X"))


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


def test_tag_variable_avoids_the_ring_names():
    # the tag is named t, else t0, t00, ...: here it must pass over both taken names
    ring = PolyRing(("t", "t0", "x"))
    J = ring.ideal("(t + t0) x", "(t + t0) t0")  # (t + t0) * (x, t0)
    f = ring.poly("t + t0")
    assert J.quotient(f) == J.saturation(f) == ring.ideal("x", "t0")
    assert J.saturation(ring.poly("x + t0")) == ring.ideal("t + t0")
    rng = random.Random(3)
    for _ in range(20):
        A = random_monomial_ideal(ring, rng, 4, 3)
        B = random_monomial_ideal(ring, rng, 3, 3)
        assert A.intersect(B) == monomial_intersection(A, B)


def test_radical_membership(R):
    assert R.ideal("X^2").radical_contains(R.poly("X"))
    assert not R.ideal("XY", "XZ").radical_contains(R.poly("Y"))
    assert R.ideal("XY").radical_contains(R.zero)


@pytest.mark.parametrize("p", [32003, 0, 2])
def test_radical_membership_of_non_monomial_ideals(p):
    ring = PolyRing(("X", "Y", "Z"), p)
    J = ring.ideal("(X+Y)^3", "(X+Y)^2 Z", "Z^2")
    assert J.radical_contains(ring.poly("X+Y"))
    assert J.radical_contains(ring.poly("XZ + YZ + Z^2"))
    assert not J.radical_contains(ring.poly("X"))
    # rad J = (X+Y, Z); over GF(2), X^2 + Y^2 + Z^2 = (X+Y+Z)^2
    assert J.radical_contains(ring.poly("X^2 + Y^2 + Z^2")) == (p == 2)


def test_colons_refuse_inhomogeneous_input(R):
    J = R.ideal("XY", "XZ")
    inhomogeneous = R.ideal("XY + Z", "XZ")
    for op in (J.quotient, J.saturation, J.radical_contains):
        with pytest.raises(HomogeneityError):
            op(R.poly("X^2 + Y"))
    for op in (inhomogeneous.quotient, inhomogeneous.saturation,
               inhomogeneous.radical_contains):
        with pytest.raises(HomogeneityError):
            op(R.poly("X"))


def test_colons_build_no_elimination_basis(R, monkeypatch):
    real = groebner.buchberger

    def refuse_elimination(gens, order=GREVLEX):
        assert not isinstance(order, EliminationOrder)
        return real(gens, order)

    monkeypatch.setattr(groebner, "buchberger", refuse_elimination)
    J = R.ideal("(X+Y)Y", "(X+Y)Z", "X^2 + YZ")
    for f in (R.poly("Y"), R.poly("X+Y"), R.poly("X^2 + Z^2")):
        J.quotient(f).groebner_basis()
        J.saturation(f).groebner_basis()
        J.radical_contains(f)


def test_dim_quotient(R):
    assert R.ideal("XY", "XZ").dim_quotient() == 2
    assert Ideal(R, ()).dim_quotient() == 3
    assert R.irrelevant_ideal().dim_quotient() == 0
    assert R.ideal("1").dim_quotient() == -1


def test_dim_quotient_variable_cap():
    big = PolyRing(tuple(f"x{i}" for i in range(9)))
    assert Ideal(big, ()).dim_quotient() == 9
    rng = random.Random(29)
    for n in range(9, 13):
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        for _ in range(10):
            J = random_monomial_ideal(ring, rng, 6, 3)
            if J.is_proper():
                assert J.dim_quotient() == oracle_dim(J)


def test_dim_search_budget():
    # k disjoint pairs make the search visit 2^(k+1) - 1 free sets
    for k, fits in ((11, True), (12, False)):
        ring = PolyRing(tuple(f"x{i}" for i in range(2 * k)))
        J = ring.ideal(*(f"x{2 * i}*x{2 * i + 1}" for i in range(k)))
        if fits:
            assert J.dim_quotient() == k
        else:
            with pytest.raises(ValueError, match="too large"):
                J.dim_quotient()


@pytest.fixture
def no_basis(monkeypatch):
    """Fail any basis computation: monomial generator sets must not need one."""
    def refuse(gens, order=GREVLEX):
        raise AssertionError("a basis was computed")

    monkeypatch.setattr(groebner, "buchberger", refuse)


def test_monomial_dimension_edge_cases(R, no_basis):
    unit = R.ideal("3*X", "5")
    assert unit.dim_quotient() == -1 and unit.is_unit()
    mixed = Ideal(R, [R.zero, R.poly("XY"), R.zero, R.poly("XZ")])
    assert mixed.dim_quotient() == 2 and not mixed.is_unit()
    assert Ideal(R, [R.zero]).dim_quotient() == 3
    wide = PolyRing(tuple(f"x{i}" for i in range(40)))
    assert Ideal(wide, ()).dim_quotient() == 40
    assert Ideal(wide, [wide.zero]).dim_quotient() == 40
    pairs = wide.ideal(*(f"x{2 * i}*x{2 * i + 1}" for i in range(20)))
    with pytest.raises(ValueError, match="too large"):
        pairs.dim_quotient()


def _random_generators(ring, rng, homogeneous, scale):
    """2-4 generators with small coefficients, the first of 2-3 terms; each of one
    degree when ``homogeneous``; every exponent multiplied by ``scale``."""
    gens = []
    for k in range(rng.randint(2, 4)):
        degree = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(2, 3) if k == 0 else rng.randint(1, 3)):
            m = (rng.choice(monomials_of_degree(ring.n, degree)) if homogeneous
                 else tuple(rng.randint(0, 2) for _ in range(ring.n)))
            terms[tuple(scale * e for e in m)] = rng.choice((1, -1, 2, 3, -5))
        gens.append(Polynomial(ring, terms))
    return gens


def _basis_answers(gens):
    """(leading exponents, is_zero, is_unit) read off buchberger's reduced basis."""
    basis = buchberger(gens)
    return (tuple(next(iter(g.terms)) for g in basis), not basis,
            len(basis) == 1 and basis[0].degree() == 0)


@pytest.mark.parametrize("p", [32003, 2, 3, 0])
def test_leading_exponents_without_interreduction_match_the_reduced_basis(p):
    rng = random.Random(f"leading:{p}")
    for n in (2, 3, 4):
        ring = PolyRing(tuple("XYZW"[:n]), p)
        cases = [[ring.zero], [ring.poly("X + 1"), ring.poly("X")], [ring.poly("X*Y - 1")]]
        cases += [_random_generators(ring, rng, k % 2 == 0, 300 if k % 3 == 0 else 1)
                  for k in range(24)]
        for gens in cases:
            lead, zero, unit = _basis_answers(gens)
            nonzero = [g.terms for g in gens if g.terms]
            if any(len(t) > 1 for t in nonzero):
                assert groebner._leading_exponents(ring, nonzero) == lead, gens
            J = Ideal(ring, gens)
            assert J.is_zero() == zero and J.is_unit() == unit and J.is_proper() != unit, gens
            if J.monomial_exponents() is None:
                assert J.leading_exponents() == lead
            assert J.dim_quotient() == groebner.monomial_dim_core(n, lead)[0]
        assert Ideal(ring, ()).is_zero() and not Ideal(ring, ()).is_unit()


def test_leading_exponents_survive_a_field_widening_restart(monkeypatch):
    ring = PolyRing(("X", "Y", "Z"), 32003)
    gens = [ring.poly("X^3 + Y^2*Z"), ring.poly("X*Y*Z - Z^3"), ring.poly("Y^3 - X*Z^2")]
    want = _basis_answers(gens)[0]
    kernel, packings = groebner._buchberger_raw, []

    def overflow_once(polys, packing, p):
        # a full first run that then reports an overflow, as a late leading monomial would
        packings.append(packing)
        basis = kernel(polys, packing, p)
        if len(packings) == 1:
            raise OverflowError("a leading monomial outgrew half its packed fields")
        return basis

    monkeypatch.setattr(groebner, "_buchberger_raw", overflow_once)
    assert groebner._leading_exponents(ring, [g.terms for g in gens]) == want
    assert len(packings) == 2 and packings[1].half > packings[0].half


def test_dimension_numerator_and_units_cache_no_basis(R, monkeypatch):
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    J = R.ideal("X^2 + YZ", "XY - Z^2")
    assert J.dim_quotient() == 1 and J.hilbert_numerator() == (1, 0, -2, 0, 1)
    assert J.is_proper() and not J.is_zero()
    assert groebner._GB_CACHE == {}
    # the reduced basis still goes through the cache, with the same leading exponents
    basis = J.groebner_basis()
    assert list(groebner._GB_CACHE.values()) == [basis]
    assert J.leading_exponents() == tuple(next(iter(g.terms)) for g in basis)


def _change_coordinates(J, rng):
    """J under a random invertible linear change of the variables."""
    ring = J.ring
    images = [sum((ring.gen(j).scale(c) for j, c in enumerate(row)), ring.zero)
              for row in _random_invertible(ring.n, ring, rng)]

    def image(f):
        out = ring.zero
        for m, c in f.terms.items():
            term = ring.const(c)
            for img, e in zip(images, m):
                term = term * img ** e
            out = out + term
        return out

    return Ideal(ring, [image(g) for g in J.gens])


@pytest.mark.parametrize("p", [32003, 0])
def test_leading_term_and_exponent_supports_agree(p):
    rng = random.Random(41)
    for n in range(1, 5):
        for J in fixtures(CorpusSpec(n=n, max_gens=6, max_degree=3, count=12, seed=n, p=p)):
            T = _change_coordinates(J, rng)
            assert T.monomial_exponents() is None or n == 1
            assert T.dim_quotient() == J.dim_quotient() == oracle_dim(J)


@pytest.mark.parametrize("p", [0, 2])
def test_kernel_suite_over_other_fields(p):
    result = run_suites(["kernel"], 90125, 40, p=p)[0]
    assert result.instances == 40 and result.violations == 0


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


def _pinned_ideals(ring, rng, count):
    """Seeded 3-generator ideals, each with at least one non-monomial generator."""
    ideals = []
    while len(ideals) < count:
        gens = []
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(2, 3)):
                terms[tuple(rng.randint(0, 2) for _ in range(ring.n))] = rng.choice((1, -1, 2, 3, -5))
            gens.append(Polynomial(ring, terms))
        if any(len(g) > 1 for g in gens):
            ideals.append(gens)
    return ideals


def test_reduced_bases_are_pinned_under_every_order():
    # 120 reduced bases: 10 ideals per field, each under four orders; the
    # digest was recorded before the kernel's order keys were memoized
    lines = []
    for p in (32003, 0, 2):
        ring = PolyRing(("X", "Y", "Z"), p)
        for gens in _pinned_ideals(ring, random.Random(p), 10):
            for order in (GREVLEX, LEX, EliminationOrder(1), EliminationOrder(2)):
                lines.append(" ; ".join(str(g) for g in buchberger(gens, order)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "47302127af96fcad4cfead0a56adb317101d39979d8cb1caa2f342419151cc98"


def _monic_terms(terms, lead, p):
    """Frozen monic form of a coefficient map, given its leading monomial."""
    if p:
        inv = pow(terms[lead] % p, p - 2, p)
        return frozenset((m, c * inv % p) for m, c in terms.items())
    return frozenset((m, c / terms[lead]) for m, c in terms.items())


@pytest.mark.parametrize("p", [32003, 0])
def test_buchberger_agrees_with_sympy(p):
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(("X", "Y", "Z"), p)
    syms = sympy.symbols("X Y Z")
    options = {"modulus": p} if p else {}
    for gens in _pinned_ideals(ring, random.Random(1000 + p), 30):
        ours = {_monic_terms(g.terms, g.leading_monomial(), p) for g in buchberger(gens, GREVLEX)}
        exprs = [sum(int(c) * sympy.Mul(*(x ** e for x, e in zip(syms, m))) for m, c in g.terms.items())
                 for g in gens]
        theirs = set()
        for q in sympy.groebner(exprs, *syms, order="grevlex", **options).polys:
            # sympy gives residues mod p symmetrically and keeps integer content over QQ
            terms = {m: Fraction(int(c.p), int(c.q)) if not p else int(c) % p
                     for m, c in q.as_dict().items()}
            theirs.add(_monic_terms(terms, q.monoms(order="grevlex")[0], p))
        assert ours == theirs
