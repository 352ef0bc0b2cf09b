"""Non-zero-divisors by Hilbert series, checked against the colon route,
and the one-colon depth-0 certificate against the socle colon."""

import collections
import itertools
import random

import pytest

from redsop import (
    CyclicModule,
    Ideal,
    ParamSequence,
    Polynomial,
    PolyRing,
    construct_reducing_part_in_prime,
    groebner,
    is_reducing_sop,
    max_assoc_dim_containing,
    monomial,
    sop,
)
from redsop.corpus import module_stream
from redsop.groebner import _monomial_ideal
from redsop.session import run_block
from redsop.suites import run_suites
from redsop.sop import (
    _assoc_dim_witness,
    _has_depth_zero,
    _random_invertible,
    depth_with_certificate,
    is_cm_reducing,
    is_regular_sequence,
    random_homogeneous,
)


def _substitute(f, images):
    """f with variable i replaced by images[i]."""
    ring = f.ring
    out = ring.zero
    for m, c in f.terms.items():
        term = ring.const(c)
        for img, e in zip(images, m):
            term = term * img ** e
        out = out + term
    return out


def _fixtures():
    """(J, x) pairs: monomial ideals after a random invertible linear change.

    x runs over a linear and a quadratic random form and the images of a
    variable and of a degree-2 monomial, which are often zero-divisors.
    """
    for p in (32003, 0, 2):
        for n in (2, 3, 4):
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), p)
            for seed in range(4):
                rng = random.Random(f"{p}:{n}:{seed}")
                exps = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
                exps = [m for m in exps if any(m)] or [(1,) + (0,) * (n - 1)]
                mat = _random_invertible(n, ring, rng)
                images = [Polynomial(ring, {tuple(int(j == k) for j in range(n)): c
                                            for k, c in enumerate(row) if ring.coeff(c)})
                          for row in mat]
                J = Ideal(ring, [_substitute(g, images) for g in _monomial_ideal(ring, exps).gens])
                v = rng.randrange(n)
                w = rng.randrange(n)
                for x in (random_homogeneous(ring, 1, rng), random_homogeneous(ring, 2, rng),
                          images[v], images[v] * images[w]):
                    yield J, x


def _saturate_first(x, J):
    """The torsion dimension through W = J : (J : x^inf): dim R/W, or -1 when J : x^inf = J."""
    sat = J.saturation(x)
    return -1 if sat == J else J.quotient_ideal(sat).dim_quotient()


def test_hilbert_test_agrees_with_the_colon_route():
    seen = {True: 0, False: 0}
    for J, x in _fixtures():
        found = _assoc_dim_witness(J, x)
        nzd = found < 0
        assert nzd == (J.quotient(x) == J), (str(J), str(x))
        seen[nzd] += 1
        assert found == _saturate_first(x, J), (str(J), str(x))
    assert seen[True] >= 20 and seen[False] >= 20, seen


def test_non_homogeneous_element_is_refused():
    R = PolyRing(("X", "Y"))
    J = R.ideal("XY")
    x = R.poly("X + 1")
    with pytest.raises(ValueError):
        _assoc_dim_witness(J, x)


class ColonCalled(AssertionError):
    pass


@pytest.fixture
def no_colon(monkeypatch):
    def refuse(self, *args):
        raise ColonCalled("a colon ran")

    monkeypatch.setattr(Ideal, "quotient", refuse)
    monkeypatch.setattr(Ideal, "quotient_ideal", refuse)


@pytest.mark.parametrize("ideal", ["XY", "X^2, Y^2, Z^2"])
def test_cm_answers_need_no_colon(no_colon, ideal):
    for command in ("depth", "is-cm both"):
        report, code = run_block(f"ring [X,Y,Z] p=32003\nideal {ideal}\nseed 5\n{command}\n")
        assert code == 0, report
        assert report["depth"] == report["dim"] == (2 if ideal == "XY" else 0)
    assert report["verdict"] and report["agree"]


def test_regular_sequence_needs_no_colon(no_colon):
    R = PolyRing(("X", "Y", "Z"))
    M = CyclicModule(R.ideal("XY"))
    assert is_regular_sequence(ParamSequence.parse(R, "X+Y; Z"), M)
    assert not is_regular_sequence(ParamSequence.parse(R, "X; Z"), M)


def test_each_ideal_computes_its_numerator_once(monkeypatch):
    ran = []
    numerator = monomial.hilbert_numerator

    def counted(n, exps):
        ran.append(exps)
        return numerator(n, exps)

    monkeypatch.setattr(monomial, "hilbert_numerator", counted)
    R = PolyRing(("X", "Y", "Z"))
    assert is_regular_sequence(ParamSequence.parse(R, "X+Y; Z"), CyclicModule(R.ideal("XY")))
    assert len(ran) == 3  # (XY), (XY, X+Y) and (XY, X+Y, Z), each once


def test_each_prefix_ideal_is_built_once(monkeypatch, R, M):
    """A reducing check of a part, and the construction with its final
    check, run the kernel and compute the numerator once per prefix ideal."""
    built = collections.Counter()
    kernel = groebner._buchberger_raw
    numerator = monomial.hilbert_numerator

    def counted_kernel(polys, packing, p):
        # keyed by the packed input, read before the kernel takes the leading terms out
        built[tuple((tuple(sorted(t.items())), s) for t, s in polys), packing] += 1
        return kernel(polys, packing, p)

    def counted_numerator(n, exps):
        built[tuple(exps)] += 1
        return numerator(n, exps)

    monkeypatch.setattr(groebner, "_buchberger_raw", counted_kernel)
    monkeypatch.setattr(monomial, "hilbert_numerator", counted_numerator)
    ring = PolyRing(("X", "Y", "Z", "W"))
    N = CyclicModule(ring.ideal("XY", "XZ"))  # dimension 3
    assert is_reducing_sop(ParamSequence.parse(ring, "X+Y; Z+W"), N).ok
    # the numerator of (XY, XZ), which needs no kernel, then one kernel run and
    # one numerator for each of the two prefixes
    assert sorted(built.values()) == [1] * 5, built
    built.clear()
    assert construct_reducing_part_in_prime(M, R.ideal("X", "Y"), 1, seed=5).ok
    assert built and set(built.values()) == {1}, built


def test_cm_test_builds_each_prefix_of_its_sop_once(monkeypatch, M):
    """random_sop, make_reducing's check and the last test share the prefix
    ideals of the sop, with their numerators."""
    built = collections.Counter()
    numerators = collections.Counter()
    init = Ideal.__init__
    numerator = monomial.hilbert_numerator

    def counted_init(self, ring, gens):
        init(self, ring, gens)
        built[tuple(map(str, self.gens))] += 1

    def counted_numerator(n, exps):
        numerators[tuple(exps)] += 1
        return numerator(n, exps)

    monkeypatch.setattr(Ideal, "__init__", counted_init)
    monkeypatch.setattr(monomial, "hilbert_numerator", counted_numerator)
    ok, cert = is_cm_reducing(M, seed=21)  # make_reducing keeps random_sop's sop
    assert not ok and cert.sop.r == 2
    prefixes = [tuple(map(str, M.ideal.gens + cert.sop.elems[:i])) for i in (1, 2)]
    assert [built[p] for p in prefixes] == [1, 1], built
    # the numerators of (XY, XZ) and of its two prefix sums
    assert len(numerators) == 3 and set(numerators.values()) == {1}, numerators


def test_non_cm_module_reaches_the_socle_test(no_colon, M):
    with pytest.raises(ColonCalled):
        depth_with_certificate(M, seed=5)


@pytest.fixture
def no_ideal_colon(monkeypatch):
    def refuse(self, *args):
        raise ColonCalled("a colon by an ideal ran")

    monkeypatch.setattr(Ideal, "quotient_ideal", refuse)
    monkeypatch.setattr(Ideal, "intersect", refuse)


def test_avoidance_needs_no_ideal_colon(no_ideal_colon, R, M):
    ring = PolyRing(("X", "Y", "Z", "W"))
    N = CyclicModule(ring.ideal("X^2", "XY", "XZ"))  # Ass: (X) of dim 3, (X, Y, Z) of dim 1
    assert max_assoc_dim_containing(ring.poly("Y+Z"), N) == 1
    assert is_reducing_sop(ParamSequence.parse(ring, "Y+Z; W"), N).ok
    assert construct_reducing_part_in_prime(M, R.ideal("X", "Y"), 1, seed=5).ok
    assert not construct_reducing_part_in_prime(M, R.ideal("Y", "Z"), 1, seed=5).ok


def test_generic_non_cm_level_needs_no_ideal_colon(no_ideal_colon, M):
    depth, cuts = depth_with_certificate(M, seed=5)
    assert depth == 1 and len(cuts) == 1


@pytest.fixture
def socle_colons(monkeypatch):
    """A list that gains one entry per socle colon (J : m) run."""
    ran = []
    colon = Ideal.quotient_ideal

    def counted(self, other):
        ran.append(str(self))
        return colon(self, other)

    monkeypatch.setattr(Ideal, "quotient_ideal", counted)
    return ran


def test_depth_certificate_agrees_with_the_socle_route(socle_colons, monkeypatch):
    def socle_only(J, x):
        return J.quotient_ideal(J.ring.irrelevant_ideal()) != J

    inputs = [(M, rng.getrandbits(32)) for p in (32003, 3, 2)
              for M, rng in itertools.islice(module_stream(p, p=p), 40)]
    new = [depth_with_certificate(M, seed) for M, seed in inputs]
    fallbacks = len(socle_colons)
    monkeypatch.setattr(sop, "_has_depth_zero", socle_only)
    old = [depth_with_certificate(M, seed) for M, seed in inputs]
    assert new == old
    assert 0 < fallbacks < len(socle_colons), (fallbacks, len(socle_colons))


def test_socle_fallback_when_the_kernel_has_infinite_length(socle_colons):
    R = PolyRing(("X", "Y", "Z"))
    J = R.ideal("X^2", "XY", "Z")  # (J : X)/J holds every power of Y; X spans the socle
    X = R.poly("X")
    assert _assoc_dim_witness(J, X) == 1
    assert _has_depth_zero(J, X)
    assert socle_colons == [str(J)]


# --- small prime fields, where every linear form can be a zero-divisor ------

def _all_linear_forms_product(ring):
    """The product of one representative of each linear form up to scalars."""
    f = ring.one
    for coeffs in itertools.product(range(ring.p), repeat=ring.n):
        nonzero = [c for c in coeffs if c]
        if nonzero and nonzero[0] == 1:
            f = f * sum((v.scale(c) for c, v in zip(coeffs, ring.gens())), ring.zero)
    return f


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("p, n, degree", [(2, 2, 3), (3, 2, 4), (2, 3, 7), (3, 3, 13)],
                         ids=["gf2-2", "gf3-2", "gf2-3", "gf3-3"])
def test_product_of_all_linear_forms_is_cohen_macaulay(p, n, degree, seed, socle_colons):
    # R/(f) is a hypersurface, so CM of depth n - 1, yet every linear form divides f
    ring = PolyRing(("X", "Y", "Z")[:n], p)
    f = _all_linear_forms_product(ring)
    assert f.degree() == degree
    M = CyclicModule(Ideal(ring, (f,)))

    depth, cuts = depth_with_certificate(M, seed)
    assert depth == len(cuts) == M.d == n - 1
    # at each level of positive dimension the first linear draw is a
    # zero-divisor whose kernel has positive dimension, so that level
    # falls back to the socle colon, which finds no socle
    assert len(socle_colons) == n - 1

    ok, cert = is_cm_reducing(M, seed)
    assert ok and cert.last_is_nzd

    names = ",".join(ring.var_names)
    report, code = run_block(f"ring [{names}] p={p}\nideal {f}\nseed {seed}\nis-cm both\n")
    assert code == 0, report
    assert report["verdict"] is True and report["agree"] is True
    assert report["depth"] == n - 1


@pytest.mark.parametrize("p", [2, 3])
def test_cm_equivalence_over_small_fields(p):
    result = run_suites(["cm-equivalence"], 90125, 200, p=p)[0]
    assert result.instances == 200 and result.violations == 0, result.first_counterexample
