import pytest

from redsop import (
    CyclicModule,
    HomogeneityError,
    Ideal,
    ParamSequence,
    PolyRing,
    depth_monomial,
    depth_oracle,
    is_cm_reducing,
    is_part_of_sop,
    is_reducing_sop,
    is_regular_sequence,
    make_reducing,
    max_assoc_dim_containing,
    monomial,
    random_sop,
)
from redsop.sop import depth_with_certificate


def seq(ring, text):
    return ParamSequence.parse(ring, text)


# --- module and sequence construction ---------------------------------------

def test_module_requires_proper_ideal(R):
    with pytest.raises(ValueError):
        CyclicModule(R.ideal("1"))


def test_module_requires_homogeneous_ideal(R):
    with pytest.raises(HomogeneityError):
        CyclicModule(R.ideal("X^2 + Y"))


def test_sequence_requires_positive_degree(R):
    with pytest.raises(ValueError):
        ParamSequence(R, (R.poly("7"),))
    with pytest.raises(HomogeneityError):
        ParamSequence(R, (R.poly("X^2 + Y"),))


def test_dimension_of_fixture(M):
    assert M.d == 2


def test_module_is_its_ideal(R, M):
    J = R.ideal("XY", "XZ")
    assert CyclicModule(J).ring is J.ring
    assert CyclicModule(R.ideal("XZ", "XY", "XY + XZ")) == M
    assert CyclicModule(R.ideal("XY")) != M
    other = PolyRing(("X", "Y", "Z"), 2)
    assert CyclicModule(other.ideal("XY", "XZ")) != M


# --- is_part_of_sop ----------------------------------------------------------

def test_fixture_sop(R, M):
    assert is_part_of_sop(seq(R, "Y; X+Y+Z"), M)


def test_single_element_not_dropping_dimension(R, M):
    assert not is_part_of_sop(seq(R, "X"), M)


def test_empty_sequence_is_part_of_sop(R, M):
    assert is_part_of_sop(seq(R, ""), M)


def test_part_of_sop_length_check(R, M):
    with pytest.raises(ValueError):
        is_part_of_sop(seq(R, "X; Y; Z"), M)


# --- the dimension filter ----------------------------------------------------

def test_filter_on_zero_divisor(R, M):
    assert max_assoc_dim_containing(R.poly("Y"), M) == 1


def test_filter_on_non_zero_divisor(R, M):
    assert max_assoc_dim_containing(R.poly("X+Y+Z"), M) == -1


def test_filter_on_top_component(R, M):
    assert max_assoc_dim_containing(R.poly("X"), M) == 2


# --- reducing checks ---------------------------------------------------------

def test_fixture_order_dependence(R, M):
    bad = is_reducing_sop(seq(R, "Y; X+Y+Z"), M)
    assert not bad.ok
    w = bad.witness
    assert w.kind == "associated_prime"
    assert w.index == 1 and w.threshold == 1 and w.dim == 1
    assert w.ideal == R.ideal("Y", "Z")
    assert w.prime is not None and w.prime.vars == frozenset({"Y", "Z"})

    good = is_reducing_sop(seq(R, "X+Y+Z; Y"), M)
    assert good.ok and good.witness is None


def test_reducing_non_sop_witness(R, M):
    chk = is_reducing_sop(seq(R, "X; Y"), M)
    assert not chk.ok and chk.witness.kind == "not_system_of_parameters"


def test_reducing_vacuous_in_dimension_one():
    ring = PolyRing(("X", "Y"))
    M1 = CyclicModule(ring.ideal("XY"))
    assert M1.d == 1
    assert is_reducing_sop(ParamSequence.parse(ring, "X+Y"), M1).ok


def test_reducing_length_check(R, M):
    # every length 0 <= r <= d is decided; only r > d is refused
    with pytest.raises(ValueError):
        is_reducing_sop(seq(R, "X; Y; Z"), M)
    assert is_reducing_sop(seq(R, ""), M).ok


def test_part_of_reducing(R, M):
    assert is_reducing_sop(seq(R, "X+Y"), M).ok
    bad = is_reducing_sop(seq(R, "Y"), M)
    assert not bad.ok and bad.witness.ideal == R.ideal("Y", "Z")


def test_part_of_reducing_rejects_full_length(R, M):
    # r = d is the last case of the one checker; only r > d is refused
    full = is_reducing_sop(seq(R, "Y; X+Y+Z"), M)
    assert not full.ok and full.witness.index == 1
    with pytest.raises(ValueError):
        is_reducing_sop(seq(R, "Y; X+Y+Z; X"), M)


def test_non_zero_divisor_is_reducing_part(R, M):
    # a non-zero-divisor that is part of a sop is always a reducing part
    assert is_reducing_sop(seq(R, "X+Y+Z"), M).ok


# --- constructions -----------------------------------------------------------

def test_make_reducing_fixes_fixture(R, M):
    res = make_reducing(seq(R, "Y; X+Y+Z"), M, seed=5)
    assert res.ok
    assert Ideal(R, res.sequence.elems) == Ideal(R, seq(R, "Y; X+Y+Z").elems)
    assert is_reducing_sop(res.sequence, M).ok


def test_make_reducing_returns_already_reducing_input(R, M):
    xs = seq(R, "X+Y+Z; Y")
    res = make_reducing(xs, M, seed=5)
    assert res.ok and res.attempts == 0 and res.sequence == xs


def test_make_reducing_on_regular_ring():
    ring = PolyRing(("X", "Y"))
    free = CyclicModule(Ideal(ring, ()))
    res = make_reducing(ParamSequence.parse(ring, "X+Y; Y"), free, seed=1)
    assert res.ok and is_reducing_sop(res.sequence, free).ok


def test_make_reducing_rejects_non_sop(R, M):
    with pytest.raises(ValueError):
        make_reducing(seq(R, "X; Y"), M, seed=0)


def test_make_reducing_rejection_messages(R, M):
    with pytest.raises(ValueError, match="not part of a system of parameters"):
        make_reducing(seq(R, "X"), M, seed=0)
    with pytest.raises(ValueError, match=r"sequence longer \(3\) than dim M \(2\)"):
        make_reducing(seq(R, "X; Y; Z"), M, seed=0)


def test_make_reducing_compares_no_ideals_on_its_identity_attempt(R, M, monkeypatch):
    def refuse(self, other):
        raise AssertionError("two ideals were compared")

    monkeypatch.setattr(Ideal, "__eq__", refuse)
    for text in ("X+Y+Z; Y", "X+Y"):
        xs = seq(R, text)
        res = make_reducing(xs, M, seed=5)
        assert res.ok and res.attempts == 0 and res.sequence is xs


def test_make_reducing_compares_ideals_on_a_transformed_attempt(R, M, monkeypatch):
    compared = []
    eq = Ideal.__eq__

    def counted(self, other):
        compared.append((str(self), str(other)))
        return eq(self, other)

    monkeypatch.setattr(Ideal, "__eq__", counted)
    res = make_reducing(seq(R, "Y; X+Y+Z"), M, seed=5)
    assert res.ok and res.attempts > 0
    assert len(compared) == 1


def test_reducing_check_computes_one_numerator_per_prefix(monkeypatch):
    ran = []
    numerator = monomial.hilbert_numerator

    def counted(n, exps):
        ran.append(tuple(sorted(exps)))
        return numerator(n, exps)

    monkeypatch.setattr(monomial, "hilbert_numerator", counted)
    ring = PolyRing(("X", "Y", "Z", "W"))
    N = CyclicModule(ring.ideal("XY"))  # Ass: (X) and (Y), both of dimension 3
    assert is_reducing_sop(seq(ring, "Z; W"), N).ok
    assert len(ran) == len(set(ran)) == 3  # (XY), (XY, Z) and (XY, Z, W)


def test_make_reducing_part_identity(R, M):
    xs = seq(R, "X+Y")
    res = make_reducing(xs, M, seed=9)
    assert res.ok and res.attempts == 0 and res.sequence == xs


def test_make_reducing_part_fails_on_obstructed_element(R, M):
    # no sequence generating (Y) is reducing (the paper's Theorem 1), so the
    # identity is the one attempt
    res = make_reducing(seq(R, "Y"), M, seed=9)
    assert not res.ok and res.attempts == 1
    assert res.witness.kind == "associated_prime"
    assert res.witness == is_reducing_sop(seq(R, "Y"), M).witness


def test_make_reducing_part_on_free_module():
    ring = PolyRing(("X", "Y", "Z"))
    free = CyclicModule(Ideal(ring, ()))
    res = make_reducing(ParamSequence.parse(ring, "Y; X+Y+Z"), free, seed=2)
    assert res.ok and is_reducing_sop(res.sequence, free).ok


def test_random_sop_contract(R, M):
    xs = random_sop(M, seed=123)
    assert xs.r == 2 and is_part_of_sop(xs, M)
    assert xs == random_sop(M, seed=123)  # deterministic


def test_random_sop_avoids_components():
    ring = PolyRing(("X", "Y"))
    M1 = CyclicModule(ring.ideal("XY"))
    xs = random_sop(M1, seed=77)
    assert xs.r == 1 and is_part_of_sop(xs, M1)


def test_random_sop_zero_dimensional(R):
    M0 = CyclicModule(R.irrelevant_ideal())
    assert random_sop(M0, seed=1).r == 0


# --- regular sequences -------------------------------------------------------

def test_fixture_reducing_sop_not_regular(R, M):
    assert not is_regular_sequence(seq(R, "X+Y+Z; Y"), M)


def test_single_nzd_is_regular(R, M):
    assert is_regular_sequence(seq(R, "X+Y+Z"), M)


def test_variables_regular_on_free_module():
    ring = PolyRing(("X", "Y"))
    free = CyclicModule(Ideal(ring, ()))
    assert is_regular_sequence(ParamSequence.parse(ring, "X; Y"), free)


# --- depth and Cohen-Macaulay tests -------------------------------------------

def test_depth_of_fixture(M):
    assert depth_oracle(M, seed=4) == 1


def test_depth_of_free_module(R):
    free = CyclicModule(Ideal(R, ()))
    assert depth_oracle(free, seed=4) == 3


def test_depth_zero():
    ring = PolyRing(("X", "Y"))
    N = CyclicModule(ring.ideal("X^2", "XY"))
    assert depth_oracle(N, seed=4) == 0


def test_depth_certificate_is_regular_sequence(R, M):
    depth, cuts = depth_with_certificate(M, seed=4)
    assert depth == 1 == len(cuts)
    assert is_regular_sequence(ParamSequence(R, cuts), M)


@pytest.mark.parametrize("seed", range(1, 6))
def test_depth_over_gf2_draws_higher_degree_cuts(seed):
    # seeds 1 and 3 find no linear non-zero-divisor at depth 1
    ring = PolyRing(("X", "Y", "Z", "W"), 2)
    N = CyclicModule(ring.ideal("W", "XY^2Z"))
    depth, cuts = depth_with_certificate(N, seed)
    assert depth == depth_monomial(N.ideal) == 2
    assert is_regular_sequence(ParamSequence(ring, cuts), N)


def test_cm_tests_on_fixture(M):
    ok, cert = is_cm_reducing(M, seed=21)
    assert not ok
    assert cert.sop is not None and not cert.last_is_nzd
    assert depth_oracle(M, seed=22) != M.d


def test_cm_tests_on_hypersurface():
    ring = PolyRing(("X", "Y"))
    M1 = CyclicModule(ring.ideal("XY"))
    assert is_cm_reducing(M1, seed=31)[0]
    assert depth_oracle(M1, seed=32) == M1.d


def test_cm_tests_on_free_module(R):
    free = CyclicModule(Ideal(R, ()))
    assert is_cm_reducing(free, seed=41)[0]
    assert depth_oracle(free, seed=42) == free.d


def test_cm_tests_zero_dimensional(R):
    M0 = CyclicModule(R.irrelevant_ideal())
    ok, cert = is_cm_reducing(M0, seed=5)
    assert ok and cert.sop is None
    assert depth_oracle(M0, seed=5) == M0.d
