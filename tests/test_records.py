"""Value semantics of redsop's record classes: which compare by field, which
hash, and the repr text of each."""

import functools

import pytest

from redsop.cmlocus import CmLocusEntry
from redsop.corpus import CorpusSpec
from redsop.groebner import _TagOrder
from redsop.monomial import IrreducibleComponent, MonomialPrime
from redsop.poly import GREVLEX, LEX, EliminationOrder, GrevlexOrder, LexOrder, PolyRing
from redsop.session import SessionInput
from redsop.sop import (
    CmCertificate,
    ConstructionResult,
    CyclicModule,
    ReducingCheck,
    ViolationWitness,
)
from redsop.suites import SuiteResult

R = PolyRing(("X", "Y"), 7)
P = MonomialPrime(R, frozenset({"X"}))


def test_rings_compare_and_hash_by_names_and_characteristic():
    same = PolyRing(["X", "Y"], 7)
    assert same == R and hash(same) == hash(R) == hash((("X", "Y"), 7))
    assert same.var_names == ("X", "Y") and same.n == 2
    assert R != PolyRing(("X", "Y")) and R != PolyRing(("Y", "X"), 7)
    assert len({R, same, PolyRing(("X", "Y"))}) == 2


def test_orders_are_values():
    assert GREVLEX == GrevlexOrder() and LEX == LexOrder() and GREVLEX != LEX
    assert hash(GREVLEX) == hash(GrevlexOrder()) == hash(())
    assert EliminationOrder(1) == EliminationOrder(1) != EliminationOrder(2)
    assert hash(EliminationOrder(1)) == hash((1,)) == hash(_TagOrder(1))
    assert EliminationOrder(1) != _TagOrder(1) and _TagOrder(1) != EliminationOrder(1)
    assert EliminationOrder(0) != GREVLEX


def test_orders_key_lru_caches_apart():
    calls = []

    @functools.lru_cache(maxsize=None)
    def named(order):
        calls.append(order)
        return type(order).__name__

    assert [named(o) for o in (EliminationOrder(1), _TagOrder(1), EliminationOrder(1),
                               _TagOrder(1), GrevlexOrder(), GREVLEX)] == [
        "EliminationOrder", "_TagOrder", "EliminationOrder", "_TagOrder",
        "GrevlexOrder", "GrevlexOrder"]
    assert calls == [EliminationOrder(1), _TagOrder(1), GREVLEX]


def test_monomial_primes_and_components_are_dict_keys():
    seen = {P: "P", IrreducibleComponent(R, ((0, 2),)): "C"}
    assert seen[MonomialPrime(PolyRing(("X", "Y"), 7), frozenset(["X"]))] == "P"
    assert seen[IrreducibleComponent(R, ((0, 2),))] == "C"
    assert MonomialPrime(R, frozenset({"Y"})) not in seen
    assert IrreducibleComponent(R, ((0, 3),)) not in seen
    assert P.indices == (0,) and P == MonomialPrime(R, frozenset({"X"}))  # cached or not
    assert hash(P) == hash((R, frozenset({"X"})))


def test_corpus_specs_are_values():
    assert CorpusSpec() == CorpusSpec(3, 4, 3, False, 10, 0, 32003, False)
    assert hash(CorpusSpec()) == hash((3, 4, 3, False, 10, 0, 32003, False))
    assert CorpusSpec(seed=1) != CorpusSpec()


def test_records_compare_by_field_and_do_not_hash():
    ideal = R.ideal("XY")
    witness = ViolationWitness("associated_prime", 1, index=1, threshold=1, ideal=ideal, prime=P)
    records = [
        (CyclicModule(ideal), CyclicModule(R.ideal("X*Y")), CyclicModule(R.ideal("X"))),
        (witness, ViolationWitness("associated_prime", 1, 1, 1, R.ideal("XY"), P),
         ViolationWitness("associated_prime", 1, 2, 1, ideal, P)),
        (ReducingCheck(True), ReducingCheck(True, None), ReducingCheck(False)),
        (ConstructionResult(False, None, 3), ConstructionResult(False, None, 3, None),
         ConstructionResult(False, None, 4)),
        (CmCertificate(1, None, True), CmCertificate(1, None, True), CmCertificate(1, None, False)),
        (CmLocusEntry(P, "member", 1, r=0), CmLocusEntry(P, "member", 1, 0),
         CmLocusEntry(P, "member", 1, r=0, reason="x")),
        (SessionInput(), SessionInput(), SessionInput(seed=1)),
        (SuiteResult("a"), SuiteResult("a", 0, 0, 0, None, 0), SuiteResult("a", target=1)),
    ]
    for record, equal, other in records:
        assert record == equal and not record != equal, record
        assert record != other and not record == other, record
        with pytest.raises(TypeError):
            hash(record)
    assert ReducingCheck(True) != ConstructionResult(True, None, 0)
    assert SessionInput().sequences is not SessionInput().sequences  # a dict each
    with pytest.raises(TypeError):
        hash(ReducingCheck(True))


def test_repr_text():
    ring = "PolyRing(var_names=('X', 'Y'), p=7)"
    prime = f"MonomialPrime(ring={ring}, vars=frozenset({{'X'}}))"
    ideal = R.ideal("XY")
    session = SessionInput(ring=R, ideal=None, ideal_texts=("XY",), sequences={}, primes={},
                           command="dim", arg="", seed=3, output="human")
    cases = [
        (GREVLEX, "GrevlexOrder()"),
        (LEX, "LexOrder()"),
        (EliminationOrder(2), "EliminationOrder(first=2)"),
        (_TagOrder(3), "_TagOrder(weight=3)"),
        (R, ring),
        (P, prime),
        (IrreducibleComponent(R, ((0, 2),)), f"IrreducibleComponent(ring={ring}, powers=((0, 2),))"),
        (CyclicModule(ideal), "CyclicModule(ideal=<ideal (X*Y) of GF(7)[X, Y]>, d=1)"),
        (ViolationWitness("associated_prime", 1, index=1, threshold=1, ideal=ideal, prime=P),
         "ViolationWitness(kind='associated_prime', dim=1, index=1, threshold=1, "
         f"ideal=<ideal (X*Y) of GF(7)[X, Y]>, prime={prime})"),
        (ReducingCheck(True), "ReducingCheck(ok=True, witness=None)"),
        (ReducingCheck(False, ViolationWitness("not_system_of_parameters", 0)),
         "ReducingCheck(ok=False, witness=ViolationWitness(kind='not_system_of_parameters', "
         "dim=0, index=None, threshold=None, ideal=None, prime=None))"),
        (ConstructionResult(True, None, 3, None),
         "ConstructionResult(ok=True, sequence=None, attempts=3, witness=None)"),
        (CmCertificate(1, None, True), "CmCertificate(d=1, sop=None, last_is_nzd=True)"),
        (CmLocusEntry(P, "non_member", 1, r=0, dim_local=1, depth_local=0, certificate=None,
                      reason="x"),
         f"CmLocusEntry(prime={prime}, status='non_member', dim_point=1, r=0, dim_local=1, "
         "depth_local=0, certificate=None, reason='x')"),
        (SessionInput(), "SessionInput(ring=None, ideal=None, ideal_texts=(), sequences={}, "
                         "primes={}, command=None, arg='', seed=None, output=None)"),
        (session, f"SessionInput(ring={ring}, ideal=None, ideal_texts=('XY',), sequences={{}}, "
                  "primes={}, command='dim', arg='', seed=3, output='human')"),
        (SuiteResult("x", 1, 2, 0, {"a": 1}, 3),
         "SuiteResult(name='x', instances=1, checks=2, violations=0, "
         "first_counterexample={'a': 1}, target=3)"),
        (CorpusSpec(), "CorpusSpec(n=3, max_gens=4, max_degree=3, squarefree=False, count=10, "
                       "seed=0, p=32003, force=False)"),
        (CorpusSpec(n=2, seed=5, force=True),
         "CorpusSpec(n=2, max_gens=4, max_degree=3, squarefree=False, count=10, seed=5, "
         "p=32003, force=True)"),
    ]
    for obj, text in cases:
        assert repr(obj) == text
