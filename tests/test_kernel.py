"""Reduced bases pinned before the kernel moved to packed monomials.

Every expected value here was recorded with the tuple-monomial kernel
(order keys, chain-criterion scan).  The reduced basis is unique, so the
packed kernel must reproduce each one exactly, whatever the field width
the exponents need.
"""

import hashlib
import random
import time

import pytest

from redsop import GREVLEX, LEX, EliminationOrder, Polynomial, PolyRing, buchberger
from redsop.groebner import _TagOrder
from redsop.poly import monomials_of_degree
from redsop.session import render_report, run_block

WIDTHS = (20, 23, 24, 31, 32, 33, 64)


@pytest.mark.parametrize("k", WIDTHS)
def test_huge_exponents_under_grevlex(k):
    ring = PolyRing(("X", "Y", "Z"), 32003)
    n = 2 ** k
    gens = [Polynomial(ring, {(n, 0, 0): 1, (0, n, 0): 1}), ring.poly("X*Y - Z^2")]
    assert [str(g) for g in buchberger(gens, GREVLEX)] == [
        "X*Y + 32002*Z^2", f"X^{n} + Y^{n}", f"Y^{n + 1} + X^{n - 1}*Z^2"]


@pytest.mark.parametrize("order", [LEX, EliminationOrder(1)], ids=["lex", "elimination"])
@pytest.mark.parametrize("k", WIDTHS)
def test_exponents_that_double_under_an_elimination(k, order):
    # the basis reaches Y^(2n): twice the largest exponent of the input
    ring = PolyRing(("X", "Y", "Z"), 32003)
    n = 2 ** k
    gens = [Polynomial(ring, {(1, 0, 0): 1, (0, n, 0): -1}), ring.poly("X^2 - Z")]
    assert [str(g) for g in buchberger(gens, order)] == [
        f"Y^{2 * n} + 32002*Z", f"32002*Y^{n} + X"]


def test_rational_elimination_basis_is_pinned():
    ring = PolyRing(("X", "Y", "Z"), 0)
    gens = [ring.poly(s) for s in ("-5*X^2*Y*Z^2 + Y^2 - Z^2",
                                   "3*X*Y^2*Z^2 - 5*X*Y^2*Z - 5*Z^2",
                                   "3*X^2*Y^2*Z + X*Y^2 - Z^2")]
    start = time.monotonic()
    text = " ; ".join(str(g) for g in buchberger(gens, EliminationOrder(2)))
    assert time.monotonic() - start < 2.0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "47272aa892faa127232469b6f28fc2018a6a706872fa0a00db6abcf0eeabe212")


def test_huge_exponent_session_answers_at_once():
    start = time.monotonic()
    report, code = run_block("ring [X,Y,Z] p=32003\n"
                             "ideal X^100000000 + Y^100000000, X*Y - Z^2\ndim\n")
    assert time.monotonic() - start < 2.0
    assert code == 0 and report["dim"] == 1
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == (
        "bd5271f974dec41751dc374d361d3e41fd29bb83cddd8ad00f48d37cba5e3c06")


def _form(ring, rng, nvars, degree):
    """2-4 terms of one degree in the first nvars variables, small coefficients."""
    mons = monomials_of_degree(nvars, degree)
    return Polynomial(ring, {m + (0,) * (ring.n - nvars): rng.choice((1, -1, 2, 3, -5))
                             for m in rng.sample(mons, min(len(mons), rng.randint(2, 4)))})


def test_reduced_bases_are_pinned_in_more_variables_and_tag_orders():
    # 120 reduced bases of homogeneous ideals in 4 and 5 variables: under
    # grevlex and an elimination order, and as the colon route builds
    # them, J + (y - f) with the tag y last and deg f = 1, 2, 3
    lines = []
    for p in (32003, 0, 2, 3):
        for n in (4, 5):
            ring = PolyRing(tuple("ABCDE"[:n]), p)
            rng = random.Random(f"{p}:{n}")
            for _ in range(3):
                J = [_form(ring, rng, n, rng.randint(2, 3)) for _ in range(3)]
                for order in (GREVLEX, EliminationOrder(1)):
                    basis = buchberger(J, order)
                    # the first term of each element is its leading monomial
                    assert all(next(iter(g.terms)) == g.leading_monomial(order) for g in basis)
                    lines.append(" ; ".join(str(g) for g in basis))
                J = [_form(ring, rng, n - 1, rng.randint(2, 3)) for _ in range(3)]
                for w in (1, 2, 3):
                    tag = ring.gen(n - 1) - _form(ring, rng, n - 1, w)
                    lines.append(" ; ".join(str(g) for g in buchberger(J + [tag], _TagOrder(w))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fe30cbb740f0a9f8b405e88fae1bc4f28ea5685c00699f18b1c70e1fbb9a2ce7"
