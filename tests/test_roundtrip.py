"""Printed polynomials and report witness ideals parse back to what they print."""

import pytest

from redsop import CyclicModule, ParamSequence, Polynomial, PolyRing, is_reducing_sop
from redsop.session import _ideal_texts, _poly_text

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RINGS = {p: PolyRing(("X", "Y", "Z"), p) for p in (32003, 0, 2)}
MONOMIALS = st.tuples(*[st.integers(0, 3)] * 3)


def polys(ring, coeffs, min_size=0):
    return st.dictionaries(MONOMIALS, coeffs, min_size=min_size, max_size=6).map(
        lambda terms: Polynomial(ring, terms))


@pytest.mark.parametrize("p", sorted(RINGS))
@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(data=st.data())
def test_str_parses_back(p, data):
    ring = RINGS[p]
    f = data.draw(polys(ring, st.integers(-10 ** 6, 10 ** 6)))
    assert ring.poly(str(f)) == f


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(polys(RINGS[0], st.fractions(-100, 100, max_denominator=30).filter(bool),
                        min_size=1))
def test_rational_report_text_parses_to_a_multiple(f):
    g = RINGS[0].poly(_poly_text(f))
    m = next(iter(f.terms))
    c = g.terms.get(m, 0) / f.terms[m]
    assert c and g == f.scale(c)


@st.composite
def full_sequences(draw):
    """(ring, module, sequence) for J = f*(g_1, .., g_k) and sparse linear forms.

    R/J has the minimal prime (f) and, for k >= 2, the lower-dimensional
    associated prime (g_1, .., g_k); the d elements of the sequence are
    g's or new forms, so witnesses of both kinds come up, many of them
    not monomial.
    """
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    forms = st.tuples(*[st.integers(0, 3)] * 3).map(
        lambda cs: Polynomial(ring, {tuple(int(i == j) for j in range(3)): c
                                     for i, c in enumerate(cs)})).filter(bool)
    f = draw(forms)
    gs = draw(st.lists(forms, min_size=1, max_size=3))
    M = CyclicModule(ring.ideal(*[f * g for g in gs]))
    elems = draw(st.lists(st.sampled_from(gs) | forms, min_size=M.d, max_size=M.d))
    return ring, M, ParamSequence(ring, elems)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(full_sequences())
def test_witness_ideals_parse_back(case):
    ring, M, xs = case
    check = is_reducing_sop(xs, M)
    hypothesis.assume(not check.ok)
    W = check.witness.ideal
    assert ring.ideal(*_ideal_texts(W)) == W
