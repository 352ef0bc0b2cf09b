import pytest

from redsop import Ideal, Polynomial, PolyRing, oracle_dim
from redsop.groebner import monomial_dim

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def exponent_sets(draw):
    """(n, nonconstant exponent tuples) in at most 8 variables."""
    n = draw(st.integers(1, 8))
    term = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    return n, draw(st.lists(term, min_size=0, max_size=6))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(exponent_sets())
def test_monomial_dim_matches_the_oracle(case):
    n, exps = case
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    J = Ideal(ring, [Polynomial(ring, {m: 1}) for m in exps])
    assert monomial_dim(n, exps) == oracle_dim(J)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(exponent_sets(), st.data())
def test_monomial_dim_invariances(case, data):
    n, exps = case
    d = monomial_dim(n, exps)
    assert monomial_dim(n, data.draw(st.permutations(exps))) == d
    perm = data.draw(st.permutations(range(n)))
    assert monomial_dim(n, [tuple(m[i] for i in perm) for m in exps]) == d
    if exps:
        m = data.draw(st.sampled_from(exps))
        extra = data.draw(st.tuples(*[st.integers(0, 2)] * n))
        multiple = tuple(a + b for a, b in zip(m, extra))
        assert monomial_dim(n, exps + [multiple]) == d
