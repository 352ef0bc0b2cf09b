import math

import pytest

from redsop.groebner import monomial_dim_core
from redsop.monomial import hilbert_numerator
from redsop.poly import mono_divides, monomials_of_degree

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOP_DEGREE = 6


@st.composite
def exponent_sets(draw):
    """(n, nonconstant exponent tuples) in at most 4 variables."""
    n = draw(st.integers(1, 4))
    term = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return n, draw(st.lists(term, min_size=0, max_size=6))


def _series(num, n, top):
    """Coefficients of t^0..t^top in num(t) / (1 - t)^n."""
    return [sum(c * math.comb(k - j + n - 1, n - 1) for j, c in enumerate(num) if j <= k)
            for k in range(top + 1)]


def _pole_order(num, n):
    """Order of the pole of num(t) / (1 - t)^n at t = 1; -1 for num = 0."""
    num = list(num)
    if not num:
        return -1
    order = n
    while sum(num) == 0:  # (1 - t) divides num: divide it out
        num = [sum(num[:k + 1]) for k in range(len(num) - 1)]
        order -= 1
    return order


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(exponent_sets())
def test_series_counts_standard_monomials(case):
    n, exps = case
    counts = [sum(1 for m in monomials_of_degree(n, k)
                  if not any(mono_divides(g, m) for g in exps))
              for k in range(TOP_DEGREE + 1)]
    assert _series(hilbert_numerator(n, exps), n, TOP_DEGREE) == counts


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(exponent_sets(), st.data())
def test_numerator_invariances(case, data):
    n, exps = case
    num = hilbert_numerator(n, exps)
    assert hilbert_numerator(n, data.draw(st.permutations(exps))) == num
    perm = data.draw(st.permutations(range(n)))
    assert hilbert_numerator(n, [tuple(m[i] for i in perm) for m in exps]) == num
    if exps:
        m = data.draw(st.sampled_from(exps))
        extra = data.draw(st.tuples(*[st.integers(0, 2)] * n))
        multiple = tuple(a + b for a, b in zip(m, extra))
        assert hilbert_numerator(n, exps + [multiple]) == num


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(exponent_sets())
def test_pole_order_is_the_dimension(case):
    n, exps = case
    assert _pole_order(hilbert_numerator(n, exps), n) == monomial_dim_core(n, exps)[0]


def test_unit_and_zero_ideals():
    assert hilbert_numerator(3, []) == (1,)
    assert hilbert_numerator(3, [(0, 0, 0), (1, 0, 0)]) == ()
    assert hilbert_numerator(2, [(1, 1)]) == (1, 0, -1)
    assert hilbert_numerator(2, [(2, 0), (1, 1), (0, 2)]) == (1, 0, -3, 2)


def test_deep_staircase_stays_shallow():
    # m^k in two variables: HS = sum_{d<k} (d+1) t^d, so N = 1 - (k+1) t^k + k t^(k+1);
    # one generator peeled per level would pass the recursion limit
    k = 1500
    staircase = [(k - i, i) for i in range(k + 1)]
    assert hilbert_numerator(2, staircase) == (1,) + (0,) * (k - 1) + (-(k + 1), k)
