import pytest

from redsop import Ideal, Polynomial, PolyRing, groebner, oracle_dim
from redsop.groebner import monomial_dim_core

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
    assert monomial_dim_core(n, exps)[0] == oracle_dim(J)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(exponent_sets(), st.data())
def test_monomial_dim_invariances(case, data):
    n, exps = case
    d = monomial_dim_core(n, exps)[0]
    assert monomial_dim_core(n, data.draw(st.permutations(exps)))[0] == d
    perm = data.draw(st.permutations(range(n)))
    assert monomial_dim_core(n, [tuple(m[i] for i in perm) for m in exps])[0] == d
    if exps:
        m = data.draw(st.sampled_from(exps))
        extra = data.draw(st.tuples(*[st.integers(0, 2)] * n))
        multiple = tuple(a + b for a, b in zip(m, extra))
        assert monomial_dim_core(n, exps + [multiple])[0] == d


def _support(m):
    return sum(1 << i for i, e in enumerate(m) if e)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(exponent_sets(), st.data())
def test_core_is_the_meet_of_the_largest_free_sets(case, data):
    n, exps = case
    supports = [_support(m) for m in exps]
    free = [f for f in range(1 << n) if not any(s & f == s for s in supports)]
    dim = max(f.bit_count() for f in free)
    core = (1 << n) - 1
    for f in free:
        if f.bit_count() == dim:
            core &= f
    assert monomial_dim_core(n, exps) == (dim, core)
    for m in data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any),
                                min_size=1, max_size=4)):
        drops = monomial_dim_core(n, exps + [m])[0] == dim - 1
        assert drops == (_support(m) & ~core == 0)


def test_core_edge_cases():
    assert monomial_dim_core(3, [(1, 0, 0), (0, 0, 0)]) == (-1, 0)
    assert monomial_dim_core(3, []) == (3, 0b111)
    assert monomial_dim_core(3, [(1, 1, 0), (1, 0, 1)]) == (2, 0b110)
    pairs = [tuple(1 if i // 2 == k else 0 for i in range(24)) for k in range(12)]
    with pytest.raises(ValueError, match="too large"):
        monomial_dim_core(24, pairs)


def test_dimension_memo_reads_supports_not_generators():
    exps = [(1, 1, 0, 0), (0, 2, 1, 0), (0, 0, 1, 3)]
    want = monomial_dim_core(4, exps)
    assert monomial_dim_core(4, exps[::-1]) == want
    assert monomial_dim_core(4, exps + exps[:1]) == want
    # multiples add supports that contain a generator's support
    assert monomial_dim_core(4, exps + [(2, 1, 1, 0), (0, 1, 2, 1)]) == want
    assert monomial_dim_core(4, [(3, 1, 0, 0), (0, 1, 1, 0), (0, 0, 2, 1)]) == want


def test_over_budget_search_raises_every_time():
    pairs = [tuple(1 if i // 2 == k else 0 for i in range(24)) for k in range(12)]
    hits = groebner._dim_core.cache_info().hits
    for _ in range(3):
        with pytest.raises(ValueError, match="too large"):
            monomial_dim_core(24, pairs)
    assert groebner._dim_core.cache_info().hits == hits


def test_dimension_memo_stays_bounded():
    bound = groebner._dim_core.cache_info().maxsize
    for k in range(1, bound + 50):
        # the variables of k's binary digits: a different set of minimal supports for each k
        exps = [tuple(int(v == i) for v in range(12)) for i in range(12) if k >> i & 1]
        assert monomial_dim_core(12, exps) == (12 - k.bit_count(), (1 << 12) - 1 - k)
        assert groebner._dim_core.cache_info().currsize <= bound
    assert groebner._dim_core.cache_info().currsize == bound


def test_dim_quotient_memo_matches_a_fresh_search():
    import random

    from redsop.corpus import default_ring, random_monomial_ideal

    rng = random.Random(45)
    ideals = [random_monomial_ideal(default_ring(rng.randint(2, 5)), rng, 6, 4)
              for _ in range(800)]
    memoized = [J.dim_quotient() for J in ideals]
    for J, d in zip(ideals, memoized):
        groebner._dim_core.cache_clear()
        assert J.dim_quotient() == d == monomial_dim_core(J.ring.n, list(J.monomial_exponents()))[0]
    # an over-budget search is not remembered: it raises on every call
    ring = PolyRing(tuple(f"x{i}" for i in range(24)))
    J = Ideal(ring, [Polynomial(ring, {tuple(1 if i // 2 == k else 0 for i in range(24)): 1})
                     for k in range(12)])
    for _ in range(2):
        with pytest.raises(ValueError, match="too large"):
            J.dim_quotient()
