import contextlib
import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import lower_sets, random_lower_set
from adasg.multiindex import (
    CLASSIC_KINDS,
    CurvedWeights,
    IndexSet,
    _grown_margin,
    is_lower,
    lambda_classic,
    lambda_curved,
    lower_completion,
    margin,
)


def brute_is_lower(members):
    """Definition-level oracle: every componentwise-smaller index is present."""
    s = set(members)
    d = len(next(iter(members)))
    for nu in members:
        for j in itertools.product(*[range(v + 1) for v in nu]):
            if j not in s:
                return False
    return True


def brute_completion(members):
    out = set()
    for nu in members:
        out.update(itertools.product(*[range(v + 1) for v in nu]))
    return out


def test_is_lower_examples():
    assert is_lower(IndexSet(2, [(0, 0), (1, 0), (0, 1)]))
    assert not is_lower(IndexSet(2, [(1, 1)]))
    assert not is_lower(IndexSet(2, [(0, 0), (2, 0)]))


def test_is_lower_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        members = {tuple(rng.integers(0, 4, d)) for _ in range(rng.integers(1, 8))}
        assert is_lower(IndexSet(d, members)) == brute_is_lower(members)
    for d in range(1, 9):
        assert is_lower(IndexSet(d, []))
        for _ in range(10):
            members = {tuple(rng.integers(0, 3, d)) for _ in range(rng.integers(1, 8))}
            assert is_lower(IndexSet(d, members)) == brute_is_lower(members)
        # near-lower sets: a lower set with one member removed is lower
        # exactly when that member has no successor in it
        full = random_lower_set(rng, d, 12).members
        for drop in range(len(full)):
            members = full[:drop] + full[drop + 1:]
            assert is_lower(IndexSet(d, members)) == brute_is_lower(members), (full, drop)
    # an entry past int64 needs that many members below it
    assert not is_lower(IndexSet(2, [(0, 0), (1 << 64, 0)]))


def test_lower_completion_examples():
    got = lower_completion(IndexSet(2, [(1, 1)]))
    assert set(got.members) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    got2 = lower_completion(IndexSet(2, [(2, 0), (0, 1)]))
    assert set(got2.members) == {(0, 0), (1, 0), (2, 0), (0, 1)}


def test_lower_completion_idempotent_monotone():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        members = {tuple(rng.integers(0, 4, d)) for _ in range(rng.integers(1, 6))}
        s = IndexSet(d, members)
        comp = lower_completion(s)
        assert set(comp.members) == brute_completion(members)
        assert lower_completion(comp) == comp
        bigger = IndexSet(d, set(members) | {tuple(rng.integers(0, 4, d))})
        assert comp.issubset(lower_completion(bigger))


def test_lower_input_unchanged():
    rng = np.random.default_rng(4)
    s = random_lower_set(rng, 2, 7)
    assert lower_completion(s) == s


def test_lambda_curved_isotropic_reduces_to_td():
    w = CurvedWeights((1.0, 1.0), (0.0, 0.0))
    got = lambda_curved(w, 2.0)
    assert set(got.members) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_lambda_curved_negative_beta_dip():
    # alpha=1, beta=-2: weight dips below L=1 out to nu=4 and exceeds at nu=5
    got = lambda_curved(CurvedWeights((1.0,), (-2.0,)), 1.0)
    assert set(got.members) == {(0,), (1,), (2,), (3,), (4,)}


def test_lambda_curved_keeps_members_at_a_level_tie():
    # L is the sum of the per-coordinate minima; a prune bound summed in
    # another order than membership once exceeded it by one ulp and dropped
    # every member
    w = CurvedWeights(
        (0.28961187574712166, 0.4001640933144207, 1.1982658616793185, 1.6661069605448617),
        (-2.0, -1.1, -2.4, -1.9),
    )
    got = lambda_curved(w, -3.027581746198526)
    assert len(got) == 42
    assert is_lower(got)


def test_lambda_curved_membership_oracle():
    # direct inequality scan over a safe box
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        alpha = tuple(rng.uniform(0.4, 2.0, d))
        beta = tuple(rng.uniform(-1.5, 1.5, d))
        L = float(rng.uniform(0.0, 4.0))
        got = lambda_curved(CurvedWeights(alpha, beta), L)
        cap = 40
        raw = set()
        for nu in itertools.product(range(cap), repeat=d):
            w = sum(alpha[k] * nu[k] + beta[k] * math.log(nu[k] + 1) for k in range(d))
            if w <= L:
                raw.add(nu)
        assert set(got.members) == brute_completion(raw) if raw else len(got) == 0


def test_lambda_curved_empty_below_origin():
    assert len(lambda_curved(CurvedWeights((1.0, 2.0), (0.5, -0.5)), -0.1)) == 0


@contextlib.contextmanager
def deadline(seconds=5):
    """Fail with TimeoutError instead of hanging when the body runs too long."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("L", [math.inf, -math.inf, math.nan])
def test_non_finite_level_is_refused(L):
    # at inf the sublevel scan never ended, and at NaN it returned no members
    with deadline():
        for kind in CLASSIC_KINDS:
            with pytest.raises(ValueError, match="level must be finite"):
                lambda_classic(kind, (1.0, 1.0), L)
        with pytest.raises(ValueError, match="level must be finite"):
            lambda_curved(CurvedWeights((1.0, 2.0), (0.5, -0.5)), L)


def test_lambda_curved_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        lambda_curved(CurvedWeights((0.0, 1.0), (0.0, 0.0)), 1.0)


def test_lambda_curved_nested_in_level():
    w = CurvedWeights((0.8, 1.7), (-0.9, 0.4))
    for L1, L2 in [(0.5, 1.0), (1.0, 3.0), (3.0, 3.0)]:
        assert lambda_curved(w, L1).issubset(lambda_curved(w, L2))


def test_lambda_curved_beta_zero_equals_total_degree_exactly():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        alpha = tuple(rng.uniform(0.3, 2.5, d))
        L = float(rng.uniform(0.0, 5.0))
        a = lambda_curved(CurvedWeights(alpha, (0.0,) * d), L)
        b = lambda_classic("total_degree", alpha, L)
        assert a == b


def test_lambda_curved_scale_invariance_power_of_two():
    # doubling (alpha, beta, L) is exact in floating point
    w = CurvedWeights((0.7, 1.3), (-0.6, 0.2))
    for L in (0.9, 2.3, 4.0):
        base = lambda_curved(w, L)
        for c in (2.0, 0.5, 4.0):
            scaled = CurvedWeights(tuple(c * a for a in w.alpha),
                                   tuple(c * b for b in w.beta))
            assert lambda_curved(scaled, c * L) == base


def test_lambda_classic_examples():
    td = lambda_classic("total_degree", (1.0, 1.0), 1.0)
    assert set(td.members) == {(0, 0), (1, 0), (0, 1)}
    hc = lambda_classic("hyperbolic", (1.0, 1.0), 3.0)
    assert set(hc.members) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)}
    sm = lambda_classic("smolyak", (1.0,), 2.0)
    assert set(sm.members) == {(0,), (1,), (2,), (3,)}


def test_lambda_classic_tensor_cardinality():
    for d in (1, 2, 3):
        for L in (0.0, 1.0, 2.0, 3.5):
            got = lambda_classic("tensor", (1.0,) * d, L)
            assert len(got) == (int(L) + 1) ** d


def test_lambda_classic_oracle():
    rng = np.random.default_rng(21)
    defs = {
        "tensor": lambda a, nu, L: max(a[k] * nu[k] for k in range(len(nu))) <= L,
        "total_degree": lambda a, nu, L: sum(a[k] * nu[k] for k in range(len(nu))) <= L,
        "hyperbolic": lambda a, nu, L: math.prod((nu[k] + 1) ** a[k] for k in range(len(nu))) <= L,
        "smolyak": lambda a, nu, L: sum(a[k] * math.log2(nu[k] + 1) for k in range(len(nu))) <= L,
    }
    cases = [
        ("tensor", (1.0, 0.5), -0.5),       # L < 0: empty
        ("tensor", (0.75, 1.5), 3.0),       # L = 4 * 0.75 = 2 * 1.5 exactly
        ("tensor", (0.1, 0.3), 0.3),        # 0.3 <= 0.3 but 3 * 0.1 > 0.3 in floats
        ("hyperbolic", (1.0, 0.5), 0.5),    # L < 1: empty
        ("hyperbolic", (1.2, 0.7), 1.0),    # L = 1: the origin only
        ("tensor", (0.5,), 2.0),
        ("total_degree", (0.3,), 0.9),
        ("hyperbolic", (2.0,), 9.0),
        ("smolyak", (1.0,), 3.0),
    ]
    for kind in defs:
        for _ in range(6):
            d = int(rng.integers(1, 3))
            cases.append((kind, tuple(rng.uniform(0.5, 1.5, d)), float(rng.uniform(0.5, 4.0))))
    for kind, alpha, L in cases:
        d = len(alpha)
        got = set(lambda_classic(kind, alpha, L).members)
        ref = {nu for nu in itertools.product(range(30), repeat=d) if defs[kind](alpha, nu, L)}
        assert got == ref, (kind, alpha, L)


def test_margin_of_lower_set():
    s = IndexSet(2, [(0, 0), (1, 0)])
    assert margin(s) == [(0, 1), (2, 0)] or set(margin(s)) == {(0, 1), (2, 0)}
    assert margin(IndexSet(2, [])) == [(0, 0)]


def test_graded_lex_storage_order():
    s = IndexSet(2, [(2, 0), (0, 0), (1, 1), (0, 1), (1, 0)])
    assert s.members == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        IndexSet(2, [(0, 0), (0, 0)])


index_sets = st.integers(1, 4).flatmap(lambda d: st.builds(
    lambda members: (d, members),
    st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=8)))


@settings(max_examples=150, deadline=None)
@given(index_sets)
def test_lower_completion_invariants(drawn):
    d, members = drawn
    s = IndexSet(d, set(members))
    done = lower_completion(s)
    assert set(done.members) == brute_completion(members)  # the union of boxes below s
    assert s.issubset(done) and done._lower and brute_is_lower(done.members or [(0,) * d])
    assert lower_completion(done) == done
    # the smallest lower superset: every member lies below a member of s
    assert all(any(all(a <= b for a, b in zip(nu, top)) for top in members) for nu in done)


def brute_margin(s):
    """Every index of a box one past the set whose predecessors all belong to it."""
    top = [max((nu[k] for nu in s.members), default=-1) + 2 for k in range(s.dim)]
    return {nu for nu in itertools.product(*map(range, top)) if nu not in s
            and all(nu[:k] + (nu[k] - 1,) + nu[k + 1:] in s for k in range(s.dim) if nu[k])}


@settings(max_examples=150, deadline=None)
@given(index_sets)
def test_margin_invariants(drawn):
    d, members = drawn
    s = lower_completion(IndexSet(d, set(members)))
    front = margin(s)
    assert front == sorted(front, key=lambda nu: (sum(nu), nu)) and len(set(front)) == len(front)
    assert set(front) == brute_margin(s)
    for nu in front:
        # adding a margin member keeps the set lower
        assert brute_is_lower(set(s.members) | {nu})


@settings(max_examples=150, deadline=None)
@given(s=lower_sets(max_dim=5, max_size=8), data=st.data())
def test_grown_set_and_margin_equal_those_built_from_scratch(s, data):
    """Levels admitted as the grow step admits them, margin levels and then
    successors they admit, each keeping the set lower: the grown set has the
    members of the set built anew, and the margin updated in place is its
    margin."""
    added = []
    for pick in data.draw(st.lists(st.integers(0, 10**6), max_size=8)):
        cands = margin(IndexSet(s.dim, s.members + tuple(added)))
        added.append(cands[pick % len(cands)])
    grown, want = s._grown(added), IndexSet(s.dim, s.members + tuple(added))
    assert grown.members == want.members and grown._member_set == want._member_set
    assert brute_is_lower(grown.members)
    assert _grown_margin(set(margin(s)), grown, added) == set(margin(grown))
