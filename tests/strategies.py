"""Random lower sets for the tests: one seeded generator and one
`hypothesis` strategy, each growing a set one margin member at a time."""

from hypothesis import strategies as st

from adasg.multiindex import IndexSet, margin


def random_lower_set(rng, d, n):
    """A lower set of `n` levels in `d` dimensions: from the origin, add a
    margin index drawn by `rng` until the set has `n` members."""
    s = IndexSet(d, [(0,) * d])
    while len(s) < n:
        cands = margin(s)
        s = IndexSet(d, set(s.members) | {cands[rng.integers(len(cands))]})
    return s


@st.composite
def lower_sets(draw, max_dim=4, max_size=6, min_dim=1):
    """Random lower sets of tensor levels, grown one margin member at a time.

    Six levels keep Clenshaw-Curtis at <= 33 nodes per dimension: from 129
    nodes its Newton table (entries up to 1e16) leaves no two solves agreeing.
    """
    d = draw(st.integers(min_dim, max_dim))
    s = IndexSet(d, [(0,) * d])
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=max_size - 1)):
        cands = margin(s)
        s = IndexSet(d, set(s.members) | {cands[pick % len(cands)]})
    return s
