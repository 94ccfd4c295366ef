import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from adasg import rules1d as r1
from adasg._node_tables import NODE_TABLES


def test_growth_tables():
    assert [r1.growth("clenshaw_curtis", l) for l in range(5)] == [1, 3, 5, 9, 17]
    assert [r1.growth("fejer2", l) for l in range(4)] == [1, 3, 7, 15]
    assert [r1.growth("rleja", l) for l in range(4)] == [1, 2, 3, 4]
    assert [r1.growth("rleja_double2", l) for l in range(6)] == [1, 3, 5, 7, 9, 13]
    assert [r1.growth("rleja_double4", l) for l in range(7)] == [1, 3, 5, 6, 7, 8, 9]
    assert [r1.growth("rleja_odd", l) for l in range(4)] == [1, 3, 5, 7]
    for kind in r1.RULE_KINDS:
        assert r1.growth(kind, -1) == 0


def test_growth_doubling_identities():
    # doubling kicks in once past the shared 1,3 prefix
    for l in range(2, 12):
        assert r1.growth("rleja_double2", l + 2) - 1 == 2 * (r1.growth("rleja_double2", l) - 1)
    for l in range(2, 12):
        assert r1.growth("rleja_double4", l + 4) - 1 == 2 * (r1.growth("rleja_double4", l) - 1)


def test_growth_strictly_increasing():
    for kind in r1.RULE_KINDS:
        ms = [r1.growth(kind, l) for l in range(12)]
        assert ms[0] >= 1
        assert all(b > a for a, b in zip(ms, ms[1:])), kind


def test_cc_closed_form_nodes():
    got = [r1.family_nodes("clenshaw_curtis", j)[j - 1] for j in range(1, 7)]
    want = [0.0, 1.0, -1.0, -math.sqrt(2) / 2, math.sqrt(2) / 2, -math.cos(math.pi / 8)]
    assert np.allclose(got, want, atol=1e-15)


def test_rleja_closed_form_nodes():
    got = [r1.family_nodes("rleja", j)[j - 1] for j in range(1, 8)]
    want = [1.0, -1.0, 0.0, math.sqrt(2) / 2, -math.sqrt(2) / 2,
            math.cos(math.pi / 8), -math.cos(math.pi / 8)]
    assert np.allclose(got, want, atol=1e-15)


def test_closed_form_node_reads_the_family_sequence():
    for kind in r1.CLOSED_FORM_KINDS:
        for j in range(1, 300):
            closed_form = float(r1._closed_form_nodes(r1._FAMILY[kind], j)[j - 1])
            assert closed_form == r1.family_nodes(kind, j)[j - 1], (kind, j)


def test_centered_rleja_seed():
    got = [r1.family_nodes("rleja_odd", j)[j - 1] for j in range(1, 4)]
    assert got == [0.0, 1.0, -1.0]


def test_cc_level_sets_match_cosine_lattice():
    for l in range(5):
        m = r1.growth("clenshaw_curtis", l)
        mine = np.sort(r1.family_nodes("clenshaw_curtis", m))
        if l == 0:
            ref = np.array([0.0])
        else:
            ref = np.sort(np.cos(np.arange(2**l + 1) * np.pi / 2**l))
        assert np.abs(mine - ref).max() < 1e-12


def test_fejer2_level_sets_are_interior_chebyshev_roots():
    for l in range(4):
        m = r1.growth("fejer2", l)
        mine = np.sort(r1.family_nodes("fejer2", m))
        ref = np.sort(np.cos(np.arange(1, m + 1) * np.pi / (m + 1)))
        assert np.abs(mine - ref).max() < 1e-12


def test_centered_rleja_with_cc_growth_equals_cc_sets():
    for l in range(5):
        m = r1.growth("clenshaw_curtis", l)
        a = np.sort(r1.family_nodes("rleja_odd", m))
        b = np.sort(r1.family_nodes("clenshaw_curtis", m))
        assert np.abs(a - b).max() < 1e-12


def test_nodes_in_domain_and_distinct():
    for kind in ("clenshaw_curtis", "fejer2", "rleja", "rleja_odd", "leja"):
        nodes = r1.family_nodes(kind, 30)
        assert np.abs(nodes).max() <= 1.0
        assert np.abs(np.subtract.outer(nodes, nodes) + np.eye(30)).min() > 1e-14


def test_nestedness_structural():
    for kind in r1.RULE_KINDS:
        # keep the min-max objectives cheap: their per-node cost is an
        # inner max over the probe grid
        level = 1 if kind.startswith("min_lebesgue") else 4
        hi = r1.family_nodes(kind, r1.growth(kind, level))
        lo = r1.family_nodes(kind, r1.growth(kind, level - 1))
        assert np.array_equal(hi[: len(lo)], lo)


def test_shipped_node_tables_equal_the_generator(monkeypatch):
    """The shipped greedy tables are the generator's output bit for bit
    (`test_pins.py` hashes the tables; this ties them to the generator), a
    longer sequence continues a table as a full regeneration does, and a
    fresh cache reads every table without generating."""
    monkeypatch.setattr(r1, "_SEQ_CACHE", {})
    for family, table in NODE_TABLES.items():
        n = len(table)
        made = np.array(r1.greedy_sequence(family, n))
        assert made.tobytes() == np.array(table).tobytes(), (
            f"{family}: the generator now gives {tuple(map(float, made))!r}")
        longer = r1.greedy_sequence(family, n + 2)
        assert r1.family_nodes(family, n + 2).tobytes() == np.array(longer).tobytes(), family

    def refuse(*args, **kwargs):
        raise AssertionError("greedy_sequence called for a shipped table")

    monkeypatch.setattr(r1, "_SEQ_CACHE", {})
    monkeypatch.setattr(r1, "greedy_sequence", refuse)
    for family, table in NODE_TABLES.items():
        assert r1.family_nodes(family, len(table)).tobytes() == np.array(table).tobytes()


def test_greedy_sequence_returns_python_floats():
    """The seed, the snapped endpoints and the refined nodes are all Python
    floats, also past a prefix passed as an array, so `repr` of the list is
    a literal that reads back equal."""
    for family, n in (("leja", 6), ("max_lebesgue", 4), ("min_delta", 3)):
        got = r1.greedy_sequence(family, n)
        more = r1.greedy_sequence(family, n + 1, start_nodes=np.array(got))
        assert more[:n] == got
        for nodes in (got, more):
            assert all(type(y) is float for y in nodes), family
            assert ast.literal_eval(repr(nodes)) == nodes


def test_rleja_odd_symmetric_levels():
    for l in range(1, 6):
        m = r1.growth("rleja_odd", l)
        nodes = set(np.round(r1.family_nodes("rleja_odd", m), 14))
        assert all(-y in nodes for y in nodes)


def test_leja_first_nodes():
    got = r1.greedy_sequence("leja", 4)
    assert got[:3] == [0.0, 1.0, -1.0]
    assert abs(got[3] - 1 / math.sqrt(3)) < 1e-6


def test_leja_tie_breaks_right_most():
    got = r1.greedy_sequence("leja", 2)
    assert got == [0.0, 1.0]


def test_min_delta_seed():
    assert r1.greedy_sequence("min_delta", 1)[0] == 0.0


def test_greedy_families_start_like_leja():
    # all four objectives agree on the first three nodes: 0, then +/-1
    for fam in ("max_lebesgue", "min_delta"):
        got = r1.greedy_sequence(fam, 3, candidate_count=2**14 + 1, probe_count=10**4)
        assert got[0] == 0.0 and got[1] == 1.0 and got[2] == -1.0, (fam, got)


@pytest.mark.parametrize("maximize", [True, False])
def test_select_extremum_tie_cap_keeps_right_most(maximize):
    # more exact ties than cells refined: the right-most tied candidate wins
    # in both branches, whatever order the sort gives equal keys
    cands = np.linspace(1.0, -1.0, 101)
    tied, other = (1.0, 0.0) if maximize else (0.0, 1.0)
    for first in (0, 10):
        values = np.full(len(cands), other)
        values[first:] = tied
        assert len(values) - first > r1._MAX_REFINED_CELLS
        got = r1._select_extremum(cands, values, lambda y: tied, maximize)
        assert got == (1.0 if first == 0 else cands[first - 1]), (first, got)


def test_min_lebesgue_small():
    got = r1.greedy_sequence("min_lebesgue", 3, candidate_count=10**4 + 1,
                             probe_count=10**4)
    assert got[0] == 0.0 and got[1] == 1.0 and got[2] == -1.0, got


def test_greedy_candidate_count_contract():
    with pytest.raises(ValueError):
        r1.greedy_sequence("leja", 3, candidate_count=5000)


def test_lebesgue_constant_basics():
    assert r1.lebesgue_constant([0.0], 10**4) == 1.0
    v = r1.lebesgue_constant([0.0, 1.0, -1.0], 10**5)
    assert abs(v - 1.25) < 1e-6
    with pytest.raises(ValueError):
        r1.lebesgue_constant([0.5, 0.5], 10**4)


def test_cc_level5_lebesgue_near_log_model():
    nodes = r1.family_nodes("clenshaw_curtis", 33)
    v = r1.lebesgue_constant(nodes, 10**5)
    model = (2 / math.pi) * math.log(2**5) + 1
    assert abs(v - model) / model < 0.10


def test_leja_lebesgue_band():
    nodes = r1.family_nodes("leja", 51)
    for l in (0, 10, 25, 50):
        lam = r1.lebesgue_constant(nodes[: l + 1], 10**4)
        assert lam <= 4 * math.sqrt(l + 1)


def test_lambda_model_values():
    assert r1.lambda_model("leja", 3) == 6.0
    assert r1.lambda_model("rleja", 0) == 1.5
    assert r1.lambda_model("max_lebesgue_odd", 0) == 8.0
    assert abs(r1.lambda_model("clenshaw_curtis", 2) - (2 / math.pi) * math.log(5)) < 1e-15


def test_rule_tables_are_pinned():
    """growth, lambda_model and lebesgue_growth_model of every kind, in
    RULE_KINDS order, equal the tables in rule_tables.json bit for bit (the
    floats as repr strings), and lambda_model stays within its documented
    bound C (l+1)^gamma.  The file was written before the per-kind tables
    were merged into one table per family."""
    pinned = json.loads((Path(__file__).parent / "rule_tables.json").read_text())
    assert list(r1.CLOSED_FORM_KINDS) == pinned["closed_form_kinds"]
    assert list(r1.RULE_KINDS) == list(pinned["kinds"])
    for kind, row in pinned["kinds"].items():
        assert [r1.growth(kind, l) for l in range(12)] == row["growth"], kind
        model = [r1.lambda_model(kind, l) for l in range(41)]
        assert list(map(repr, model)) == row["lambda_model"], kind
        c, g = r1.lebesgue_growth_model(kind)
        assert [repr(c), repr(g)] == row["lebesgue_growth_model"], kind
        assert all(v <= c * (l + 1) ** g + 1e-12 for l, v in enumerate(model)), kind


def test_unit_growth_flags():
    assert r1.unit_growth("leja") and r1.unit_growth("rleja")
    assert not r1.unit_growth("clenshaw_curtis")
    assert not r1.unit_growth("leja_odd")
