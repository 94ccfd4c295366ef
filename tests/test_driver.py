import json

import numpy as np
import pytest

from adasg import driver as dr
from adasg import sparse_grid as sg
from adasg import targets as tg
from adasg.fitting import FitParams, isotropic_params
from adasg.multiindex import CurvedWeights, IndexSet


RAT2 = tg.builtin_target("rational", 2, c0=2.0, c=[1.0, 0.5])


def test_next_level_anisotropic_example():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "leja")
    fit = FitParams((1.0, 2.0), (0.0, 0.0), 0.0)
    L = dr.next_level(fit, ts, "minimal")
    assert L == 1.0
    grown = ts.theta.union(sg.theta_curved(CurvedWeights(fit.alpha, fit.beta), L, "leja").theta)
    assert set(grown.members) == {(0, 0), (1, 0)}


def test_next_level_isotropic_ties_enter_together():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "leja")
    fit = isotropic_params(2)
    L = dr.next_level(fit, ts, "minimal")
    grown = ts.theta.union(sg.theta_curved(CurvedWeights(fit.alpha, fit.beta), L, "leja").theta)
    assert set(grown.members) == {(0, 0), (1, 0), (0, 1)}


def test_next_level_target_new_nodes():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "leja")
    fit = isotropic_params(2)
    L = dr.next_level(fit, ts, 6)
    grown = ts.theta.union(sg.theta_curved(CurvedWeights(fit.alpha, fit.beta), L, "leja").theta)
    added = sg.grid_size(sg.TensorSet(grown, "leja")) - 1
    assert added >= 6


def test_next_level_budget_exhaustion():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "clenshaw_curtis")
    fit = isotropic_params(2)
    with pytest.raises(dr.BudgetExhausted):
        dr.next_level(fit, ts, "minimal", sample_budget=2)


def test_run_constant_target_falls_back_isotropic():
    const = tg.builtin_target("expsum", 2, c=[0.0, 0.0])
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=100,
                       probe_count=50, probe_seed=7)
    interp, hist = dr.run(cfg, const)
    assert len(hist) == 3
    assert hist[0].probe_error == 0.0
    assert all(h.alpha == (1.0, 1.0) for h in hist)
    counts = [h.node_count for h in hist]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)


def test_run_zero_iterations_single_record():
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=0, max_samples=100)
    _, hist = dr.run(cfg, RAT2)
    assert len(hist) == 1


def test_run_anisotropy_ordering_and_improvement():
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="legendre", max_iterations=14,
                       max_samples=260, probe_count=400, probe_seed=3)
    _, hist = dr.run(cfg, RAT2)
    assert hist[-1].alpha[0] < hist[-1].alpha[1]
    assert hist[-1].probe_error < hist[0].probe_error


def test_theta_strictly_grows_and_nests():
    cfg = dr.RunConfig(rule="clenshaw_curtis", d=2, max_iterations=4,
                       max_samples=300)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    prev = None
    for _ in range(4):
        dr.step(state, RAT2)
        if prev is not None:
            assert prev.issubset(state.theta.theta)
            assert len(state.theta.theta) > len(prev)
        prev = state.theta.theta


def test_sample_accounting_matches_grid():
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=6,
                       max_samples=200)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    dr.run(cfg, RAT2, state=state)
    assert state.samples_used == state.interpolant.node_count


def test_union_consistency():
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=5,
                       max_samples=200)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    for _ in range(3):
        before = state.theta
        dr._build_phase(state, RAT2)
        L = dr.next_level(state.fit, state.theta, cfg.batch, sample_budget=cfg.max_samples)
        expected = before.theta.union(
            sg.theta_curved(CurvedWeights(state.fit.alpha, state.fit.beta), L, cfg.rule).theta
        )
        dr._grow_phase(state)
        assert state.theta.theta == expected


def test_determinism_identical_histories(tmp_path):
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="legendre", max_iterations=8,
                       max_samples=150, probe_count=200, probe_seed=5)
    _, h1 = dr.run(cfg, RAT2)
    _, h2 = dr.run(cfg, RAT2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dr.write_history_csv(h1, 2, p1)
    dr.write_history_csv(h2, 2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_resume_bitwise(tmp_path):
    ck = tmp_path / "ck.json"
    full_cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=6,
                            max_samples=150, probe_count=100, probe_seed=11)
    interp_a, hist_a = dr.run(full_cfg, RAT2, checkpoint_path=ck)
    # interrupted run: stop after 3 iterations, then resume to completion
    short_cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=3,
                             max_samples=150, probe_count=100, probe_seed=11)
    dr.run(short_cfg, RAT2, checkpoint_path=ck)
    state = dr.load_state(ck)
    state.config = full_cfg
    interp_b, hist_b = dr.run(full_cfg, RAT2, state=state)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    dr.write_history_csv(hist_a, 2, pa)
    dr.write_history_csv(hist_b, 2, pb)
    assert pa.read_bytes() == pb.read_bytes()
    pts = np.random.default_rng(5).uniform(-1, 1, (40, 2))
    assert np.array_equal(sg.evaluate_batch(interp_a, pts), sg.evaluate_batch(interp_b, pts))


def test_load_state_refuses_cache_off_the_node_table(tmp_path):
    # a checkpoint written with another node table cannot be resumed
    ck = tmp_path / "ck.json"
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=3, max_samples=60)
    dr.run(cfg, RAT2, checkpoint_path=ck)
    obj = json.loads(ck.read_text())
    key = obj["cache"][-1][0]
    key[0] = float(np.nextafter(key[0], 2.0))
    ck.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="node table of rule 'leja'"):
        dr.load_state(ck)


def test_checkpoint_write_failing_part_way_keeps_previous_file(tmp_path, monkeypatch):
    ck = tmp_path / "checkpoint.json"
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=60)
    dr.run(cfg, RAT2, checkpoint_path=ck)
    before = ck.read_bytes()
    state = dr.load_state(ck)

    def broken_dump(obj, fh):
        fh.write(json.dumps(obj)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(sg.json, "dump", broken_dump)
    state.iteration += 1
    with pytest.raises(OSError, match="disk full"):
        dr.save_state(state, ck)
    monkeypatch.undo()
    assert ck.read_bytes() == before
    assert dr.load_state(ck).iteration == state.iteration - 1
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def test_mc_linf_error_contracts():
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=60)
    interp, _ = dr.run(cfg, RAT2)
    e1 = dr.mc_linf_error(interp, RAT2, 1, seed=123)
    e1b = dr.mc_linf_error(interp, RAT2, 1, seed=123)
    assert e1 == e1b
    # exactness: a polynomial inside the range is reproduced
    lam = sg.polynomial_range(interp.tensor_set)
    coef = {nu: 0.3 for nu in lam.members}

    class PolyTarget:
        dim = 2

        def evaluate(self, pts):
            pts = np.atleast_2d(pts)
            out = np.zeros(len(pts))
            for nu, c in coef.items():
                out += c * np.prod(pts ** np.array(nu), axis=1)
            return out

    poly = PolyTarget()
    grid = sg.grid_nodes(interp.tensor_set)
    exact = sg.build_interpolant(
        interp.tensor_set,
        {j: float(poly.evaluate(p[None, :])[0]) for j, p in zip(grid.indices, grid.points)},
    )
    assert dr.mc_linf_error(exact, poly, 200, seed=9) <= 1e-9


def test_evaluation_failure_aborts_with_resumable_checkpoint(tmp_path):
    calls = {"n": 0}

    class FlakyTarget:
        dim = 2

        def evaluate(self, pts):
            pts = np.atleast_2d(pts)
            calls["n"] += 1
            if calls["n"] > 2:
                raise tg.EvaluationError("solver died", [0])
            return RAT2.evaluate(pts)

    ck = tmp_path / "ck.json"
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=6,
                       max_samples=200)
    with pytest.raises(tg.EvaluationError):
        dr.run(cfg, FlakyTarget(), checkpoint_path=ck)
    assert ck.exists()
    state = dr.load_state(ck)
    interp_resumed, hist_resumed = dr.run(cfg, RAT2, state=state)
    interp_clean, hist_clean = dr.run(cfg, RAT2)
    pa, pb = tmp_path / "r.csv", tmp_path / "c.csv"
    dr.write_history_csv(hist_resumed, 2, pa)
    dr.write_history_csv(hist_clean, 2, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_budget_500_improves_on_initial_d3():
    target = tg.builtin_target("rational", 3, c0=3.0, c=[1.0, 0.6, 0.3])
    cfg = dr.RunConfig(rule="leja", d=3, fit_source="surplus", max_iterations=200,
                       max_samples=500, probe_count=300, probe_seed=13)
    _, hist = dr.run(cfg, target)
    assert hist[-1].node_count <= 500
    assert hist[-1].probe_error < hist[0].probe_error


def test_budget_exhaustion_stops_cleanly_and_resumes_without_duplicates(tmp_path):
    ck = tmp_path / "ck.json"
    cfg = dr.RunConfig(rule="clenshaw_curtis", d=2, max_iterations=50,
                       max_samples=12, probe_count=None)
    _, hist = dr.run(cfg, RAT2, checkpoint_path=ck)
    state = dr.load_state(ck)
    _, hist2 = dr.run(cfg, RAT2, state=state)
    assert [r.iteration for r in hist2] == [r.iteration for r in hist]
    assert max(r.node_count for r in hist) <= 12


def test_surplus_source_requires_unit_growth_rule():
    with pytest.raises(ValueError):
        dr.RunConfig(rule="clenshaw_curtis", d=2, fit_source="surplus")


def test_initial_set_kinds():
    cfg = dr.RunConfig(rule="leja", d=2, initial_kind="curved", initial_level=2.0,
                       initial_alpha=(1.0, 1.0), initial_beta=(0.0, 0.0))
    ts = dr.initial_tensor_set(cfg)
    assert (0, 0) in ts.theta and len(ts.theta) == 6
    cfg2 = dr.RunConfig(rule="leja", d=2, initial_kind="hyperbolic", initial_level=3.0)
    assert len(dr.initial_tensor_set(cfg2).theta) == 5
