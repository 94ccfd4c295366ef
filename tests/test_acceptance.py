"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import itertools
import math
import textwrap
import time

import numpy as np

import oracles
from strategies import random_lower_set
from adasg import cli
from adasg import driver as dr
from adasg import fitting as ft
from adasg import rules1d as r1
from adasg import sparse_grid as sg
from adasg import targets as tg
from adasg.cli import run_comparison
from adasg.multiindex import IndexSet, lambda_classic


def report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def lower_sets_2d(width, height, max_size):
    """All nonempty lower sets inside a width x height box, as partitions."""
    out = []
    for hs in itertools.product(range(height + 1), repeat=width):
        if any(a < b for a, b in zip(hs, hs[1:])):
            continue
        size = sum(hs)
        if 0 < size <= max_size:
            out.append(IndexSet(2, [(i, j) for i, h in enumerate(hs) for j in range(h)]))
    return out


def test_criterion_1_polynomial_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    rules = ("leja", "clenshaw_curtis", "rleja_double2")
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 4))
        lam = random_lower_set(rng, d, int(rng.integers(1, 21)))
        rule = rules[trial % 3]
        ts = sg.theta_opt(lam, rule)
        grid = sg.grid_nodes(ts)
        coef = {nu: float(rng.uniform(-1, 1)) for nu in lam.members}

        def poly(Y):
            Y = np.atleast_2d(Y)
            out = np.zeros(len(Y))
            for nu, c in coef.items():
                out += c * np.prod(Y ** np.array(nu), axis=1)
            return out

        samples = {j: float(poly(p[None, :])[0]) for j, p in zip(grid.indices, grid.points)}
        interp = sg.build_interpolant(ts, samples)
        pts = rng.uniform(-1, 1, (200, d))
        ref = poly(pts)
        rel = np.abs(sg.evaluate_batch(interp, pts) - ref).max() / max(1.0, np.abs(ref).max())
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30
    assert report(1, ok, f"50 spaces reproduced, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_minimality_oracle():
    t0 = time.perf_counter()
    lams = lower_sets_2d(4, 4, 6)
    thetas = lower_sets_2d(5, 5, 25)
    counterexamples = 0
    checks = 0
    for rule in ("leja", "clenshaw_curtis"):
        ranges = [(th, oracles.degrees(sg.TensorSet(th, rule))) for th in thetas]
        for lam in lams:
            opt = sg.theta_opt(lam, rule).theta
            for th, rng_set in ranges:
                if lam.issubset(rng_set):
                    checks += 1
                    if not opt.issubset(th):
                        counterexamples += 1
    elapsed = time.perf_counter() - t0
    ok = counterexamples == 0 and elapsed < 60
    assert report(
        2, ok,
        f"{len(lams)} spaces x {len(thetas)} tensor sets x 2 rules, "
        f"{checks} covering sets checked, {counterexamples} counterexamples, {elapsed:.1f}s",
    )


def test_criterion_3_node_golden_values():
    leja = r1.family_nodes("leja", 4)
    golden = np.array([0.0, 1.0, -1.0, 1.0 / math.sqrt(3.0)])
    leja_ok = np.abs(leja - golden).max() <= 1e-6

    cc_ok = True
    for l in range(5):
        m = r1.growth("clenshaw_curtis", l)
        mine = np.sort(r1.family_nodes("clenshaw_curtis", m))
        ref = np.array([0.0]) if l == 0 else np.sort(np.cos(np.arange(2**l + 1) * np.pi / 2**l))
        cc_ok = cc_ok and np.abs(mine - ref).max() <= 1e-12

    centered_ok = True
    for l in range(5):
        m = r1.growth("clenshaw_curtis", l)
        a = np.sort(r1.family_nodes("rleja_odd", m))
        b = np.sort(r1.family_nodes("clenshaw_curtis", m))
        centered_ok = centered_ok and np.abs(a - b).max() <= 1e-12

    ok = leja_ok and cc_ok and centered_ok
    assert report(
        3, ok,
        f"leja first-4 {'ok' if leja_ok else 'BAD'}, cc cosine lattices "
        f"{'ok' if cc_ok else 'BAD'}, centered-rleja==cc {'ok' if centered_ok else 'BAD'}",
    )


def test_criterion_4_lebesgue_curves():
    t0 = time.perf_counter()
    cc_rows = []
    cc_ok = True
    for l in range(1, 6):
        nodes = r1.family_nodes("clenshaw_curtis", r1.growth("clenshaw_curtis", l))
        measured = r1.lebesgue_constant(nodes, 10**5)
        model = (2 / math.pi) * math.log(2.0**l) + 1
        dev = abs(measured - model) / model
        cc_rows.append(f"l={l}: {measured:.4f} vs {model:.4f} ({100 * dev:.1f}%)")
        cc_ok = cc_ok and dev <= 0.10

    leja_nodes = r1.family_nodes("leja", 51)
    leja_ok = True
    worst_ratio = 0.0
    for l in range(51):
        lam = r1.lebesgue_constant(leja_nodes[: l + 1], 10**4)
        bound = 4 * math.sqrt(l + 1)
        worst_ratio = max(worst_ratio, lam / bound)
        leja_ok = leja_ok and lam <= bound
    elapsed = time.perf_counter() - t0
    ok = cc_ok and leja_ok and elapsed < 120
    assert report(
        4, ok,
        f"cc 10% band {'ok' if cc_ok else 'VIOLATED'} [{'; '.join(cc_rows)}]; "
        f"leja <= 4*sqrt(l+1) {'ok' if leja_ok else 'VIOLATED'} "
        f"(worst ratio {worst_ratio:.3f}); {elapsed:.1f}s",
    )


def test_criterion_5_fit_recovery():
    lam = lambda_classic("total_degree", (1.0, 1.0), 4.0)
    alpha, beta, c0 = (0.8, 1.6), (-0.7, 0.5), 1.1
    coeffs = {}
    for nu in lam.members:
        w = c0 + sum(alpha[k] * nu[k] + beta[k] * math.log(nu[k] + 1) for k in range(2))
        coeffs[nu] = math.exp(-w)
    fp = ft.fit_curved(coeffs)
    recovered = (
        np.allclose(fp.alpha, alpha, atol=1e-8)
        and np.allclose(fp.beta, beta, atol=1e-8)
        and abs(fp.c_const - c0) <= 1e-8
    )
    corr_ok = (
        ft.adhoc_correction((0.5, -0.2, 1.0))[0] == (0.5, 0.5, 1.0)
        and ft.adhoc_correction((-1.0, -2.0, 0.3))[0] == (0.3, 0.3, 0.3)
        and ft.adhoc_correction((1.0, 2.0))[0] == (1.0, 2.0)
    )
    ok = recovered and corr_ok
    assert report(
        5, ok,
        f"exact TD-4 model recovered to 1e-8 {'ok' if recovered else 'BAD'}, "
        f"correction rule exact {'ok' if corr_ok else 'BAD'}",
    )


def test_criterion_6_form_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(1, 4))
        theta = random_lower_set(rng, d, int(rng.integers(1, 8)))
        rule = ("leja", "clenshaw_curtis", "rleja_double2", "fejer2")[trial % 4]
        ts = sg.TensorSet(theta, rule)
        grid = sg.grid_nodes(ts)
        a_vec = rng.uniform(-1.2, 1.2, d)
        b_vec = rng.uniform(-1.5, 1.5, d)
        phi = float(rng.uniform(0, 2 * np.pi))

        def f(Y):
            Y = np.atleast_2d(Y)
            return np.exp(Y @ a_vec) * np.cos(Y @ b_vec + phi)

        samples = {j: float(f(p[None, :])[0]) for j, p in zip(grid.indices, grid.points)}
        interp = sg.build_interpolant(ts, samples)
        pts = rng.uniform(-1, 1, (100, d))
        a = sg.evaluate_batch(interp, pts)
        b = oracles.evaluate_combination(interp, pts)
        worst = max(worst, np.abs(a - b).max() / max(1.0, np.abs(a).max()))
    ok = worst <= 1e-10
    assert report(6, ok, f"20 tensor sets, surplus vs combination worst rel gap {worst:.2e}")


def test_criterion_7_end_to_end_adaptive():
    t0 = time.perf_counter()
    target = tg.builtin_target("rational", 3, c0=3.0, c=[1.0, 0.5, 0.25])
    config = dr.RunConfig(
        rule="leja", d=3, fit_source="legendre", batch="minimal",
        max_iterations=400, max_samples=800, probe_count=1000, probe_seed=20240101,
    )
    rows = run_comparison(config, target, ("isotropic", "dynamic_curved"))
    traj = {s: [(n, e) for sc, n, e in rows if sc == s] for s in ("isotropic", "dynamic_curved")}

    best_curved = min(e for _, e in traj["dynamic_curved"])
    samples_curved = max(n for n, _ in traj["dynamic_curved"])
    accuracy_ok = best_curved <= 1e-6 and samples_curved <= 800

    def nodes_to_reach(tr, thr):
        for n, e in tr:
            if e <= thr:
                return n
        return None

    # final common decade: the smallest power of ten both schemes got under
    best_common = max(min(e for _, e in traj[s]) for s in traj)
    decade = 10.0 ** math.ceil(math.log10(best_common))
    n_iso = nodes_to_reach(traj["isotropic"], decade)
    n_cur = nodes_to_reach(traj["dynamic_curved"], decade)
    ordering_ok = n_iso is not None and n_cur is not None and n_cur <= n_iso
    elapsed = time.perf_counter() - t0
    ok = accuracy_ok and ordering_ok and elapsed < 300
    assert report(
        7, ok,
        f"dynamic_curved err {best_curved:.2e} with {samples_curved} samples "
        f"(budget 800); at final common decade {decade:.0e}: curved {n_cur} vs "
        f"isotropic {n_iso} nodes; {elapsed:.0f}s",
    )


def test_criterion_8_determinism_and_persistence(tmp_path):
    cfg_text = textwrap.dedent("""
        rule = leja
        d = 2
        fit_source = legendre
        max_iterations = 5
        max_samples = 120
        probe_count = 120
        probe_seed = 77
        target = rational
        target_c0 = 2
        target_c = 1,0.5
    """)
    (tmp_path / "run.cfg").write_text(cfg_text)
    outs = []
    for sub in ("r1", "r2"):
        wd = tmp_path / sub
        assert cli.main(["run", "--config", str(tmp_path / "run.cfg"),
                         "--workdir", str(wd)]) == 0
        outs.append(wd)
    history_same = (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()

    node_outs = []
    for sub in ("n1", "n2"):
        wd = tmp_path / sub
        assert cli.main(["nodes", "--rule", "clenshaw_curtis", "--levels", "3",
                         "--probe-count", "20000", "--workdir", str(wd)]) == 0
        node_outs.append(wd)
    nodes_same = all(
        (node_outs[0] / name).read_bytes() == (node_outs[1] / name).read_bytes()
        for name in ("clenshaw_curtis_levels.csv", "clenshaw_curtis_nodes.csv")
    )

    interp = sg.load_interpolant(outs[0] / "interpolant.json")
    sg.save_interpolant(interp, tmp_path / "resaved.json")
    reloaded = sg.load_interpolant(tmp_path / "resaved.json")
    pts = np.random.default_rng(8).uniform(-1, 1, (128, 2))
    round_trip = np.array_equal(sg.evaluate_batch(interp, pts),
                                sg.evaluate_batch(reloaded, pts))
    ok = history_same and nodes_same and round_trip
    assert report(
        8, ok,
        f"re-run CSVs byte-identical {'ok' if history_same and nodes_same else 'BAD'}, "
        f"save/load evaluations bit-exact {'ok' if round_trip else 'BAD'}",
    )
