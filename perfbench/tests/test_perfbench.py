"""Tests for the benchmark's own code: span arithmetic, patch restore, golden
check, speed scaling."""

import copy
import inspect
import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run as bench_run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    fns = {}

    def leaf():
        clock.t += 1.0

    def mid():
        clock.t += 2.0
        fns["leaf"]()
        clock.t += 0.5
        fns["leaf"]()

    def top():
        clock.t += 3.0
        fns["mid"]()
        fns["leaf"]()

    def failing():
        clock.t += 0.25
        raise ValueError("boom")

    for name, fn in (("leaf", leaf), ("mid", mid), ("top", top), ("failing", failing)):
        fns[name] = tr.wrap(name, fn)

    fns["top"]()
    with pytest.raises(ValueError):
        fns["failing"]()
    fns["leaf"]()

    assert tr.calls == {"leaf": 4, "mid": 1, "top": 1, "failing": 1}
    assert tr.self_s["leaf"] == pytest.approx(4.0)
    assert tr.self_s["mid"] == pytest.approx(2.5)
    assert tr.self_s["top"] == pytest.approx(3.0)
    # a span that raised still closes, so later spans are roots again
    assert tr.self_s["failing"] == pytest.approx(0.25)
    assert sum(tr.self_s.values()) == pytest.approx(clock.t)


def _patchable(adasg):
    """Every attribute install() may replace, keyed by (owner, attribute)."""
    owners = [adasg] + [getattr(adasg, layer) for layer in tracing.LAYERS]
    out = {}
    for owner in owners:
        for attr, obj in vars(owner).items():
            if inspect.isfunction(obj):
                out[(owner.__name__, attr)] = obj
    for layer, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(getattr(adasg, layer), cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def test_wrappers_are_restored_after_a_traced_run():
    import adasg
    import adasg.cli  # noqa: F401

    before = _patchable(adasg)
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        # patched under the defining module and under the importer's name
        assert adasg.driver.build_interpolant is not before[("adasg.driver", "build_interpolant")]
        assert adasg.driver.build_interpolant is adasg.sparse_grid.build_interpolant
        assert adasg.cli.write_history_csv is not adasg.driver.write_history_csv
        ts = adasg.theta_opt(adasg.lambda_classic("total_degree", (1.0, 1.0), 2), "leja")
        assert adasg.driver.grid_size(ts) == 6
    finally:
        restore()
    assert tr.calls["sparse_grid.grid_size"] == 1
    assert tr.calls["multiindex.IndexSet"] >= 1
    assert _patchable(adasg) == before
    counted = dict(tr.calls)
    ts = adasg.theta_opt(adasg.lambda_classic("total_degree", (1.0, 1.0), 2), "leja")
    assert adasg.driver.grid_size(ts) == 6
    assert dict(tr.calls) == counted


def _passing_summary(golden: dict) -> dict:
    summary = copy.deepcopy(golden)
    summary["max_error"] = summary.pop("max_error_bound") / 2
    return summary


@pytest.mark.parametrize("name", ["d3_leja_ckpt", "d8_leja_spectral"])
def test_golden_check_rejects_a_node_count_off_by_one(name):
    golden = json.loads((BENCH / "goldens.json").read_text())["workloads"][name]
    summary = _passing_summary(golden)
    summary["nodes_to_tol"] = 100
    assert workloads.check(summary, golden) == []
    assert not bench_run.failed({"check_errors": []})

    summary["node_counts"][-1] += 1
    errors = workloads.check(summary, golden)
    assert errors == ["node_counts differs from the golden"]
    assert bench_run.failed({"check_errors": errors})


def test_golden_check_admits_last_digit_drift_in_fits_only():
    golden = json.loads((BENCH / "goldens.json").read_text())["workloads"]["d3_leja_ckpt"]
    summary = _passing_summary(golden)
    summary["alpha"] = [[a * (1 + 1e-14) for a in row] for row in summary["alpha"]]
    assert workloads.check(summary, golden) == []
    summary["alpha"][-1][0] *= 1.01
    assert workloads.check(summary, golden) == ["fitted alpha differs from the golden"]


def test_speed_scaling_cancels_a_uniform_slowdown():
    sampler = speed.Sampler()
    sampler.times = [speed.REFERENCE_S * 2, speed.REFERENCE_S * 2]
    assert sampler.speed() == pytest.approx(0.5)
    # a quarter of the wall time stolen by the host: three quarters of that
    sampler.wall_s, sampler.steal_s = 4.0, 1.0
    assert sampler.speed() == pytest.approx(0.375)
    # a rep that took 4 s at half speed takes 2 s at the reference speed
    assert speed.scale(4.0, 0.5) == pytest.approx(2.0)
    rep = {"run_s": 4.0, "setup_s": 0.2, "speed": 0.5}
    assert bench_run.scaled(rep, "run_s") == pytest.approx(2.0)
    assert bench_run.scaled(rep, "setup_s") == pytest.approx(0.1)


def test_sampler_samples_and_then_restores_the_alarm():
    def previous(*_):
        raise AssertionError("the earlier handler must not run while sampling")

    old = signal.signal(signal.SIGALRM, previous)
    affinity = os.sched_getaffinity(0)
    try:
        with speed.Sampler(interval=0.005) as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.1:
                pass
        assert len(sampler.times) >= 3
        assert sampler.speed() > 0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert os.sched_getaffinity(0) == affinity
        assert 0.0 <= sampler.steal_s <= sampler.wall_s
    finally:
        signal.signal(signal.SIGALRM, old)
