"""The benchmark's workloads and their correctness checks.

Each workload has three parts, all run inside one worker process:

- `setup`: the 1-D node table for the rule (and, for `eval_saved`, loading
  the saved model).  Timed as part of `setup_s`, together with `import adasg`.
- `run`: the timed part that `run_s` measures.
- `finish`: untimed checks against `goldens.json`, plus the throughput of
  `evaluate_batch` on points drawn from the workload seed.

The adaptive runs use a fixed Monte Carlo probe seed: the probe error in d=8
varies so much between probe sets that `nodes_to_tol` would spread by 40%
between seeds.  The workload seed draws the evaluation points instead.

Nothing here imports adasg at module level; the worker passes the package in.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

PROBE_SEED = 20240101
# points for the evaluation throughput after an adaptive run, timed this many
# times (median taken) so a sub-second measurement is steady
POST_RUN_POINTS = 2**14
POST_RUN_REPEATS = 3
EVAL_POINTS = 2**16

# fitted floats may drift in the last digits when a transform changes its
# order of summation; node counts and tensor sets must match exactly
FIT_RTOL, FIT_ATOL = 1e-8, 1e-10
VALUE_RTOL, VALUE_ATOL = 1e-9, 1e-12

WORKLOADS = {
    "d3_leja_ckpt": {
        "kind": "cli",
        "rule": "leja",
        "d": 3,
        "table_nodes": 9,
        "tol": 1e-4,
        "target": {"c0": 3.0, "c": [1.0, 0.5, 0.25]},
        "config": "\n".join([
            "rule = leja",
            "d = 3",
            "fit_source = legendre",
            "batch = minimal",
            "target = rational",
            "target_c0 = 3",
            "target_c = 1,0.5,0.25",
            "probe_count = 1000",
            f"probe_seed = {PROBE_SEED}",
            "max_iterations = 1000",
            "max_samples = 150",
        ]) + "\n",
    },
    "d8_leja_spectral": {
        "kind": "library",
        "rule": "leja",
        "d": 8,
        "table_nodes": 4,
        "tol": 4.5e-3,
        "target": {"c0": 8.0, "c": [1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]},
        "run_config": {"fit_source": "legendre", "batch": "minimal",
                       "max_iterations": 1000, "max_samples": 80,
                       "probe_count": 1000, "probe_seed": PROBE_SEED},
    },
    "eval_saved": {
        "kind": "eval",
        "rule": "leja",
        "d": 4,
        "table_nodes": 11,
        "target": {"c0": 3.0, "c": [1.0, 0.6, 0.3, 0.1]},
        "total_degree": 10,
    },
}


def _target(adasg, spec):
    return adasg.builtin_target("rational", spec["d"], **spec["target"])


def theta_digest(members) -> str:
    """Order-independent sha256 of a set of tensor levels."""
    text = json.dumps(sorted(list(map(int, i)) for i in members))
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(adasg, name: str, inputs: Path) -> None:
    """Untimed input files: the saved model that `eval_saved` reads."""
    spec = WORKLOADS[name]
    if spec["kind"] != "eval":
        return
    lam = adasg.lambda_classic("total_degree", (1.0,) * spec["d"], spec["total_degree"])
    ts = adasg.theta_opt(lam, spec["rule"])
    grid = adasg.grid_nodes(ts)
    values = _target(adasg, spec).evaluate(grid.points)
    interp = adasg.build_interpolant(ts, dict(zip(grid.indices, values)))
    adasg.save_interpolant(interp, inputs / "model.json")


def setup(adasg, name: str, inputs: Path) -> dict:
    spec = WORKLOADS[name]
    adasg.rules1d.family_nodes(spec["rule"], spec["table_nodes"])
    state = {}
    if spec["kind"] == "eval":
        t0 = time.perf_counter()
        state["interp"] = adasg.load_interpolant(inputs / "model.json")
        state["load_s"] = time.perf_counter() - t0
    return state


def eval_points(seed: int, count: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, d))


def run(adasg, name: str, workdir: Path, seed: int, state: dict) -> dict:
    """The timed part; returns `run_s` and what `finish` needs."""
    spec = WORKLOADS[name]
    if spec["kind"] == "cli":
        cfg = workdir / "run.cfg"
        cfg.write_text(spec["config"])
        out = workdir / "out"
        t0 = time.perf_counter()
        code = adasg.cli.main(["run", "--config", str(cfg), "--workdir", str(out)])
        run_s = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"adasg run exited with code {code}")
        return {"run_s": run_s, "out": out}
    if spec["kind"] == "library":
        config = adasg.RunConfig(rule=spec["rule"], d=spec["d"], **spec["run_config"])
        target = _target(adasg, spec)
        t0 = time.perf_counter()
        interp, history = adasg.driver.run(config, target)
        return {"run_s": time.perf_counter() - t0, "interp": interp, "history": history}
    pts = eval_points(seed, EVAL_POINTS, spec["d"])
    t0 = time.perf_counter()
    values = adasg.evaluate_batch(state["interp"], pts)
    eval_s = time.perf_counter() - t0
    return {"run_s": state["load_s"] + eval_s, "eval_s": eval_s, "points": pts,
            "values": values, "interp": state["interp"]}


def _history_from_csv(path: Path, d: int) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({
                "node_count": int(row["node_count"]),
                "alpha": [float(row[f"alpha_{k + 1}"]) for k in range(d)],
                "beta": [float(row[f"beta_{k + 1}"]) for k in range(d)],
                "c_hat": float(row["C_hat"]),
                "probe_error": float(row["probe_error"]),
            })
    return rows


def _history_from_records(history) -> list[dict]:
    return [{"node_count": r.node_count, "alpha": list(r.alpha), "beta": list(r.beta),
             "c_hat": r.c_const, "probe_error": r.probe_error} for r in history]


def summarize_run(rows: list[dict], theta_members) -> dict:
    """What the golden check compares for an adaptive run."""
    members = list(theta_members)
    return {
        "node_counts": [r["node_count"] for r in rows],
        "alpha": [r["alpha"] for r in rows],
        "beta": [r["beta"] for r in rows],
        "c_hat": [r["c_hat"] for r in rows],
        "theta_size": len(members),
        "theta_sha256": theta_digest(members),
    }


def nodes_to_tol(rows: list[dict], tol: float) -> int | None:
    """Node count at the first iteration whose probe error is at most tol."""
    return next((r["node_count"] for r in rows if r["probe_error"] <= tol), None)


def _close(a, b, rtol, atol) -> bool:
    return np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=rtol, atol=atol)


def check(summary: dict, golden: dict) -> list[str]:
    """Mismatches between a workload's summary and its golden; empty if it passes."""
    errors = []
    for key in ("node_counts", "theta_size", "theta_sha256", "node_count"):
        if key in golden and summary.get(key) != golden[key]:
            errors.append(f"{key} differs from the golden")
    for key in ("alpha", "beta", "c_hat"):
        if key not in golden:
            continue
        ref = golden[key]
        got = summary.get(key)
        if got is None or len(got) != len(ref) or not _close(got, ref, FIT_RTOL, FIT_ATOL):
            errors.append(f"fitted {key} differs from the golden")
    if "reference_values" in golden:
        got = summary.get("reference_values")
        if got is None or not _close(got, golden["reference_values"], VALUE_RTOL, VALUE_ATOL):
            errors.append("values at the reference points differ from the golden")
    if "max_error_bound" in golden:
        if not summary.get("max_error", math.inf) <= golden["max_error_bound"]:
            errors.append(f"max error {summary.get('max_error')} exceeds "
                          f"{golden['max_error_bound']}")
    if "nodes_to_tol" in summary and summary["nodes_to_tol"] is None:
        errors.append("the probe error never reached the workload's tolerance")
    return errors


def reference_points(d: int) -> np.ndarray:
    """Fixed points, independent of the workload seed, for golden values."""
    return eval_points(987654321, 64, d)


def finish(adasg, name: str, seed: int, out: dict) -> dict:
    """Untimed: golden summary, evaluation throughput and error on seed points."""
    spec = WORKLOADS[name]
    d = spec["d"]
    target = _target(adasg, spec)
    result = {"run_s": out["run_s"]}
    if spec["kind"] == "eval":
        interp, values, pts = out["interp"], out["values"], out["points"]
        result["eval_points_per_s"] = len(pts) / out["eval_s"]
        summary = {"node_count": interp.node_count,
                   "theta_size": len(interp.tensor_set.theta),
                   "theta_sha256": theta_digest(interp.tensor_set.theta.members)}
        result["nodes_to_tol"] = interp.node_count
    else:
        if spec["kind"] == "cli":
            rows = _history_from_csv(out["out"] / "history.csv", d)
            interp = adasg.load_interpolant(out["out"] / "interpolant.json")
            with open(out["out"] / "checkpoint.json") as fh:
                theta = json.load(fh)["theta"]
            result["history_sha256"] = hashlib.sha256(
                (out["out"] / "history.csv").read_bytes()).hexdigest()
        else:
            rows = _history_from_records(out["history"])
            interp = out["interp"]
            theta = interp.tensor_set.theta.members
        summary = summarize_run(rows, theta)
        summary["nodes_to_tol"] = nodes_to_tol(rows, spec["tol"])
        result["nodes_to_tol"] = summary["nodes_to_tol"] or rows[-1]["node_count"]
        result["final_nodes"] = rows[-1]["node_count"]
        pts = eval_points(seed, POST_RUN_POINTS, d)
        times = []
        for _ in range(POST_RUN_REPEATS):
            t0 = time.perf_counter()
            values = adasg.evaluate_batch(interp, pts)
            times.append(time.perf_counter() - t0)
        result["eval_points_per_s"] = len(pts) / statistics.median(times)
    summary["reference_values"] = adasg.evaluate_batch(interp, reference_points(d)).tolist()
    summary["max_error"] = float(np.abs(values - target.evaluate(pts)).max())
    result["summary"] = summary
    return result
