"""Benchmark driver: runs one workload rep by rep and prints its metrics.

    python3 perfbench/run.py --workload d3_leja_ckpt --seed 1 --seconds 35 --trace 0

Every rep runs in a fresh worker interpreter (`worker.py`), one at a time,
while the next one should end within `--seconds`.  With `--trace 0` the last
stdout line holds the end-to-end metrics (medians over reps).  With
`--trace 1` reps alternate untraced and traced, and the last line holds the
per-layer metrics of the traced reps plus the tracing overhead.  Earlier
lines record the machine and a per-rep summary.  Every time is reported at
the reference speed of `speed.py`: each rep's wall times are scaled by the
speed its sampler measured, so that drift of the host's CPU speed cancels.  The exit code is nonzero,
with no result line, when a worker cannot start adasg at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread: steadier timings on a shared box, and never more than nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
SETUP_SAMPLES = 5          # fresh interpreters timed for setup_s per run
WORKER_TIMEOUT_S = 170
RUN_BUDGET_S = 150         # cap on the measuring time, whatever --seconds says

END_TO_END = {             # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "nodes_to_tol": "count",
    "eval_points_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"self_s": "s", "calls": "count", "bytes": "B", "pairs": "count",
               "points": "count", "quad_points": "count", "bytes_per_new_node": "B/node",
               "quad_points_per_coeff": "ratio", "theta_curved_per_iter": "ratio",
               "resampled_points": "count", "unattributed_s": "s",
               "span_coverage": "share", "window_s": "s", "overhead_s": "s",
               "overhead_share": "share", "traced_run_s": "s", "untraced_run_s": "s"}


class WorkerFailed(RuntimeError):
    """A worker crashed or hung; the benchmark cannot produce a result."""


def machine_record(root: Path = ROOT) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "git_sha": sha,
        "probe_reference_s": speed.REFERENCE_S,
    }


def worker(mode: str, name: str, inputs: Path, seed: int = 0, trace: int = 0) -> dict:
    """Run worker.py once in a fresh working directory; return its result dict."""
    workdir = Path(tempfile.mkdtemp(dir=inputs.parent, prefix=f"{mode}-"))
    out = workdir / "result.json"
    env = dict(os.environ)
    env.update({k: str(min(BLAS_THREADS, os.cpu_count() or 1)) for k in BLAS_ENV})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", name,
           "--seed", str(seed), "--trace", str(trace), "--inputs", str(inputs),
           "--workdir", str(workdir), "--out", str(out)]
    try:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as err:
            raise WorkerFailed(f"worker {mode} timed out after {WORKER_TIMEOUT_S} s") from err
        if proc.returncode != 0 or not out.is_file():
            raise WorkerFailed(f"worker {mode} exited with code {proc.returncode}:\n"
                               f"{proc.stderr.strip()}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def failed(r: dict) -> bool:
    return "error" in r or bool(r.get("check_errors"))


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def run_reps(seconds: float, one_round) -> list[dict]:
    """Call `one_round()` while the next round should end within `seconds`.

    Runs at least one round; each round returns a list of rep results.
    """
    reps: list[dict] = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        reps.extend(one_round())
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > min(seconds, RUN_BUDGET_S):
            return reps


def scaled(r: dict, key: str) -> float:
    """A rep's time in seconds at the probe's reference speed."""
    return speed.scale(r[key], r["speed"])


def end_to_end(name: str, inputs: Path, seed: int, seconds: float) -> tuple[dict, list]:
    reps = run_reps(seconds, lambda: [worker("rep", name, inputs, seed, 0)])
    measured = [r for r in reps if "error" not in r]
    setups = [scaled(r, "setup_s") for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(scaled(worker("setup", name, inputs), "setup_s"))
    if not measured:
        return {}, reps
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(scaled(r, "run_s") for r in measured),
        # a rate scales inversely
        "eval_points_per_s": statistics.median(
            r["eval_points_per_s"] / r["speed"] for r in measured),
        "nodes_to_tol": median_of(measured, "nodes_to_tol"),
        "peak_rss_mb": median_of(measured, "peak_rss_mb"),
    }
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}, reps


def traced(name: str, inputs: Path, seed: int, seconds: float) -> tuple[dict, list]:
    reps = run_reps(seconds, lambda: [worker("rep", name, inputs, seed, 0),
                                      worker("rep", name, inputs, seed, 1)])
    plain = [r for r in reps[0::2] if "error" not in r]
    with_trace = [r for r in reps[1::2] if "error" not in r]
    if not plain or not with_trace:
        return {}, reps
    units = {key: LAYER_UNITS[key.rsplit(".", 1)[-1]] for key in with_trace[0]["layers"]}
    metrics = {}
    for key, unit in units.items():
        if unit == "s":
            values = (speed.scale(r["layers"][key], r["speed"]) for r in with_trace)
        else:
            values = (r["layers"][key] for r in with_trace)
        metrics[key] = statistics.median(values)
    metrics["trace.traced_run_s"] = statistics.median(scaled(r, "run_s") for r in with_trace)
    metrics["trace.untraced_run_s"] = statistics.median(scaled(r, "run_s") for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.traced_run_s"] - metrics["trace.untraced_run_s"]
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / metrics["trace.untraced_run_s"]
    return {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[-1]]}
            for k, v in metrics.items()}, reps


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="adasg benchmark")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    machine = machine_record()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work_root))
    try:
        inputs = scratch / "inputs"
        inputs.mkdir()
        worker("prepare", args.workload, inputs)
        measure = traced if args.trace else end_to_end
        metrics, reps = measure(args.workload, inputs, args.seed, args.seconds)
    except WorkerFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work_root.rmdir()  # fails, harmlessly, while another run uses it
        except OSError:
            pass

    print(json.dumps({"machine": machine}))
    goldens = json.loads((HERE / "goldens.json").read_text())
    golden_sha = goldens["workloads"][args.workload].get("plain_history_sha256")
    for i, r in enumerate(reps):
        line = {"rep": i, "wall_run_s": r.get("run_s"), "speed": r.get("speed"),
                "steal_s": r.get("steal_s"), "failed": failed(r),
                "check_errors": r.get("check_errors"), "error": r.get("error")}
        if "history_sha256" in r:
            line["history_sha256_matches_plain_run"] = r["history_sha256"] == golden_sha
        print(json.dumps(line))
    print(json.dumps({"speed_median": statistics.median(r["speed"] for r in reps)}))
    n_failed = sum(failed(r) for r in reps)
    print(json.dumps({"failed_ratio": n_failed / len(reps)}))
    print(json.dumps({"correct": n_failed == 0 and bool(metrics), "attempted": len(reps),
                      "failed": n_failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
