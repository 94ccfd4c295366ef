"""Regenerate perfbench/goldens.json from the current sources.

    python3 perfbench/make_goldens.py

Run it only on a commit whose behaviour is the reference: every benchmark
rep is checked against the file it writes.  It records, per workload, the
per-iteration node counts and fitted alpha, beta and C_hat, the final tensor
set, values at fixed reference points and an error bound, plus the machine
it ran on (the greedy Leja nodes depend on the numpy version).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BLAS_ENV, BLAS_THREADS, HERE, ROOT, machine_record
import workloads
from worker import import_adasg

WORK = ROOT / ".perfbench_work"
GOLDEN_SEED = 1
# an evaluation on other seeds' points may find a larger error than these
ERROR_BOUND_FACTOR = 4.0


def plain_cli_history_sha(config_text: str) -> str:
    """sha256 of history.csv from `adasg run` in its own process, untraced."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config_text)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
        subprocess.run([sys.executable, "-m", "adasg.cli", "run", "--config", str(cfg),
                        "--workdir", str(Path(tmp) / "out")], env=env, check=True,
                       capture_output=True)
        return hashlib.sha256((Path(tmp) / "out" / "history.csv").read_bytes()).hexdigest()


def main() -> int:
    WORK.mkdir(exist_ok=True)
    adasg = import_adasg()
    goldens = {"made_with": machine_record(), "workloads": {}}
    for name, spec in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            tmp = Path(tmp)
            workloads.prepare(adasg, name, tmp)
            state = workloads.setup(adasg, name, tmp)
            out = workloads.run(adasg, name, tmp, GOLDEN_SEED, state)
            summary = workloads.finish(adasg, name, GOLDEN_SEED, out)["summary"]
        summary.pop("nodes_to_tol", None)
        summary["max_error_bound"] = ERROR_BOUND_FACTOR * summary.pop("max_error")
        if spec["kind"] == "cli":
            summary["plain_history_sha256"] = plain_cli_history_sha(spec["config"])
        goldens["workloads"][name] = summary
        print(f"{name}: {summary.get('theta_size')} tensor levels", file=sys.stderr)
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
