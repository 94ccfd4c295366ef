"""One benchmark rep in a fresh interpreter.

    python3 perfbench/worker.py --mode rep --workload NAME --seed N --trace 0|1 \
        --inputs INPUTS --workdir DIR --out RESULT.json

Modes: `prepare` writes the workload's untimed input files into INPUTS;
`setup` measures only `setup_s`; `rep` also runs the workload, writing its
files into DIR, and checks it against the goldens.  A rep that raises or
fails a check is recorded as failed in RESULT.json.  The worker itself exits
nonzero only when adasg cannot be set up at all, e.g. when the checkout has
no `src/adasg`.  While it runs, the speed sampler of `speed.py` times a
fixed probe and counts steal time; RESULT.json records the resulting speed
as `speed`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_adasg():
    """Import adasg from this checkout's sources, never from site-packages."""
    if not (SRC / "adasg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no adasg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import adasg
    import adasg.cli

    if Path(adasg.__file__).resolve().parent != SRC / "adasg":
        raise SystemExit(f"perfbench: adasg imported from {adasg.__file__}, not {SRC}")
    return adasg


def measure(adasg, args, t0: float) -> dict:
    tracer = restore = None
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        t_install = time.perf_counter()
    state = workloads.setup(adasg, args.workload, args.inputs)
    result = {"setup_s": time.perf_counter() - t0}
    if args.mode == "rep":
        try:
            try:
                out = workloads.run(adasg, args.workload, args.workdir, args.seed, state)
            finally:
                if restore is not None:
                    restore()
                    window_s = time.perf_counter() - t_install
            result.update(workloads.finish(adasg, args.workload, args.seed, out))
            golden = json.loads((HERE / "goldens.json").read_text())["workloads"][args.workload]
            result["check_errors"] = workloads.check(result.pop("summary"), golden)
            if tracer is not None:
                result["layers"] = tracing.layer_metrics(
                    tracer, window_s, result.get("final_nodes"))
        except Exception:  # noqa: BLE001 - a failing rep is recorded, not fatal
            result["error"] = traceback.format_exc()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("prepare", "setup", "rep"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    import numpy  # noqa: F401  - a dependency's import cost is not adasg's set-up

    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        adasg = import_adasg()
        if args.mode == "prepare":
            workloads.prepare(adasg, args.workload, args.inputs)
            args.out.write_text(json.dumps({}))
            return 0
        result = measure(adasg, args, t0)
    result["speed"] = sampler.speed()
    result["steal_s"] = sampler.steal_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
