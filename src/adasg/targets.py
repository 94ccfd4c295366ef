"""Target functions: built-in analytic families, plus a file-based protocol
for coupling external solvers.

The external protocol is batch polling over plain CSV files so that legacy or
HPC codes can answer sample requests without linking anything: the driver
writes `points.csv`, the evaluator answers with `values.csv` and then creates
a `done` sentinel; partial files are never read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sparse_grid import _write_csv
from .spectral import legendre_1d

# how long an external evaluator may take over one batch, and how often the
# driver looks for its `done` sentinel meanwhile (seconds)
DEFAULT_TIMEOUT = 600.0
_POLL_INTERVAL = 0.05


class EvaluationError(RuntimeError):
    """Target evaluation failed; carries the offending point ids when known."""

    def __init__(self, message, failed_ids=()):
        super().__init__(message)
        self.failed_ids = tuple(failed_ids)


@dataclass
class TargetSpec:
    """A target function: a built-in analytic family or an external evaluator."""

    kind: str                 # builtin name or "external"
    dim: int
    params: dict = field(default_factory=dict)
    workdir: str | None = None
    command: str | None = None
    timeout: float = DEFAULT_TIMEOUT

    def evaluate(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points must have dimension {self.dim}")
        if self.kind == "external":
            return external_evaluate(self.workdir, pts, self.command, self.timeout)
        vals = _BUILTINS[self.kind][0](pts, self.params)
        bad = np.flatnonzero(~np.isfinite(vals))
        if len(bad):
            raise EvaluationError(
                f"target returned non-finite values at {len(bad)} points", bad.tolist()
            )
        return vals


def _rational(pts, params):
    c0 = params["c0"]
    c = np.asarray(params["c"], dtype=float)
    return 1.0 / (c0 + pts @ c)


def _expsum(pts, params):
    c = np.asarray(params["c"], dtype=float)
    return np.exp(-(pts @ c))


def _gaussian_peak(pts, params):
    c = np.asarray(params["c"], dtype=float)
    t = np.asarray(params["t"], dtype=float)
    return np.exp(-np.sum(c[None, :] * (pts - t[None, :]) ** 2, axis=1))


def _legendre_mode(pts, params):
    nu = params["nu"]
    out = np.ones(len(pts))
    for k, n in enumerate(nu):
        out *= legendre_1d(int(n), pts[:, k])
    return out


# per built-in family: its values at points (P, d), and its parameters in
# the order they are read
_BUILTINS = {
    "rational": (_rational, ("c0", "c")),
    "expsum": (_expsum, ("c",)),
    "gaussian_peak": (_gaussian_peak, ("c", "t")),
    "legendre_mode": (_legendre_mode, ("nu",)),
}


def builtin_target(name: str, d: int, **params) -> TargetSpec:
    """Construct a built-in target.

    `c0` is a number, `nu` a mode index and every other parameter a vector
    of length d; the Gaussian peak's centre `t` defaults to the origin.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin target {name!r}; known: {tuple(_BUILTINS)}")
    params = {"t": [0.0] * d, **params}
    params = {key: (float(params[key]) if key == "c0" else
                    tuple(int(v) for v in params[key]) if key == "nu" else
                    [float(v) for v in params[key]])
              for key in _BUILTINS[name][1]}
    wrong = [key for key, v in params.items() if key != "c0" and len(v) != d]
    if wrong:
        raise ValueError(f"{', '.join(wrong)} must have length d = {d}")
    if name == "rational" and not params["c0"] > sum(abs(v) for v in params["c"]):
        raise ValueError("need c0 > sum |c_k| so the pole stays off the cube")
    return TargetSpec(name, d, params)


def external_target(d: int, workdir, command: str | None = None,
                    timeout: float = DEFAULT_TIMEOUT) -> TargetSpec:
    """An external evaluator answering in `workdir`, run as `command` if
    given, with `timeout` seconds (the config key `external_timeout`) per
    batch: finite and above 0, or refused before any file is written."""
    _check_timeout(timeout)
    return TargetSpec("external", d, {}, str(workdir), command, timeout)


def _check_timeout(timeout: float) -> None:
    if not 0.0 < timeout < math.inf:  # NaN compares False
        raise ValueError(f"external_timeout must be finite and above 0 seconds, got {timeout}")


# ---------------------------------------------------------------------------
# file protocol


def write_points_csv(path, points: np.ndarray) -> None:
    """Write the points numbered from 0; the file appears whole or not at all,
    so an evaluator that polls for it never reads a partial request."""
    _write_csv(path, ["id", *(f"y_{k + 1}" for k in range(points.shape[1]))],
               ([i, *row] for i, row in enumerate(points)))


def read_labelled_points(path) -> tuple[list[str], np.ndarray]:
    """Points with an optional leading `id` column whose labels are kept as
    written; rows are numbered from 0 when the column is absent, blank lines
    not counted.  A file with a header and no rows gives a (0, d) array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        has_id = header and header[0] == "id"
        ycols = header[1:] if has_id else header
        if ycols != [f"y_{k + 1}" for k in range(len(ycols))]:
            raise ValueError(f"bad points header: {header}")
        ids, rows = [], []
        for n, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path} line {n + 2}: {len(parts)} fields, "
                                 f"the header has {len(header)}")
            ids.append(parts[0] if has_id else str(len(rows)))
            rows.append([float(v) for v in (parts[1:] if has_id else parts)])
    return ids, np.array(rows, dtype=float).reshape(len(rows), len(ycols))


def read_values_csv(path, count: int) -> dict[int, float]:
    """The evaluator's answers `id,f` to a request for the ids 0..count-1.

    A malformed line, an id answered twice and an id never requested are
    evaluator faults: each raises `EvaluationError` naming the file and line.
    """
    out = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != ["id", "f"]:
            raise EvaluationError(f"{path}: bad values header {header!r}")
        for n, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                i, v = line.split(",")
                i, v = int(i), float(v)
            except ValueError:
                raise EvaluationError(f"{path} line {n}: expected 'id,f', "
                                      f"got {line.strip()!r}") from None
            if i in out or not 0 <= i < count:
                why = "answered twice" if i in out else f"not requested (ids 0..{count - 1})"
                raise EvaluationError(f"{path} line {n}: id {i} {why}")
            out[i] = v
    return out


def external_evaluate(workdir, points, command: str | None = None,
                      timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
    """Round-trip a batch of points through the file protocol.

    Writes `points.csv`, runs `command` (if configured) or polls until the
    evaluator has produced `values.csv` followed by the `done` sentinel, then
    validates that every id was answered with a finite value.  A `timeout`
    that is not finite and above 0 is refused before any file is touched.
    """
    _check_timeout(timeout)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        return np.zeros(0)
    wd = Path(workdir)
    wd.mkdir(parents=True, exist_ok=True)
    values_path = wd / "values.csv"
    done_path = wd / "done"
    for stale in (values_path, done_path):
        stale.unlink(missing_ok=True)
    write_points_csv(wd / "points.csv", pts)
    if command:
        # imported here: only an evaluator run as a command needs them
        import shlex
        import subprocess

        try:
            proc = subprocess.run(shlex.split(command), cwd=wd,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise EvaluationError(f"external evaluator ran past its timeout of {timeout}s") from err
        except OSError as err:
            raise EvaluationError(f"external evaluator could not start: {err}") from err
        if proc.returncode != 0:
            raise EvaluationError(
                f"external evaluator exited with {proc.returncode}: {proc.stderr.strip()}"
            )
    deadline = time.monotonic() + timeout
    while not done_path.exists():
        if time.monotonic() > deadline:
            raise EvaluationError(f"timed out after {timeout}s waiting for {done_path}")
        time.sleep(_POLL_INTERVAL)
    if not values_path.exists():
        raise EvaluationError(f"evaluator created {done_path} but no {values_path}")
    got = read_values_csv(values_path, len(pts))
    missing = [i for i in range(len(pts)) if i not in got]
    if missing:
        raise EvaluationError(f"evaluator left {len(missing)} ids unanswered", missing)
    vals = np.array([got[i] for i in range(len(pts))])
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise EvaluationError(f"non-finite values for ids {bad.tolist()}", bad.tolist())
    return vals
