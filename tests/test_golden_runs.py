"""Output bytes of two CLI runs, pinned to the files the loop wrote before it
kept its grid between iterations (when every iteration rebuilt the grid,
the surpluses and the margin from scratch).

The first config is the benchmark's `d3_leja_ckpt` run: 137 one-node
iterations.  The second grows a d=4 Clenshaw-Curtis grid by at least six
nodes per iteration, so blocks of several rows, and fibres with several new
members, are solved at once.  The later entries pin a surplus fit on Leja
nodes, a fit with beta pinned to zero, and an `adasg compare` run, whose
isotropic scheme runs with fitting off.  `NODES` pins the two tables of
`adasg nodes` for three rules, `EVALUATE` the `adasg evaluate` table of the
first run's model, and `POINTS` the request file of the external-evaluator
protocol.

`d8_leja_spectral` is the benchmark's d=8 run through the CLI: its final
probe contracts a trie of seven levels in two chunks of points.  `d1_rleja`
is a d=1 run, whose trie has no level at all; these two were pinned before
the probe kept its basis and prefix products between iterations.
`d16_leja_batch4` grows a d=16 grid by four nodes per iteration, with
c_k = (k + 1)^-1.5: its first grow step admits 136 levels of one tied
weight, and the budget cuts its last round to one node.  It was pinned
before the grow step kept its margin as an array.

The bytes hold on one machine with one BLAS kernel: the fit's least-squares
solve takes its bits from the kernel.  Across kernels the tensor sets, the
node counts and `interpolant.json` are the same, and the fitted floats agree
to a few ulps; the last test checks that against OpenBLAS's AVX2 kernel.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from adasg import cli
from adasg import targets as tg

RUNS = {
    "d3_leja_ckpt": ("""
        rule = leja
        d = 3
        fit_source = legendre
        batch = minimal
        target = rational
        target_c0 = 3
        target_c = 1,0.5,0.25
        probe_count = 1000
        probe_seed = 20240101
        max_iterations = 1000
        max_samples = 150
    """, {
        "history.csv": "38e50ae20fe84195b7fa07f5c15871ffa20b1947f3720310ad0d5ff641d08613",
        "checkpoint.json": "0b7a8d3474053262c206a58c2529abd6ff79a57a81b7011bebf2635ae90bbb93",
        "interpolant.json": "2bfa3d65c54dd18673e0d37f007ee1682b4b97b38cf6100438eb4b4046a514d9",
    }),
    "cc_batch6": ("""
        rule = clenshaw_curtis
        d = 4
        batch = 6
        max_iterations = 1000
        max_samples = 300
        target = rational
        target_c0 = 4
        target_c = 1,0.6,0.3,0.1
        probe_count = 1000
        probe_seed = 7
    """, {
        "history.csv": "53098582cffc02475ad702ad869280c8f38e75d59777f8847afef1815f15a050",
        "checkpoint.json": "3f790e5e9154e315a516265ba63798bc5748228e5f11d6fe6380abc2caa98752",
        "interpolant.json": "53957c8a59a90309ecb2bf544b7fa2fd0fe25848aa1726f0d64c3ba9ac85325c",
    }),
    "leja_surplus": ("""
        rule = leja
        d = 3
        fit_source = surplus
        batch = minimal
        max_iterations = 1000
        max_samples = 120
        target = rational
        target_c0 = 3
        target_c = 1,0.5,0.25
        probe_count = 1000
        probe_seed = 11
    """, {
        "history.csv": "d74bea80c6d0d94184ad15379fe4aef16346d2ee2963516238c9176040d3ee29",
        "checkpoint.json": "3d238b9a3932b3328bdd3a8eb01f3692b217cf0aa8dce017b641e01abd1f0ebe",
        "interpolant.json": "969b4dd816edb7903f2c3b607d0245da693a8a26d043653d7c290343bdf636e0",
    }),
    "leja_no_beta": ("""
        rule = leja
        d = 3
        fit_beta = false
        batch = 3
        max_iterations = 1000
        max_samples = 150
        target = rational
        target_c0 = 3
        target_c = 1,0.5,0.25
        probe_count = 1000
        probe_seed = 13
    """, {
        "history.csv": "e833f0cc0d650bd424a53d7b5127c69084e82e0bc6c1f0f10f1a65ea6b7ed39a",
        "checkpoint.json": "44316e8ec075407d3f48a33a740afd18fe5b51b862aaf3dfb97e079ad8784a0a",
        "interpolant.json": "972f88ee89d0bed3a7d3f05dcdba0de6b5b1309eb602ee2bb8de1f92c649b52c",
    }),
    "d8_leja_spectral": ("""
        rule = leja
        d = 8
        fit_source = legendre
        batch = minimal
        target = rational
        target_c0 = 8
        target_c = 1,0.8,0.6,0.5,0.4,0.3,0.2,0.1
        probe_count = 1000
        probe_seed = 20240101
        max_iterations = 1000
        max_samples = 80
    """, {
        "history.csv": "31b670254c0ac4a18ed800934d77d1d10ac34e55588f798d075c4ccae01abf83",
        "checkpoint.json": "9b15b191e06a07fb4fef33cf4c507aff1dc3e1035a4199baa51918e9eb82c3a5",
        "interpolant.json": "072bb5ee0b5bec8237bda50b6da2d31d049db6bab35c68301998cab57418896c",
    }),
    "d1_rleja": ("""
        rule = rleja_double2
        d = 1
        batch = minimal
        target = rational
        target_c0 = 1.5
        target_c = 1
        probe_count = 1000
        probe_seed = 5
        max_iterations = 1000
        max_samples = 40
    """, {
        "history.csv": "c25e1d39db8e4b0a7283fa1cdd127a39d07cf587f56a1225e78160e7b55925fe",
        "checkpoint.json": "89e80533f6c0ae7fed2b9b3b29cb52494be2e5bc9e36bed836fceef7b23276dc",
        "interpolant.json": "eba5f9d5fa237b10756f5bf647110c79920dca08324ef84189e44efb0c1f83a0",
    }),
    "d16_leja_batch4": ("""
        rule = leja
        d = 16
        batch = 4
        initial_level = 1
        target = rational
        target_c0 = 3
        target_c = 1,0.3536,0.1925,0.125,0.0894,0.068,0.054,0.0442,0.037,0.0316,0.0274,0.0241,0.0213,0.0191,0.0172,0.0156
        probe_count = 200
        probe_seed = 19
        max_iterations = 1000
        max_samples = 190
    """, {
        "history.csv": "9b24b2d7be011d7e1a57e3d2ffe07fdb455b8b4697b5b8adf4c15452f4860cd7",
        "checkpoint.json": "27617791749ac06ff378cfb33b9c26954b8a5d960677f98757b15ded6e36473e",
        "interpolant.json": "eb0b17d085394103af1a9b49a1f5d7962492010ba49d2d1a03000e45940f039b",
    }),
}

COMPARE = ("""
    rule = leja
    d = 3
    batch = 2
    max_iterations = 40
    max_samples = 100
    target = rational
    target_c0 = 3
    target_c = 1,0.5,0.25
    probe_count = 500
    probe_seed = 17
""", "4f5737839750726866b4fe6d62db8f9f4a870bbf64a89832b723bf5c00a25420")

# (rule, levels) -> sha256 of <rule>_levels.csv and <rule>_nodes.csv, each
# written at --probe-count 20001
NODES = {
    ("clenshaw_curtis", 3): ("b86f66c4ccc43ef35d1614328ea064af81baeae09a2289dd7043df2ab9660820",
                             "7cbc88730355f6fe6da4200a248399da8f43b622a0179b896544010b5a2c6642"),
    ("leja", 5): ("4e0a60d9717628f6e34be27907ed85e33bb5c6d9c9a8fc534850555e28f5ddb1",
                  "6ad2d73a835bef2ba7b399f93acf26e216546b4480ed2c88fc55129dd3e68e25"),
    ("rleja_double2", 4): ("60cc66846617aa2d30b00fc308a7af6448dd39311587596b21f26bb09e2784bb",
                           "879c70ab05ee00de4221c049d07e3f8fb6a064a811205c83aeb0ac8531ae0c4e"),
}


def labelled_points():
    """Labelled ids and 200 points in [-3, 3]^3, one row of -0.0 and one
    NaN coordinate."""
    pts = np.random.default_rng(24).uniform(-3.0, 3.0, (200, 3))
    pts[5], pts[7, 1] = -0.0, np.nan
    return [f"p{i}" if i % 3 else f"id-{i:03d}" for i in range(len(pts))], pts


# sha256 of `adasg evaluate --allow-extrapolation` at `labelled_points`, with
# the interpolant of the `d3_leja_ckpt` run
EVALUATE = "3a9313212371ccdc7dc75a34c4ae59d2e90cdc986d8eb8086aeca274d70b6b51"
# sha256 of `targets.write_points_csv` of the points of `labelled_points`
# with a row of (inf, -inf, 5e-324) appended
POINTS = "624a777366c319a0d90d44fecef843839910867a6f74b4b054d05d829dc872e1"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_writes_the_pinned_bytes(name, tmp_path):
    config, digests = RUNS[name]
    (tmp_path / "run.cfg").write_text(textwrap.dedent(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(tmp_path / "run.cfg"), "--workdir", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests


def test_cli_compare_writes_the_pinned_bytes(tmp_path):
    config, digest = COMPARE
    (tmp_path / "run.cfg").write_text(textwrap.dedent(config))
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(tmp_path / "run.cfg"), "--workdir", str(out)]) == 0
    assert hashlib.sha256((out / "compare.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("rule, levels", sorted(NODES))
def test_cli_nodes_writes_the_pinned_bytes(rule, levels, tmp_path):
    assert cli.main(["nodes", "--rule", rule, "--levels", str(levels), "--probe-count", "20001",
                     "--workdir", str(tmp_path)]) == 0
    got = tuple(hashlib.sha256((tmp_path / f"{rule}_{name}.csv").read_bytes()).hexdigest()
                for name in ("levels", "nodes"))
    assert got == NODES[rule, levels]


def test_cli_evaluate_writes_the_pinned_bytes(tmp_path):
    (tmp_path / "run.cfg").write_text(textwrap.dedent(RUNS["d3_leja_ckpt"][0]))
    model = tmp_path / "run" / "interpolant.json"
    assert cli.main(["run", "--config", str(tmp_path / "run.cfg"), "--workdir",
                     str(model.parent)]) == 0
    ids, pts = labelled_points()
    (tmp_path / "points.csv").write_text("id,y_1,y_2,y_3\n" + "".join(
        f"{i}," + ",".join(repr(float(v)) for v in row) + "\n" for i, row in zip(ids, pts)))
    out = tmp_path / "evaluations.csv"
    with pytest.warns(UserWarning, match="outside"):
        assert cli.main(["evaluate", "--model", str(model), "--points", str(tmp_path / "points.csv"),
                         "--output", str(out), "--allow-extrapolation"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EVALUATE


def test_write_points_csv_writes_the_pinned_bytes(tmp_path):
    pts = np.vstack([labelled_points()[1], [np.inf, -np.inf, 5e-324]])
    tg.write_points_csv(tmp_path / "points.csv", pts)
    assert hashlib.sha256((tmp_path / "points.csv").read_bytes()).hexdigest() == POINTS


def history_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], list(zip(*rows[1:]))


def test_the_pinned_runs_agree_across_blas_kernels(tmp_path):
    """The pinned configs rerun in a process with OpenBLAS forced to its
    AVX2 kernel (Haswell; a BLAS that ignores the variable reruns its own
    kernel): `interpolant.json` keeps its pinned bytes, the tensor sets and
    node counts equal those of this process, and every float of
    `history.csv` agrees to 1e-13 relative to the largest magnitude in its
    column.  Elementwise, a small alpha of a surplus fit moved by 1.2e-13
    relative, and the residual of an exact fit, 5.6e-16, by 0.9: rounding
    at the scale of the column."""
    args = []
    for name, (config, _) in RUNS.items():
        (tmp_path / f"{name}.cfg").write_text(textwrap.dedent(config))
        args += [str(tmp_path / f"{name}.cfg"), str(tmp_path / "haswell" / name)]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    script = ("import sys\nfrom adasg import cli\nfor c, w in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    assert cli.main(['run', '--config', c, '--workdir', w]) == 0\n")
    subprocess.run([sys.executable, "-c", script] + args, env=env, check=True, timeout=600,
                   capture_output=True)
    for name, (_, digests) in RUNS.items():
        here, there = tmp_path / "here" / name, tmp_path / "haswell" / name
        assert cli.main(["run", "--config", str(tmp_path / f"{name}.cfg"), "--workdir", str(here)]) == 0
        got = hashlib.sha256((there / "interpolant.json").read_bytes()).hexdigest()
        assert got == digests["interpolant.json"]
        thetas = [{tuple(i) for i in json.loads((out / "checkpoint.json").read_text())["theta"]}
                  for out in (here, there)]
        assert thetas[0] == thetas[1]
        (head, cols), (head2, cols2) = history_columns(here / "history.csv"), \
            history_columns(there / "history.csv")
        assert head == head2
        for key, a, b in zip(head, cols, cols2):
            if key in ("iter", "n_used", "corrected", "excluded", "node_count"):
                assert a == b, key
            else:
                a, b = (np.array([float(v) if v else np.nan for v in c]) for c in (a, b))
                scale = np.nanmax(np.abs(a), initial=0.0)
                assert np.allclose(a, b, rtol=0.0, atol=1e-13 * scale, equal_nan=True), key
