import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adasg import cli
from adasg import driver as dr
from adasg import sparse_grid as sg
from adasg import targets as tg
from adasg.multiindex import lambda_classic
from test_driver import D24_STOP, d24_total_degree_1, tear_writes
from test_multiindex import deadline

STUB = textwrap.dedent("""
    import csv
    rows = list(csv.DictReader(open("points.csv")))
    d = len(rows[0]) - 1
    with open("values.csv", "w", newline="") as fh:
        fh.write("id,f\\n")
        for r in rows:
            y = [float(r[f"y_{k+1}"]) for k in range(d)]
            fh.write(f"{r['id']},{1.0/(3.0 + sum(c*v for c, v in zip([1.0,0.5,0.25], y)))}\\n")
    open("done", "w").close()
""")


def write_stub(path, body=STUB):
    path.write_text(body)


def test_rational_pole_guard():
    with pytest.raises(ValueError):
        tg.builtin_target("rational", 2, c0=1.2, c=[1.0, 0.5])


def test_expsum_constant_and_entire():
    t = tg.builtin_target("expsum", 2, c=[0.0, 0.0])
    assert np.allclose(t.evaluate([[0.4, -0.8]]), 1.0)


def test_gaussian_peak():
    t = tg.builtin_target("gaussian_peak", 2, c=[1.0, 2.0], t=[0.1, -0.2])
    v = t.evaluate([[0.1, -0.2]])
    assert abs(v[0] - 1.0) < 1e-15


def test_legendre_mode_orthonormal_coefficient():
    from adasg.multiindex import lambda_classic
    from adasg.spectral import grid_coeffs

    nu0 = (1, 2)
    t = tg.builtin_target("legendre_mode", 2, nu=nu0)
    lam = lambda_classic("total_degree", (1.0, 1.0), 3.0)
    ts = sg.theta_opt(lam, "leja")
    grid = sg.grid_nodes(ts)
    interp = sg.build_interpolant(
        ts, {j: float(t.evaluate(p[None, :])[0]) for j, p in zip(grid.indices, grid.points)}
    )
    coeffs = dict(zip(map(tuple, (interp.grid.idx - 1).tolist()), grid_coeffs(interp).tolist()))
    assert abs(coeffs[nu0] - 1.0) < 1e-10


def test_unknown_builtin():
    with pytest.raises(ValueError):
        tg.builtin_target("mystery", 1, c=[1.0])


def test_external_round_trip(tmp_path):
    write_stub(tmp_path / "stub.py")
    ext = tg.external_target(3, tmp_path, command=f"{sys.executable} stub.py", timeout=60)
    pts = np.array([[0.1, 0.2, -0.3], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    vals = ext.evaluate(pts)
    ref = 1.0 / (3.0 + pts @ np.array([1.0, 0.5, 0.25]))
    assert np.allclose(vals, ref, atol=1e-15)


def test_external_empty_batch(tmp_path):
    got = tg.external_evaluate(tmp_path / "sub", np.zeros((0, 2)))
    assert len(got) == 0
    assert not (tmp_path / "sub" / "points.csv").exists()


def test_external_nan_aborts(tmp_path):
    write_stub(tmp_path / "stub.py", STUB.replace(
        "1.0/(3.0 + sum(c*v for c, v in zip([1.0,0.5,0.25], y)))", "float('nan')"))
    ext = tg.external_target(2, tmp_path, command=f"{sys.executable} stub.py", timeout=60)
    with pytest.raises(tg.EvaluationError) as err:
        ext.evaluate(np.array([[0.0, 0.0], [0.5, 0.5]]))
    assert 0 in err.value.failed_ids


def test_external_missing_ids_abort(tmp_path):
    body = STUB.replace("for r in rows:", "for r in rows[:1]:")
    write_stub(tmp_path / "stub.py", body)
    ext = tg.external_target(2, tmp_path, command=f"{sys.executable} stub.py", timeout=60)
    with pytest.raises(tg.EvaluationError):
        ext.evaluate(np.array([[0.0, 0.0], [0.5, 0.5]]))


def test_external_malformed_answer_aborts_run_with_checkpoint(tmp_path):
    from adasg import driver as dr

    write_stub(tmp_path / "stub.py", STUB.replace('fh.write("id,f\\n")',
                                                  'fh.write("id,f\\n0;1.5\\n")'))
    ext = tg.external_target(2, tmp_path, command=f"{sys.executable} stub.py", timeout=60)
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=3, max_samples=50)
    ck = tmp_path / "checkpoint.json"
    with pytest.raises(tg.EvaluationError, match=r"values.csv line 2: expected 'id,f'"):
        dr.run(cfg, ext, checkpoint_path=ck)
    assert dr.load_state(ck).cache == {}
    (tmp_path / "values.csv").write_text("id,value\n0,1.5\n")
    with pytest.raises(tg.EvaluationError, match="bad values header"):
        tg.read_values_csv(tmp_path / "values.csv", 1)


def test_external_duplicate_answer_aborts(tmp_path):
    body = STUB.replace('open("done", "w").close()',
                        'fh2 = open("values.csv", "a"); fh2.write("0,7.0\\n"); fh2.close()\n'
                        'open("done", "w").close()')
    write_stub(tmp_path / "stub.py", body)
    ext = tg.external_target(2, tmp_path, command=f"{sys.executable} stub.py", timeout=60)
    with pytest.raises(tg.EvaluationError, match=r"values.csv line 4: id 0 answered twice"):
        ext.evaluate(np.array([[0.0, 0.0], [0.5, 0.5]]))


def test_external_unrequested_id_aborts(tmp_path):
    body = STUB.replace('open("done", "w").close()',
                        'fh2 = open("values.csv", "a"); fh2.write("2,7.0\\n"); fh2.close()\n'
                        'open("done", "w").close()')
    write_stub(tmp_path / "stub.py", body)
    ext = tg.external_target(2, tmp_path, command=f"{sys.executable} stub.py", timeout=60)
    with pytest.raises(tg.EvaluationError, match=r"values.csv line 4: id 2 not requested"):
        ext.evaluate(np.array([[0.0, 0.0], [0.5, 0.5]]))


def test_external_timeout(tmp_path):
    ext = tg.external_target(2, tmp_path, command=None, timeout=0.3)
    with pytest.raises(tg.EvaluationError):
        ext.evaluate(np.array([[0.0, 0.0]]))


@pytest.mark.parametrize("command", [None, "./evaluate"])
@pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_external_timeout_is_refused_unless_finite_and_positive(tmp_path, command, timeout):
    # NaN never timed out a poll, and inf reached subprocess as an
    # OverflowError after points.csv was written
    with pytest.raises(ValueError, match="external_timeout must be finite and above 0"):
        tg.external_target(2, tmp_path / "ext", command=command, timeout=timeout)
    assert not (tmp_path / "ext").exists()


@pytest.mark.parametrize("command", [None, "./evaluate"])
@pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("path", ["target_spec", "external_evaluate"])
def test_external_timeout_is_refused_on_every_path(tmp_path, path, timeout, command):
    # a TargetSpec built directly and the public external_evaluate bypass
    # external_target; with NaN or inf their poll for `done` never ended
    wd = tmp_path / "ext"
    with deadline(), pytest.raises(ValueError, match="external_timeout must be finite and above 0"):
        if path == "target_spec":
            tg.TargetSpec("external", 2, {}, str(wd), command, timeout).evaluate([[0.0, 0.0]])
        else:
            tg.external_evaluate(wd, [[0.0, 0.0]], command, timeout)
    assert not (wd / "points.csv").exists()


def test_import_loads_no_subprocess_machinery():
    # only an external evaluator run as a command needs subprocess and shlex
    src = str(Path(tg.__file__).resolve().parents[1])
    code = "import sys, adasg, adasg.cli; print(sorted({'subprocess', 'shlex'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5"])
def test_cli_run_refuses_an_external_timeout_before_any_file(tmp_path, capsys, value):
    cfg = tmp_path / "ext.cfg"
    cfg.write_text(f"d = 2\ntarget = external\nexternal_workdir = {tmp_path / 'ext'}\n"
                   f"external_command = {sys.executable} stub.py\nexternal_timeout = {value}\n")
    with pytest.raises(ValueError, match="external_timeout"):
        cli.load_config(cfg)
    with deadline():
        rc = cli.main(["run", "--config", str(cfg), "--workdir", str(tmp_path / "out")])
    assert rc == 1
    assert "external_timeout" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "ext").exists()


@pytest.mark.parametrize("command, body, message", [
    (f"{sys.executable} stub.py", "import time\ntime.sleep(5)\n", "ran past its timeout of 0.5s"),
    ("./no-such-evaluator", "", "could not start"),
    (f"{sys.executable} stub.py", 'open("done", "w").close()\n', "done but no .*values.csv")],
    ids=["timeout", "no_start", "no_values"])
def test_external_command_failing_to_finish_aborts_run_with_checkpoint(tmp_path, command, body,
                                                                       message):
    # a command past its timeout, one that cannot start, or one that signals
    # done without writing values.csv, used to escape as
    # subprocess.TimeoutExpired, OSError or FileNotFoundError and leave no checkpoint
    write_stub(tmp_path / "stub.py", body)
    ext = tg.external_target(2, tmp_path, command=command, timeout=0.5)
    with pytest.raises(tg.EvaluationError, match=message):
        ext.evaluate(np.array([[0.0, 0.0]]))
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=3, max_samples=50)
    ck = tmp_path / "checkpoint.json"
    with pytest.raises(tg.EvaluationError, match=message):
        dr.run(cfg, ext, checkpoint_path=ck)
    state = dr.load_state(ck)
    assert state.cache == {} and state.config == cfg


def test_points_csv_precision_round_trip(tmp_path):
    pts = np.array([[1 / 3, -2 / 7], [0.1, 1e-17]])
    tg.write_points_csv(tmp_path / "points.csv", pts)
    ids, back = tg.read_labelled_points(tmp_path / "points.csv")
    assert ids == ["0", "1"]
    assert np.array_equal(back, pts)


def test_points_labels_kept_as_written_or_numbered(tmp_path):
    (tmp_path / "named.csv").write_text("id,y_1\nrun-07,0.5\n\nb,-0.25\n")
    ids, pts = tg.read_labelled_points(tmp_path / "named.csv")
    assert ids == ["run-07", "b"] and pts.tolist() == [[0.5], [-0.25]]
    (tmp_path / "bare.csv").write_text("y_1,y_2\n0.5,0\n-1,1\n")
    assert tg.read_labelled_points(tmp_path / "bare.csv")[0] == ["0", "1"]
    # rows are numbered, not lines: a blank line takes no number
    (tmp_path / "gap.csv").write_text("y_1,y_2,y_3\n0.1,0.2,0.3\n\n0.4,0.5,0.6\n")
    assert tg.read_labelled_points(tmp_path / "gap.csv")[0] == ["0", "1"]


def test_cli_evaluate_header_only_points_file_writes_a_header_only_output(tmp_path):
    saved_model(tmp_path / "model.json")
    (tmp_path / "pts.csv").write_text("id,y_1,y_2\n")
    ids, pts = tg.read_labelled_points(tmp_path / "pts.csv")
    assert ids == [] and pts.shape == (0, 2)
    rc = cli.main(["evaluate", "--model", str(tmp_path / "model.json"),
                   "--points", str(tmp_path / "pts.csv"), "--workdir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "evaluations.csv").read_text() == "id,y_1,y_2,value\n"


def test_points_ragged_row_names_its_line(tmp_path):
    (tmp_path / "ragged.csv").write_text("id,y_1,y_2\na,0.5,0\n\nb,0.25\n")
    with pytest.raises(ValueError, match="ragged.csv line 4: 2 fields, the header has 3"):
        tg.read_labelled_points(tmp_path / "ragged.csv")


def test_points_coordinate_that_does_not_parse_names_its_line(tmp_path):
    # the message named neither the file nor the line
    (tmp_path / "bad.csv").write_text("id,y_1,y_2\na,0.5,0\nb,0.3,zz\n")
    with pytest.raises(ValueError, match="bad.csv line 3: could not convert string to float: 'zz'"):
        tg.read_labelled_points(tmp_path / "bad.csv")


def test_config_parsing(tmp_path):
    cfg_text = textwrap.dedent("""
        # run configuration
        rule = leja
        d = 3
        fit_source = surplus
        batch = 16
        max_iterations = 4
        max_samples = 500
        probe_count = 100
        probe_seed = 99
        initial = total_degree
        initial_level = 2
        target = rational
        target_c0 = 3
        target_c = 1,0.5,0.25
    """)
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    config, target = cli.load_config(path)
    assert config.rule == "leja" and config.d == 3 and config.batch == 16
    assert config.fit_source == "surplus" and config.probe_seed == 99
    assert target.kind == "rational" and target.params["c"] == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("d", [1, 3])
def test_config_omitted_keys_take_the_library_defaults(tmp_path, d):
    path = tmp_path / "run.cfg"
    path.write_text(f"d = {d}\ntarget = expsum\n")
    config, target = cli.load_config(path)
    assert config == dr.RunConfig(rule="leja", d=d, probe_count=1000)
    assert target == tg.builtin_target("expsum", d, c=[1.0] * d)
    path.write_text(f"d = {d}\ntarget = gaussian_peak\ntarget_c = {','.join(['2'] * d)}\n")
    assert cli.load_config(path)[1].params["t"] == [0.0] * d
    path.write_text(f"d = {d}\ntarget = external\nexternal_workdir = ext\n")
    config, target = cli.load_config(path)
    assert config == dr.RunConfig(rule="leja", d=d, probe_count=None)
    assert target == tg.external_target(d, "ext")


@pytest.mark.parametrize("text, key", [
    ("rule = leja\n", "'d'"),
    ("d = 2\ntarget = rational\ntarget_c = 1,0.5\n", "'target_c0'"),
    ("d = 2\ntarget = rational\ntarget_c0 = 3\n", "'target_c'"),
    ("d = 2\ntarget = legendre_mode\n", "'target_nu'"),
    ("d = 2\ntarget = external\n", "'external_workdir'"),
])
def test_config_missing_key_is_named_as_the_file_writes_it(tmp_path, text, key):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(KeyError) as err:
        cli.load_config(path)
    assert str(err.value) == key


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d = 2\nrule = leja\nbogus = 1\n")
    with pytest.raises(ValueError):
        cli.load_config(path)


def test_config_refuses_a_key_given_twice(tmp_path):
    # the last value won silently
    path = tmp_path / "twice.cfg"
    path.write_text("d = 2\nmax_samples = 40\n# a comment\nmax_samples = 60\n")
    with pytest.raises(ValueError, match="config lines 2 and 4 both set 'max_samples'"):
        cli.load_config(path)


@pytest.mark.parametrize("key, value, message", [
    ("batch", "Minimal", "invalid literal for int() with base 10: 'Minimal'"),
    ("d", "three", "invalid literal for int() with base 10: 'three'"),
    ("fit_beta", "maybe", "expected a boolean, got 'maybe'"),
    ("initial_alpha", "1,a", "could not convert string to float: 'a'"),
    ("target_c", "1,x", "could not convert string to float: 'x'"),
    ("target_c0", "many", "could not convert string to float: 'many'"),
    ("target_nu", "1,2.5", "invalid literal for int() with base 10: '2.5'"),
])
def test_config_value_that_does_not_parse_names_its_key(tmp_path, key, value, message):
    # the parser's own message named neither the key nor the file
    kv = {"d": "2", "target": "rational", "target_c0": "3", "target_c": "1,0.5", key: value}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    with pytest.raises(ValueError) as err:
        cli.load_config(path)
    assert str(err.value) == f"config key {key!r}: {message}"


def test_config_external_timeout_that_does_not_parse_names_its_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"d = 2\ntarget = external\nexternal_workdir = {tmp_path}\n"
                    "external_timeout = soon\n")
    with pytest.raises(ValueError, match="config key 'external_timeout': could not convert"):
        cli.load_config(path)


def test_cli_nodes_command(tmp_path, capsys):
    rc = cli.main(["nodes", "--rule", "leja", "--levels", "4",
                   "--probe-count", "20000", "--workdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "leja_nodes.csv").read_text().splitlines()
    assert lines[0] == "j,y_j"
    ys = [float(line.split(",")[1]) for line in lines[1:]]
    assert abs(ys[0]) < 1e-15 and ys[1] == 1.0 and ys[2] == -1.0
    assert abs(ys[3] - 1 / math.sqrt(3)) < 1e-6
    levels = (tmp_path / "leja_levels.csv").read_text().splitlines()
    assert levels[0] == "level,m_l,lambda_measured,lambda_model"
    rows = [line.split(",") for line in levels[1:]]
    assert [int(r[0]) for r in rows] == list(range(5))
    assert all(float(r[2]) >= 1.0 for r in rows)
    rc = cli.main(["nodes", "--rule", "leja", "--levels", "-1", "--workdir", str(tmp_path / "neg")])
    assert rc == 1
    assert "level must be >= 0" in capsys.readouterr().err


def test_cli_run_and_evaluate_and_rerun_byte_identical(tmp_path):
    cfg = textwrap.dedent("""
        rule = leja
        d = 2
        fit_source = legendre
        max_iterations = 5
        max_samples = 120
        probe_count = 120
        probe_seed = 42
        target = rational
        target_c0 = 2
        target_c = 1,0.5
    """)
    (tmp_path / "run.cfg").write_text(cfg)
    wd1, wd2 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(["run", "--config", str(tmp_path / "run.cfg"), "--workdir", str(wd1)]) == 0
    assert cli.main(["run", "--config", str(tmp_path / "run.cfg"), "--workdir", str(wd2)]) == 0
    assert (wd1 / "history.csv").read_bytes() == (wd2 / "history.csv").read_bytes()
    assert (wd1 / "interpolant.json").read_bytes() == (wd2 / "interpolant.json").read_bytes()

    pts = np.array([[0.0, 0.0], [0.25, -0.5], [1.0, 1.0]])
    tg.write_points_csv(tmp_path / "pts.csv", pts)
    rc = cli.main(["evaluate", "--model", str(wd1 / "interpolant.json"),
                   "--points", str(tmp_path / "pts.csv"),
                   "--output", str(tmp_path / "out.csv")])
    assert rc == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "id,y_1,y_2,value"
    interp = sg.load_interpolant(wd1 / "interpolant.json")
    vals = sg.evaluate_batch(interp, pts)
    got = [float(line.split(",")[-1]) for line in lines[1:]]
    assert np.array_equal(np.array(got), vals)


def saved_model(path):
    """A d=2 Leja interpolant of a rational function, saved to `path`."""
    ts = sg.theta_opt(lambda_classic("total_degree", (1.0, 1.0), 3.0), "leja")
    grid = sg.grid_nodes(ts)
    t = tg.builtin_target("rational", 2, c0=3.0, c=(1.0, 0.5))
    sg.save_interpolant(sg.build_interpolant(ts, dict(zip(grid.indices, t.evaluate(grid.points)))),
                        path)


def test_cli_evaluate_refuses_nan_coordinates(tmp_path, capsys):
    saved_model(tmp_path / "model.json")
    (tmp_path / "pts.csv").write_text("id,y_1,y_2\na,0.1,0.2\nb,0.1,nan\n")
    rc = cli.main(["evaluate", "--model", str(tmp_path / "model.json"),
                   "--points", str(tmp_path / "pts.csv"), "--workdir", str(tmp_path)])
    assert rc == 1
    assert "outside [-1,1]^d" in capsys.readouterr().err
    assert not (tmp_path / "evaluations.csv").exists()


def test_cli_evaluate_names_a_missing_model_key(tmp_path, capsys):
    saved_model(tmp_path / "model.json")
    obj = json.loads((tmp_path / "model.json").read_text())
    del obj["grid_indices"]
    (tmp_path / "model.json").write_text(json.dumps(obj))
    (tmp_path / "pts.csv").write_text("id,y_1,y_2\na,0.1,0.2\n")
    args = ["evaluate", "--model", str(tmp_path / "model.json"),
            "--points", str(tmp_path / "pts.csv"), "--workdir", str(tmp_path)]
    assert cli.main(args) == 1
    assert f"error: {tmp_path / 'model.json'}: no key 'grid_indices'" in capsys.readouterr().err
    (tmp_path / "model.json").write_text("[]")
    assert cli.main(args) == 1
    assert "not a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "evaluations.csv").exists()


def test_cli_evaluate_write_failing_part_way_keeps_previous_file(tmp_path, monkeypatch, capsys):
    saved_model(tmp_path / "model.json")
    tg.write_points_csv(tmp_path / "pts.csv", np.linspace(-1, 1, 40).reshape(20, 2))
    args = ["evaluate", "--model", str(tmp_path / "model.json"),
            "--points", str(tmp_path / "pts.csv"), "--workdir", str(tmp_path)]
    assert cli.main(args) == 0
    before = (tmp_path / "evaluations.csv").read_bytes()
    tear_writes(monkeypatch)
    assert cli.main(args) == 1
    monkeypatch.undo()
    assert "disk full" in capsys.readouterr().err
    assert (tmp_path / "evaluations.csv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "evaluations.csv", "model.json", "pts.csv"]


def test_cli_run_prints_why_it_stopped(tmp_path, capsys):
    _, target = d24_total_degree_1()
    (tmp_path / "run.cfg").write_text(textwrap.dedent(f"""
        d = 24
        initial_level = 1
        max_iterations = 10
        max_samples = 300
        target = rational
        target_c0 = 3
        target_c = {",".join(map(repr, target.params["c"]))}
    """))
    assert cli.main(["run", "--config", str(tmp_path / "run.cfg"), "--workdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("finished after 1 iterations, 25 nodes")
    assert lines[1] == f"stopped: {D24_STOP}"


def test_cli_run_resumes_from_checkpoint(tmp_path, capsys):
    base = textwrap.dedent("""
        rule = leja
        d = 2
        fit_source = surplus
        max_samples = 140
        probe_count = 80
        probe_seed = 31
        target = rational
        target_c0 = 2
        target_c = 1,0.5
    """)
    (tmp_path / "short.cfg").write_text(base + "max_iterations = 3\n")
    (tmp_path / "long.cfg").write_text(base + "max_iterations = 6\n")
    wd = tmp_path / "resume"
    assert cli.main(["run", "--config", str(tmp_path / "short.cfg"), "--workdir", str(wd)]) == 0
    assert "resumed" not in capsys.readouterr().out
    assert cli.main(["run", "--config", str(tmp_path / "long.cfg"), "--workdir", str(wd)]) == 0
    resumed = [line for line in capsys.readouterr().out.splitlines() if "resumed" in line]
    assert resumed == [f"resumed from {wd / 'checkpoint.json'} at iteration 3"]
    fresh = tmp_path / "fresh"
    assert cli.main(["run", "--config", str(tmp_path / "long.cfg"), "--workdir", str(fresh)]) == 0
    assert (wd / "history.csv").read_bytes() == (fresh / "history.csv").read_bytes()
    assert (wd / "interpolant.json").read_bytes() == (fresh / "interpolant.json").read_bytes()


@settings(max_examples=15, deadline=None)
@given(rule=st.sampled_from(("leja", "clenshaw_curtis", "rleja_double2", "fejer2")),
       batch=st.sampled_from(("minimal", "3")), stop=st.integers(0, 12))
@example(rule="fejer2", batch="minimal", stop=6)  # the resumed run builds nothing new
def test_cli_resume_from_a_mid_run_checkpoint_writes_the_same_bytes(rule, batch, stop):
    base = textwrap.dedent(f"""
        rule = {rule}
        d = 3
        batch = {batch}
        max_samples = 60
        probe_count = 50
        probe_seed = 5
        target = rational
        target_c0 = 3
        target_c = 1,0.5,0.25
    """)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "short.cfg").write_text(base + f"max_iterations = {stop}\n")
        (tmp / "long.cfg").write_text(base + "max_iterations = 30\n")
        for args in (("short.cfg", "resumed"), ("long.cfg", "resumed"), ("long.cfg", "fresh")):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", "--config", str(tmp / args[0]),
                                 "--workdir", str(tmp / args[1])]) == 0
        for name in ("history.csv", "interpolant.json", "checkpoint.json"):
            assert (tmp / "resumed" / name).read_bytes() == (tmp / "fresh" / name).read_bytes()


def test_cli_run_checkpoint_guards_rule_change(tmp_path):
    base = textwrap.dedent("""
        d = 2
        max_iterations = 1
        max_samples = 60
        probe_count = 0
        target = expsum
        target_c = 1,1
    """)
    (tmp_path / "a.cfg").write_text(base + "rule = leja\n")
    (tmp_path / "b.cfg").write_text(base + "rule = clenshaw_curtis\n")
    wd = tmp_path / "wd"
    assert cli.main(["run", "--config", str(tmp_path / "a.cfg"), "--workdir", str(wd)]) == 0
    assert cli.main(["run", "--config", str(tmp_path / "b.cfg"), "--workdir", str(wd)]) == 1


def test_cli_run_refuses_a_checkpoint_of_another_dimension(tmp_path, capsys):
    base = textwrap.dedent("""
        rule = leja
        max_iterations = 3
        max_samples = 60
        probe_count = 0
        target = expsum
    """)
    (tmp_path / "d2.cfg").write_text(base + "d = 2\n")
    (tmp_path / "d3.cfg").write_text(base + "d = 3\n")
    wd = tmp_path / "wd"
    assert cli.main(["run", "--config", str(tmp_path / "d2.cfg"), "--workdir", str(wd)]) == 0
    before = (wd / "checkpoint.json").read_bytes()
    capsys.readouterr()
    assert cli.main(["run", "--config", str(tmp_path / "d3.cfg"), "--workdir", str(wd)]) == 1
    out, err = capsys.readouterr()
    assert "rule=leja, d=2" in err and "rule=leja, d=3" in err
    assert "resum" not in out  # a refused checkpoint is not announced as resumed
    assert (wd / "checkpoint.json").read_bytes() == before


def test_cli_run_external_target(tmp_path):
    write_stub(tmp_path / "stub.py")
    cfg = textwrap.dedent(f"""
        rule = leja
        d = 3
        fit_source = surplus
        max_iterations = 3
        max_samples = 120
        target = external
        external_workdir = {tmp_path}
        external_command = {sys.executable} stub.py
        external_timeout = 60
    """)
    (tmp_path / "ext.cfg").write_text(cfg)
    wd = tmp_path / "out"
    assert cli.main(["run", "--config", str(tmp_path / "ext.cfg"), "--workdir", str(wd)]) == 0
    lines = (wd / "history.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 records
    counts = [int(line.split(",")[-1]) for line in lines[1:]]
    assert counts == sorted(counts) and counts[-1] > counts[0]
    # probe column defaults to empty for external targets
    assert all(line.split(",")[-2] == "" for line in lines[1:])


def test_cli_compare_schemes(tmp_path):
    cfg = textwrap.dedent("""
        rule = leja
        d = 2
        fit_source = legendre
        max_iterations = 6
        max_samples = 100
        probe_count = 150
        probe_seed = 21
        target = rational
        target_c0 = 2
        target_c = 1,0.5
    """)
    (tmp_path / "cmp.cfg").write_text(cfg)
    rc = cli.main(["compare", "--config", str(tmp_path / "cmp.cfg"),
                   "--schemes", "isotropic,dynamic_td,dynamic_curved",
                   "--workdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == "scheme,nodes,error"
    schemes = {line.split(",")[0] for line in lines[1:]}
    assert schemes == {"isotropic", "dynamic_td", "dynamic_curved"}


@pytest.mark.parametrize("schemes, message", [(",", "no scheme to compare"),
                                             ("", "no scheme to compare"),
                                             ("isotropic,dynamic_td,isotropic",
                                              "scheme 'isotropic' is named twice")])
def test_cli_compare_refuses_an_empty_or_repeated_scheme_before_any_run(tmp_path, capsys,
                                                                         monkeypatch, schemes,
                                                                         message):
    # an empty list exited 0 with a header-only compare.csv
    (tmp_path / "cmp.cfg").write_text("rule = leja\nd = 2\nprobe_count = 20\n")
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    rc = cli.main(["compare", "--config", str(tmp_path / "cmp.cfg"), "--schemes", schemes,
                   "--workdir", str(tmp_path / "out")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "out").exists()


def test_cli_error_exit_code(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1


@pytest.mark.parametrize("level", ["inf", "nan"])
def test_cli_run_refuses_a_non_finite_initial_level(tmp_path, capsys, level):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"rule = leja\nd = 2\ninitial_level = {level}\n")
    with deadline():
        rc = cli.main(["run", "--config", str(cfg), "--workdir", str(tmp_path / "out")])
    assert rc == 1
    assert "level must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [("probe_seed = -1", "probe_seed"),
                                       ("min_magnitude = nan", "min_magnitude"),
                                       ("min_magnitude = inf", "min_magnitude"),
                                       ("min_magnitude = 1", "min_magnitude")])
def test_cli_run_refuses_a_config_value_before_any_sample(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"rule = leja\nd = 2\n{line}\n")
    rc = cli.main(["run", "--config", str(cfg), "--workdir", str(tmp_path / "out")])
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dynamic_td_equals_curved_when_beta_zero():
    # the td scheme is the curved code path with the beta columns masked:
    # on data with beta == 0 both runs coincide exactly
    from adasg import fitting as ft
    from adasg.multiindex import lambda_classic

    lam = lambda_classic("total_degree", (1.0, 1.0), 4.0)
    coeffs = {nu: math.exp(-0.9 * nu[0] - 1.2 * nu[1]) for nu in lam.members}
    full = ft.fit_curved(coeffs)
    masked = ft.fit_curved(coeffs, include_beta=False)
    assert np.allclose(full.beta, (0.0, 0.0), atol=1e-9)
    assert np.allclose(full.alpha, masked.alpha, atol=1e-8)
