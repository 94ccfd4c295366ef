"""Refusals at the edges of the package that the other tests do not reach:
input from outside the program (configs, point and value files, external
evaluators, targets) and calls that misuse the library.  Each is checked
for its exception type and message; a blank line in an evaluator's values
file is skipped."""

import itertools
import math
import re
import sys
import textwrap

import pytest

from adasg import cli
from adasg import driver as dr
from adasg import rules1d
from adasg import sparse_grid as sg
from adasg import targets as tg
from adasg.fitting import FitParams, UnfittableError, fit_curved
from adasg.multiindex import CurvedWeights, IndexSet, lambda_classic
from adasg.spectral import legendre_1d
from test_targets_cli import saved_model

# ---------------------------------------------------------------------------
# input from outside the program


def test_run_config_refuses_dimension_zero():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        dr.RunConfig(rule="leja", d=0)


@pytest.mark.parametrize("field, kind", [("initial_alpha", "total_degree"),
                                         ("initial_beta", "curved")])
def test_initial_weights_of_the_wrong_length_are_refused(field, kind):
    cfg = dr.RunConfig(rule="leja", d=2, initial_kind=kind, **{field: (1.0,)})
    with pytest.raises(ValueError, match=f"{field} must have length d"):
        dr.initial_tensor_set(cfg)


def test_an_initial_level_that_selects_no_index_is_refused():
    cfg = dr.RunConfig(rule="leja", d=2, initial_level=-1.0)
    with pytest.raises(ValueError, match="initial level selects an empty polynomial space"):
        dr.initial_tensor_set(cfg)


def test_run_refuses_a_target_of_another_dimension():
    cfg = dr.RunConfig(rule="leja", d=2)
    with pytest.raises(ValueError, match="target dimension does not match config"):
        dr.run(cfg, tg.builtin_target("expsum", 3, c=(1.0, 1.0, 1.0)))


def test_cli_evaluate_refuses_points_of_another_width(tmp_path, capsys):
    saved_model(tmp_path / "model.json")
    (tmp_path / "pts.csv").write_text("id,y_1,y_2,y_3\na,0.1,0.2,0.3\n")
    assert cli.main(["evaluate", "--model", str(tmp_path / "model.json"),
                     "--points", str(tmp_path / "pts.csv"), "--workdir", str(tmp_path)]) == 1
    assert "error: points must have dimension 2" in capsys.readouterr().err
    with pytest.raises(ValueError, match="points must have dimension 2"):
        sg.evaluate_batch(sg.load_interpolant(tmp_path / "model.json"), [[0.1, 0.2, 0.3]])
    assert not (tmp_path / "evaluations.csv").exists()


def test_a_points_file_with_a_bad_header_is_refused(tmp_path):
    (tmp_path / "pts.csv").write_text("id,x_1,x_2\na,0.1,0.2\n")
    with pytest.raises(ValueError, match=re.escape("bad points header: ['id', 'x_1', 'x_2']")):
        tg.read_labelled_points(tmp_path / "pts.csv")


def test_a_blank_line_in_the_values_file_is_skipped(tmp_path):
    (tmp_path / "values.csv").write_text("id,f\n0,1.5\n\n1,2.5\n")
    assert tg.read_values_csv(tmp_path / "values.csv", 2) == {0: 1.5, 1: 2.5}


def test_an_external_command_that_exits_non_zero_is_an_evaluation_error(tmp_path):
    command = f"{sys.executable} -c \"import sys; sys.exit('no answer')\""
    target = tg.TargetSpec("external", 2, {}, str(tmp_path), command, 30.0)
    with pytest.raises(tg.EvaluationError, match="external evaluator exited with 1: no answer"):
        target.evaluate([[0.0, 0.0]])


def test_a_builtin_target_at_a_nan_point_is_an_evaluation_error():
    target = tg.builtin_target("expsum", 2, c=(1.0, 1.0))
    with pytest.raises(tg.EvaluationError,
                       match="target returned non-finite values at 1 points") as info:
        target.evaluate([[0.0, 0.0], [0.0, math.nan]])
    assert info.value.failed_ids == (1,)


@pytest.mark.parametrize("schemes, setting, message", [
    ("isotropic,nope", "probe_count = 20", "unknown scheme 'nope'"),
    ("isotropic", "probe_count = 0", "comparison requires probe_count for the error column")])
def test_cli_compare_refuses_an_unknown_scheme_and_no_probe(tmp_path, capsys, schemes, setting,
                                                            message):
    (tmp_path / "run.cfg").write_text(textwrap.dedent(f"""
        d = 2
        max_iterations = 1
        {setting}
    """))
    assert cli.main(["compare", "--config", str(tmp_path / "run.cfg"), "--schemes", schemes,
                     "--workdir", str(tmp_path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    config, target = cli.load_config(tmp_path / "run.cfg")
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.run_comparison(config, target, schemes.split(","))
    assert not (tmp_path / "compare.csv").exists()


def test_a_target_refuses_points_of_another_width():
    with pytest.raises(ValueError, match="points must have dimension 2"):
        tg.builtin_target("expsum", 2, c=(1.0, 1.0)).evaluate([[0.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# library refusals


def test_fit_curved_of_no_coefficients_is_unfittable():
    with pytest.raises(UnfittableError, match="no coefficients"):
        fit_curved({})


def test_fit_curved_refuses_a_degree_with_a_negative_entry():
    coeffs = {(k, j): math.exp(-k - j) for k in range(4) for j in range(4)}
    coeffs[(-1, 0)] = 1.0
    with pytest.raises(ValueError, match="a degree has a negative entry"):
        fit_curved(coeffs)


@pytest.mark.parametrize("coeffs, message", [
    ({(0, 0): 1.0, (1,): 0.5}, r"degree \(1,\) has 1 entries, expected 2"),
    ({(): 1.0}, r"degree \(\) has 0 entries, expected at least 1")])
def test_fit_curved_refuses_degrees_of_unequal_or_no_length_by_name(coeffs, message):
    with pytest.raises(ValueError, match=message):
        fit_curved(coeffs)


def test_a_fit_without_three_distinct_degrees_in_any_dimension_is_unfittable():
    coeffs = {nu: math.exp(-sum(nu)) for nu in itertools.product((0, 1), repeat=3)}
    with pytest.raises(UnfittableError, match="every dimension is rank-deficient"):
        fit_curved(coeffs, include_beta=True)


def test_a_rank_deficient_design_is_unfittable():
    with pytest.raises(UnfittableError, match="design matrix is rank-deficient"):
        fit_curved({(k, k): math.exp(-k) for k in range(5)})


@pytest.mark.parametrize("kwargs, message", [
    (dict(corrected_dims=frozenset({0}), excluded_dims=frozenset({0})),
     "corrected and excluded dimensions must be disjoint"),
    (dict(alpha=(0.0, 1.0)), "alpha entries must be positive after correction"),
    (dict(alpha=(-1.0, 1.0)), "alpha entries must be positive after correction")])
def test_fit_params_refuse_overlapping_repairs_and_rates_not_above_zero(kwargs, message):
    with pytest.raises(ValueError, match=message):
        FitParams(**{"alpha": (1.0, 1.0), "beta": (0.0, 0.0), "c_const": 0.0} | kwargs)


def test_multiindex_refusals():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        IndexSet(0, [])
    with pytest.raises(ValueError, match="alpha and beta must have the same length"):
        CurvedWeights((1.0, 1.0), (0.0,))
    with pytest.raises(ValueError, match="unknown classic kind 'nope'"):
        lambda_classic("nope", (1.0,), 1.0)


def test_theta_opt_refuses_an_empty_set():
    with pytest.raises(ValueError, match="need a nonempty polynomial index set"):
        sg.theta_opt(IndexSet(2, []), "leja")


def test_legendre_1d_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="degree must be >= 0"):
        legendre_1d(-1, 0.5)


def test_rules1d_refuses_levels_and_probes_out_of_range():
    with pytest.raises(ValueError, match="level must be >= -1"):
        rules1d.growth("leja", -2)
    with pytest.raises(ValueError, match="level must be >= 0"):
        rules1d.lambda_model("leja", -1)
    with pytest.raises(ValueError, match="probe_count too small"):
        rules1d.lebesgue_constant([0.0, 0.5], 1)


@pytest.mark.parametrize("kind, n, start, message", [
    ("clenshaw_curtis", 3, None, "'clenshaw_curtis' is not a greedy family"),
    ("leja", 0, None, "need n >= 1"),
    ("leja", 3, [0.5], re.escape("greedy sequences are seeded with y_1 = 0"))])
def test_greedy_sequence_refusals(kind, n, start, message):
    with pytest.raises(ValueError, match=message):
        rules1d.greedy_sequence(kind, n, start_nodes=start)
