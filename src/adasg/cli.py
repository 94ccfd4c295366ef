"""Command-line surface: node tables, adaptive runs, batch evaluation, and the
scheme comparison protocol.

Config files are flat ``key = value`` text with ``#`` comments; vectors are
comma-separated.  Every CSV it emits goes through one writer
(`sparse_grid._write_csv`), which gives floats 17 significant digits, so
re-runs with the same seed are byte-identical and round trips are lossless.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import rules1d
from .driver import RunConfig, load_state, run, write_history_csv
from .sparse_grid import _write_csv, evaluate_batch, load_interpolant, save_interpolant
from .targets import TargetSpec, builtin_target, external_target, read_labelled_points

SCHEMES = ("isotropic", "dynamic_td", "dynamic_curved")


def parse_config_text(text: str) -> dict[str, str]:
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ValueError(f"config lines {lines[key]} and {lineno} both set {key!r}")
        out[key], lines[key] = value, lineno
    return out


def _vector(value: str) -> tuple[float, ...]:
    return tuple(float(v) for v in value.split(","))


def _bool(value: str) -> bool:
    if value.lower() in ("true", "yes", "1", "on"):
        return True
    if value.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# config key -> (RunConfig field, parser); a key the file omits takes the
# field's default
_RUN_KEYS = {
    "rule": ("rule", str), "d": ("d", int),
    "fit_source": ("fit_source", str), "fit_beta": ("fit_beta", _bool),
    "batch": ("batch", lambda v: v if v == "minimal" else int(v)),
    "max_iterations": ("max_iterations", int), "max_samples": ("max_samples", int),
    "probe_count": ("probe_count", lambda v: int(v) or None), "probe_seed": ("probe_seed", int),
    "initial": ("initial_kind", str), "initial_level": ("initial_level", float),
    "initial_alpha": ("initial_alpha", _vector), "initial_beta": ("initial_beta", _vector),
    "min_magnitude": ("min_magnitude", float),
}
# config key -> (parameter of builtin_target, or of external_target for the
# external_* keys, parser); a key the file omits takes the parameter's default
_TARGET_PARAMS = {
    "target_c0": ("c0", float), "target_c": ("c", _vector), "target_t": ("t", _vector),
    "target_nu": ("nu", lambda v: tuple(int(x) for x in v.split(","))),
    "external_workdir": ("workdir", str), "external_command": ("command", lambda v: v or None),
    "external_timeout": ("timeout", float),
}
_CONFIG_KEYS = {"target", *_RUN_KEYS, *_TARGET_PARAMS}


def _parsed(kv: dict[str, str], keys: dict, prefix: str = ""):
    """(name, value) for each key of `keys` the file sets that starts with
    `prefix`; a value that does not parse is refused naming its key."""
    for key, (name, parse) in keys.items():
        if key in kv and key.startswith(prefix):
            try:
                value = parse(kv[key])
            except ValueError as err:
                raise ValueError(f"config key {key!r}: {err}") from None
            yield name, value


def load_config(path) -> tuple[RunConfig, TargetSpec]:
    """Parse a run config file into the driver config and the target spec.

    Besides `RunConfig`'s and the target constructors' defaults, the file
    format has three of its own: `rule = leja`, `target = expsum` with every
    `c` 1, and a probe of 1000 points for a built-in target (none for an
    external one, whose samples cost solver calls).
    """
    kv = parse_config_text(Path(path).read_text())
    unknown = set(kv) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "d" not in kv:
        raise KeyError("d")
    name = kv.get("target", "expsum")
    run = {"rule": "leja", "probe_count": None if name == "external" else 1000}
    run.update(_parsed(kv, _RUN_KEYS))
    config = RunConfig(**run)
    d = config.d
    if name == "external":
        if "external_workdir" not in kv:
            raise KeyError("external_workdir")
        make, prefix = external_target, "external_"
    else:
        make, prefix = functools.partial(builtin_target, name), "target_"
    params = {"c": (1.0,) * d} if name == "expsum" else {}
    params.update(_parsed(kv, _TARGET_PARAMS, prefix))
    try:
        return config, make(d, **params)
    except KeyError as err:  # a parameter the file omits: name its key
        keys = {param: key for key, (param, _) in _TARGET_PARAMS.items()}
        raise KeyError(keys.get(err.args[0], err.args[0])) from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_nodes(args) -> int:
    kind, levels = args.rule, args.levels
    if levels < 0:
        raise ValueError("level must be >= 0")
    growth = [rules1d.growth(kind, l) for l in range(levels + 1)]
    nodes = rules1d.family_nodes(kind, growth[-1])
    wd = Path(args.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    levels_path, nodes_path = wd / f"{kind}_levels.csv", wd / f"{kind}_nodes.csv"
    _write_csv(levels_path, ("level", "m_l", "lambda_measured", "lambda_model"),
               ((l, m, rules1d.lebesgue_constant(nodes[:m], args.probe_count),
                 rules1d.lambda_model(kind, l)) for l, m in enumerate(growth)))
    _write_csv(nodes_path, ("j", "y_j"), enumerate(nodes, start=1))
    print(f"wrote {levels_path} and {nodes_path}")
    return 0


def _cmd_run(args) -> int:
    config, target = load_config(args.config)
    wd = Path(args.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    checkpoint = wd / "checkpoint.json"
    state = load_state(checkpoint) if checkpoint.exists() else None
    start = None if state is None else state.iteration
    interp, history = run(config, target, checkpoint_path=checkpoint, state=state)
    if start is not None:  # announced once run() has accepted the state
        print(f"resumed from {checkpoint} at iteration {start}")
    write_history_csv(history, config.d, wd / "history.csv")
    save_interpolant(interp, wd / "interpolant.json")
    last = history[-1]
    err = "" if last.probe_error is None else f", probe error {last.probe_error:.3e}"
    print(f"finished after {len(history)} iterations, {last.node_count} nodes{err}")
    print(f"stopped: {last.stop}")
    print(f"wrote {wd / 'history.csv'}, {wd / 'interpolant.json'}, {wd / 'checkpoint.json'}")
    return 0


def _cmd_evaluate(args) -> int:
    interp = load_interpolant(args.model)
    ids, pts = read_labelled_points(args.points)
    vals = evaluate_batch(interp, pts, allow_extrapolation=args.allow_extrapolation)
    out = Path(args.output) if args.output else Path(args.workdir) / "evaluations.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ["id", *(f"y_{k + 1}" for k in range(pts.shape[1])), "value"],
               ([i, *row, v] for i, row, v in zip(ids, pts, vals)))
    print(f"wrote {out}")
    return 0


def scheme_config(config: RunConfig, scheme: str) -> RunConfig:
    """Derive a per-scheme config: one code path, masked where required."""
    from dataclasses import replace

    if scheme == "dynamic_curved":
        return config
    if scheme == "dynamic_td":
        return replace(config, fit_beta=False)
    if scheme == "isotropic":
        return replace(config, fit_enabled=False, initial_kind="total_degree",
                       initial_alpha=None, initial_beta=None)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def run_comparison(config: RunConfig, target: TargetSpec, schemes) -> list[tuple[str, int, float]]:
    """Run each scheme with its own fresh sample cache; returns (scheme, nodes, error).
    Every scheme name is checked before the first run: an empty list, a
    scheme named twice and an unknown name are refused."""
    if not config.probe_count:
        raise ValueError("comparison requires probe_count for the error column")
    schemes = list(schemes)
    if not schemes:
        raise ValueError(f"no scheme to compare; expected some of {SCHEMES}")
    twice = next((s for s in schemes if schemes.count(s) > 1), None)
    if twice is not None:
        raise ValueError(f"scheme {twice!r} is named twice")
    configs = [scheme_config(config, scheme) for scheme in schemes]
    rows = []
    for scheme, scheme_cfg in zip(schemes, configs):
        _, history = run(scheme_cfg, target)
        for rec in history:
            rows.append((scheme, rec.node_count, rec.probe_error))
    return rows


def _cmd_compare(args) -> int:
    config, target = load_config(args.config)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    rows = run_comparison(config, target, schemes)
    wd = Path(args.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    out = wd / "compare.csv"
    _write_csv(out, ("scheme", "nodes", "error"), rows)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adasg",
        description="Adaptive anisotropic sparse-grid interpolation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nodes = sub.add_parser("nodes", help="emit node and operator-norm tables")
    p_nodes.add_argument("--rule", required=True, choices=rules1d.RULE_KINDS)
    p_nodes.add_argument("--levels", type=int, required=True)
    p_nodes.add_argument("--probe-count", type=int, default=rules1d.DEFAULT_PROBE_COUNT)
    p_nodes.add_argument("--workdir", default=".")
    p_nodes.set_defaults(fn=_cmd_nodes)

    p_run = sub.add_parser("run", help="adaptive interpolation run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workdir", default=".")
    p_run.set_defaults(fn=_cmd_run)

    p_eval = sub.add_parser("evaluate", help="batch-evaluate a saved interpolant")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--points", required=True)
    p_eval.add_argument("--output", default=None)
    p_eval.add_argument("--allow-extrapolation", action="store_true")
    p_eval.add_argument("--workdir", default=".")
    p_eval.set_defaults(fn=_cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="run the scheme comparison protocol")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--schemes", default=",".join(SCHEMES))
    p_cmp.add_argument("--workdir", default=".")
    p_cmp.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
