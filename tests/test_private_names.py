"""Every top-level private name of the package has a caller in the package,
every public function or class has one or is exported, the README's
"Library API" section lists exactly the exported names, its "Command line"
section names every config key and has an example that loads, its
"Library quick start" block runs as written, the public run state holds no
kept run state, the 17-digit float format of the CSV tables is written
only in their one writer, and every name a module imports is used in it."""

import ast
import dataclasses
import re
import textwrap
from collections import Counter
from pathlib import Path

import adasg
from adasg import cli, driver

SRC = Path(__file__).resolve().parent.parent / "src" / "adasg"


def _top_level_private_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _references(tree):
    """Names read, attributes read and names imported: every use except a definition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_top_level_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _references(tree))
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in _top_level_private_names(tree) if not used[name]]
    assert not unused, "private names defined but never used: " + ", ".join(unused)


def _exported(tree):
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _readme_section(title):
    readme = (SRC.parent.parent / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_readme_lists_exactly_the_names_the_package_exports():
    section = _readme_section("Library API")
    listed = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
    assert listed == _exported(ast.parse((SRC / "__init__.py").read_text()))


def test_every_public_top_level_function_or_class_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _references(tree))
    exported = _exported(trees["__init__.py"])
    unused = [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and not used[node.name]
              and node.name not in exported]
    assert not unused, "public names neither used in the package nor exported: " + ", ".join(unused)


def test_the_readme_names_every_config_key_and_its_example_loads(tmp_path):
    section = _readme_section("Command line")
    named = set(re.findall(r"^#?\s*([a-z_0-9]+)\s*=", section, re.M))
    named |= set(re.findall(r"`([a-z_0-9]+)`", section))
    assert sorted(cli._CONFIG_KEYS - named) == []
    example = section.split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.cfg").write_text(textwrap.dedent(example))
    config, target = cli.load_config(tmp_path / "run.cfg")
    assert config.d == target.dim


def test_the_readme_library_quick_start_runs():
    block = _readme_section("Library quick start").split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    assert names["history"][-1].node_count == 222
    assert names["values"].shape == (100,)


RUN_STATE_FIELDS = ["config", "theta", "iteration", "cache", "fit", "interpolant", "history"]


def test_run_state_holds_what_a_checkpoint_holds_and_the_last_interpolant():
    # the kept grid and probe live inside one run() call, never on the public state
    assert [f.name for f in dataclasses.fields(adasg.RunState)] == RUN_STATE_FIELDS
    cfg = adasg.RunConfig(rule="leja", d=2, max_iterations=3, probe_count=20)
    state = adasg.RunState(cfg, driver.initial_tensor_set(cfg))
    adasg.run(cfg, adasg.builtin_target("expsum", 2, c=(1.0, 0.5)), state=state)
    assert sorted(vars(state)) == sorted(RUN_STATE_FIELDS)


def test_the_17_digit_float_format_is_written_only_in_the_csv_writer():
    places = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        functions = [node for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if ".17g" in line:
                places |= {(path.name, f.name) for f in functions
                           if f.lineno <= lineno <= f.end_lineno} or {(path.name, None)}
    assert places == {("sparse_grid.py", "_write_csv")}


def _imported_names(tree):
    """(bound name, line) for each name an import binds, but `__future__`'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], alias.lineno)
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, alias.lineno) for alias in node.names)


def test_every_imported_name_is_used_in_its_module():
    # `__init__`'s imports are the package's exports; a line marked
    # `# noqa: F401` keeps a name for callers outside the module
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line}: {name}" for name, line in _imported_names(tree)
                   if name not in loaded and "# noqa: F401" not in lines[line - 1]]
    assert not unused, "imported names never used: " + ", ".join(unused)
