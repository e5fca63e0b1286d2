"""The package's public surface, its documented use, and no dead imports inside it.

The package root is the public API; other names live in their modules
and may change.  An import a module never uses is allowed only where the
benchmark's timing shims (`perfbench/spans.py`) replace that name in
that module.
"""

import ast
import importlib.util
import re
import shlex
import types
from pathlib import Path

import samplequad
from samplequad.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "samplequad"

PUBLIC = {
    "BasisSpec", "domain_from_samples", "SampleSet", "QuadratureRule", "MomentVector",
    "sample_moments", "construct_fixed_rule",
    "ExtensionRequest", "extend_rule", "nested_error_estimate",
    "DistributionSpec", "generate", "read_samples", "write_samples",
    "ExperimentConfig", "ExperimentReport", "run_convergence", "__version__",
}


def _shimmed_names():
    """(module, name) pairs the benchmark's shims replace."""
    spans_py = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_py)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, path) for module, path, _ in spans.SHIMS if "." not in path}


def test_package_root_exports_exactly_the_public_api():
    # importing a submodule binds it on the package; those are not exports
    names = {
        name for name, value in vars(samplequad).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names | {"__version__"} == PUBLIC
    assert isinstance(samplequad.__version__, str)


def test_readme_library_example_runs(capsys):
    # the fenced python block of README.md, run as written
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    exec(compile(example, "README.md", "exec"), {})
    nodes, residual, estimate = capsys.readouterr().out.split()
    assert 1 <= int(nodes) <= 21
    assert float(residual) <= 1e-8
    assert float(estimate) >= 0.0


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # each line of the fenced sh block under "Command line", run as written
    # through `main` in an empty folder
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", text, flags=re.S)
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        program, *argv = shlex.split(line)
        assert program == "samplequad"
        assert main(argv) == 0, line


def test_no_module_imports_a_name_it_never_uses():
    shimmed = _shimmed_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"samplequad.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (module, name) not in shimmed:
                        unused.append(f"{module}: {name}")
    assert unused == []


def _private_definitions(tree):
    """Private names a module defines at module level or in a class body."""
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_name_is_used_inside_the_package():
    # tests may call private names, but a private name the package itself
    # never reads is dead code
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = [
        f"samplequad.{stem}: {name}"
        for stem, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert dead == []


# the modules that draw samples and benchmark seeds; a rule is built from
# its inputs alone, so no other module may reach a random generator
DRAWING = {"sampling.py", "bench.py"}


def _random_references(tree):
    """Lines that name `np.random`, `numpy.random` or the `random` module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" and (
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "random":
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "random" or alias.name.startswith("numpy.random")
                for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (
                node.module in ("random", "numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            yield node.lineno


def test_rule_construction_draws_nothing():
    found = [
        f"samplequad.{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in DRAWING
        for line in _random_references(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
    # the guard sees what it looks for
    drawing = ast.parse("import numpy as np\nfrom numpy import random\nnp.random.default_rng(0)")
    assert list(_random_references(drawing)) == [2, 3]
