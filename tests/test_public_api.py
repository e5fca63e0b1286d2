"""The package's public surface, and no dead imports inside it.

The package root is the public API; other names live in their modules
and may change.  An import a module never uses is allowed only where the
benchmark's timing shims (`perfbench/spans.py`) replace that name in
that module.
"""

import ast
import importlib.util
import types
from pathlib import Path

import samplequad

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
