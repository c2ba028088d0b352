"""The package's modules form layers: each imports only from modules
below it, so the numerical core never reaches back into the engine or
the front ends that build on it."""

import ast
from pathlib import Path

import photonsim

PACKAGE = Path(photonsim.__file__).parent

# Bottom to top.  The package root re-exports the library modules below
# it; verify and cli build on them.
ORDER = [
    "errors", "model", "kernels", "quadrature", "amplitudes", "oracle", "observables",
    "__init__", "verify", "cli",
]


def _imported_modules(path):
    """photonsim modules that ``path`` imports, at any depth of its AST
    (imports inside functions count)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("photonsim"):
                continue
            parts = (node.module or "").split(".")
            name = parts[-1] if node.level else (parts[1] if len(parts) > 1 else "")
            if name:
                found.add(name)
            else:  # from . import x: a sibling module, or a name of the package root
                found.update(a.name if a.name in ORDER else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "photonsim":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(ORDER)


def test_modules_import_only_from_lower_layers():
    back_edges = []
    for i, name in enumerate(ORDER):
        for dep in sorted(_imported_modules(PACKAGE / f"{name}.py")):
            if dep not in ORDER[:i]:
                back_edges.append(f"{name} -> {dep}")
    assert back_edges == []


def test_oracle_shares_no_code_with_the_engine_it_checks():
    # The closed forms are an independent reference only while they import
    # nothing that computes an output.
    assert _imported_modules(PACKAGE / "oracle.py") <= {"errors", "kernels", "model"}


def test_only_the_engine_and_the_cli_default_a_quad_config():
    # Every path gets its default tolerances from the engine, or from the
    # CLI's own settings: QuadConfig() with no arguments appears nowhere else.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and not node.args and not node.keywords):
                    continue
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "QuadConfig":
                    found.append(f"{path.stem}.{where}")
    assert sorted(found) == ["cli._setup", "quadrature.integrate_half_line_multi", "quadrature.integrate_lines"]


def test_only_the_whole_plane_path_can_drop_the_convolution():
    # The diagnostic switch reaches the one path that any caller switches;
    # every other function always includes the convolution term.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(a.arg == "include_convolution" for a in args):
                    found.append(f"{path.stem}.{node.name}")
    assert sorted(found) == ["observables._whole_plane_masses", "observables.probabilities"]
