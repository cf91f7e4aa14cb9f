"""Module layering: each smallmass module imports only the ones before it,
only the modules that short-circuit pair sums name the field classes, and
scipy's submodules are imported inside the functions that call them."""

import ast
from pathlib import Path

import smallmass

ORDER = (
    "errors",
    "model",
    "smallmat",
    "ensemble",
    "observables",
    "underdamped",
    "overdamped",
    "fpsolve1d",
    "harness",
)
FIELD_CLASSES = {"ConstantMatrixField", "LinearVectorField", "ZeroVectorField"}
FIELD_MODULES = {"model", "ensemble", "fpsolve1d"}
SRC = Path(smallmass.__file__).parent


def tree_of(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def relative_imports(module):
    """The package modules that `module` imports with `from .x import ...`
    or `from . import x`; `from . import __version__` reads the package."""
    found = set()
    for node in ast.walk(tree_of(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names if a.name in ORDER)
    return found


def names_used(module):
    """Every identifier `module` binds, reads or imports."""
    found = set()
    for node in ast.walk(tree_of(module)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def module_level_imports(module):
    """The modules `module` imports when it loads: every import outside a
    function body; `from x import y` counts as x and x.y."""
    found = set()
    nodes = list(tree_of(module).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{a.name}" for a in node.names)
        nodes.extend(ast.iter_child_nodes(node))
    return found


def test_the_order_lists_every_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_no_module_imports_a_later_one():
    later = []
    for i, module in enumerate(ORDER):
        for imported in sorted(relative_imports(module)):
            if imported not in ORDER[:i]:
                later.append(f"{module} imports {imported}")
    assert later == []


def test_only_the_pair_sum_modules_name_the_field_classes():
    naming = {m for m in ORDER if names_used(m) & FIELD_CLASSES}
    assert naming <= FIELD_MODULES


def test_no_module_imports_a_scipy_submodule_when_it_loads():
    # scipy.linalg, scipy.optimize and scipy.special each add 20-25 MB and
    # up to 0.3 s to a run; harness reads scipy.__version__ for the manifest
    scipy = {
        m: sorted(n for n in module_level_imports(m) if n.split(".")[0] == "scipy")
        for m in ORDER
    }
    assert {m: names for m, names in scipy.items() if names} == {"harness": ["scipy"]}
