import ast
import types
from pathlib import Path

import perfbench
import rtd
from perfbench.tracing import HOOKS, Tracer

ENTRY_POINTS = [
    "Problem", "ReshuffleOp", "RtdError", "SolverConfig", "conceal", "decompose",
    "make_instance", "observe", "random_semi_orthonormal_pair", "reshuffle_from_seed",
    "reveal", "tsir",
]

# Hooks of the benchmark that point at a module the package no longer has.
DEAD_HOOKS = {
    "rtd.solver.kernels.pullback_residual",
    "rtd.solver.kernels.scatter_add",
    "rtd.solver.kernels.scatter_add_delta",
}

# Public definitions of src/rtd that neither the package nor the benchmark
# reaches, and why each stays.
CALLED_ONLY_FROM_OUTSIDE = {
    "svt": "the proximal operator that acceptance criterion 2 checks against its oracle",
    "nuclear_norm": "the objective whose minimizer acceptance criterion 2 checks",
    "write_ops": "the writer of the rtd-ops v1 format that read_ops reads",
}

# Public fields and methods of public classes of src/rtd that neither the
# package nor the benchmark reads, and why each stays.
READ_ONLY_FROM_OUTSIDE = {
    "SvtStep.partial": "whether the SVT call was partial, for a per-sweep report of the solve",
    "IncoherenceEstimate.restart_values": "the per-restart diagnostics of the ascent",
}


def _modules(directory):
    """Parsed modules of ``directory``, its test files left out."""
    return [ast.parse(path.read_text()) for path in sorted(Path(directory).glob("*.py"))
            if not path.name.startswith("test_")]


def _names_used(tree):
    """Every name read in ``tree``, as a bare name or an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_definition_has_a_caller_outside_the_tests():
    """A module-level public function or class of src/rtd is used by name in
    src/rtd or the benchmark, or patched by a benchmark hook; the tests alone
    do not keep it."""
    package = _modules(Path(rtd.__file__).parent)
    defined = {
        node.name for tree in package for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = {part for _, _, path in HOOKS for part in path.split(".")}
    used = used.union(*map(_names_used, package + _modules(Path(perfbench.__file__).parent)))
    assert sorted(defined - used) == sorted(CALLED_ONLY_FROM_OUTSIDE)


def _attributes_read(tree):
    """Every name read as an attribute in ``tree``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_member_is_read_outside_the_tests():
    """A public field or method of a public class of src/rtd is read as an
    attribute in src/rtd or the benchmark; the tests alone do not keep it.
    Like the definition lint above, this goes by name: members of two classes
    that share a name are not told apart."""
    package = _modules(Path(rtd.__file__).parent)
    members = set()
    for tree in package:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        members.add((cls.name, node.target.id))
                    elif isinstance(node, ast.FunctionDef):
                        members.add((cls.name, node.name))
    read = set().union(*map(_attributes_read, package + _modules(Path(perfbench.__file__).parent)))
    unread = {f"{cls}.{name}" for cls, name in members
              if not name.startswith("_") and name not in read}
    assert sorted(unread) == sorted(READ_ONLY_FROM_OUTSIDE)


def test_every_import_is_used():
    """A name a module of src/rtd imports is used in that module; only
    __init__.py imports names to re-export them."""
    unused = []
    for path in sorted(Path(rtd.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    """A module of src/rtd imports no single-underscore name from another
    module: a rule that two modules share is public where it is defined."""
    private = []
    for path in sorted(Path(rtd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_every_private_definition_is_used():
    """A module-level private function or class of src/rtd is used by name
    somewhere in the package."""
    package = _modules(Path(rtd.__file__).parent)
    private = {
        node.name for tree in package for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    used = set().union(*(_names_used(tree) for tree in package))
    assert sorted(private - used) == []


def test_every_read_passes_a_size():
    """Every read or readline call in src/rtd passes a size, so that no input
    file is read whole before it is checked."""
    unbounded = []
    for path in sorted(Path(rtd.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                unbounded += [
                    f"{path.name}: {fn.name}" for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("read", "readline") and not (node.args or node.keywords)
                ]
    assert unbounded == []


def test_only_the_format_modules_open_files():
    """Only formats.py and netpbm.py call ``open`` (bare, or as an attribute
    such as ``os.open``): every other module reads and writes files through
    them, so each file rule has one place."""
    openers = set()
    for path in sorted(Path(rtd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "open" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                openers.add(path.name)
    assert sorted(openers) == ["formats.py", "netpbm.py"]


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(rtd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(rtd.__all__) == sorted(public)


def test_namespace_holds_only_the_entry_points():
    assert sorted(rtd.__all__) == ENTRY_POINTS


def test_every_live_benchmark_hook_resolves():
    """A module-level name the benchmark patches must stay where it is, or the
    traced run silently loses that layer."""
    tracer = Tracer()
    try:
        absent = tracer.install()
    finally:
        tracer.uninstall()
    assert set(absent) <= DEAD_HOOKS
