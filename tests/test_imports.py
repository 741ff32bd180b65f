"""Every module of the library uses each name it imports, and none imports a
private name of another.

The package ``__init__`` re-exports names without using them, so it is the
one module left out of the first check.  Names that appear only inside
quoted annotations count as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_names_from_other_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [(alias.name, node.lineno) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names of other modules: {private}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from .groups import FinAbGroup, GroupHom\n"
                     "def f(x: 'GroupHom') -> int:\n    return 1\n")
    assert set(imported_names(tree)) - used_names(tree) == {"FinAbGroup"}


# groups owns every linear system and lattice: the layers above ask it for
# corestrictions, induced maps and sections instead of solving for them
ABOVE_GROUPS = ("towers", "arcat", "upsilon", "limits", "gen", "suites", "cli", "towerfile")
SOLVERS = {"solve_mod", "preimage_lattice", "sublattice_basis"}


def reached(tree: ast.Module, wanted: set[str]) -> set[str]:
    """The names of ``wanted`` that a module imports or reaches as an attribute."""
    names = set(imported_names(tree))
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names & wanted


def solver_uses(tree: ast.Module) -> set[str]:
    return reached(tree, SOLVERS)


@pytest.mark.parametrize("name", ABOVE_GROUPS)
def test_no_solver_above_groups(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert not solver_uses(tree), f"{name}.py solves for itself: {sorted(solver_uses(tree))}"


def test_a_solver_above_groups_is_caught():
    tree = ast.parse("from .groups import corestrict, solve_mod\n"
                     "from . import groups\nx = groups.preimage_lattice\n")
    assert solver_uses(tree) == {"solve_mod", "preimage_lattice"}


# towers decides whether a tower hom's levelwise kernel and cokernel are zero
# systems from the level maps' lattices, and builds neither tower
GROUP_KERNELS = {"hom_kernel", "hom_cokernel"}


def test_towers_builds_no_group_kernel_or_cokernel():
    tree = ast.parse((SRC / "towers.py").read_text(encoding="utf-8"))
    assert not reached(tree, GROUP_KERNELS), \
        f"towers.py reaches {sorted(reached(tree, GROUP_KERNELS))}"
