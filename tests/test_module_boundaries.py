"""No module of the package reaches into a sibling's private names.

Every ``src/coulomb_kit/*.py`` is parsed with ``ast``; an underscore name
taken from a sibling module, by ``from .x import _y`` or as ``alias._y``
on a module alias, fails the test unless it is listed below with its
reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coulomb_kit"

ALLOWED = {
    # a public name would be wrapped by the benchmark's tracer, and the
    # sweep's time would be subtracted twice from the damped-sum self time
    ("summation", "special_functions", "_legendre_table"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(path: Path) -> set:
    """(importer, sibling, name) for every private sibling name ``path`` uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:                       # from .x import _y
                    if _private(alias.name):
                        found.add((path.stem, node.module, alias.name))
                else:                                 # from . import x as alias
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.add((path.stem, aliases[node.value.id], node.attr))
    return found


def test_no_private_names_across_modules():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= private_imports(path)
    assert found - ALLOWED == set()


def test_checker_sees_both_forms(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from . import coulomb_core as core\n"
        "from .errors import check_theta, _hidden\n"
        "from .special_functions import _legendre_table\n"
        "x = core._validate_theta(1.0) + core.s_matrix(0, p).S + core.__name__\n"
    )
    assert private_imports(module) == {
        ("mod", "errors", "_hidden"),
        ("mod", "special_functions", "_legendre_table"),
        ("mod", "coulomb_core", "_validate_theta"),
    }
