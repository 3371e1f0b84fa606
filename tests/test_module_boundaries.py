"""No module of the package reaches into a sibling's private names, and
the series side takes nothing from the closed form it is checked against.

Every ``src/coulomb_kit/*.py`` is parsed with ``ast``; an underscore name
taken from a sibling module, by ``from .x import _y`` or as ``alias._y``
on a module alias (``import coulomb_kit as alias`` too), fails the test
unless it is listed below with its reason.  ``summation`` may take no
``closed_*`` name from ``coulomb_core`` in either form.  No module of the
closed-form side imports numpy or ``summation`` at import time.  Every
module parses as Python 3.10, the ``requires-python`` floor.  Every name
the benchmark traces stays a public function of its layer, and the
benchmark probe's calls reach each one with every memo warm.
"""

import ast
import importlib
import inspect
import math
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coulomb_kit"

ALLOWED = {
    # a public name would be wrapped by the benchmark's tracer, and the
    # sweep's time would be subtracted twice from the damped-sum self time
    ("summation", "special_functions", "_legendre_table"),
    # the same for the resumable one-abscissa loop, which a public
    # legendre_sequence could not serve anyway: it starts from P_0
    ("summation", "special_functions", "_legendre_values"),
    # the same for the Stirling kernel of the S-ladder check: wrapped, its
    # time would be taken out of s_matrix_sequence's self time
    ("summation", "special_functions", "_stirling"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def sibling_names(path: Path) -> set:
    """(importer, sibling, name) for every sibling name ``path`` uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):              # import coulomb_kit as alias
            aliases.update({a.asname or a.name: "__init__" for a in node.names
                            if a.name == PACKAGE.name})
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:                       # from .x import y
                    found.add((path.stem, node.module, alias.name))
                else:                                 # from . import x as alias
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((path.stem, aliases[node.value.id], node.attr))
    return found


def private_imports(path: Path) -> set:
    """(importer, sibling, name) for every private sibling name ``path`` uses."""
    return {entry for entry in sibling_names(path) if _private(entry[2])}


def import_time_imports(path: Path) -> set:
    """Modules ``path`` imports when it is itself imported.

    Every import statement outside a function body counts; a sibling is
    named by its module name (``from . import summation as summ`` and
    ``from .summation import x`` both give "summation").
    """
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.module:
                    found.add(child.module)
                else:
                    found.update(alias.name for alias in child.names)
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def closed_form_names(path: Path) -> set:
    """The ``closed_*`` names ``path`` takes from ``coulomb_core``."""
    return {name for _, sibling, name in sibling_names(path)
            if sibling == "coulomb_core" and name.startswith("closed_")}


def test_no_private_names_across_modules():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= private_imports(path)
    # exact: an entry no module uses any more is stale and fails too
    assert found == ALLOWED


def test_checker_sees_both_forms(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from . import coulomb_core as core\n"
        "from .errors import check_theta, _hidden\n"
        "from .special_functions import _legendre_table\n"
        "x = core._validate_theta(1.0) + core.s_matrix(0, p).S + core.__name__\n"
        "from .coulomb_core import PhysicalParams, closed_partial_wave_sum\n"
        "y = core.closed_amplitude(1.0, p).f\n"
        "import coulomb_kit as kit\n"
        "z = kit._damped_sums(x) + kit.series_amplitude(1.0, p).f\n"
    )
    assert private_imports(module) == {
        ("mod", "__init__", "_damped_sums"),
        ("mod", "errors", "_hidden"),
        ("mod", "special_functions", "_legendre_table"),
        ("mod", "coulomb_core", "_validate_theta"),
    }
    assert closed_form_names(module) == {"closed_partial_wave_sum", "closed_amplitude"}


def test_series_side_takes_no_closed_form():
    assert closed_form_names(PACKAGE / "summation.py") == set()


def test_closed_form_side_imports_no_numpy():
    """A closed-form process (``import coulomb_kit``, cross-section,
    phase-shifts, amplitude --method closed) does not load numpy, whose
    import would about double its wall time.  So no statement that runs
    when these modules are imported may import numpy or the series module;
    an import inside a function body runs only where it is needed.
    """
    for stem in ("__init__", "errors", "coulomb_core", "special_functions", "cli"):
        imported = import_time_imports(PACKAGE / f"{stem}.py")
        assert not {m for m in imported if m.split(".")[0] == "numpy"}, stem
        assert not imported & {"summation", "coulomb_kit.summation"}, stem


def test_import_checker_skips_function_bodies(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import math\n"
        "from . import summation as summ\n"
        "try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
        "class C:\n    from .errors import DomainError\n"
        "    def method(self):\n        import scipy\n"
        "def f():\n    import numpy as np\n    from .summation import x\n"
    )
    assert import_time_imports(module) == {"math", "summation", "numpy.linalg", "errors"}


def test_no_module_imports_dataclasses_and_cli_loads_json_late():
    """``dataclasses`` brings ``inspect``, ``ast``, ``dis`` and ``tokenize``
    with it, more than half of ``import coulomb_kit``: the value classes
    are slotted classes instead.  ``json`` is imported only by the JSON
    branch of the table writer, so a CSV table never loads it.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in import_time_imports(path), path.stem
    assert "json" not in import_time_imports(PACKAGE / "cli.py")


def test_every_module_parses_as_the_oldest_supported_python():
    """Every module parses as the ``requires-python`` floor (3.10) parses.

    This checks syntax only (``ast.parse`` with ``feature_version``), not
    which standard-library names or numpy features a module uses.
    """
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    assert floor == (3, 10)
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
    with pytest.raises(SyntaxError):  # the check has teeth: except* is 3.11 syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)


# every span name perfbench/run.py reads, written out: its tracer wraps a layer's
# public functions only, so a name renamed, made private or moved away leaves the
# metric with no spans, a NaN, and the run's last line would not be JSON
TRACED = (
    ("special_functions", "legendre_sequence"), ("special_functions", "log_gamma"),
    ("coulomb_core", "s_matrix"), ("coulomb_core", "closed_partial_wave_sum"),
    ("coulomb_core", "closed_amplitude"),
    ("summation", "s_matrix_sequence"), ("summation", "smoothed_partial_wave_sum"),
    ("summation", "series_amplitude"), ("summation", "completeness_kernel"),
    ("summation", "unregularized_partial_sums"),
    ("cli", "run"), ("cli", "emit_table"),
)


def test_every_traced_name_is_a_public_function_of_its_layer():
    for layer, name in TRACED:
        module = importlib.import_module(f"coulomb_kit.{layer}")
        obj = getattr(module, name, None)
        # the tracer's own test: a function defined in the module, under a public name
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, (layer, name)
        assert obj.__name__ == name, (layer, name, obj.__name__)


def _probe(modules, capsys):
    """The benchmark probe's calls, written out, at a short length."""
    sf, core, summ, cli = (modules[n] for n in ("special_functions", "coulomb_core",
                                                "summation", "cli"))
    theta, L = 1.0, 200
    p = core.PhysicalParams(k=1.0, beta=1.3)
    cfg = summ.SummationConfig(L, (0.1, 0.05, 0.025), 2)
    sf.legendre_sequence(math.cos(theta), L)
    summ.smoothed_partial_wave_sum(math.cos(theta), p, cfg)
    summ.s_matrix_sequence(L, p)
    summ.series_amplitude(theta, p, cfg)
    core.closed_amplitude(theta, p)
    core.closed_partial_wave_sum(math.cos(theta), p)
    summ.completeness_kernel([-0.5, 0.0, 0.5], 0.025, L)
    summ.unregularized_partial_sums(theta, p, L)
    assert cli.run(["kernel-demo", "--epsilon", "0.05", "--lmax", "50", "--count", "3"]) == 0
    assert capsys.readouterr().out


def test_every_traced_name_is_reached_with_every_memo_warm(monkeypatch, capsys):
    """Each name the benchmark traces is called by the probe's calls with
    every memo warm, so no per-layer metric is left without spans: a layer
    that stopped calling the next (``s_matrix_sequence`` taking S_0 from
    ``log_gamma`` directly, say) would keep its bits and lose the edge.
    Calls are counted as the tracer counts them, through wrappers bound in
    every ``coulomb_kit`` namespace that refers to the function.
    """
    modules = {layer: importlib.import_module(f"coulomb_kit.{layer}") for layer, _ in TRACED}
    _probe(modules, capsys)                               # warms every memo
    calls = dict.fromkeys(TRACED, 0)
    originals = {key: getattr(modules[key[0]], key[1]) for key in TRACED}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "coulomb_kit":
            continue
        for attr, obj in list(vars(module).items()):
            for key, fn in originals.items():
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted(key, fn))
    _probe(modules, capsys)
    assert [key for key, n in calls.items() if n == 0] == []
