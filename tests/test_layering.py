"""The package's import graph points one way: each module imports only
modules of a lower rank."""

import ast
import importlib
import pathlib

import pytest

import mono3dkit

PACKAGE = pathlib.Path(mono3dkit.__file__).parent

RANK = {
    "geometry": 0,
    "camera": 1,
    "codec": 2,
    "filters": 2,
    "lifting": 2,
    "losses": 2,
    "evaluation": 3,
    "dataio": 3,
    "sampler": 4,
    "synth": 4,
    "cli": 5,
}


def package_imports(module: str) -> set:
    """Sibling modules named by the relative imports of ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module is None:  # from . import x
            out.update(alias.name for alias in node.names)
        else:
            out.add(node.module.split(".")[0])
    return out


def test_every_module_has_a_rank():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(RANK)


@pytest.mark.parametrize("module", sorted(RANK))
def test_imports_point_to_lower_ranks(module):
    upward = {dep: RANK.get(dep) for dep in package_imports(module) if RANK.get(dep, 99) >= RANK[module]}
    assert not upward, f"{module} (rank {RANK[module]}) imports {upward}"


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """Lines of ``source`` that read the process environment through ``os``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT_READS for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_results_do_not_depend_on_the_environment(module):
    """Output depends on inputs, flags and seeds only, never on environment variables."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert environment_reads(source) == [], f"{module} reads os.environ/os.getenv"


def test_environment_reads_are_seen():
    source = "import os\nfrom os import getenv\na = os.environ['X']\nb = os.getenv('Y')\nc = os.path.join('a')\n"
    assert environment_reads(source) == [2, 3, 4]


def test_relative_import_forms_are_seen():
    # cli uses "from . import dataio" as well as "from .x import y".
    assert {"dataio", "evaluation", "camera"} <= package_imports("cli")


def package_reexports() -> list:
    """(module, alias) for each name the package ``__init__`` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def package_exports() -> set:
    """Names the package ``__init__`` imports from its modules."""
    return {alias.asname or alias.name for _, alias in package_reexports()}


def unreferenced_definitions(sources: list, exported: set) -> list:
    """Module-level public functions and classes of the module texts ``sources``
    that no name or attribute refers to outside their own definition, and that
    are not in ``exported``. A name listed only in ``__all__`` is a string, not
    a reference."""
    defined, used = set(), set()
    for source in sources:
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defined.add(top.name)
                own = top.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return sorted(defined - used - exported)


def test_every_public_definition_is_used_or_exported():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert unreferenced_definitions(sources, package_exports()) == []


def test_unreferenced_definitions_are_seen():
    sources = [
        "__all__ = ['dead']\ndef used():\n    pass\ndef dead():\n    return dead()\nclass Kept:\n    pass\n",
        "from . import a\nfrom .a import used\nx = used() + a.Kept\n",
    ]
    assert unreferenced_definitions(sources, set()) == ["dead"]
    assert unreferenced_definitions(sources, {"dead"}) == []
    assert {"CameraModel", "evaluate", "iou3d"} <= package_exports()


def all_and_definitions(source: str) -> tuple:
    """``__all__`` of a module text less its own assigned names (its public
    constants), and its module-level public functions and classes."""
    listed, assigned, defined = set(), set(), set()
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            defined.add(top.name)
        elif isinstance(top, ast.Assign):
            names = {t.id for t in top.targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                listed = set(ast.literal_eval(top.value))
            assigned |= names
    return listed - assigned, defined


@pytest.mark.parametrize("module", sorted(RANK))
def test_all_names_the_public_definitions(module):
    listed, defined = all_and_definitions((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert listed == defined, f"{module}.__all__ lacks {sorted(defined - listed)}, names undefined {sorted(listed - defined)}"


def test_all_and_definitions_are_seen():
    source = "__all__ = ['A', 'f', 'K', 'gone']\nK = 1\nclass A:\n    pass\ndef f():\n    pass\ndef g():\n    pass\ndef _h():\n    pass\n"
    assert all_and_definitions(source) == ({"A", "f", "gone"}, {"A", "f", "g"})


@pytest.mark.parametrize("module", sorted(RANK))
def test_all_entries_are_defined_by_their_module(module):
    """A deletion that leaves a stale ``__all__`` entry behind, or an entry
    that names an import, fails here."""
    mod = importlib.import_module(f"mono3dkit.{module}")
    undefined = [
        name
        for name in mod.__all__
        if name not in vars(mod) or getattr(vars(mod)[name], "__module__", mod.__name__) != mod.__name__
    ]
    assert undefined == [], f"{module}.__all__ names {undefined}, which {module} does not define"


def test_package_reexports_only_names_in_their_modules_all():
    stray = [
        f"{module}.{alias.name}"
        for module, alias in package_reexports()
        if alias.name not in importlib.import_module(f"mono3dkit.{module}").__all__
    ]
    assert stray == []
