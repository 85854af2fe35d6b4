"""The private names one module of the package takes from another.

Each such name couples two modules through something that is not part of
either's interface: a private name imported, or a private attribute read off
an object that another module defines. The lists below are the whole of that
coupling, so a new one is added here on purpose.
"""

import ast
from pathlib import Path

import mlk

PRIVATE_IMPORTS = {
    ("bounds", "quadrature"): {"_integral_ln", "_seed", "_tensor_gauss"},
    ("bounds", "theta"): {"_cube_norm_grid", "_f_grid", "_slice_norm_sq"},
    ("quadrature", "theta"): {"_f_grid"},
    ("theta", "lattice"): {"_int_box", "_torus_points"},
    ("quadrature", "lattice"): {"_count", "_int_box", "_sobol"},
    ("cli", "quadrature"): {"_MAX_GAUSS_NODES"},
    ("cli", "bounds"): {"_per_embedding"},
}

# the GramMatrix internals that siegel and theta read (defined in lattice)
PRIVATE_ATTRIBUTES = {
    "siegel": {"_reduced"},
    "theta": {"_cache", "_reduced", "_scaled_reduced"},
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _modules():
    """(module name, syntax tree) for every module of the package."""
    for path in sorted(Path(mlk.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def private_imports() -> dict:
    """{(importer, source): names} over every relative import in the package,
    names with a leading underscore only, dunders such as __version__ left out."""
    found = {}
    for stem, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                names = {a.name for a in node.names if _private(a.name)}
                if names:
                    found.setdefault((stem, node.module), set()).update(names)
    return found


def private_attribute_reads() -> dict:
    """{module: names} over every private attribute ``x._name`` the module
    reads but does not define itself, as a function, a class or a string
    (a ``__slots__`` entry or an ``object.__setattr__`` name); dunders left
    out."""
    found = {}
    for stem, tree in _modules():
        own, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                own.add(node.value)
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                read.add(node.attr)
        if read - own:
            found[stem] = read - own
    return found


def test_cross_module_private_imports_are_pinned():
    assert private_imports() == PRIVATE_IMPORTS


def test_cross_module_private_attribute_reads_are_pinned():
    assert private_attribute_reads() == PRIVATE_ATTRIBUTES
