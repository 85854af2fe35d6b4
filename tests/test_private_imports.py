"""The private names one module of the package imports from another.

Each such import couples two modules through a name that is not part of
either's interface; the list below is the whole of that coupling, so a new
one is added here on purpose.
"""

import ast
from pathlib import Path

import mlk

PRIVATE_IMPORTS = {
    ("bounds", "quadrature"): {"_integral_ln", "_tensor_gauss"},
    ("bounds", "theta"): {"_cube_norm_grid", "_f_grid", "_slice_norm_sq"},
    ("quadrature", "theta"): {"_f_grid"},
    ("theta", "lattice"): {"_int_box", "_torus_points"},
    ("quadrature", "lattice"): {"_count"},
    ("cli", "quadrature"): {"_MAX_GAUSS_NODES"},
    ("cli", "bounds"): {"_per_embedding"},
}


def private_imports() -> dict:
    """{(importer, source): names} over every relative import in the package,
    names with a leading underscore only, dunders such as __version__ left out."""
    found = {}
    for path in Path(mlk.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                names = {a.name for a in node.names
                         if a.name.startswith("_") and not a.name.startswith("__")}
                if names:
                    found.setdefault((path.stem, node.module), set()).update(names)
    return found


def test_cross_module_private_imports_are_pinned():
    assert private_imports() == PRIVATE_IMPORTS
