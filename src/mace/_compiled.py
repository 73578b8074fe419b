"""scipy's compiled extension modules, loaded without their packages' ``__init__``.

``mace`` calls three of scipy's compiled modules: L-BFGS-B's ``setulb``
(``scipy.optimize._lbfgsb``), LAPACK's Cholesky routines
(``scipy.linalg._flapack``) and ``erfc`` (``scipy.special._special_ufuncs``).
Importing them through their packages would run ``scipy.optimize``,
``scipy.linalg`` and ``scipy.special``, which load sparse, spatial, fft and
linear programming, and, through ``scipy._lib._array_api``, most of numpy's
optional submodules.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import scipy


def load_extension(name: str):
    """The compiled module ``name`` (``scipy.<package>.<module>``), its package left unrun.

    When the module is already imported, it is returned as is.  Otherwise the
    import system's finders locate the extension file (the standard one looks
    in the package's directory under scipy's; an editable install's maps the
    name to its build), and the module is built under scipy's own name, so
    CPython initializes it once whichever of ``mace`` and scipy's package comes
    first, and both get the same functions.
    """
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    package, _, leaf = name.rpartition(".")
    directory = os.path.join(os.path.dirname(scipy.__file__), *package.split(".")[1:])
    for finder in sys.meta_path:
        find_spec = getattr(finder, "find_spec", None)
        spec = find_spec(name, [directory]) if find_spec is not None else None
        if spec is not None:
            break
    else:
        raise ImportError(f"scipy's compiled {name} is missing: no {leaf} extension in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython files a new single-phase extension module in sys.modules as it
    # builds it.  Left there, a later import of its package would take it from
    # sys.modules and never bind it as the package's attribute.
    sys.modules.pop(name, None)
    return module
