"""Attractors and self-similar measures of affine contraction systems.

Subpackages cover exact arithmetic in Q(sqrt2), one number type that also
holds Z[sqrt2] (with the exact coordinates of cyclotomic coefficient
rows), compact-set iteration with Hausdorff metrics, invariant measures
(atomic and density form), multi-component systems, cut-and-project point
sets with Weyl averages, and a 3-adic component system.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_module(name: str):
    """The module ``name``, registered in ``sys.modules`` (and on its parent
    package) at once but executed on its first attribute access: the
    standard-library ``importlib.util.LazyLoader`` recipe.  The CLI
    reaches every layer this way, and the exact layers reach numpy and
    the numpy layers this way, so a command executes only the layers it
    runs.  A module already imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
