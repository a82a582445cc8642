"""Attractors and self-similar measures of affine contraction systems.

Submodules cover exact arithmetic in Q(sqrt2), one number type that also
holds Z[sqrt2], with interval sets and affine maps (``core``), convex
polygons, compact-set iteration with Hausdorff metrics, the exact
coordinates of cyclotomic coefficient rows and lattice enumeration,
lattice grids with rasters, invariant measures (atomic and density form),
multi-component systems, cut-and-project point sets with Weyl averages,
and a 3-adic component system.  They, and the command bodies in
``commands``, are cut along the commands, so a command executes, and
without a bytecode cache compiles, only the code it runs.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_module(name: str):
    """The module ``name``, registered in ``sys.modules`` (and on its parent
    package) at once but executed on its first attribute access: the
    standard-library ``importlib.util.LazyLoader`` recipe.  The CLI
    reaches every module and json this way, and the other modules reach
    numpy, the numpy layers and the modules only some commands run this
    way, so a command executes only the code it runs.  A module already
    imported is returned as it is."""
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
