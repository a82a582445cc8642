"""The benchmark's workloads and the seeded plan of one run.

Each workload is a fixed list of ``selfsim.cli`` commands.  The seed picks
only the order of the commands and the Weyl ball centres, so a claim can be
re-checked on a seed the change was not tuned on.

* ``line``: the everyday 1D reproduction run.  Each command computes for
  milliseconds, so interpreter start-up and imports are most of the time.
* ``planar``: float geometry in the plane on the Ammann-Beenker system:
  sampled 2D Hausdorff distance, per-cell polygon clipping, cyclotomic
  enumeration with exact filters and a 241k-row density CSV.
* ``deep``: the same layers at depth in 1D: Z[sqrt2] enumeration out to
  radius 20000, the coupled density solver on a grid step 100x finer than
  the shipped 5e-4 (written as JSON) and the 3-adic solver at K = 7, the
  only workload where p-adic convolution dominates.  It is not listed in
  BENCHMARK.json: a third workload would cut every run from 60 s to about
  42 s within the time allowed for all runs, and its run-to-run spread on a
  shared 2-core host exceeded the bound.  It stays runnable with
  ``--workload deep``.

``deep`` uses ``--grid-step 5e-6``.  Steps such as 1e-5, 1.5e-5 and 3e-5
make ``solve_mc_density`` exit 1 with "cannot renormalize a zero-mass
density": the pushforward of the one-cell starting spike can miss every
target node.  That is a known defect of the solver, left for a later fix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Fraction of the largest radius used for the Weyl ball centres.
CENTER_REACH = 0.05


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``kind`` is the subcommand, ``system`` the builtin
    it runs on (``None`` for ``padic``), ``args`` the flags after the
    subcommand.  ``radii`` are the Weyl radii the command uses."""

    kind: str
    system: str | None
    args: tuple = ()
    radii: tuple = ()

    @property
    def label(self) -> str:
        return " ".join((self.kind, *self.args))


def _sys(kind: str, system: str, *extra: str, radii: tuple = ()) -> Command:
    return Command(kind, system, ("--system", system, *extra), radii)


# Shipped default radii of the Weyl systems (selfsim.systems).
SILVER_RADII = (100.0, 500.0, 2000.0)
OCTAGON_RADII = (10.0, 20.0, 30.0)

WORKLOADS = {
    "line": (
        _sys("attractor", "silver-mc-min"),
        _sys("attractor", "silver-max"),
        _sys("measure", "silver-max"),
        _sys("measure", "silver-mc-max"),
        _sys("fourier", "silver-max"),
        _sys("weyl", "silver", radii=SILVER_RADII),
        Command("padic", None, ("--K", "5")),
    ),
    "planar": (
        _sys("attractor", "ammann-beenker"),
        _sys("measure", "ammann-beenker"),
        _sys("weyl", "ammann-beenker", radii=OCTAGON_RADII),
    ),
    "deep": (
        Command("padic", None, ("--K", "7")),
        _sys("weyl", "silver", "--radii", "100,2000,20000", radii=(100.0, 2000.0, 20000.0)),
        _sys("measure", "silver-mc-max", "--grid-step", "5e-6", "--format", "json"),
    ),
}

PLANAR_SYSTEMS = {"ammann-beenker"}


def weyl_centers(rng: random.Random, radii: tuple, planar: bool) -> list:
    """Ball centres for one Weyl command: the origin, one centre at exactly
    ``CENTER_REACH`` times the largest radius and one at a random distance
    below it, in random directions.  The farthest centre is always at the
    same distance, so the enumerated patch, and with it the work, does not
    depend on the seed."""
    reach = CENTER_REACH * max(radii)
    out = [[0.0, 0.0] if planar else 0.0]
    for dist in (reach, reach * rng.random()):
        if planar:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            out.append([dist * math.cos(angle), dist * math.sin(angle)])
        else:
            out.append(dist if rng.random() < 0.5 else -dist)
    return out


def plan(workload: str, seed: int) -> list:
    """Commands of ``workload`` in seeded order, each paired with the
    config it gets (Weyl centres) or ``None``."""
    rng = random.Random(seed)
    commands = list(WORKLOADS[workload])
    rng.shuffle(commands)
    out = []
    for cmd in commands:
        config = None
        if cmd.kind == "weyl":
            config = {"centers": weyl_centers(rng, cmd.radii, cmd.system in PLANAR_SYSTEMS)}
        out.append((cmd, config))
    return out
