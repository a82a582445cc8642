"""Output checks against the paper's closed forms.

Every check reads the files one command wrote and returns a list of
failure messages (empty when the outputs are right).  The expected values
are written out here from the closed forms, not taken from the library:

* the attractors are the windows W = [-1/sqrt2, 1/sqrt2], W1 = [1/sqrt2 - 1,
  1/sqrt2] and W2 = [-1/sqrt2, 1/sqrt2 - 1], and the regular octagon of edge 1;
* the invariant densities carry mass 1, and 1 and sqrt2 - 1 for the two
  coupled components;
* the Fourier product at k = 0 is 1;
* the Weyl limit is theta(W) / covolume: sqrt2 / (2 sqrt2) = 1/2 for the
  silver points and 2(1 + sqrt2) / 4 for the octagonal ones;
* the 3-adic solver certifies its own closed form and prints PASS.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SQRT2 = math.sqrt(2.0)
W = (-SQRT2 / 2, SQRT2 / 2)
W1 = (SQRT2 / 2 - 1, SQRT2 / 2)
W2 = (-SQRT2 / 2, SQRT2 / 2 - 1)
_HA = (1 + SQRT2) / 2
OCTAGON = [(_HA, 0.5), (0.5, _HA), (-0.5, _HA), (-_HA, 0.5),
           (-_HA, -0.5), (-0.5, -_HA), (0.5, -_HA), (_HA, -0.5)]

EXACT_ATTRACTORS = {
    "silver-mc-min": ([W1], [W2]),
    "silver-max": ([W],),
    "ammann-beenker": ([OCTAGON],),
}
TARGET_MASSES = {
    "silver-max": [1.0],
    "silver-mc-max": [1.0, SQRT2 - 1],
    "ammann-beenker": [1.0],
}
WEYL_LIMITS = {
    "silver": SQRT2 / (2 * SQRT2),
    "ammann-beenker": 2 * (1 + SQRT2) / 4,
}
FOURIER_ROWS = 501

ATTRACTOR_TOL = 1e-9
MASS_TOL = 1e-6
LIMIT_RTOL = 1e-9


def _rows(path: Path) -> list:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _interval_distance(x: float, intervals) -> float:
    return min(0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi)) for lo, hi in intervals)


def hausdorff_intervals(a, b) -> float:
    """Hausdorff distance between two finite unions of closed intervals.

    The distance to a union of intervals, restricted to an interval, peaks
    at an endpoint or at the midpoint of a gap of the other union."""

    def directed(u, v):
        v = sorted(v)
        gaps = [(hi + lo) / 2 for (_, hi), (lo, _) in zip(v, v[1:])]
        points = [x for pair in u for x in pair]
        points += [m for m in gaps if any(lo <= m <= hi for lo, hi in u)]
        return max(_interval_distance(x, v) for x in points)

    return max(directed(a, b), directed(b, a))


def _point_polygon_distance(p, poly) -> float:
    """Distance from p to a convex polygon given by its vertices in order."""
    n = len(poly)
    area2 = sum(poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1] for i in range(n))
    sign = 1.0 if area2 >= 0 else -1.0
    inside = True
    best = math.inf
    for i in range(n):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        if sign * (ex * (p[1] - ay) - ey * (p[0] - ax)) < 0:
            inside = False
        length2 = ex * ex + ey * ey
        t = 0.0 if length2 == 0 else max(0.0, min(1.0, ((p[0] - ax) * ex + (p[1] - ay) * ey) / length2))
        best = min(best, math.hypot(p[0] - ax - t * ex, p[1] - ay - t * ey))
    return 0.0 if inside else best


def hausdorff_convex(p, q) -> float:
    """Hausdorff distance between two convex polygons.  The distance to a
    convex set is a convex function, so over a polygon it peaks at a vertex."""
    return max(
        max(_point_polygon_distance(v, q) for v in p),
        max(_point_polygon_distance(v, p) for v in q),
    )


def check_attractor(system: str, out: Path) -> list:
    errors = []
    for i, expected in enumerate(EXACT_ATTRACTORS[system], start=1):
        path = out / f"attractor_component_{i}.csv"
        if not path.is_file():
            errors.append(f"missing {path.name}")
            continue
        rows = _rows(path)
        if "lo" in rows[0]:
            got = [(float(r["lo"]), float(r["hi"])) for r in rows]
            d = hausdorff_intervals(got, expected)
        else:
            parts = {r["part"] for r in rows}
            if len(parts) != 1:
                errors.append(f"{path.name}: {len(parts)} parts, expected one convex polygon")
                continue
            d = hausdorff_convex([(float(r["x"]), float(r["y"])) for r in rows], expected[0])
        if not d <= ATTRACTOR_TOL:
            errors.append(f"{path.name}: Hausdorff distance {d:.3e} to the exact attractor")
    extra = out / f"attractor_component_{len(EXACT_ATTRACTORS[system]) + 1}.csv"
    if extra.exists():
        errors.append(f"unexpected {extra.name}")
    return errors


def check_measure(system: str, out: Path) -> list:
    path = out / "measure.json"
    if not path.is_file():
        return ["missing measure.json"]
    manifest = json.loads(path.read_text())
    masses = manifest["masses"] if "masses" in manifest else [manifest["mass"]]
    target = TARGET_MASSES[system]
    errors = []
    if len(masses) != len(target):
        errors.append(f"{len(masses)} components, expected {len(target)}")
    for i, (m, t) in enumerate(zip(masses, target), start=1):
        if not abs(m - t) <= MASS_TOL:
            errors.append(f"component {i} mass {m!r}, expected {t!r}")
    errors += [f"missing {name}" for name in manifest["files"] if not (out / name).is_file()]
    return errors


def check_fourier(out: Path) -> list:
    path = out / "fourier.csv"
    if not path.is_file():
        return ["missing fourier.csv"]
    rows = _rows(path)
    errors = []
    if len(rows) != FOURIER_ROWS:
        errors.append(f"{len(rows)} rows, expected {FOURIER_ROWS}")
    zero = [r for r in rows if float(r["k"]) == 0.0]
    if len(zero) != 1:
        errors.append("no single row at k = 0")
    else:
        value = abs(complex(float(zero[0]["re"]), float(zero[0]["im"])))
        if not abs(value - 1.0) <= 1e-12:
            errors.append(f"|h(0)| = {value!r}, expected 1")
    return errors


def check_weyl(system: str, out: Path, radii, centers) -> tuple:
    """Failure messages, and abs_error at the largest radius around the
    origin (``None`` when missing)."""
    path = out / "weyl.csv"
    if not path.is_file():
        return ["missing weyl.csv"], None
    rows = _rows(path)
    limit = WEYL_LIMITS[system]
    errors = []
    if len(rows) != len(radii) * len(centers):
        errors.append(f"{len(rows)} rows, expected {len(radii) * len(centers)}")
    got_centers = set()
    err_at_origin = None
    for r in rows:
        if not abs(float(r["limit"]) - limit) <= LIMIT_RTOL * limit:
            errors.append(f"limit {r['limit']} at r={r['radius']}, expected {limit!r}")
        avg, err = float(r["average"]), float(r["abs_error"])
        if not abs(err - abs(avg - float(r["limit"]))) <= 1e-12 * max(1.0, avg):
            errors.append(f"abs_error {err!r} is not |average - limit| at r={r['radius']}")
        center = (float(r["center_x"]), float(r["center_y"])) if "center_x" in r else (float(r["center"]),)
        got_centers.add(center)
        if float(r["radius"]) == max(radii) and not any(center):
            err_at_origin = err
    want = {tuple(c) if isinstance(c, list) else (c,) for c in centers}
    if got_centers != want:
        errors.append(f"centres {sorted(got_centers)} differ from the requested {sorted(want)}")
    if err_at_origin is None:
        errors.append("no row at the largest radius around the origin")
    return errors, err_at_origin


def check_padic(stdout: str) -> list:
    return [] if "PASS" in stdout else ["padic did not print PASS"]


def check(cmd, out: Path, stdout: str, config) -> tuple:
    """Failure messages for one command's outputs, and its Weyl error (or
    ``None``)."""
    if cmd.kind == "attractor":
        return check_attractor(cmd.system, out), None
    if cmd.kind == "measure":
        return check_measure(cmd.system, out), None
    if cmd.kind == "fourier":
        return check_fourier(out), None
    if cmd.kind == "weyl":
        return check_weyl(cmd.system, out, cmd.radii, config["centers"])
    return check_padic(stdout), None


def sha256_files(out: Path) -> dict:
    """sha256 of every file a command wrote, for information only."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.is_file()
    }
