"""Substitution rules: their tilings, displacement sets and translation regions.

A rule's displacement sets D_ij place the tiles of letter i inside the
image of letter j, so its point sets solve Lambda_i = U_j (lambda
Lambda_j + D_ij), and on a model set the windows solve W_i = U_j
(lambda* W_j + D*_ij): the minimal self-similar families of the windows.
The maximal ones are the largest regions of b with lambda* W_j + b inside
W_i (Lagarias & Wang, "Substitution Delone sets", Discrete Comput. Geom.
29, 2003; Baake & Grimm, Aperiodic Order vol. 1, ch. 7).  ``systems``
derives its coupled silver builtins from ``SILVER_RULE`` this way.
Standard library only.
"""

from __future__ import annotations

from typing import Sequence

from . import _lazy_module
from .core import SILVER, IntervalSet, QuadRat, _as_quadrat

# polygon windows, executed by planar callers alone
polygons = _lazy_module("selfsim.polygons")


class SubstitutionRule:
    """Letter replacement rule with exact tile lengths.

    The lengths must solve the inflation equation: one factor Q with
    Q * len(t) = sum of the image letters' lengths, for every letter.
    """

    def __init__(self, alphabet: Sequence[str], images: dict, lengths: dict):
        self.alphabet = tuple(alphabet)
        self.images = {t: str(images[t]) for t in self.alphabet}
        self.lengths = {t: lengths[t] for t in self.alphabet}
        for t in self.alphabet:
            if not self.images[t]:
                raise ValueError(f"letter {t!r} has an empty image")
            if any(u not in self.alphabet for u in self.images[t]):
                raise ValueError(f"image of {t!r} uses letters outside the alphabet")
            if float(self.lengths[t]) <= 0:
                raise ValueError(f"tile length of {t!r} must be positive")
        first = self.alphabet[0]
        q = self._image_length(first) / _as_exact(self.lengths[first])
        for t in self.alphabet:
            if self._image_length(t) != q * _as_exact(self.lengths[t]):
                raise ValueError(
                    f"lengths do not solve the inflation equation at letter {t!r}"
                )
        self.inflation = q

    def _image_length(self, t: str) -> QuadRat:
        total = _as_exact(0)
        for u in self.images[t]:
            total = total + _as_exact(self.lengths[u])
        return total

    def expand(self, word: str) -> str:
        return "".join(self.images[t] for t in word)


def _as_exact(x) -> QuadRat:
    q = _as_quadrat(x)
    if q is NotImplemented:
        raise TypeError(f"tile lengths must be exact scalars, got {type(x).__name__}")
    return q


# a -> aba, b -> a with lengths 1 + sqrt2 and 1: inflation 1 + sqrt2
SILVER_RULE = SubstitutionRule(("a", "b"), {"a": "aba", "b": "a"}, {"a": SILVER, "b": 1})


def displacements(rule: SubstitutionRule) -> list:
    """Entry [i][j] lists the offsets, as ``QuadRat``s, of the tiles of
    letter i inside the image of letter j, in the order they occur in the
    image; an empty tuple where the image holds no i."""
    index = {t: k for k, t in enumerate(rule.alphabet)}
    table = [[[] for _ in rule.alphabet] for _ in rule.alphabet]
    for j, t in enumerate(rule.alphabet):
        offset = _as_exact(0)
        for u in rule.images[t]:
            table[index[u]][j].append(offset)
            offset = offset + _as_exact(rule.lengths[u])
    return [[tuple(cell) for cell in row] for row in table]


class SubstitutionOrbit:
    """Tile coordinates of a finite patch of the 2-sided fixed point."""

    __slots__ = ("positions", "left_word", "right_word", "lo", "hi")

    def __init__(self, positions: dict, left_word: str, right_word: str, lo, hi) -> None:
        self.positions, self.left_word, self.right_word = positions, left_word, right_word
        self.lo, self.hi = lo, hi

    def all_positions(self) -> list:
        merged = [p for pts in self.positions.values() for p in pts]
        merged.sort(key=float)
        return merged


def substitution_orbit(
    rule: SubstitutionRule,
    seed: tuple,
    generations: int,
    endpoint: str = "left",
) -> SubstitutionOrbit:
    """Expand a legal 2-letter seed about the origin and coordinatize.

    The right seed letter's tile starts at 0 and the left one ends at 0.
    Legality (image of the left letter ends with it, image of the right
    letter starts with it) makes each generation extend the previous.
    Returns per-letter tile endpoints, left or right per the flag, in
    exact arithmetic.
    """
    if endpoint not in ("left", "right"):
        raise ValueError("endpoint must be 'left' or 'right'")
    left, right = seed
    if left not in rule.alphabet or right not in rule.alphabet:
        raise ValueError("seed letters must belong to the alphabet")
    if not rule.images[left].endswith(left):
        raise ValueError(f"illegal seed: image of {left!r} does not end with it")
    if not rule.images[right].startswith(right):
        raise ValueError(f"illegal seed: image of {right!r} does not start with it")
    if generations < 0:
        raise ValueError("generations must be nonnegative")
    left_word, right_word = left, right
    for _ in range(generations):
        left_word = rule.expand(left_word)
        right_word = rule.expand(right_word)
    positions = {t: [] for t in rule.alphabet}
    total = 0
    for t in left_word:
        total = rule.lengths[t] + total
    lo = -total
    pos = lo
    for t in left_word + right_word:
        length = rule.lengths[t]
        positions[t].append(pos if endpoint == "left" else pos + length)
        pos = pos + length
    return SubstitutionOrbit(
        positions={t: tuple(v) for t, v in positions.items()},
        left_word=left_word,
        right_word=right_word,
        lo=lo,
        hi=pos,
    )


def maximal_translation_region(w_i, w_j, a):
    """Largest region of translations b with A W_j + b inside W_i.

    Intervals: the exact interval [min W_i - min A W_j, max W_i - max A W_j],
    or a singleton when the widths agree; None when A W_j is too wide.
    Polygons: the erosion W_i minus the A-image of W_j (None when empty).
    The interval formula holds for a single-interval W_i, so a W_i of
    several intervals is refused; W_j may have several, as its hull lies
    in an interval exactly when W_j does.
    """
    if isinstance(w_i, IntervalSet) and isinstance(w_j, IntervalSet):
        if len(w_i.intervals) > 1:
            raise ValueError(
                f"target window W_i has {len(w_i.intervals)} intervals; "
                "the interval formula needs a single one"
            )
        image = w_j.linear_image(a)
        lo = w_i.lo - image.lo
        hi = w_i.hi - image.hi
        if float(lo) > float(hi):
            return None
        return IntervalSet([(lo, hi)])
    if isinstance(w_i, polygons.ConvexPolygon) and isinstance(w_j, polygons.ConvexPolygon):
        matrix = a if isinstance(a, tuple) else ((a, 0), (0, a))
        return w_i.erode(w_j.linear_image(matrix))
    raise TypeError("windows must both be IntervalSet or both ConvexPolygon")
