"""Coset densities on the 3-adic integers at finite precision.

Everything here lives on the quotient ring Z/3^K: a window is realized
as its residue set mod 3^K, a density is a vector of rational weights
(one per depth-K coset, each of Haar measure 3^-K), and convolution and
the times-3 pushforward are exact group operations.  The three windows
of the ternary component system are unions of one coset per depth
k >= 2; at precision K all depths beyond K collapse onto a single tail
residue, so the realized set carries slightly more measure than the
window itself, and ``window_measure_bounds`` reports the gap.

A density stores its weights as their shortest 3-power period, so one
that is constant on the cosets mod 9 holds nine values at every K.

The solver reproduces the invariant density vector of the system as an
exact fixed point of the matrix convolution step.  Every entry of that
step is uniform on one coset mod 9, so the iteration runs on each
component's nine coset masses mod 9, and the fixed point is that
period: the solve costs the same at every K.

The padic command's files are laid out here too, streamed in blocks with
each period entry formatted once (``csv_blocks``, ``json_blocks``), so
no other command compiles them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ConvergenceError, ResourceCapError

SUBSTITUTION_COUNTS = ((1, 1, 1), (1, 1, 1), (0, 1, 2))
DEFAULT_PRECISION = 5
# weights per component written at K = 12 (0.4-0.9 s to solve and write as CSV,
# 0.15-0.3 s as JSON); the solve costs the same at every K, only the files grow
_LIFTED_WEIGHT_CAP = 3**12


class PadicDensity:
    """Rational density on depth-``precision`` cosets of the 3-adics.

    ``weights[r]`` is the constant density value on r + 3^K Z_3, so the
    total mass is (sum of weights) / 3^K, an exact Fraction.  The density
    stores ``period``, the shortest period of the weights of length 3^k
    (k <= K), and ``weights`` repeats it 3^(K-k) times.  The constructor
    takes any period of length 3^k, the full 3^K weights being the
    longest, and reduces it to the shortest, which is unique: so equal
    densities store equal periods.  Weights must be nonnegative ints or
    Fractions; floats are refused to keep every later comparison exact.
    """

    __slots__ = ("precision", "period")

    def __init__(self, precision: int, weights: Sequence):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        ws = []
        for w in weights:
            if isinstance(w, float) or not isinstance(w, (int, Fraction)):
                raise ValueError("weights must be exact rationals")
            exact = w if type(w) is Fraction else Fraction(w)
            if exact < 0:
                raise ValueError("weights must be nonnegative")
            ws.append(exact)
        n = len(ws)
        if not n or 3**precision % n:
            raise ValueError(f"need 3**k weights for some k <= {precision}, got {n}")
        # a third of the length is a period when each third repeats the first
        while n % 3 == 0 and ws[: 2 * n // 3] == ws[n // 3 :]:
            n //= 3
            del ws[n:]
        self.precision = precision
        self.period = tuple(ws)

    @classmethod
    def point(cls, residue: int, precision: int) -> "PadicDensity":
        """Unit mass concentrated on one depth-``precision`` coset."""
        n = 3**precision
        ws = [Fraction(0)] * n
        ws[residue % n] = Fraction(n)
        return cls(precision, ws)

    @classmethod
    def uniform(cls, precision: int, mass=1) -> "PadicDensity":
        """Constant density of the given total mass on all of Z_3."""
        return cls(precision, [Fraction(mass)])

    @classmethod
    def on_residues(cls, residues, precision: int, mass=1) -> "PadicDensity":
        """Uniform density of the given total mass on a residue set."""
        residues = set(residues)
        if not residues:
            raise ValueError("residue set is empty")
        n = 3**precision
        value = Fraction(mass) * n / len(residues)
        ws = [Fraction(0)] * n
        for r in residues:
            ws[r % n] = value
        return cls(precision, ws)

    @property
    def weights(self) -> tuple:
        return self.period * (3**self.precision // len(self.period))

    @property
    def mass(self) -> Fraction:
        return sum(self.period) / len(self.period)

    def support(self) -> frozenset:
        n, m = 3**self.precision, len(self.period)
        return frozenset(r for s, w in enumerate(self.period) if w for r in range(s, n, m))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicDensity):
            return NotImplemented
        return self.precision == other.precision and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.precision, self.period))

    def __repr__(self) -> str:
        nonzero = len(self.support())
        return (
            f"PadicDensity(precision={self.precision}, mass={self.mass}, "
            f"support={nonzero} residues)"
        )


class PadicWindowSpec:
    """One of the three component windows realized mod 3**precision."""

    __slots__ = ("which", "precision", "residues")

    def __init__(self, which: int, precision: int, residues: frozenset) -> None:
        self.which, self.precision, self.residues = which, precision, residues

    def contains_integer(self, n: int) -> bool:
        """Exact window membership for an integer.

        The realized residue set decides membership correctly as long as
        |n| stays below (3^K - 3)/2; beyond that the collapsed tail
        residue can produce false positives, so the call refuses.
        """
        bound = (3**self.precision - 3) // 2
        if abs(n) >= bound:
            raise ValueError(
                f"|{n}| >= {bound}: membership undecidable at precision "
                f"{self.precision}, increase it"
            )
        return n % 3**self.precision in self.residues


def _window_which(spec) -> int:
    which = spec.which if isinstance(spec, PadicWindowSpec) else spec
    if which not in (1, 2, 3):
        raise ValueError("window index must be 1, 2, or 3")
    return which


def _coset_base(which: int, k: int) -> int:
    """Base point of the depth-k coset of window ``which``.

    Window 1 uses 1 + 3 + ... + 3^(k-2); window 2 sits two to its right;
    window 3 mirrors it around 1 (its depth-2 part is the subgroup
    9 Z_3, handled by the caller).
    """
    base = (3 ** (k - 1) - 1) // 2
    if which == 1:
        return base
    if which == 2:
        return base + 2
    return 1 - base


def _residues(which: int, precision: int, with_tail: bool) -> frozenset:
    n = 3**precision
    out = set()
    start = 3 if which == 3 else 2
    if which == 3:
        out.update(range(0, n, 9))
    for k in range(start, precision + 1):
        base = _coset_base(which, k) % 3**k
        out.update((base + m * 3**k) % n for m in range(3 ** (precision - k)))
    if with_tail:
        out.add(_coset_base(which, precision + 1) % n)
    return frozenset(out)


def window_residues(spec, precision: int) -> frozenset:
    """Residue set of a window mod 3**precision.

    ``spec`` is a window index in {1, 2, 3} or a PadicWindowSpec.  The
    result is the union of the depth 2..precision cosets truncated to
    this precision, plus the single residue shared by every deeper
    coset.  Deterministic; precision must be at least 2.
    """
    if precision < 2:
        raise ValueError("precision must be at least 2")
    return _residues(_window_which(spec), precision, with_tail=True)


def padic_window(spec, precision: int) -> PadicWindowSpec:
    """Realize a window as a PadicWindowSpec at the given precision."""
    which = _window_which(spec)
    return PadicWindowSpec(which, precision, window_residues(which, precision))


def window_measure_bounds(spec, precision: int) -> tuple:
    """Lower and upper Fraction bounds on a window's Haar measure.

    The lower bound counts only the fully resolved cosets (depths up to
    the precision) and increases to 1/6; the upper bound adds the tail
    residue covering all deeper cosets and decreases to the same limit.
    The realized set of ``window_residues`` has the upper bound's
    measure.
    """
    if precision < 2:
        raise ValueError("precision must be at least 2")
    which = _window_which(spec)
    n = 3**precision
    inner = _residues(which, precision, with_tail=False)
    outer = _residues(which, precision, with_tail=True)
    return Fraction(len(inner), n), Fraction(len(outer), n)


def padic_convolve(u: PadicDensity, v: PadicDensity) -> PadicDensity:
    """Group convolution on Z/3^K: (u * v)[t] = 3^-K sum_r u[r] v[t - r].

    Mass is multiplicative, exactly.
    """
    if u.precision != v.precision:
        raise ValueError(
            f"precision mismatch: {u.precision} != {v.precision}"
        )
    n = 3**u.precision
    acc = [Fraction(0)] * n
    for r, wu in enumerate(u.weights):
        if not wu:
            continue
        for t, wv in enumerate(v.weights):
            if wv:
                acc[(r + t) % n] += wu * wv
    scale = Fraction(1, n)
    return PadicDensity(u.precision, [w * scale for w in acc])


def padic_scale(u: PadicDensity) -> PadicDensity:
    """Pushforward of u under x -> 3x, at unchanged precision.

    The image lands on 3 Z_3; the three depth-K cosets above each image
    coset pool their weight there, so the uniform unit-mass density
    becomes weight 3 on the residues divisible by 3.  Mass is preserved.
    """
    n = 3**u.precision
    out = [Fraction(0)] * n
    for r, w in enumerate(u.weights):
        if w:
            out[(3 * r) % n] += w
    return PadicDensity(u.precision, out)


def padic_maximal_family(i: int, j: int, precision: int, refine: bool = False) -> frozenset:
    """All translations b with 3 W_j + b inside W_i, mod 3**precision.

    Brute force over every residue b, with W_j realized one depth
    shallower so that 3 w + b is determined mod 3**precision.  The raw
    result is a full coset mod 9 plus, for some (i, j), an isolated
    translation that maps the window tail into itself; such points are
    genuine members but carry no Haar measure.  ``refine`` keeps only
    translations whose entire depth-K cylinder still qualifies one depth
    deeper, which strips the isolated points and leaves the uniform core,
    the coset that ``_entry_table`` gives in closed form.
    """
    if precision < 3:
        raise ValueError("precision must be at least 3")
    wi = window_residues(i, precision)
    wj = window_residues(j, precision - 1)
    n = 3**precision
    fam = {b for b in range(n) if all((3 * w + b) % n in wi for w in wj)}
    if refine:
        deeper = padic_maximal_family(i, j, precision + 1)
        fam = {b for b in fam if all(b + t * n in deeper for t in range(3))}
    return frozenset(fam)


def _entry_table() -> list:
    """Row i lists (j, c, w) for every entry (i, j) of the system: mass
    w = SUBSTITUTION_COUNTS[i][j] / 3 spread uniformly over the coset
    c + 9 Z_3 of translations b with 3 W_j + b inside W_i.

    With b_i window i's depth-2 coset base, 3 (b_j + 9 Z_3) + c lies in
    b_i + 9 Z_3 exactly when c = b_i - 3 b_j mod 9.  No deeper digit
    enters, so the table is the same at every precision.
    """
    bases = [_coset_base(which, 2) % 9 for which in (1, 2, 3)]
    return [
        [(j, (bi - 3 * bases[j]) % 9, Fraction(n, 3)) for j, n in enumerate(counts) if n]
        for bi, counts in zip(bases, SUBSTITUTION_COUNTS)
    ]


def solve_padic_system(precision: int = DEFAULT_PRECISION, max_iter=None) -> tuple:
    """Stationary density vector of the three-component coset system.

    The state is each component's nine masses on the cosets mod 9.  A
    step pushes component j's mass on s + 9 Z_3 forward to 3s and adds
    it, times w, at 3s + c to component i for each entry (j, c, w) of
    row i of ``_entry_table``; the mass vector is (1, 1, 1).  Iteration
    starts from unit point masses at 0 and stops as soon as a step
    reproduces the previous iterate exactly.  Each component's density
    at ``precision`` is handed the fixed point as its period mod 9:
    weight 9 times its mass on each coset mod 9.  Returns the three
    densities.  Raises ResourceCapError, before any work, when the 3^K
    weights per component exceed ``_LIFTED_WEIGHT_CAP``, and
    ConvergenceError after ``max_iter`` steps (default ``precision``)
    without a fixed point.
    """
    if precision < 4:
        raise ValueError("precision must be at least 4")
    if 3**precision > _LIFTED_WEIGHT_CAP:
        raise ResourceCapError(
            f"precision K={precision} needs {3**precision} weights per "
            f"component, over the cap of {_LIFTED_WEIGHT_CAP}"
        )
    if max_iter is None:
        max_iter = precision
    table = _entry_table()
    # unit point masses at 0: no union of cosets, so never compared with a step
    masses = [[Fraction(1)] + [Fraction(0)] * 8 for _ in range(3)]
    for step in range(max_iter):
        new = []
        for row in table:
            acc = [Fraction(0)] * 9
            for j, c, w in row:
                for s, x in enumerate(masses[j]):
                    acc[(3 * s + c) % 9] += w * x
            new.append(acc)
        if step and new == masses:
            return tuple(PadicDensity(precision, [9 * x for x in m]) for m in new)
        masses = new
    raise ConvergenceError(
        f"coset convolution not stationary after {max_iter} steps"
    )


# ---------------------------------------------------------------------------
# output: the padic command's files, streamed

# weights per streamed block of output text
_BLOCK = 4096

CSV_HEADER = "residue,weight_num,weight_den"


def closed_form_holds(comps, precision: int) -> bool:
    """Whether each component i, at depth K, is 9 on b_i + 9Z, b = (1, 3, 0),
    else 0: whether its period is the nine weights 9 [s = b_i], s mod 9."""
    return len(comps) == 3 and all(
        c.precision == precision and c.period == tuple(9 * (s == b) for s in range(9))
        for c, b in zip(comps, (1, 3, 0))
    )


def _weight_blocks(density: PadicDensity, layout):
    """Per block of _BLOCK weights, its first residue and the text of each
    weight in it: each period entry is laid out once, by ``layout(num,
    den)``, and residue r takes the text of entry r mod the period."""
    texts = [layout(w.numerator, w.denominator) for w in density.period]
    m, n = len(texts), 3**density.precision
    for lo in range(0, n, _BLOCK):
        yield lo, [texts[r % m] for r in range(lo, min(lo + _BLOCK, n))]


def csv_blocks(density: PadicDensity):
    """The data lines of one component's CSV file, ``residue,num,den`` per
    weight, as bytes, _BLOCK lines to a block (the header is CSV_HEADER)."""
    for lo, tails in _weight_blocks(density, ",{},{}\n".format):
        yield "".join(map("{}{}".format, range(lo, lo + _BLOCK), tails)).encode()


def json_blocks(precision: int, comps):
    """The text of ``padic.json``, _BLOCK weights to a block, laid out as
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` lays out

        doc = {"precision": K, "components": [{"component": i + 1,
               "mass": [num, den], "weights": [[num, den], ...]}, ...]}

    without building it."""

    def pair(num, den, pad):
        return f"[\n{pad}  {num},\n{pad}  {den}\n{pad}]"

    def weight(num, den):  # a weight's lines in the weights list
        return " " * 8 + pair(num, den, " " * 8)

    head = '{\n  "components": ['
    for i, c in enumerate(comps):
        m = c.mass
        mass = pair(m.numerator, m.denominator, " " * 6)
        yield f'{head}\n    {{\n      "component": {i + 1},\n      "mass": {mass},\n      "weights": ['
        head = ","
        for lo, lines in _weight_blocks(c, weight):
            yield ("," if lo else "") + "\n" + ",\n".join(lines)
        yield "\n      ]\n    }"
    yield f'\n  ],\n  "precision": {precision}\n}}\n'
