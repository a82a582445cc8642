"""Truncated 3-adic windows, coset densities, and the exact fixed point."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import padic
from selfsim.errors import ConvergenceError, ResourceCapError
from selfsim.padic import (
    SUBSTITUTION_COUNTS,
    PadicDensity,
    PadicWindowSpec,
    padic_convolve,
    padic_maximal_family,
    padic_scale,
    padic_window,
    solve_padic_system,
    window_measure_bounds,
    window_residues,
)

# mod-9 class of the refined family for each (i, j), frozen from the
# brute force: class(i, j) = base_i - 3 base_j mod 9 with bases (1, 3, 0)
FAMILY_CLASSES = ((7, 1, 1), (0, 3, 3), (6, 0, 0))


def coset_base(which, k):
    """Oracle for the depth-k coset base, summed digit by digit."""
    base = sum(3**i for i in range(k - 1))  # 1 + 3 + ... + 3^(k-2)
    if which == 1:
        return base
    if which == 2:
        return base + 2
    return 1 - base


def integer_in_window_oracle(which, n):
    """Direct congruence test covering every depth that can matter for
    integers up to a few hundred."""
    if which == 3 and n % 9 == 0:
        return True
    start = 3 if which == 3 else 2
    return any(n % 3**k == coset_base(which, k) % 3**k for k in range(start, 13))


def weights9():
    return st.lists(st.integers(min_value=0, max_value=81), min_size=9, max_size=9)


class TestPadicDensity:
    def test_uniform_mass(self):
        assert PadicDensity.uniform(3).mass == 1
        assert PadicDensity.uniform(2, Fraction(2, 5)).mass == Fraction(2, 5)

    def test_point_mass(self):
        d = PadicDensity.point(7, 3)
        assert d.mass == 1
        assert d.weights[7] == 27
        assert d.support() == {7}

    def test_on_residues(self):
        d = PadicDensity.on_residues({0, 3, 6}, 2, Fraction(1, 2))
        assert d.mass == Fraction(1, 2)
        assert d.support() == {0, 3, 6}
        assert d.weights[3] == Fraction(3, 2)

    def test_on_residues_rejects_empty(self):
        with pytest.raises(ValueError):
            PadicDensity.on_residues(set(), 2)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            PadicDensity(1, [1, 2])  # wrong length
        with pytest.raises(ValueError):
            PadicDensity(1, [1, -1, 0])
        with pytest.raises(ValueError):
            PadicDensity(1, [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            PadicDensity(0, [])

    def test_repeated_weight_objects_are_checked_once_each(self):
        bad = Fraction(-1, 3)
        # a bad object is refused wherever it sits, with the same message
        with pytest.raises(ValueError, match="^weights must be nonnegative$"):
            PadicDensity(2, [Fraction(1)] * 8 + [bad])
        with pytest.raises(ValueError, match="^weights must be exact rationals$"):
            PadicDensity(2, [1] * 8 + [0.5])
        # weights made one at a time and dropped at once may share an id (a
        # Fraction of an int subclass holds a copy, not the weight); each
        # still reads its own value
        class Big(int):
            pass

        d = PadicDensity(3, (Big(10**20 + r) for r in range(27)))
        assert d.weights == tuple(Fraction(10**20 + r) for r in range(27))
        assert all(type(w) is Fraction for w in d.weights)
        one = Fraction(9)
        assert all(w is one for w in PadicDensity(2, [one] * 9).weights)

    def test_equality_is_exact(self):
        u = PadicDensity(1, [Fraction(1, 3), 0, Fraction(8, 3)])
        v = PadicDensity(1, [Fraction(1, 3), 0, Fraction(8, 3)])
        assert u == v and hash(u) == hash(v)
        assert u != PadicDensity(1, [Fraction(1, 3), Fraction(8, 3), 0])


class TestWindowResidues:
    def test_window_one_mod_nine(self):
        assert window_residues(1, 2) == {1, 4}

    def test_window_two_mod_nine(self):
        assert window_residues(2, 2) == {3, 6}

    def test_window_three_mod_nine(self):
        assert window_residues(3, 2) == {0, 6}

    def test_accepts_spec_argument(self):
        spec = padic_window(1, 3)
        assert isinstance(spec, PadicWindowSpec)
        assert spec.residues == window_residues(1, 3)
        assert window_residues(spec, 4) == window_residues(1, 4)

    def test_rejects_shallow_precision(self):
        with pytest.raises(ValueError):
            window_residues(1, 1)
        with pytest.raises(ValueError):
            window_residues(4, 3)

    def test_projection_consistency(self):
        # realized sets are compatible across precision: dropping the top
        # digit of the depth-K realization gives exactly the depth-(K-1) one
        for which in (1, 2, 3):
            for k in range(3, 7):
                coarse = {r % 3 ** (k - 1) for r in window_residues(which, k)}
                assert coarse == window_residues(which, k - 1)

    def test_measure_bounds_bracket_one_sixth(self):
        sixth = Fraction(1, 6)
        for which in (1, 2, 3):
            lowers, uppers = [], []
            for k in range(2, 8):
                lo, hi = window_measure_bounds(which, k)
                assert lo <= sixth <= hi
                assert hi - lo == Fraction(1, 3**k)
                lowers.append(lo)
                uppers.append(hi)
            assert lowers == sorted(lowers)
            assert uppers == sorted(uppers, reverse=True)
            assert sixth - lowers[-1] <= Fraction(1, 3**7)

    def test_realized_measure_is_upper_bound(self):
        for which in (1, 2, 3):
            _, hi = window_measure_bounds(which, 5)
            assert Fraction(len(window_residues(which, 5)), 3**5) == hi

    def test_integer_membership_matches_congruence_oracle(self):
        specs = [padic_window(which, 7) for which in (1, 2, 3)]
        for n in range(-500, 501):
            for which, spec in zip((1, 2, 3), specs):
                assert spec.contains_integer(n) == integer_in_window_oracle(
                    which, n
                ), (which, n)

    def test_membership_refused_out_of_range(self):
        spec = padic_window(1, 4)
        bound = (3**4 - 3) // 2
        assert spec.contains_integer(bound - 1) in (True, False)
        with pytest.raises(ValueError):
            spec.contains_integer(bound)
        with pytest.raises(ValueError):
            spec.contains_integer(-bound)


class TestConvolve:
    def test_point_at_zero_is_identity(self):
        delta = PadicDensity.point(0, 3)
        for u in (
            PadicDensity.uniform(3, Fraction(5, 7)),
            PadicDensity.on_residues(window_residues(1, 3), 3),
        ):
            assert padic_convolve(u, delta) == u

    def test_point_masses_add_residues(self):
        u = PadicDensity.point(4, 2)
        v = PadicDensity.point(7, 2)
        assert padic_convolve(u, v) == PadicDensity.point(2, 2)

    def test_subgroup_closed(self):
        third = PadicDensity.on_residues(range(0, 27, 3), 3)
        out = padic_convolve(third, third)
        assert out.mass == 1
        assert out.support() == frozenset(range(0, 27, 3))

    def test_rejects_mixed_precision(self):
        with pytest.raises(ValueError):
            padic_convolve(PadicDensity.uniform(2), PadicDensity.uniform(3))

    @settings(max_examples=50)
    @given(weights9(), weights9())
    def test_commutative_with_multiplicative_mass(self, wu, wv):
        u = PadicDensity(2, wu)
        v = PadicDensity(2, wv)
        uv = padic_convolve(u, v)
        assert uv == padic_convolve(v, u)
        assert uv.mass == u.mass * v.mass


class TestScale:
    def test_uniform_lands_on_subgroup(self):
        out = padic_scale(PadicDensity.uniform(3))
        assert out.mass == 1
        assert out.support() == frozenset(range(0, 27, 3))
        assert all(out.weights[r] == 3 for r in range(0, 27, 3))

    def test_spike_moves_to_triple(self):
        out = padic_scale(PadicDensity.point(1, 3))
        assert out == PadicDensity.point(3, 3)

    @settings(max_examples=50)
    @given(weights9())
    def test_double_application_is_times_nine(self, ws):
        u = PadicDensity(2, ws)
        twice = padic_scale(padic_scale(u))
        direct = [Fraction(0)] * 9
        for r, w in enumerate(u.weights):
            direct[(9 * r) % 9] += w
        assert twice == PadicDensity(2, direct)
        assert twice.mass == u.mass


class TestMaximalFamily:
    def test_defining_property(self):
        k = 4
        n = 3**k
        for i in (1, 2, 3):
            wi = window_residues(i, k)
            for j in (1, 2, 3):
                wj = window_residues(j, k - 1)
                for b in padic_maximal_family(i, j, k):
                    assert all((3 * w + b) % n in wi for w in wj)

    def test_nonempty_for_every_entry(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert padic_maximal_family(i, j, 5)
                assert padic_maximal_family(i, j, 5, refine=True)

    def test_two_precision_stability(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                proj = {b % 3**4 for b in padic_maximal_family(i, j, 5)}
                assert proj == padic_maximal_family(i, j, 4)

    def test_refined_stability_from_depth_three(self):
        for k in (3, 4):
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    fine = padic_maximal_family(i, j, k + 1, refine=True)
                    proj = {b % 3**k for b in fine}
                    assert proj == padic_maximal_family(i, j, k, refine=True)

    def test_depth_three_raw_artifact(self):
        # at the minimum precision the raw brute force admits 13, which no
        # deeper refinement supports; stability therefore starts one deeper
        assert 13 in padic_maximal_family(1, 3, 3)
        assert 13 not in {b % 27 for b in padic_maximal_family(1, 3, 4)}

    def test_refined_families_are_full_cosets(self):
        # the premise of the solve on Z/9: at every depth the brute-force
        # family is the full coset of the frozen class and of the solver's
        # own table, entry by entry
        table = {
            (i, j): (c, w) for i, row in enumerate(padic._entry_table()) for j, c, w in row
        }
        for k in (4, 5, 6, 7):
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    fam = padic_maximal_family(i, j, k, refine=True)
                    cls = FAMILY_CLASSES[i - 1][j - 1]
                    assert fam == frozenset(range(cls, 3**k, 9))
                    count = SUBSTITUTION_COUNTS[i - 1][j - 1]
                    if count:
                        assert table[i - 1, j - 1] == (cls, Fraction(count, 3))
        assert len(table) == sum(n > 0 for row in SUBSTITUTION_COUNTS for n in row)

    def test_isolated_translations_survive_raw_only(self):
        # x -> 3x + 1 maps window 1 into itself coset by coset, and
        # x -> 3x - 3 does the same for window 3, but neither translation
        # has positive-measure neighbors in its family
        for k in (4, 5):
            raw = padic_maximal_family(1, 1, k)
            refined = padic_maximal_family(1, 1, k, refine=True)
            assert 1 in raw and 1 not in refined
            raw33 = padic_maximal_family(3, 3, k)
            refined33 = padic_maximal_family(3, 3, k, refine=True)
            assert 3**k - 3 in raw33 and 3**k - 3 not in refined33

    def test_rejects_shallow_precision(self):
        with pytest.raises(ValueError):
            padic_maximal_family(1, 1, 2)


def closed_form(precision):
    """The solved density vector: value 9 on one mod-9 class per component."""
    n = 3**precision
    out = []
    for base in (1, 3, 0):
        out.append(
            PadicDensity(
                precision,
                [Fraction(9) if r % 9 == base else Fraction(0) for r in range(n)],
            )
        )
    return tuple(out)


def one_step(comps, precision):
    """A single matrix convolution step with the solver's own entries."""
    entries = {}
    for i in range(3):
        for j in range(3):
            count = SUBSTITUTION_COUNTS[i][j]
            if count:
                fam = padic_maximal_family(i + 1, j + 1, precision, refine=True)
                entries[i, j] = PadicDensity.on_residues(
                    fam, precision, Fraction(count, 3)
                )
    pushed = [padic_scale(g) for g in comps]
    out = []
    for i in range(3):
        acc = None
        for j in range(3):
            entry = entries.get((i, j))
            if entry is None:
                continue
            piece = padic_convolve(entry, pushed[j])
            if acc is None:
                acc = piece
            else:
                acc = PadicDensity(
                    precision,
                    [a + b for a, b in zip(acc.weights, piece.weights)],
                )
        out.append(acc)
    return tuple(out)


class TestClosedFormCheck:
    """The closed-form check and ``mass`` work once per distinct weight
    object; a solved density repeats nine objects, ``closed_form`` makes a
    fresh equal-valued one for every residue."""

    @pytest.mark.parametrize("precision", [4, 5])
    def test_equal_valued_distinct_objects(self, precision):
        for comps in (closed_form(precision), solve_padic_system(precision)):
            assert padic.closed_form_holds(comps, precision)
            assert [c.mass for c in comps] == [1, 1, 1]
        assert not padic.closed_form_holds(closed_form(precision), precision + 1)
        assert not padic.closed_form_holds(closed_form(precision)[:2], precision)

    @pytest.mark.parametrize("source", ["distinct", "solved"])
    @pytest.mark.parametrize("component, residue, value", [
        (0, 1 + 9 * 17, Fraction(10)),  # on the component's class
        (1, 3**5 - 1, Fraction(1, 81)),  # off it
        (2, 9 * 26, "shared"),  # the object of another class, zero there
    ])
    def test_one_perturbed_weight(self, source, component, residue, value):
        precision = 5
        comps = list(closed_form(precision) if source == "distinct" else solve_padic_system(precision))
        weights = list(comps[component].weights)
        # a weight object of a class whose value is 0, put where 9 belongs
        weights[residue] = weights[residue + 1] if value == "shared" else value
        comps[component] = PadicDensity(precision, weights)
        assert not padic.closed_form_holds(tuple(comps), precision)
        assert comps[component].mass == sum(weights, Fraction(0)) / 3**precision
        assert comps[component].mass != 1


class TestSolve:
    def test_closed_form_at_default_precision(self):
        comps = solve_padic_system()
        assert all(c.precision == 5 for c in comps)
        assert comps == closed_form(5)

    def test_closed_form_at_depth_four(self):
        assert solve_padic_system(4) == closed_form(4)

    def test_masses_exactly_one(self):
        for c in solve_padic_system():
            assert c.mass == 1

    def test_support_inside_windows(self):
        comps = solve_padic_system()
        for which, c in zip((1, 2, 3), comps):
            assert c.support() <= window_residues(which, 5)

    def test_solution_is_fixed_point(self):
        comps = solve_padic_system()
        assert one_step(comps, 5) == comps

    def test_weights_periodic_mod_nine(self):
        for c in solve_padic_system():
            for r in range(9, 3**5):
                assert c.weights[r] == c.weights[r - 9]

    def test_rejects_shallow_precision(self):
        with pytest.raises(ValueError):
            solve_padic_system(3)

    def test_iteration_budget_enforced(self):
        with pytest.raises(ConvergenceError):
            solve_padic_system(5, max_iter=1)

    @pytest.mark.parametrize("precision", [4, 5, 6])
    def test_equals_full_depth_iteration(self, precision):
        # the brute-force oracle from point masses at 0, stopped by the
        # solver's rule: a step that reproduces its input
        comps = tuple(PadicDensity.point(0, precision) for _ in range(3))
        steps = 0
        while True:
            steps += 1
            new = one_step(comps, precision)
            if new == comps:
                break
            comps = new
        assert solve_padic_system(precision, max_iter=steps) == comps
        with pytest.raises(ConvergenceError):
            solve_padic_system(precision, max_iter=steps - 1)

    @pytest.mark.parametrize("precision", [4, 5, 6, 7, 8])
    def test_three_steps_at_every_depth(self, precision):
        with pytest.raises(ConvergenceError):
            solve_padic_system(precision, max_iter=2)
        assert solve_padic_system(precision, max_iter=3) == closed_form(precision)

    def test_solve_uses_no_full_depth_operation(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("full-depth operation called by the solve")

        for name in ("padic_convolve", "padic_scale", "padic_maximal_family"):
            monkeypatch.setattr(padic, name, refused)
        monkeypatch.setattr(PadicDensity, "on_residues", refused)
        assert solve_padic_system(5) == closed_form(5)

    def test_cost_cap_admits_depth_twelve_only(self, monkeypatch):
        # checked without an oversized solve: the lift at K = 12 is stubbed
        # to stop the run, and K = 13 must be refused before any work
        class Lifted(Exception):
            pass

        def lift(*args, **kwargs):
            raise Lifted

        assert padic._LIFTED_WEIGHT_CAP == 3**12
        monkeypatch.setattr(padic, "PadicDensity", lift)
        with pytest.raises(Lifted):
            solve_padic_system(12)
        monkeypatch.setattr(padic, "_entry_table", lift)
        with pytest.raises(ResourceCapError):
            solve_padic_system(13)
