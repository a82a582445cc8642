"""End-to-end runs of the command-line drivers against temp directories."""

import contextlib
import copy
import gc
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import selfsim
from selfsim import (
    cli, compactsets, float17, grids, measures, modelsets, multicomponent, numberfields, padic,
)
from selfsim.commands import fourier as fourier_command, output
from selfsim.cli import ExperimentConfig, _write_grid, build_config, main
from selfsim.core import AffineMap, IntervalSet, QuadRat
from selfsim.errors import ConfigError, ResourceCapError
from selfsim.measures import GridDensity, fourier_hat
from selfsim.inline import system_from_spec
from selfsim.polygons import ConvexPolygon
from selfsim.systems import builtin

INF, NAN = math.inf, math.nan
# a one-component family that solves on its own: only a bad m or s can fail it
UNIFORM = {"kind": "uniform", "lo": -1, "hi": 1, "mass": 1}
# a uniform family whose mass is misspelled
TYPO_MASS = {"kind": "uniform", "lo": -0.5, "hi": 0.5, "mas": 2.0}
AC = 1.0 - math.sqrt(2.0)
R = abs(AC)
W1 = (1 / math.sqrt(2.0) - 1.0, 1 / math.sqrt(2.0))
W2 = (-1 / math.sqrt(2.0), 1 / math.sqrt(2.0) - 1.0)

OCTAGON = [
    ((1 + math.sqrt(2.0)) / 2, 0.5),
    (0.5, (1 + math.sqrt(2.0)) / 2),
    (-0.5, (1 + math.sqrt(2.0)) / 2),
    (-(1 + math.sqrt(2.0)) / 2, 0.5),
    (-(1 + math.sqrt(2.0)) / 2, -0.5),
    (-0.5, -(1 + math.sqrt(2.0)) / 2),
    (0.5, -(1 + math.sqrt(2.0)) / 2),
    ((1 + math.sqrt(2.0)) / 2, -0.5),
]


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: Optional[BaseException]  # what ended a failed run

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run(*args) -> Result:
    """One command run in this process, its output captured."""
    out, err = io.StringIO(), io.StringIO()
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, out.getvalue(), err.getvalue(), exception)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [
        [float(cell) for cell in line.split(",")] for line in lines[1:]
    ]
    return header, rows


def inline_silver_spec():
    return {
        "a": AC,
        "maps": [[[{"t": AC}, {"t": 0.0}, {"t": -AC}]]],
        "family": {"kind": "uniform", "lo": AC, "hi": -AC, "mass": 1.0},
    }


class TestAttractor:
    def test_silver_mc_endpoints(self, tmp_path):
        result = run("attractor", "--system", "silver-mc", "--out", tmp_path)
        assert result.exit_code == 0
        for i, (lo, hi) in enumerate((W1, W2), start=1):
            header, rows = read_csv(tmp_path / f"attractor_component_{i}.csv")
            assert header == ["part", "lo", "hi"]
            assert len(rows) == 1
            assert abs(rows[0][1] - lo) < 1e-12
            assert abs(rows[0][2] - hi) < 1e-12

    def test_point_shrinks_to_origin(self, tmp_path):
        result = run("attractor", "--system", "point", "--out", tmp_path)
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "attractor_component_1.csv")
        assert len(rows) == 1
        assert abs(rows[0][1]) < 1e-9 and abs(rows[0][2]) < 1e-9

    def test_ammann_beenker_vertices(self, tmp_path):
        result = run(
            "attractor",
            "--system",
            "ammann-beenker",
            "--out",
            tmp_path,
            "--format",
            "json",
        )
        assert result.exit_code == 0
        data = json.loads((tmp_path / "attractor.json").read_text())
        vertices = data["components"][0]["vertices"]
        assert len(vertices) == 8
        for got, want in zip(sorted(map(tuple, vertices)), sorted(OCTAGON)):
            assert math.dist(got, want) < 1e-9

    def test_convergence_log_written(self, tmp_path):
        result = run("attractor", "--system", "silver-max", "--out", tmp_path)
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert rows[0][0] == 1.0
        assert rows[-1][1] < 1e-12
        deltas = [r[1] for r in rows]
        assert all(b < a for a, b in zip(deltas[1:], deltas[2:]))

    def test_unknown_system(self, tmp_path):
        result = run("attractor", "--system", "nope", "--out", tmp_path)
        assert result.exit_code == 1
        assert "unknown system" in result.stderr

    def test_system_without_attractor(self, tmp_path):
        result = run("attractor", "--system", "silver", "--out", tmp_path)
        assert result.exit_code == 1
        assert "no attractor variant" in result.stderr

    def test_max_iter_exhausted(self, tmp_path):
        result = run(
            "attractor", "--system", "silver-max", "--out", tmp_path,
            "--max-iter", 2,
        )
        assert result.exit_code == 2
        line = result.stderr.strip()
        assert line.startswith("error: attractor iteration did not reach tol=1e-12 in 2 steps")
        last = float(line.rsplit("(last Hausdorff distance ", 1)[1].rstrip(")"))
        assert last > 1e-12


class TestMeasure:
    def test_silver_max_mass_line(self, tmp_path):
        result = run(
            "measure", "--system", "silver-max", "--out", tmp_path,
            "--grid-step", 2e-3,
        )
        assert result.exit_code == 0
        assert "mass 1.000000" in result.stdout
        manifest = json.loads((tmp_path / "measure.json").read_text())
        assert abs(manifest["mass"] - 1.0) < 1e-6

    def test_density_csv_columns(self, tmp_path):
        run("measure", "--system", "silver-max", "--out", tmp_path,
            "--grid-step", 2e-3)
        header, rows = read_csv(tmp_path / "density.csv")
        assert header == ["x", "density"]
        h = rows[1][0] - rows[0][0]
        total = sum(r[1] for r in rows) * h
        assert abs(total - 1.0) < 1e-6

    def test_mc_max_masses(self, tmp_path):
        result = run(
            "measure", "--system", "silver-mc-max", "--out", tmp_path,
            "--grid-step", 2e-3,
        )
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "measure.json").read_text())
        assert manifest["n"] == 2
        assert abs(manifest["masses"][0] - 1.0) < 1e-6
        assert abs(manifest["masses"][1] - R) < 1e-6
        for name in manifest["files"]:
            assert (tmp_path / name).exists()

    def test_mc_max_fine_step_keeps_both_masses(self, tmp_path):
        # at this step the pushed one-cell spike falls between the sample
        # points of the pushforward; its mass must not be lost
        result = run(
            "measure", "--system", "silver-mc-max", "--out", tmp_path,
            "--grid-step", 3e-5,
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "measure.json").read_text())
        assert abs(manifest["masses"][0] - 1.0) < 1e-6
        assert abs(manifest["masses"][1] - R) < 1e-6

    def test_mc_min_has_no_density(self, tmp_path):
        for system in ("silver-mc-min", "silver-min"):
            result = run("measure", "--system", system, "--out", tmp_path)
            assert result.exit_code == 1
            assert "-max counterpart" in result.stderr
            assert not list(tmp_path.iterdir())

    def test_non_convergence_exit(self, tmp_path):
        result = run(
            "measure", "--system", "silver-max", "--out", tmp_path,
            "--grid-step", 2e-3, "--max-iter", 2,
        )
        assert result.exit_code == 2

    def test_tol_below_round_off_reports_last_change(self, tmp_path):
        result = run(
            "measure", "--system", "silver-max", "--out", tmp_path,
            "--tol", 1e-17, "--max-iter", 60,
        )
        assert result.exit_code == 2
        line = result.stderr.strip()
        assert line.startswith("error: density iteration did not reach tol=1e-17 in 60 steps")
        last = float(line.rsplit("(last L1 change ", 1)[1].rstrip(")"))
        # stuck at the round-off floor, not merely short of steps
        assert 1e-17 <= last < 1e-14

    def test_json_grid_roundtrip(self, tmp_path):
        run("measure", "--system", "silver-max", "--out", tmp_path,
            "--grid-step", 2e-3, "--format", "json")
        data = json.loads((tmp_path / "density.json").read_text())
        total = sum(data["weights"]) * data["step"]
        assert abs(total - data["mass"]) < 1e-12
        assert data["counts"] == [len(data["weights"])]


class TestFourier:
    def test_rows_match_library(self, tmp_path):
        result = run(
            "fourier", "--system", "silver-max", "--out", tmp_path,
            "--terms", 30,
        )
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "fourier.csv")
        assert header == ["k", "re", "im"]
        assert rows[0] == [0.0, 1.0, 0.0]
        b = builtin("silver-max")
        for k, re, im in rows[::100]:
            want = fourier_hat(b.family, AC, k, 30)
            assert abs(complex(re, im) - want) < 1e-12

    def test_needs_one_dimensional_family(self, tmp_path):
        assert run("fourier", "--system", "silver", "--out", tmp_path).exit_code == 1
        assert (
            run("fourier", "--system", "ammann-beenker", "--out", tmp_path).exit_code
            == 1
        )


    @pytest.mark.parametrize("args, config", [
        (("--terms", 10**8), None),
        ((), {"k_step": 1e-300}),
        ((), {"k_step": 1e-320}),  # the frequency count overflows to inf
    ])
    def test_over_the_cap_exits_before_any_work(self, args, config, tmp_path, monkeypatch):
        def started(*a, **k):
            raise AssertionError("fourier_hat called")

        monkeypatch.setattr(measures, "fourier_hat", started)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = (*args, "--config", tmp_path / "cfg.json")
        out = tmp_path / "out"
        result = run("fourier", "--system", "silver-max", *args, "--out", out)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: about")
        assert not out.exists()

    def test_product_cap_admits_the_default_table_exactly(self, tmp_path, monkeypatch):
        # 501 frequencies of 40 terms
        monkeypatch.setattr(fourier_command, "_FOURIER_PRODUCT_CAP", 40 * 501 - 1)
        assert run("fourier", "--system", "silver-max", "--out", tmp_path).exit_code == 3
        monkeypatch.setattr(fourier_command, "_FOURIER_PRODUCT_CAP", 40 * 501)
        assert run("fourier", "--system", "silver-max", "--out", tmp_path).exit_code == 0


class TestWeyl:
    def test_errors_decrease_along_radii(self, tmp_path):
        result = run(
            "weyl", "--system", "silver", "--radii", "100,1000,5000",
            "--out", tmp_path,
        )
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "weyl.csv")
        assert header == ["radius", "center", "average", "limit", "abs_error"]
        errors = [r[4] for r in rows]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_single_radius_flag(self, tmp_path):
        result = run(
            "weyl", "--system", "silver", "--radius", 200, "--out", tmp_path
        )
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "weyl.csv")
        assert len(rows) == 1 and rows[0][0] == 200.0

    def test_planar_center_columns(self, tmp_path):
        result = run(
            "weyl", "--system", "ammann-beenker", "--radii", "8,12",
            "--out", tmp_path,
        )
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "weyl.csv")
        assert header == ["radius", "center_x", "center_y", "average", "limit", "abs_error"]
        assert all(abs(r[3] - r[4]) == r[5] for r in rows)

    def test_planar_radius_42_fits_the_candidate_cap(self, tmp_path):
        # patch radius 46: ~221k candidates, once estimated at 20.4M and refused
        result = run(
            "weyl", "--system", "ammann-beenker", "--radii", "10,20,42",
            "--out", tmp_path,
        )
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "weyl.csv")
        assert [r[0] for r in rows] == [10.0, 20.0, 42.0]

    def test_needs_a_scheme(self, tmp_path):
        assert run("weyl", "--system", "silver-max", "--out", tmp_path).exit_code == 1

    def run_with_centers(self, tmp_path, system, radii, centers, fmt):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"centers": centers}))
        return run(
            "weyl", "--system", system, "--radii", radii, "--config", cfg,
            "--format", fmt, "--out", tmp_path / fmt,
        )

    def test_line_centers_from_config(self, tmp_path):
        centers = [0, -7.5, [12.25]]
        for fmt in ("csv", "json"):
            result = self.run_with_centers(tmp_path, "silver", "100", centers, fmt)
            assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "csv" / "weyl.csv")
        assert header == ["radius", "center", "average", "limit", "abs_error"]
        assert [r[1] for r in rows] == [0.0, -7.5, 12.25]
        data = json.loads((tmp_path / "json" / "weyl.json").read_text())
        assert [row["center"] for row in data["rows"]] == [0.0, -7.5, 12.25]

    def test_plane_centers_from_config(self, tmp_path):
        centers = [[0, 0], [1.5, -0.75], 2.0]
        for fmt in ("csv", "json"):
            result = self.run_with_centers(tmp_path, "ammann-beenker", "8", centers, fmt)
            assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "csv" / "weyl.csv")
        assert header == ["radius", "center_x", "center_y", "average", "limit", "abs_error"]
        assert [r[1:3] for r in rows] == [[0.0, 0.0], [1.5, -0.75], [2.0, 0.0]]
        data = json.loads((tmp_path / "json" / "weyl.json").read_text())
        assert [row["center"] for row in data["rows"]] == [[0.0, 0.0], [1.5, -0.75], [2.0, 0.0]]

    @pytest.mark.parametrize(
        "system, center",
        [("ammann-beenker", [1.0]), ("ammann-beenker", [1.0, 2.0, 3.0]), ("silver", [1.0, 2.0])],
    )
    def test_center_of_wrong_length_rejected(self, tmp_path, system, center):
        result = self.run_with_centers(tmp_path, system, "8", [center], "csv")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: a Weyl center must be a number or a list of" in result.stderr
        assert not (tmp_path / "csv").exists()

    @pytest.mark.parametrize("centers", [[], [None], 5, [[1.0, "x"]]])
    def test_malformed_centers_rejected(self, tmp_path, centers):
        result = self.run_with_centers(tmp_path, "silver", "8", centers, "csv")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: centers must" in result.stderr

    def test_bad_radii_text(self, tmp_path):
        result = run(
            "weyl", "--system", "silver", "--radii", "10,abc", "--out", tmp_path
        )
        assert result.exit_code == 1

    def test_radius_is_a_second_spelling_of_radii(self, tmp_path):
        seen = []
        for flag in ("--radius", "--radii"):
            out = tmp_path / flag.strip("-")
            result = run("weyl", "--system", "silver", flag, "100,500", "--out", out)
            assert result.exit_code == 0
            seen.append((result.stdout.replace(str(out), "OUT"), (out / "weyl.csv").read_bytes()))
        assert seen[0] == seen[1]
        # both spellings are one option given twice: the last one wins
        out = tmp_path / "both"
        result = run(
            "weyl", "--system", "silver", "--radii", "100", "--radius", "200", "--out", out
        )
        assert result.exit_code == 0
        assert [row[0] for row in read_csv(out / "weyl.csv")[1]] == [200.0]

    @pytest.mark.parametrize("system, radius", [
        ("ammann-beenker", "1e-300"),  # pi r^2 underflows to 0
        ("ammann-beenker", "1e-160"),  # pi r^2 is subnormal
        ("silver", "1e-308"),  # 2r is subnormal
        ("silver", "5e-324"),
    ])
    def test_radius_whose_ball_volume_underflows_exits_1_before_enumeration(
        self, system, radius, tmp_path, monkeypatch
    ):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("the lattice was enumerated")

        monkeypatch.setattr(modelsets, "project_points", enumerate_nothing)
        result = run(
            "weyl", "--system", system, "--radii", f"100,{radius}", "--out", tmp_path / "out"
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        message = f"radius {float(radius)!r} is too small: its ball volume underflows"
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("system, radius, centers", [
        ("silver", "1e308", None),
        ("ammann-beenker", "1e200", None),
        ("silver", "100", [1e308]),
        ("silver", "1e308", [1e308]),  # the ball reaches past the largest float
    ])
    def test_huge_patch_exits_3_before_enumeration(
        self, system, radius, centers, tmp_path, monkeypatch
    ):
        def no_work(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(numberfields, "_chunks", no_work)
        args = ("weyl", "--system", system, "--radii", radius, "--out", tmp_path / "out")
        if centers is not None:
            (tmp_path / "cfg.json").write_text(json.dumps({"centers": centers}))
            args = (*args, "--config", tmp_path / "cfg.json")
        result = run(*args)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert result.stdout == ""
        assert not (tmp_path / "out").exists()


class TestPadic:
    def test_default_depth_passes(self, tmp_path):
        result = run("padic", "--K", 5, "--out", tmp_path)
        assert result.exit_code == 0
        assert "PASS" in result.stdout
        header, rows = read_csv(tmp_path / "padic_component_1.csv")
        assert header == ["residue", "weight_num", "weight_den"]
        assert len(rows) == 3**5

    def test_json_weights_exact(self, tmp_path):
        result = run("padic", "--K", 4, "--format", "json", "--out", tmp_path)
        assert result.exit_code == 0
        data = json.loads((tmp_path / "padic.json").read_text())
        comp = data["components"][0]
        assert comp["mass"] == [1, 1]
        assert comp["weights"][1] == [9, 1]
        assert comp["weights"][0] == [0, 1]

    def test_depth_too_small(self, tmp_path):
        result = run("padic", "--K", 3, "--out", tmp_path)
        assert result.exit_code == 1
        assert "K must be at least 4" in result.stderr

    def test_depth_over_cost_cap(self, tmp_path, monkeypatch):
        # the coset table and the densities fail if called, so K = 13 cannot start
        def started(*args):
            raise RuntimeError("solve started")

        monkeypatch.setattr(padic, "_entry_table", started)
        monkeypatch.setattr(padic, "PadicDensity", started)
        result = run("padic", "--K", 13, "--out", tmp_path)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: precision K=13")
        assert not list(tmp_path.iterdir())

    def test_lowered_cost_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(padic, "_LIFTED_WEIGHT_CAP", 3**5 - 1)
        result = run("padic", "--K", 5, "--out", tmp_path)
        assert result.exit_code == 3
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("fault", ["swapped", "one-weight-off", "wrong-depth"])
    def test_wrong_density_fails_the_check(self, fault, tmp_path, monkeypatch):
        solve = padic.solve_padic_system

        def wrong(precision, max_iter=None):
            comps = list(solve(precision))
            if fault == "swapped":
                comps[0], comps[1] = comps[1], comps[0]
            elif fault == "one-weight-off":
                weights = list(comps[2].weights)
                weights[9] += Fraction(1, 3**precision)
                comps[2] = padic.PadicDensity(precision, weights)
            else:
                comps = list(solve(precision + 1))
            return tuple(comps)

        monkeypatch.setattr(padic, "solve_padic_system", wrong)
        result = run("padic", "--K", 4, "--out", tmp_path)
        assert result.exit_code == 2
        assert "FAIL: densities differ from the mod-9 closed form" in result.stdout
        assert "PASS" not in result.stdout

    def test_iteration_budget_exhausted(self, tmp_path):
        result = run("padic", "--K", 5, "--max-iter", 1, "--out", tmp_path)
        assert result.exit_code == 2

    # K = 8 has 6,561 weights per component: a full block of 4,096, then a short one
    @pytest.mark.parametrize("source", ["solved-4", "solved-8", "fractions"])
    def test_streamed_json_is_the_whole_document_dump(self, source):
        precision, comps = padic_components(source)
        doc = {
            "precision": precision,
            "components": [
                {
                    "component": i + 1,
                    "mass": [c.mass.numerator, c.mass.denominator],
                    "weights": [[w.numerator, w.denominator] for w in c.weights],
                }
                for i, c in enumerate(comps)
            ],
        }
        streamed = "".join(padic.json_blocks(precision, comps))
        assert streamed == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("source", ["solved-4", "solved-8", "fractions"])
    def test_streamed_csv_is_the_row_layout(self, source):
        _, comps = padic_components(source)
        for c in comps:
            rows = [(r, w.numerator, w.denominator) for r, w in enumerate(c.weights)]
            assert b"".join(padic.csv_blocks(c)) == b"".join(output._csv_lines(rows))


def padic_components(source: str) -> tuple:
    """Precision and densities: solved at K = 4 or 8, or two depth-2
    densities of assorted fractions, one the other reversed."""
    if source == "fractions":
        weights = [Fraction(r % 5, 3 + r % 4) for r in range(9)]
        return 2, (padic.PadicDensity(2, weights), padic.PadicDensity(2, weights[::-1]))
    precision = int(source[-1])
    return precision, padic.solve_padic_system(precision)



class NoGridAllocation:
    """Stands in for numpy inside ``grids`` and ``measures``: the array
    constructors fail if called; everything else is numpy's."""

    def __getattr__(self, name):
        if name in ("arange", "empty", "full", "meshgrid", "zeros", "fft"):
            raise AssertionError(f"numpy.{name} used before the grid cap check")
        return getattr(np, name)


class TestGridCellCap:
    @pytest.mark.parametrize("args", [
        ("measure", "--system", "silver-max", "--grid-step", 1e-12),
        ("measure", "--system", "silver-mc-max", "--grid-step", 1e-12),
        ("measure", "--system", "ammann-beenker", "--grid-step", 1e-7),
        ("weyl", "--system", "silver", "--grid-step", 1e-12),
        ("weyl", "--system", "ammann-beenker", "--grid-step", 1e-7),
        ("measure", "--system", "silver-max", "--grid-step", 5e-324),
    ])
    def test_tiny_step_exits_before_any_grid(self, args, tmp_path, monkeypatch):
        for module in (grids, measures):
            monkeypatch.setattr(module, "np", NoGridAllocation())
        result = run(*args, "--out", tmp_path)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: a grid of about")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ("weyl", "--system", "silver", "--grid-step", 1e300),
        ("weyl", "--system", "silver", "--grid-step", "extent"),
        ("weyl", "--system", "ammann-beenker", "--grid-step", 3),
        ("measure", "--system", "silver-max", "--grid-step", 1e300),
        ("measure", "--system", "silver-mc-max", "--grid-step", 1e300),
        ("measure", "--system", "ammann-beenker", "--grid-step", 3),
    ])
    def test_step_not_below_the_region_is_refused(self, args, tmp_path, monkeypatch):
        if args[-1] == "extent":
            lo, hi = builtin(args[2]).window.as_float().bbox()
            args = (*args[:-1], repr(hi - lo))

        def started(*a, **k):
            raise AssertionError("enumeration started")

        for module in (grids, measures):
            monkeypatch.setattr(module, "np", NoGridAllocation())
        monkeypatch.setattr(modelsets, "project_points", started)
        result = run(*args, "--out", tmp_path)
        assert result.exit_code == 1
        assert "is not below the" in result.stderr
        assert "smallest extent" in result.stderr
        assert not list(tmp_path.iterdir())

    def test_lowered_cap_refuses_the_default_step(self, tmp_path, monkeypatch):
        b = builtin("silver-max")
        raster = measures.family_as_grid(b.family, b.default_step)
        monkeypatch.setattr(grids, "_GRID_CELL_CAP", raster.values.size - 1)
        for module in (grids, measures):
            monkeypatch.setattr(module, "np", NoGridAllocation())
        result = run("measure", "--system", "silver-max", "--out", tmp_path)
        assert result.exit_code == 3
        assert not list(tmp_path.iterdir())

    def test_every_grid_shape_is_checked(self, monkeypatch):
        g = GridDensity(0, 0.01, np.ones(10))
        far = GridDensity(10_000, 0.01, np.ones(10))
        wide = GridDensity(0, 0.01, np.ones(600))
        square = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        monkeypatch.setattr(grids, "_GRID_CELL_CAP", 1000)
        refused = [
            lambda: measures.raster_interval_set(IntervalSet.closed(0.0, 1.0), 1e-4, 1.0),
            lambda: measures.raster_polygon(square, 0.01, 1.0),
            lambda: measures.add_grids(g, far),  # the union box: 10,001 cells
            lambda: measures.pushforward(AffineMap(1e3, 0.0), g),  # about 9,000 cells
            lambda: measures.convolve_grids(wide, wide),  # FFT length 1,200
        ]
        for call in refused:
            with pytest.raises(ResourceCapError):
                call()

    def test_iterates_are_capped_too(self, tmp_path, monkeypatch):
        # the raster fits, but the iterates grow toward the wider attractor
        b = builtin("silver-max")
        raster = measures.family_as_grid(b.family, b.default_step)
        monkeypatch.setattr(grids, "_GRID_CELL_CAP", raster.values.size + 8)
        result = run("measure", "--system", "silver-max", "--out", tmp_path)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: a grid of about")


class TestConfigHandling:
    def test_file_merges_under_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "silver-max", "grid_step": 2e-3}))
        out1 = tmp_path / "a"
        result = run("measure", "--config", cfg, "--out", out1)
        assert result.exit_code == 0
        data = json.loads((out1 / "measure.json").read_text())
        assert abs(data["grid_step"] - 2e-3) < 1e-12
        out2 = tmp_path / "b"
        result = run(
            "measure", "--config", cfg, "--out", out2, "--grid-step", 4e-3
        )
        assert result.exit_code == 0
        data = json.loads((out2 / "measure.json").read_text())
        assert abs(data["grid_step"] - 4e-3) < 1e-12

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "silver-max", "stepsize": 1}))
        result = run("measure", "--config", cfg, "--out", tmp_path)
        assert result.exit_code == 1
        assert "stepsize" in result.stderr

    def test_unreadable_and_malformed_files(self, tmp_path):
        assert (
            run("measure", "--config", tmp_path / "absent.json").exit_code == 1
        )
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("measure", "--config", bad).exit_code == 1
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        assert run("measure", "--config", arr).exit_code == 1

    def test_validation_happens_before_work(self, tmp_path):
        result = run(
            "measure", "--system", "silver-max", "--out", tmp_path,
            "--grid-step", -1,
        )
        assert result.exit_code == 1
        assert not (tmp_path / "density.csv").exists()

    def test_bad_format_value(self, tmp_path):
        result = run(
            "measure", "--system", "silver-max", "--out", tmp_path,
            "--format", "yaml",
        )
        assert result.exit_code == 1

    def test_no_system_given(self, tmp_path):
        result = run("measure", "--out", tmp_path)
        assert result.exit_code == 1
        assert "silver-max" in result.stderr  # the hint lists the builtins

    def test_config_defaults(self):
        cfg = build_config(None)
        assert cfg.fmt == "csv" and cfg.out == "."
        with pytest.raises(ConfigError):
            ExperimentConfig(fmt="xml")
        with pytest.raises(ConfigError):
            ExperimentConfig(tol=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(k_min=2.0, k_max=1.0)

    @pytest.mark.parametrize("field, value", [
        ("tol", math.inf),
        ("grid_step", math.inf),
        ("radii", (100.0, math.inf)),
        ("centers", (0.0, (1.0, -math.inf))),
        ("k_min", -math.inf),
        ("k_max", math.inf),
        ("k_step", math.inf),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match="must be finite"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("args, config", [
        (("weyl", "--system", "silver", "--radius", "inf"), None),
        (("weyl", "--system", "silver"), {"centers": [math.inf]}),
        (("measure", "--system", "silver-max", "--tol", "inf"), None),
    ])
    def test_non_finite_values_exit_1_before_work(self, args, config, tmp_path):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = (*args, "--config", tmp_path / "cfg.json")
        result = run(*args, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()


class TestFieldTypes:
    """A config value of the wrong type is refused by the field's name:
    exit 1, one ``error:`` line, no traceback, nothing written."""

    @pytest.mark.parametrize("config, message", [
        ({"tol": "1e-8"}, "tol must be a number, got '1e-8'"),
        ({"tol": True}, "tol must be a number, got True"),
        ({"k_step": None}, "k_step must be a number, got None"),
        ({"grid_step": [0.01]}, "grid_step must be a number, got [0.01]"),
        ({"terms": None}, "terms must be an integer, got None"),
        ({"radii": [True]}, "radii must be a tuple of numbers, got (True,)"),
        ({"radii": "100"}, "radii must be a tuple of numbers, got '100'"),
        ({"centers": [[0.0, [1.0]]]}, "centers must be a tuple of numbers, got ((0.0, [1.0]),)"),
        ({"out": 5}, "out must be a string, got 5"),
    ])
    def test_exits_1_naming_the_field(self, config, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"system": "silver-max", **config}))
        result = run("fourier", "--config", "cfg.json")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("field, value", [
        ("tol", "1e-8"),
        ("k_min", None),
        ("k_max", False),
        ("out", Path(".")),
        ("radii", [100.0]),
        ("centers", (None,)),
        ("centers", 0.0),
        ("precision", 5.0),
    ])
    def test_construction_checks_each_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            ExperimentConfig(**{field: value})


class TestUsageErrors:
    """A command line the parser refuses is a configuration error: one
    ``error:`` line on stderr, exit 1, nothing written."""

    @pytest.mark.parametrize("args", [
        (),
        ("nope",),
        ("measure", "--bogus"),
        ("measure", "--grid-step", "abc"),
        ("padic", "--system", "silver"),
        ("padic", "--K", "4.5"),
        ("padic", "--K"),
        # a leading "-" with an exponent reads as an option, so the flag has no value
        ("measure", "--system", "silver-max", "--tol", "-1e-8"),
        ("measure", "--system", "silver-max", "--grid-step", "-1e-3"),
        # no prefix matching: the full option name is required
        ("measure", "--sys", "silver-max"),
    ])
    def test_exits_1_with_one_error_line(self, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run(*args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, message", [
        ("--tol=-1e-8", "error: tol must be positive"),
        ("--grid-step=-1e-3", "error: grid step must be positive"),
    ])
    def test_negative_value_after_equals_reaches_validation(self, flag, message, tmp_path):
        result = run("measure", "--system", "silver-max", flag, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.stderr == message + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, out", [
        (("measure", "--system", "silver-max", "--grid-step", "1e-2"), "file"),
        (("attractor", "--system", "silver-max"), "file/sub"),
        (("weyl", "--system", "silver", "--radii", "10"), "x" * 300),  # a name too long
        (("fourier", "--system", "silver-max", "--terms", "5"), "file"),
        (("padic", "--K", "4"), "file/sub"),
    ], ids=["measure-file", "attractor-under-file", "weyl-name-too-long", "fourier-file",
            "padic-under-file"])
    def test_out_that_cannot_be_a_directory_exits_1(self, args, out, tmp_path):
        (tmp_path / "file").write_text("kept\n")
        result = run(*args, "--out", tmp_path / out)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"error: cannot make output directory '{tmp_path / out}': ")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_help_exits_0(self):
        result = run("padic", "--help")
        assert result.exit_code == 0
        assert "--K K" in result.stdout


class TestInlineSystems:
    def test_attractor_from_inline_maps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": inline_silver_spec()}))
        result = run("attractor", "--config", cfg, "--out", tmp_path)
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "attractor_component_1.csv")
        assert abs(rows[0][1] - W2[0]) < 1e-9
        assert abs(rows[0][2] - W1[1]) < 1e-9

    def test_measure_from_inline_family(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"system": inline_silver_spec(), "grid_step": 2e-3})
        )
        result = run("measure", "--config", cfg, "--out", tmp_path)
        assert result.exit_code == 0
        assert "mass 1.000000" in result.stdout

    def test_inline_mc_with_mass_check(self, tmp_path):
        spec = {
            "a": AC,
            "sigma": [
                [
                    {"kind": "uniform", "lo": 0.0, "hi": 2.0 + AC, "mass": 2 * R},
                    {"kind": "uniform", "lo": AC, "hi": -AC, "mass": R},
                ],
                [{"kind": "point", "location": AC, "mass": R}, None],
            ],
            "m": [1.0, R],
            "s": [[2 * R, R], [R, 0.0]],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": spec, "grid_step": 2e-3}))
        result = run("measure", "--config", cfg, "--out", tmp_path)
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "measure.json").read_text())
        assert abs(manifest["masses"][0] - 1.0) < 1e-6

    def test_inline_rejections(self):
        with pytest.raises(ConfigError):
            system_from_spec({"maps": [[[{"t": 0.0}]]]})  # no contraction
        with pytest.raises(ConfigError):
            system_from_spec({"a": 0.5, "family": {"kind": "gaussian"}})
        with pytest.raises(ConfigError):
            system_from_spec({"a": 0.5, "family": {"kind": "uniform", "lo": 0.0}})
        bad_s = {
            "a": AC,
            "sigma": [[{"kind": "uniform", "lo": AC, "hi": -AC, "mass": 1.0}]],
            "s": [[0.9]],
        }
        with pytest.raises(ConfigError):
            system_from_spec(bad_s)

    @pytest.mark.parametrize("seeds", [[[0, 1], [0, 1]], []])
    def test_one_seed_per_component(self, seeds, tmp_path):
        spec = {"a": 0.5, "maps": [[[{"t": 0}]]], "seeds": seeds}
        message = f"expected 1 inline seeds, one per component, got {len(seeds)}"
        with pytest.raises(ConfigError, match=message):
            system_from_spec(spec)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": spec}))
        result = run("attractor", "--config", cfg, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("owner, name, spec", [
        (IntervalSet, "closed", {"a": 0.5, "family": {"kind": "uniform", "lo": 0, "hi": 1}}),
        (measures, "UniformFamily", {"a": 0.5, "family": {"kind": "uniform", "lo": 0, "hi": 1}}),
        (measures, "DiscreteMeasure", {"a": 0.5, "family": {"kind": "point", "location": 0}}),
        (compactsets, "IFSSystem", {"a": 0.5, "maps": [[[{"t": 0}]]]}),
        (IntervalSet, "closed", {"a": 0.5, "maps": [[[{"t": 0}]]], "seeds": [[0, 1]]}),
        (multicomponent, "MCSystem", {"a": 0.5, "sigma": [[{"kind": "point", "location": 0}]]}),
    ], ids=["interval", "uniform", "discrete", "ifs", "seeds", "mc"])
    def test_an_internal_fault_in_a_constructor_is_not_a_config_error(
        self, owner, name, spec, monkeypatch
    ):
        # only the descriptor's own faults are configuration errors
        def broken(*args, **kwargs):
            raise TypeError("internal fault")

        monkeypatch.setattr(owner, name, broken)
        with pytest.raises(TypeError, match="^internal fault$"):
            system_from_spec(spec)

    def test_expanding_inline_maps_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {"a": 1.5, "maps": [[[{"t": 0.0}]]]}}))
        result = run("attractor", "--config", cfg, "--out", tmp_path)
        assert result.exit_code == 1


    @pytest.mark.parametrize(
        "command, spec, message",
        [
            # the system dict: a typo'd key, and the retired spelling of seeds
            ("fourier", {"a": 0.5, "family": {"kind": "point", "location": 0}, "mapz": 1},
             "unknown inline system keys: mapz"),
            ("attractor", {"a": 0.5, "maps": [[[{"t": 0}]]], "windows": [[0, 1]]},
             "unknown inline system keys: windows"),
            ("fourier", {"a": 0.5, "family": TYPO_MASS, "windows": [[0, 1]], "mapz": 1},
             "unknown inline system keys: mapz, windows"),
            # each family kind, alone and as a sigma entry
            ("fourier", {"a": 0.5, "family": TYPO_MASS}, "unknown 'uniform' family spec keys: mas"),
            ("fourier", {"a": 0.5, "family": {"kind": "atoms", "atoms": [[0, 1]], "mass": 1.0}},
             "unknown 'atoms' family spec keys: mass"),
            ("fourier", {"a": 0.5, "family": {"kind": "point", "location": 0, "lo": 0, "hi": 1}},
             "unknown 'point' family spec keys: hi, lo"),
            ("measure", {"a": 0.5, "sigma": [[{"kind": "point", "location": 0, "weight": 1}]]},
             "unknown 'point' family spec keys: weight"),
            # a maps entry
            ("attractor", {"a": 0.5, "maps": [[[{"t": 0}, {"t": 0.5, "b": 0.25}]]]},
             "unknown inline map keys: b"),
        ],
    )
    def test_unknown_inline_keys_are_refused_by_name(self, command, spec, message, tmp_path):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            system_from_spec(spec)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": spec}))
        result = run(command, "--config", cfg, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fourier", "measure"])
    def test_zero_length_uniform_family_rejected(self, command, tmp_path):
        spec = {"a": 0.5, "family": {"kind": "uniform", "lo": 0, "hi": 0}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": spec}))
        result = run(command, "--config", cfg, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.stderr.startswith("error: a uniform family needs hi above lo")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"a": "half", "family": {"kind": "point", "location": 0.0}}, "must be a number"),
            ({"a": [0.5], "family": {"kind": "point", "location": 0.0}}, "must be a number"),
            ({"a": 2.0, "family": {"kind": "point", "location": 0.0}}, "needs 0 < |a| < 1"),
            ({"a": -1.0, "family": {"kind": "point", "location": 0.0}}, "needs 0 < |a| < 1"),
            ({"a": 0.0, "family": {"kind": "point", "location": 0.0}}, "needs 0 < |a| < 1"),
            ({"a": 0.5, "family": {"kind": "uniform", "lo": 0, "hi": 1, "mass": 0.5}}, "mass 1"),
            ({"a": 0.5, "family": {"kind": "atoms", "atoms": [[0, 0.5], [1, 0.4]]}}, "mass 1"),
            ({"a": 0.5, "sigma": [[{"kind": "point", "location": 0}]], "m": [1.0, 2.0]},
             "bad inline sigma or m: mass vector m has 2 entries but sigma is 1 x 1"),
        ],
    )
    def test_inline_configuration_faults_are_config_errors(self, spec, message, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(message)):
            system_from_spec(spec)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": spec}))
        for command in ("measure", "fourier"):
            result = run(command, "--config", cfg, "--out", tmp_path / "out")
            assert result.exit_code == 1
            assert result.stderr.startswith("error:") and message in result.stderr

    @pytest.mark.parametrize(
        "command, config",
        [
            ("weyl", {"system": "silver", "radii": ["x"]}),
            ("measure", {"system": "silver-max", "max_iter": 2.5}),
            ("fourier", {"system": "silver-max", "terms": 2.5}),
            ("padic", {"precision": 4.5}),
            ("measure", {"system": {"a": 0.5, "sigma": 3}}),
            ("measure", {"system": {"a": 0.5, "sigma": [[{"kind": "point", "location": 0}]], "m": ["x"]}}),
            ("measure", {"system": {"a": 0.5, "sigma": [[{"kind": "point", "location": 0}]], "s": 5}}),
            # non-finite numbers anywhere in an inline system
            ("fourier", {"system": {"a": INF, "family": {"kind": "point", "location": 0}}}),
            ("fourier", {"system": {"a": NAN, "family": {"kind": "point", "location": 0}}}),
            ("fourier", {"system": {"a": 0.5, "family": {"kind": "atoms", "atoms": [[INF, 1.0]]}}}),
            ("fourier", {"system": {"a": 0.5, "family": {"kind": "atoms", "atoms": [[0, NAN]]}}}),
            ("fourier", {"system": {"a": 0.5, "family": {"kind": "uniform", "lo": 0, "hi": INF}}}),
            ("fourier", {"system": {"a": 0.5, "family": {"kind": "uniform", "lo": -INF, "hi": 0}}}),
            ("fourier", {"system": {"a": 0.5, "family": {"kind": "uniform", "lo": 0, "hi": 1,
                                                          "mass": INF}}}),
            ("fourier", {"system": {"a": 0.5, "family": {"kind": "point", "location": NAN}}}),
            ("fourier", {"system": {"a": 0.5, "family": {"kind": "point", "location": 0,
                                                          "mass": NAN}}}),
            ("attractor", {"system": {"a": 0.5, "maps": [[[{"t": INF}, {"t": 1.0}]]]}}),
            ("attractor", {"system": {"a": 0.5, "maps": [[[{"t": 0.0, "a": NAN}, {"t": 1.0}]]]}}),
            ("attractor", {"system": {"a": 0.5, "maps": [[[{"t": 0.0}, {"t": 1.0}]]],
                                      "seeds": [[0, INF]]}}),
            ("measure", {"system": {"a": 0.5, "sigma": [[UNIFORM]], "m": [NAN]}}),
            ("measure", {"system": {"a": 0.5, "sigma": [[UNIFORM]], "m": [INF]}}),
            ("measure", {"system": {"a": 0.5, "sigma": [[UNIFORM]], "s": [[NAN]]}}),
            # a family kind that is not a string
            ("fourier", {"system": {"a": 0.5, "family": {"kind": ["point"], "location": 0}}}),
        ],
    )
    def test_malformed_config_values_are_config_errors(self, command, config, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = run(command, "--config", cfg, "--out", tmp_path / "out")
        assert result.exit_code == 1
        assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("library fault")

        monkeypatch.setattr(measures, "fourier_hat", broken)
        result = run("fourier", "--system", "silver-max", "--out", tmp_path)
        assert isinstance(result.exception, ValueError)
        assert "error:" not in result.stderr


def template_csv(g):
    # every node's row through one "%.17g" template, x varying fastest
    mesh = np.meshgrid(*g._node_axes()[::-1], indexing="ij")[::-1]
    columns = [c.ravel().tolist() for c in (*mesh, g.values)]
    template = ",".join(["%.17g"] * (g.dim + 1))
    header = ",".join([*"xyz"[: g.dim], "density"])
    lines = [template % row for row in zip(*columns)]
    return ("\n".join([header, *lines]) + "\n").encode()


def grid_cases():
    rng = np.random.default_rng(7)
    tiny = np.nextafter(0.0, 1.0)
    yield "line", GridDensity(-5, 0.05, rng.uniform(0, 2, 37))
    yield "plane", GridDensity((-8, 4), 0.125, rng.uniform(0, 1, (9, 13)))
    yield "space", GridDensity((100, -200, 300), 1e-3, rng.uniform(0, 1, (3, 4, 5)))
    signed = np.array([[0.0, -0.0, 1.5, -0.0], [0.0, 0.0, -0.0, 1.5]])
    yield "signed-zeros", GridDensity((0, 0), 0.5, signed)
    yield "repeats", GridDensity(0, 0.25, np.tile([0.0, 1 / 3, 2 / 3, 1 / 3], 6))
    subnormals = np.array([tiny, 5 * tiny, 0.0, np.finfo(float).smallest_normal, tiny])
    yield "subnormal", GridDensity(1, 1.0, subnormals)
    yield "one-node-line", GridDensity(3, 0.1, np.array([4.5]))
    yield "one-node-plane", GridDensity((3, -7), 0.1, np.array([[4.5]]))
    # a step with no short decimal, so no node coordinate has one either
    yield "seventh-step", GridDensity((87, -2), 1 / 7, rng.uniform(0, 1, (6, 5)))
    yield "strided", GridDensity(0, 0.5, rng.uniform(0, 1, 20)[::3])
    # more distinct densities than one formatter chunk, in the fixed form
    # and with two- and three-digit exponents
    exponents = np.concatenate([rng.integers(-6, 19, 10000), rng.integers(-320, 300, 10000)])
    dense = rng.uniform(1, 10, 20000) * 10.0 ** exponents
    dense[:3] = 0.0, tiny, 1e-300
    yield "dense", GridDensity((-40, 7), 0.01, dense.reshape(125, 160))
    # each side of the switches between the fixed form and the exponent
    # form at 1e-05 and 1e+17, and of the last fixed width at 1e+16, with
    # the nines that round up to the next power
    powers = np.array([1e-5, 1e-4, 1e16, 1e17, 9.99999999999999995e-5, 9.9999999999999999e16])
    edges = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    edges = np.concatenate([edges, [0.0, -0.0, tiny, 3 * tiny, 1.2345678901234567e-5, 2.5e16]])
    yield "layout-edges-line", GridDensity(-3, 0.5, edges)
    yield "layout-edges-plane", GridDensity((2, -2), 0.5, edges.reshape(4, 6))
    # exact ties of 18 significant digits: "%.17g" rounds them to even, and
    # the vectorized formatter leaves them to it
    ties = 1 + np.arange(1, 121, 2) * 2.0**-17
    ties[::7] = -0.0
    yield "ties-line", GridDensity(0, 0.125, ties)
    yield "ties-plane", GridDensity((0, 0), 0.125, ties.reshape(6, 10))
    # lines over several blocks, the last one partial, and a block boundary
    # inside an x-row
    many = rng.uniform(0, 1, 2 * float17.BLOCK + 123)
    many[::1000] = -0.0
    yield "blocks-line", GridDensity(-17, 1e-3, many)
    yield "blocks-plane", GridDensity((5, -9), 0.02, many[: 170 * 193].reshape(170, 193))


class TestGridWriter:
    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in grid_cases()])
    def test_csv_bytes_equal_row_template(self, tmp_path, g):
        path = _write_grid(g, tmp_path / "density", "csv")
        assert path.name == "density.csv"
        assert path.read_bytes() == template_csv(g)


# every command, each writing one or more files
ANNOUNCED_RUNS = [
    ("attractor", "--system", "silver-mc"),
    ("attractor", "--system", "ammann-beenker"),
    ("measure", "--system", "silver-max", "--grid-step", "1e-2"),
    ("measure", "--system", "silver-mc-max", "--grid-step", "1e-2"),
    ("fourier", "--system", "silver-max", "--terms", "5"),
    ("weyl", "--system", "silver", "--radii", "10,20"),
    ("padic", "--K", "4"),
]


class TestAnnouncedFiles:
    """Each written file is announced by one ``wrote <path>`` line, printed
    by the writer as the file is written."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args", ANNOUNCED_RUNS, ids=lambda args: f"{args[0]}-{args[2]}")
    def test_once_each_in_write_order(self, args, fmt, tmp_path, monkeypatch):
        # for each file opened for writing: the wrote lines run() captured before it
        opened, open_ = [], Path.open

        def spy(path, mode="r", *rest, **kwargs):
            if "w" in mode:
                opened.append((str(path), sys.stdout.getvalue().count("wrote ")))
            return open_(path, mode, *rest, **kwargs)

        monkeypatch.setattr(Path, "open", spy)
        out = tmp_path / "out"
        result = run(*args, "--format", fmt, "--out", out)
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        wrote = [line[len("wrote "):] for line in lines if line.startswith("wrote ")]
        assert wrote == [path for path, _ in opened]
        assert [before for _, before in opened] == list(range(len(opened)))
        assert sorted(wrote) == sorted(str(p) for p in out.iterdir())

    def test_the_writers_announce_their_files(self, tmp_path, capsys):
        cli._write_csv(tmp_path / "a.csv", "x", [b"1\n"])
        cli._write_json(tmp_path / "b.json", {"x": 1})
        g = GridDensity(0, 0.5, np.array([1.0, 0.0, 1.0]))
        paths = [_write_grid(g, tmp_path / "grid", fmt) for fmt in ("csv", "json")]
        expected = [tmp_path / "a.csv", tmp_path / "b.json", *paths]
        assert capsys.readouterr().out == "".join(f"wrote {p}\n" for p in expected)


class TestDeterminism:
    def test_attractor_bytes_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            assert run("attractor", "--system", "silver-mc", "--out", out).exit_code == 0
        for name in ("attractor_component_1.csv", "attractor_component_2.csv", "convergence.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_measure_bytes_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            args = ("measure", "--system", "silver-max", "--out", out,
                    "--grid-step", 2e-3, "--format", "json")
            assert run(*args).exit_code == 0
        assert (out1 / "density.json").read_bytes() == (out2 / "density.json").read_bytes()


def _quadrat_behaviour(tmp_path):
    q = QuadRat(6, -4, 2)
    assert q == QuadRat(3, -2) and hash(q) == hash(QuadRat(3, -2, 1))
    assert hash(QuadRat(1, 0, 2)) == hash(Fraction(1, 2))
    assert repr(QuadRat(1, 2, 3)) == "QuadRat(a=1, b=2, den=3)"
    with pytest.raises(AttributeError):
        q.a = 1
    assert (q.a, q.b, q.den) == (3, -2, 1)
    assert pickle.loads(pickle.dumps(q)) == q and copy.deepcopy(q) == q


def _weyl_row_behaviour(tmp_path):
    row = (10.0, (0.5, -1.0), 0.25, 0.5, 0.25)
    assert modelsets.WeylRow(*row) == modelsets.WeylRow(*row)
    assert modelsets.WeylRow(*row) != modelsets.WeylRow(11.0, *row[1:])
    result = run("weyl", "--system", "silver", "--radii", "10", "--format", "json",
                 "--out", tmp_path)
    assert result.exit_code == 0, result.output
    rows = json.loads((tmp_path / "weyl.json").read_text())["rows"]
    assert [sorted(r) for r in rows] == [["abs_error", "average", "center", "limit", "radius"]]


def _config_behaviour(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "silver-max", "stepsize": 1, "tolerance": 2}))
    with pytest.raises(ConfigError, match=r"^unknown config keys: stepsize, tolerance$"):
        build_config(str(cfg))
    assert build_config(None, system="point").system == "point"


@pytest.mark.parametrize("check", [_quadrat_behaviour, _weyl_row_behaviour, _config_behaviour],
                         ids=["QuadRat", "WeylRow", "ExperimentConfig"])
def test_records_keep_their_behaviour(check, tmp_path):
    # what callers rely on of the records they compare, hash or print
    check(tmp_path)


ROOT = Path(__file__).resolve().parent.parent


def fresh_modules(code: str, cwd, executed_only: bool = False) -> list:
    """Names in sys.modules after running ``code`` in a fresh interpreter
    against this checkout's src, however the code exits.  With
    ``executed_only``, a module registered by ``selfsim._lazy_module`` and
    never used (still of the loader's lazy module type) is left out.  The
    names are listed before the script imports json to print them, so
    json is among them only if the code imported it."""
    names = "(n for n, m in sys.modules.items() if type(m).__name__ != '_LazyModule')" \
        if executed_only else "sys.modules"
    script = f"import sys\ntry:\n{textwrap.indent(code, '    ')}\nfinally:\n" \
             f"    names = sorted({names})\n    import json\n    print(json.dumps(names))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def executed(modules, package: str) -> list:
    """The submodules of ``package`` that were imported.  A lazily loaded
    package may sit in sys.modules unexecuted, but executing it imports
    its submodules (numpy._core and the like)."""
    return [m for m in modules if m.startswith(package + ".")]


def test_cli_import_loads_no_scipy(tmp_path):
    modules = fresh_modules("import selfsim.cli", tmp_path)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("args", [
    (),
    ("attractor", "--system", "silver-max"),
    ("attractor", "--system", "silver-mc-min"),
    ("attractor", "--system", "ammann-beenker"),
    ("padic", "--K", "4"),
], ids=["import", "silver-max", "silver-mc-min", "ammann-beenker", "padic"])
def test_exact_commands_never_execute_numpy(args, tmp_path):
    code = "import selfsim.cli"
    if args:
        code += f"\nselfsim.cli.main({list(args)!r})"
    modules = fresh_modules(code, tmp_path)
    assert executed(modules, "numpy") == []
    assert "click" not in modules
    # records are plain classes: nothing imports dataclasses, which pulls in
    # inspect, ast, dis and tokenize and execs the generated methods
    assert "dataclasses" not in modules and "inspect" not in modules


@pytest.mark.parametrize("args", [
    ("measure", "--system", "silver-max", "--grid-step", "1e-2"),
    ("fourier", "--system", "silver-max", "--terms", "5"),
    ("weyl", "--system", "silver", "--radii", "10"),
], ids=["measure", "fourier", "weyl"])
def test_numpy_commands_never_import_click(args, tmp_path):
    code = f"import selfsim.cli\nselfsim.cli.main({list(args)!r})"
    modules = fresh_modules(code, tmp_path)
    assert "click" not in modules
    # numpy imports inspect itself, so only dataclasses is checked here
    assert "dataclasses" not in modules


def test_padic_executes_only_its_own_layer(tmp_path):
    code = "import selfsim.cli\nselfsim.cli.main(['padic', '--K', '4'])"
    ran = fresh_modules(code, tmp_path, executed_only=True)
    assert [m for m in ran if m.startswith("selfsim.")] == [
        "selfsim.cli", "selfsim.commands", "selfsim.commands.output", "selfsim.commands.padic",
        "selfsim.errors", "selfsim.padic",
    ]
    assert "numpy" not in ran
    assert "json" not in ran
    assert executed(ran, "numpy") == []


# the selfsim modules each command executes, and so compiles where no
# bytecode cache is written: the modules are cut along the commands, so a
# line run executes neither the plane's polygons nor the inline parser,
# measure, fourier and weyl not the attractor engine, only weyl the lattice
# enumerators, weyl not the solvers of measures (only the lattice grids), only
# the coupled silver builtins the substitution layer their families come from,
# and each command only its own body of selfsim.commands
# (padic: test_padic_executes_only_its_own_layer)
@pytest.mark.parametrize("args, modules", [
    ((), ["cli", "errors"]),
    (("attractor", "--system", "silver-max"),
     ["cli", "commands", "commands.attractor", "commands.output", "compactsets", "core", "errors",
      "systems"]),
    (("attractor", "--system", "silver-mc-min"),
     ["cli", "commands", "commands.attractor", "commands.output", "compactsets", "core", "errors",
      "substitutions", "systems"]),
    (("attractor", "--system", "ammann-beenker"),
     ["cli", "commands", "commands.attractor", "commands.output", "compactsets", "core", "errors",
      "polygons", "systems"]),
    (("measure", "--system", "silver-max", "--grid-step", "1e-2"),
     ["cli", "commands", "commands.measure", "commands.output", "core", "errors", "float17", "grids",
      "measures", "systems"]),
    (("measure", "--system", "silver-mc-max", "--grid-step", "1e-2", "--format", "json"),
     ["cli", "commands", "commands.measure", "commands.output", "core", "errors", "grids", "measures",
      "multicomponent", "substitutions", "systems"]),
    (("fourier", "--system", "silver-max", "--terms", "5"),
     ["cli", "commands", "commands.fourier", "commands.output", "core", "errors", "grids", "measures",
      "systems"]),
    (("weyl", "--system", "silver", "--radii", "10"),
     ["cli", "commands", "commands.output", "commands.weyl", "core", "errors", "grids", "modelsets",
      "numberfields", "systems"]),
], ids=["import", "attractor", "attractor-mc", "attractor-planar", "measure", "measure-mc",
        "fourier", "weyl"])
def test_each_command_executes_only_the_modules_it_runs(args, modules, tmp_path):
    code = "import selfsim.cli"
    if args:
        code += f"\nselfsim.cli.main({[*args, '--out', 'out']!r})"
    ran = fresh_modules(code, tmp_path, executed_only=True)
    assert [m[len("selfsim."):] for m in ran if m.startswith("selfsim.")] == modules
    if not args:
        assert "json" not in ran


@pytest.mark.parametrize("args, skipped", [
    (("measure", "--system", "ammann-beenker", "--grid-step", "0.05"), "selfsim.modelsets"),
    (("weyl", "--system", "ammann-beenker", "--radii", "5"), "selfsim.multicomponent"),
    (("weyl", "--system", "silver-mc-min"), "selfsim.multicomponent"),
], ids=["measure-planar", "weyl-planar", "weyl-refused"])
def test_each_command_builds_only_its_own_facets(args, skipped, tmp_path):
    # a builtin builds its measure facets and its Weyl facets apart; the
    # refused run exits 1 as it reads the scheme
    code = f"import selfsim.cli\ntry:\n    selfsim.cli.main({list(args)!r})\nexcept SystemExit:\n    pass"
    ran = fresh_modules(code, tmp_path, executed_only=True)
    assert "selfsim.systems" in ran
    assert skipped not in ran


@pytest.mark.parametrize("args", [
    ("weyl", "--system", "ammann-beenker", "--radii", "5"),
    ("measure", "--system", "silver-max", "--grid-step", "1e-2"),
], ids=["weyl-planar", "measure-line"])
def test_measure_and_weyl_build_no_attractor_facets(args, tmp_path):
    # the set-level IFS and the seeds (on the plane, the exact image of the
    # window that is the translation region) are built on first read alone
    code = textwrap.dedent(f"""\
        import json
        import selfsim.cli
        from selfsim.compactsets import IFSSystem
        from selfsim.polygons import ConvexPolygon
        built = []
        def spy(cls, name):
            real = getattr(cls, name)
            def wrapper(*args, **kwargs):
                built.append(cls.__name__ + "." + name)
                return real(*args, **kwargs)
            setattr(cls, name, wrapper)
        spy(IFSSystem, "__init__")
        spy(ConvexPolygon, "linear_image")
        selfsim.cli.main({list(args)!r})
        print(json.dumps(built))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("args, formats", [
    (("attractor", "--system", "silver-max"), False),
    (("fourier", "--system", "silver-max", "--terms", "5"), False),
    (("weyl", "--system", "silver", "--radii", "10"), False),
    (("measure", "--system", "silver-max", "--grid-step", "1e-2", "--format", "json"), False),
    (("measure", "--system", "silver-max", "--grid-step", "1e-2"), True),
], ids=["attractor", "fourier", "weyl", "measure-json", "measure-csv"])
def test_only_the_grid_csv_writer_executes_the_formatter(args, formats, tmp_path):
    code = f"import selfsim.cli\nselfsim.cli.main({list(args)!r})"
    ran = fresh_modules(code, tmp_path, executed_only=True)
    assert ("selfsim.float17" in ran) == formats


def test_cantor_attractor_is_not_quadratic_in_its_pieces(tmp_path):
    # the middle-thirds Cantor set has 2^k intervals at step k; a Hausdorff
    # distance that scanned all of V for each point of U took ~70 s here
    spec = {"a": 1 / 3, "maps": [[[{"t": 0}, {"t": 2 / 3}]]], "seeds": [[0, 1]]}
    (tmp_path / "cantor.json").write_text(json.dumps({"system": spec}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["attractor", "--config", "cantor.json", "--max-iter", "13", "--out", "out"]
    proc = subprocess.run([sys.executable, "-m", "selfsim.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: attractor iteration did not reach tol=1e-12 in 13 steps")


def test_version_from_source_checkout(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "selfsim.cli", "--version"], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"selfsim, version {selfsim.__version__}\n"
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == selfsim.__version__


# a command's process entry runs with the cyclic collector off; the probe
# reports the collector's state once the run has ended, at interpreter exit
GC_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print("gc", gc.isenabled(), gc.get_freeze_count(), file=sys.stderr))
"""


@pytest.mark.parametrize("args, code", [
    (("padic", "--K", "4"), 0),
    (("measure", "--system", "silver-max", "--grid-step", "1e-2"), 0),
    (("attractor", "--system", "no-such-system"), 1),
    (("padic", "--K", "13"), 3),
], ids=["exact", "numpy", "exit-1", "exit-3"])
def test_process_entry_runs_without_the_collector(args, code, tmp_path):
    (tmp_path / "probe").mkdir()
    (tmp_path / "probe" / "sitecustomize.py").write_text(GC_PROBE)
    env = {**os.environ, "PYTHONPATH": f"{tmp_path / 'probe'}{os.pathsep}{ROOT / 'src'}"}
    proc = subprocess.run([sys.executable, "-m", "selfsim.cli", *args, "--out", "out"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    probe, enabled, frozen = proc.stderr.splitlines()[-1].split()
    assert (probe, enabled) == ("gc", "False")
    assert int(frozen) > 0


@pytest.mark.parametrize("args, code", [
    (("padic", "--K", "4"), 0),
    (("padic", "--K", "13"), 3),
    (("measure", "--bogus"), 1),
], ids=["exit-0", "exit-3", "usage-error"])
def test_main_leaves_the_collector_as_it_found_it(args, code, tmp_path):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert run(*args, "--out", tmp_path).exit_code == code
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


# what a command leaves for the cyclic collector: argparse's parser and
# numpy's import, about 300 and 700 objects on Python 3.11
CYCLIC_GARBAGE_BOUND = 2000


@pytest.mark.parametrize("small, large", [
    (("padic", "--K", "4"), ("padic", "--K", "8")),
    (("measure", "--system", "silver-max", "--grid-step", "1e-2"),
     ("measure", "--system", "silver-max", "--grid-step", "1e-3")),
], ids=["padic", "measure"])
def test_cyclic_garbage_does_not_grow_with_the_run(small, large, tmp_path):
    # the process entry never collects: what is left unreachable in cycles
    # must be a fixed few hundred objects, whatever the size of the run
    counts = []
    for args in (small, large):
        code = textwrap.dedent(f"""\
            import gc, sys
            gc.disable()
            import selfsim.cli
            selfsim.cli.main({[*args, "--out", "out"]!r})
            print(gc.collect())
        """)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout.splitlines()[-1]))
    assert counts[0] == counts[1]
    assert counts[0] < CYCLIC_GARBAGE_BOUND


def test_console_script_is_the_process_entry():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^selfsim = "(.*)"$', pyproject, re.M).group(1) == "selfsim.cli:run"
    assert callable(cli.run)


def test_runs_without_docstrings(tmp_path):
    # python -OO strips the docstrings the parser takes its help text from
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-OO", "-m", "selfsim.cli", "padic", "--K", "4"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("PASS: densities equal 9 on the residues 1, 3, 0 mod 9\n")


def test_tracer_contract_after_cli_import(tmp_path):
    # perfbench imports selfsim.cli, then finds every traced module in
    # sys.modules and rebinds the wrapped functions by name
    code = f"""\
import selfsim.cli
sys.path.insert(0, {str(ROOT / "perfbench")!r})
from layers import WRAPPED, install_all, summarize
from tracing import Tracer
names = ("cli", "systems", "numberfields", "modelsets", "compactsets",
         "measures", "multicomponent", "padic")
missing = [n for n in names if "selfsim." + n not in sys.modules]
assert not missing, missing
for module, func, _, _ in WRAPPED:
    assert callable(getattr(sys.modules[module], func)), (module, func)
tracer = Tracer()
install_all(tracer)
selfsim.cli.main.main(["measure", "--system", "silver-max", "--grid-step", "4e-3"],
                      standalone_mode=False)
calls = summarize(tracer)["calls"]
assert calls["systems.builtin"] == 1, calls
assert calls["measures.solve_density"] == 1, calls
assert calls["measures.convolve_grids"] > 0, calls
assert calls["cli._write_grid"] == 1, calls
"""
    modules = fresh_modules(code, tmp_path)
    assert executed(modules, "numpy")


@pytest.mark.parametrize("system, radius, enumerator", [
    ("silver", "40", "enumerate_quad_range"),
    ("ammann-beenker", "5", "enumerate_cyclo_box"),
])
def test_tracer_contract_over_weyl(system, radius, enumerator, tmp_path):
    # the traced benchmark counts weyl's lattice points by the rows that the
    # wrapped enumeration and projection return; a second tracer, installed
    # first, records those rows as the functions return them
    code = f"""\
import selfsim.cli
sys.path.insert(0, {str(ROOT / "perfbench")!r})
from layers import install_all, summarize
from tracing import Tracer
returned = {{}}
def record(span, args, kwargs, result):
    returned[span.name] = returned.get(span.name, 0) + result.shape[0]
recorder = Tracer()
for module, func in (("numberfields", {enumerator!r}), ("modelsets", "project_points")):
    assert recorder.install("selfsim." + module, func, record) > 0, func
tracer = Tracer()
install_all(tracer)
selfsim.cli.main.main(["weyl", "--system", {system!r}, "--radii", {radius!r}, "--out", "out"],
                      standalone_mode=False)
summary = summarize(tracer)
calls = summary["calls"]
for name in ("numberfields." + {enumerator!r}, "modelsets.project_points",
             "modelsets.weyl_average"):
    assert calls[name] == 1, calls
candidates = returned["numberfields." + {enumerator!r}]
assert summary["numberfields.candidates"] == candidates > 0, (summary, returned)
kept = returned["modelsets.project_points"]
assert summary["modelsets.points_kept"] == kept > 0, (summary, returned)
"""
    fresh_modules(code, tmp_path)
