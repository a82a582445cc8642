"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each wrapped function belongs to one metric group; a group's time is the
sum of its spans' self times, so nested calls inside one group (``_write_grid``
calling ``_write_csv``, ``padic_maximal_family`` recursing) are not counted
twice.  Counts come from span attributes set by the hooks below, or from the
span tree after the run.
"""

from __future__ import annotations

from pathlib import Path

from tracing import Tracer


def _size(metric):
    def hook(span, args, kwargs, result):
        span.attrs[metric] = int(result.values.size)
    return hook


def _length(metric):
    def hook(span, args, kwargs, result):
        span.attrs[metric] = len(result)
    return hook


def _path(span, args, kwargs, result):
    span.attrs["path"] = str(args[0] if args else kwargs["path"])


def _iterations(span, args, kwargs, result):
    span.attrs["compactsets.iterations"] = int(result[1])


def _components(span, args, kwargs, result):
    span.attrs["components"] = int(result.n)


# (module, function, metric group, hook)
WRAPPED = (
    ("selfsim.cli", "_write_csv", "cli.write", _path),
    ("selfsim.cli", "_write_json", "cli.write", _path),
    ("selfsim.cli", "_write_grid", "cli.write", None),
    ("selfsim.systems", "builtin", "systems.build", None),
    ("selfsim.numberfields", "enumerate_quad_range", "numberfields.enumerate", _length("numberfields.candidates")),
    ("selfsim.numberfields", "enumerate_cyclo_box", "numberfields.enumerate", _length("numberfields.candidates")),
    ("selfsim.modelsets", "project_points", "modelsets.project", _length("modelsets.points_kept")),
    ("selfsim.modelsets", "weyl_average", "modelsets.weyl_avg", None),
    ("selfsim.compactsets", "hausdorff_distance", "compactsets.hausdorff", None),
    ("selfsim.compactsets", "iterate_attractor", "compactsets.iterate", _iterations),
    ("selfsim.measures", "raster_polygon", "measures.raster", _size("measures.raster_cells")),
    ("selfsim.measures", "raster_interval_set", "measures.raster", _size("measures.raster_cells")),
    ("selfsim.measures", "pushforward", "measures.pushforward", None),
    ("selfsim.measures", "convolve_grids", "measures.convolve", _size("measures.convolve_cells")),
    ("selfsim.measures", "add_grids", "measures.align", None),
    ("selfsim.measures", "l1_distance", "measures.align", None),
    ("selfsim.measures", "snap_to_lattice", "measures.align", None),
    ("selfsim.measures", "shift_grid", "measures.align", None),
    ("selfsim.measures", "solve_density", "measures.solve", None),
    ("selfsim.measures", "fourier_hat", "measures.fourier", None),
    ("selfsim.multicomponent", "solve_mc_density", "multicomponent.solve", _components),
    ("selfsim.padic", "padic_convolve", "padic.convolve", None),
    ("selfsim.padic", "padic_maximal_family", "padic.family", None),
    ("selfsim.padic", "solve_padic_system", "padic.solve", None),
)

GROUP_OF = {f"{mod.split('.', 1)[1]}.{fn}": group for mod, fn, group, _ in WRAPPED}
GROUPS = tuple(dict.fromkeys(group for _, _, group, _ in WRAPPED))


def install_all(tracer: Tracer) -> None:
    """Wrap every function in ``WRAPPED``; ``selfsim.cli`` must be imported."""
    for module, func, _, hook in WRAPPED:
        if tracer.install(module, func, hook) == 0:
            raise RuntimeError(f"{module}.{func} was not rebound anywhere")


def file_counts(paths) -> tuple[int, int]:
    """Bytes written, and data rows of the CSV files among them (lines
    after the header), for the final state of each written file."""
    total_bytes = rows = 0
    for p in dict.fromkeys(paths):
        data = Path(p).read_bytes()
        total_bytes += len(data)
        if p.endswith(".csv"):
            rows += max(data.count(b"\n") - 1, 0)
    return total_bytes, rows


# Count metrics summed from span attributes set by the hooks above.
ATTR_COUNTS = (
    "numberfields.candidates",
    "modelsets.points_kept",
    "compactsets.iterations",
    "measures.raster_cells",
    "measures.convolve_cells",
)

# Count metrics that are the number of calls of one function.
CALL_COUNTS = {
    "compactsets.hausdorff_calls": "compactsets.hausdorff_distance",
    "measures.pushforward_calls": "measures.pushforward",
    "measures.convolve_calls": "measures.convolve_grids",
    "measures.fourier_calls": "measures.fourier_hat",
    "padic.convolve_calls": "padic.padic_convolve",
}


def summarize(tracer: Tracer) -> dict:
    """Per-layer self times (s), counts and calls per wrapped function over
    every span recorded."""
    self_times = tracer.self_times()
    out = {f"{group}_s": 0.0 for group in GROUPS}
    out.update({name: 0 for name in ATTR_COUNTS})
    out["measures.solve_iters"] = out["multicomponent.iters"] = 0
    calls = {name: 0 for name in GROUP_OF}
    written = []
    for k, span in enumerate(tracer.spans):
        out[GROUP_OF[span.name] + "_s"] += self_times[k]
        calls[span.name] += 1
        for key in ATTR_COUNTS:
            out[key] += span.attrs.get(key, 0)
        if "path" in span.attrs:
            written.append(span.attrs["path"])
        if span.name == "measures.solve_density":
            out["measures.solve_iters"] += tracer.descendants_named(k, "measures.convolve_grids")
        elif span.name == "multicomponent.solve_mc_density" and "components" in span.attrs:
            # one pushforward per component per iteration
            pushes = tracer.descendants_named(k, "measures.pushforward", direct=True)
            out["multicomponent.iters"] += pushes // span.attrs["components"]
    out["cli.bytes_written"], out["cli.rows_written"] = file_counts(written)
    candidates = out["numberfields.candidates"]
    out["modelsets.keep_ratio"] = out["modelsets.points_kept"] / candidates if candidates else 0.0
    out.update({metric: calls[name] for metric, name in CALL_COUNTS.items()})
    out["calls"] = calls
    return out
