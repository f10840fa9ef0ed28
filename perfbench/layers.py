"""Outside-in layer tracing.

Each layer is timed by wrapping its public function where the calling module
looks it up (``estimators.evaluate_grid``, ``topology.marching_segments``, ...),
so nothing under ``src/`` changes.  Spans nest: a layer's self time is its
span's duration minus the time of the traced spans it called.  Time inside a
workload call that no span covers is reported as ``estimators.untraced_s``;
it is the batch-loop overhead between layers.

Installing the wrappers fails loudly when a site is missing or no longer holds
the layer's function, and ``require`` fails when a workload did not pass
through a site it must use, so a refactor breaks the trace instead of silently
dropping a layer.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import defaultdict

# Jet grids evaluate_grid fills per order: value, +2 first, +3 second derivatives.
_JET_GRIDS = {0: 1, 1: 3, 2: 6}


class TraceBroken(RuntimeError):
    """A wrap site is missing, holds another function, or was never reached."""


def _grid_work(stats, bound, out):
    nodes = out.values.size
    pairs = len(bound.arguments["s"].pair_weights)
    stats["nodes"] += nodes
    # computed from the separable scheme: one (nx, 2m) @ (2m, ny) product
    # per jet grid, not counted by the program
    stats["madds"] += nodes * 2 * pairs * _JET_GRIDS[bound.arguments["order"]]


def _batch_work(stats, bound, out):
    stats["points"] += len(bound.arguments["pts"])


def _plane_work(stats, bound, out):
    stats["nodes"] += bound.arguments["g"].values.size


def _segment_work(stats, bound, out):
    stats["segments"] += len(out[0])


def _flip_work(stats, bound, out):
    stats["flips"] += out[0] if isinstance(out, tuple) else out


# layer -> (calling modules that look its function up, counter, counted units)
LAYERS = {
    "measures.antipodal_pairs": (["fields", "stability"], None, {}),
    "fields.sample": (["estimators", "arithmetic", "fields"], None, {}),
    "fields.inject_sample": (["stability"], None, {}),
    "arithmetic.sample_torus_wave": (["arithmetic"], None, {}),
    "fields.evaluate_grid": (["estimators", "stability", "topology"], _grid_work,
                             {"nodes": "count", "madds": "madd-computed"}),
    "fields.evaluate_batch": (["topology"], _batch_work, {"points": "count"}),
    "topology.count_components_plane": (["estimators", "stability"],
                                        _plane_work, {"nodes": "count"}),
    "topology.marching_segments": (["topology"], _segment_work,
                                   {"segments": "count"}),
    "topology.count_components_torus": (["estimators"], None, {}),
    "topology.count_flips": (["topology"], _flip_work,
                             {"flips": "count", "useful_ratio": "ratio"}),
    "stability.coupled_sample": (["stability"], None, {}),
}


def _metric_units() -> dict:
    units = {}
    for layer, (_, _, counts) in LAYERS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units.update({f"{layer}.{key}": unit for key, unit in counts.items()})
    units.update({"estimators.untraced_s": "s", "trace.overhead_ratio": "ratio",
                  "trace.coverage": "ratio"})
    return units


# Per-layer metrics reported for one workload call: name -> unit.
METRICS = _metric_units()


class Tracer:
    """Aggregated spans of one workload call."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.site_calls = defaultdict(int)
        self.covered = 0.0      # time inside outermost spans
        self._children = []     # child-span time of each open span

    def _wrap(self, layer, site, fn, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += duration
                else:
                    self.covered += duration
                stats = self.stats[layer]
                stats["calls"] += 1
                stats["self_s"] += duration - child
                self.site_calls[site] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(stats, bound, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore it."""
        plan = []
        for layer, (callers, counter, _) in LAYERS.items():
            owner_name, attr = layer.split(".")
            owner = importlib.import_module(f"nodalfields.{owner_name}")
            original = getattr(owner, attr, None)
            if original is None:
                raise TraceBroken(f"nodalfields.{owner_name} has no {attr}")
            for caller_name in callers:
                caller = importlib.import_module(f"nodalfields.{caller_name}")
                if getattr(caller, attr, None) is not original:
                    raise TraceBroken(
                        f"nodalfields.{caller_name}.{attr} is not {layer}; "
                        "update the wrap sites in perfbench/layers.py")
                plan.append((caller, attr, layer, f"{caller_name}.{attr}",
                             original, counter))
        try:
            for caller, attr, layer, site, original, counter in plan:
                setattr(caller, attr, self._wrap(layer, site, original, counter))
            yield self
        finally:
            for caller, attr, _, _, original, _ in plan:
                setattr(caller, attr, original)

    def require(self, sites):
        missed = [site for site in sites if self.site_calls[site] == 0]
        if missed:
            raise TraceBroken(f"workload never reached {', '.join(missed)}; "
                              "update the wrap sites in perfbench/layers.py")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the call, given its traced wall time."""
        out = {name: 0.0 for name in METRICS}
        for layer, stats in self.stats.items():
            for key, value in stats.items():
                out[f"{layer}.{key}"] = value
        points = out["fields.evaluate_batch.points"]
        if points:
            out["topology.count_flips.useful_ratio"] = (
                out["topology.count_flips.flips"] / points)
        out["estimators.untraced_s"] = wall_s - self.covered
        out["trace.coverage"] = self.covered / wall_s
        return out
