"""The four benchmark workloads: what each builds, calls and must return.

Every workload drives the public API of ``nodalfields`` the way a user does
and returns the report payload the matching CLI command would print.  Inputs
come only from the call seed, so one seed always gives the same payload.  The
``full`` size is what the benchmark measures; ``smallest`` is the cheapest
size that still runs every layer of the workload, for the smoke test.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

from nodalfields import cli, estimators, stability
from nodalfields.measures import preset


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                          # report kind the payload must carry
    sizes: dict                        # size name -> parameters
    build: Callable[[dict], dict]      # fresh measures for one call
    call: Callable[[dict, dict, int], dict]  # (inputs, params, seed) -> payload
    draws: Callable[[dict], int]       # field draws carried through one call
    invariants: Callable[[dict, dict, int], list]  # -> list of problems
    sites: tuple                       # trace sites the call must pass through


def _echo(payload: dict, **expected) -> list:
    return [f"{key} is {payload.get(key)!r}, expected {want!r}"
            for key, want in expected.items() if payload.get(key) != want]


# -- plane_cns: the headline Nazarov-Sodin estimate -------------------------

def _plane_build(p):
    return {"rho": preset("uniform_circle", K=p["K"])}


def _plane_call(inputs, p, seed):
    return estimators.estimate_cns(inputs["rho"], p["schedule"], p["M"],
                                   seed).to_dict()


def _plane_invariants(out, p, seed):
    problems = _echo(out, M=p["M"], seed=seed,
                     schedule=[float(r) for r in p["schedule"]])
    if not len(out["means"]) == len(out["stderrs"]) == len(p["schedule"]):
        problems.append("one mean and one stderr per schedule radius")
    return problems


# -- torus_census: arithmetic torus waves, total vs wrapping ----------------

def _torus_call(inputs, p, seed):
    return estimators.torus_count_report(p["n"], p["M"], seed=seed,
                                         planar_M=p["planar_M"]).to_dict()


def _torus_invariants(out, p, seed):
    problems = _echo(out, n=p["n"], M=p["M"], seed=seed)
    if not out["mean_wrapping"] <= out["mean_total"]:
        problems.append("wrapping components exceed total components")
    return problems


# -- coupled_sandwich: coupled K=128 -> K=256 draws through the sandwich ----

def _sandwich_build(p):
    return {"rho0": preset("uniform_circle", K=p["K0"]),
            "rho1": preset("uniform_circle", K=p["K1"])}


def _sandwich_call(inputs, p, seed):
    # beta = inf switches both filters off, so every draw reaches the census
    # and the work done does not depend on the seed.
    return stability.sandwich_check(inputs["rho0"], inputs["rho1"], p["R"],
                                    p["M"], math.inf, seed).to_dict()


def _sandwich_invariants(out, p, seed):
    problems = _echo(out, M=p["M"], R=p["R"], filtered=p["M"])
    if not 0 <= out["violations"] <= out["filtered"] <= out["M"]:
        problems.append("need 0 <= violations <= filtered <= M")
    return problems


# -- flips: the `flips --empirical` command, in process ---------------------

def _flips_call(inputs, p, seed):
    argv = ["flips", "--preset", p["preset"], "--R", str(p["R"]),
            "--axis", str(p["axis"]), "--empirical", "--M", str(p["M"]),
            "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"nodalfields {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def _flips_invariants(out, p, seed):
    problems = _echo(out, seed=seed, axis=p["axis"])
    emp = out.get("empirical", {})
    if emp.get("M") != p["M"] or emp.get("R") != p["R"]:
        problems.append("empirical block does not echo M and R")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        name="plane_cns", kind="cns_report",
        sizes={"full": {"K": 64, "schedule": [10, 20, 40], "M": 10},
               "smallest": {"K": 64, "schedule": [2.5, 5, 10], "M": 10}},
        build=_plane_build, call=_plane_call,
        draws=lambda p: len(p["schedule"]) * p["M"],
        invariants=_plane_invariants,
        sites=("estimators.sample", "fields.antipodal_pairs",
               "estimators.evaluate_grid", "estimators.count_components_plane")),
    Workload(
        name="torus_census", kind="torus_report",
        sizes={"full": {"n": 1105, "M": 2, "planar_M": 10},
               "smallest": {"n": 65, "M": 2, "planar_M": 10}},
        build=lambda p: {}, call=_torus_call,
        draws=lambda p: p["M"] + 3 * p["planar_M"],
        invariants=_torus_invariants,
        sites=("arithmetic.sample_torus_wave", "arithmetic.sample",
               "estimators.sample", "estimators.evaluate_grid",
               "estimators.count_components_torus", "topology.marching_segments",
               "estimators.count_components_plane")),
    Workload(
        name="coupled_sandwich", kind="stability_report",
        sizes={"full": {"K0": 128, "K1": 256, "R": 8.0, "M": 10},
               "smallest": {"K0": 128, "K1": 256, "R": 8.0, "M": 1}},
        build=_sandwich_build, call=_sandwich_call,
        draws=lambda p: p["M"],
        invariants=_sandwich_invariants,
        sites=("stability.coupled_sample", "stability.antipodal_pairs",
               "stability.inject_sample", "stability.evaluate_grid",
               "stability.count_components_plane")),
    Workload(
        name="flips", kind="flips_report",
        sizes={"full": {"preset": "uniform:64", "R": 10.0, "axis": 1, "M": 10},
               "smallest": {"preset": "uniform:64", "R": 10.0, "axis": 1, "M": 1}},
        build=lambda p: {}, call=_flips_call,
        draws=lambda p: p["M"],
        invariants=_flips_invariants,
        sites=("fields.sample", "fields.antipodal_pairs", "topology.count_flips",
               "topology.evaluate_grid", "topology.marching_segments",
               "topology.evaluate_batch")),
)}
