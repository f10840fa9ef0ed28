"""Atomic spectral measures on the closed unit disc.

A measure here is a finite list of weighted atoms, normalized to total mass 1,
invariant under rotation by pi (so the covariance function it generates is
real).  Two exponent conventions are supported and carried on the measure
itself: ``kappa="two_pi"`` means the covariance is sum_k w_k cos(2*pi*<x, xi_k>)
and ``kappa="one"`` drops the 2*pi.  Everything downstream (field sampling,
Kac-Rice densities, nodal statistics) scales through this single knob.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    NotOnCircle,
    NotPiInvariant,
    NotProbability,
    SupportOutsideDisc,
    UnknownPreset,
)

# Tolerances fixed by the data contracts.
WEIGHT_TOL = 1e-12
COORD_TOL = 1e-12
SUPPORT_TOL = 1e-12
CIRCLE_TOL = 1e-12

KAPPA_VALUES = {"two_pi": 2.0 * math.pi, "one": 1.0}

# Version of the weak-* test-function dictionary (trigonometric monomials
# cos/sin(2*pi*(a*y1 + b*y2)) with |a|,|b| <= 3).  Bump when the dictionary
# changes; distances are only comparable within one version.
WEAK_STAR_DICT_VERSION = 1
_WEAK_STAR_DEGREE = 3

PRESET_NAMES = frozenset({
    "cilleruelo", "tilted_cilleruelo", "uniform_circle", "arc_nu_a",
    "two_point", "delta_zero", "section7_three_pair",
    "section7_monochromatic_six_point",
})


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic probability measure on the closed unit disc.

    points : (n, 2) array of atom locations, lexicographically sorted.
    weights : (n,) nonnegative weights summing to 1.
    kappa : exponent convention, "two_pi" or "one".
    provenance : optional preset name/parameters for reporting.
    """

    points: np.ndarray
    weights: np.ndarray
    kappa: str = "two_pi"
    provenance: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def kappa_value(self) -> float:
        return KAPPA_VALUES[self.kappa]

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def is_monochromatic(self, tol: float = CIRCLE_TOL) -> bool:
        """True when every atom sits on the unit circle."""
        norms = np.hypot(self.points[:, 0], self.points[:, 1])
        return bool(np.all(np.abs(norms - 1.0) <= tol))

    def has_torus_symmetries(self, tol: float = CIRCLE_TOL) -> bool:
        """Monochromatic + invariant under pi/2-rotation and conjugation."""
        if not self.is_monochromatic(tol):
            return False
        quarter = np.column_stack([-self.points[:, 1], self.points[:, 0]])
        conj = np.column_stack([self.points[:, 0], -self.points[:, 1]])
        return (_is_invariant_under(self, quarter, tol)
                and _is_invariant_under(self, conj, tol))

    @cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The antipodal pair table, built on first use (see antipodal_pairs).

        An atom p away from the origin takes its antipode (the first atom
        within COORD_TOL of -p) when that atom comes later and no earlier
        atom took it; otherwise p stands alone.  Origin atoms not taken add,
        in index order, to the origin weight.
        """
        pts, w = self.points, self.weights
        idx = np.arange(len(w))
        centre = _at_origin(pts)
        antipode = _match(pts, -pts, COORD_TOL)
        claims = ~centre & (antipode > idx)
        taken, first = np.unique(antipode[claims], return_index=True)
        pw = w.copy()
        pw[idx[claims][first]] += w[taken]
        free = ~np.isin(idx, taken)
        kept = np.flatnonzero(free & ~centre)
        p = pts[kept]
        upper = (p[:, 0] > 0) | ((p[:, 0] == 0) & (p[:, 1] >= 0))
        reps = np.where(upper[:, None], p, -p)
        order = np.lexsort((reps[:, 1], reps[:, 0]))[::-1]
        reps, pw = reps[order], pw[kept][order]
        reps.setflags(write=False)
        pw.setflags(write=False)
        origin = float(np.cumsum(np.append(0.0, w[free & centre]))[-1])
        return reps, pw, origin

    def __repr__(self):
        tag = self.provenance.get("name") if self.provenance else None
        return (f"SpectralMeasure({self.n_atoms} atoms, kappa={self.kappa}"
                + (f", preset={tag}" if tag else "") + ")")


def _slot(owner, name: str, key, build):
    """owner's value for key, from the one-entry cache `name`, built on a miss.

    The cache is one (key, value) tuple in the instance __dict__, where
    cached_property keeps pair_table, so frozen dataclasses take it and no
    module state is needed.  A miss replaces the tuple in one assignment:
    another thread reads the old or the new tuple, never one key with
    another key's value.  Keys compare with ==; an object that must match by
    identity enters as (id(obj), obj), which the slot keeps alive, so only
    obj itself matches it.
    """
    held = owner.__dict__.get(name)
    if held is not None and held[0] == key:
        return held[1]
    value = build()
    owner.__dict__[name] = (key, value)
    return value


@dataclass(frozen=True)
class CovarianceMatrix:
    """Gradient covariance C = kappa^2 * [[m20, m11], [m11, m02]]."""

    matrix: np.ndarray
    lambda_min: float

    def is_degenerate(self, eps: float) -> bool:
        return self.lambda_min < eps


def _merge_atoms(points: np.ndarray, weights: np.ndarray):
    """Merge coincident atoms (coordinates within COORD_TOL), sorted output.

    Clusters first along x (chained gaps <= tol), then along y inside each x
    cluster, so coincident atoms merge even when a third atom interleaves the
    sort order between them.  A group keeps its first atom in that order as
    its location and the sum of its weights as its weight.
    """
    n = len(weights)
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    new = np.ones(n, dtype=bool)            # first atom of its group
    new[1:] = ~(xs[1:] - xs[:-1] <= COORD_TOL)
    # stable: inside an x cluster, equal y keep their x order; the cluster
    # labels are nondecreasing, so the reorder keeps the cluster starts
    order = order[np.lexsort((points[order, 1], np.cumsum(new)))]
    ys = points[order, 1]
    new[1:] |= ~(ys[1:] - ys[:-1] <= COORD_TOL)
    starts = np.flatnonzero(new)
    pts = points[order[starts]]
    # reduceat starts a group's sum from its first weight, ndarray.sum from
    # 0.0; a leading zero per group makes the two add in the same order
    padded = np.zeros(n + len(starts))
    padded[np.arange(n) + np.cumsum(new)] = weights[order]
    wts = np.add.reduceat(padded, starts + np.arange(len(starts)))
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order], wts[order]


def _at_origin(points: np.ndarray) -> np.ndarray:
    return (np.abs(points[:, 0]) <= COORD_TOL) & (np.abs(points[:, 1]) <= COORD_TOL)


def _match(points: np.ndarray, targets: np.ndarray, tol: float) -> np.ndarray:
    """Per target, the lowest index of an atom within tol of it, or -1.

    An atom matches when |x - tx| <= tol and |y - ty| <= tol.  Only atoms in
    a searchsorted window of half-width 2 tol on x are tested, so the work is
    a sort plus a few tests per target for points on a circle, never n x n.
    """
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    lo = np.searchsorted(xs, targets[:, 0] - 2 * tol, side="left")
    hi = np.searchsorted(xs, targets[:, 0] + 2 * tol, side="right")
    width = hi - lo
    owner = np.repeat(np.arange(len(targets)), width)
    start = np.repeat(lo - np.cumsum(width) + width, width)
    cand = order[start + np.arange(width.sum())]
    hit = ((np.abs(points[cand, 0] - targets[owner, 0]) <= tol)
           & (np.abs(points[cand, 1] - targets[owner, 1]) <= tol))
    out = np.full(len(targets), len(points))
    np.minimum.at(out, owner[hit], cand[hit])
    out[out == len(points)] = -1
    return out


def _is_invariant_under(rho: SpectralMeasure, mapped: np.ndarray, tol: float) -> bool:
    j = _match(rho.points, mapped, tol)
    return bool(np.all((j >= 0) & (np.abs(rho.weights[j] - rho.weights) <= tol)))


def make_atomic(atoms: Iterable[tuple[Sequence[float], float]],
                kappa: str = "two_pi",
                symmetrize: bool = False,
                normalize: bool = False,
                provenance: dict | None = None) -> SpectralMeasure:
    """Build a validated measure from (point, weight) pairs.

    Weights must sum to 1 (within 1e-12) unless ``normalize`` is set; the atom
    set must already be pi-rotation invariant unless ``symmetrize`` is set, in
    which case weights are averaged over each {xi, -xi} pair.  Coincident
    atoms are merged.  Raises NotProbability / SupportOutsideDisc /
    NotPiInvariant accordingly.
    """
    if kappa not in KAPPA_VALUES:
        raise ValueError(f"kappa must be one of {sorted(KAPPA_VALUES)}, got {kappa!r}")
    atoms = list(atoms)
    if not atoms:
        raise ValueError("need at least one atom")
    points = np.asarray([a[0] for a in atoms], dtype=float)
    weights = np.asarray([a[1] for a in atoms], dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("atom locations must be planar points")
    if np.any(weights < -WEIGHT_TOL):
        raise NotProbability("negative atom weight")
    weights = np.clip(weights, 0.0, None)

    norms = np.hypot(points[:, 0], points[:, 1])
    if np.any(norms > 1.0 + SUPPORT_TOL):
        worst = float(norms.max())
        raise SupportOutsideDisc(f"atom norm {worst:.6g} exceeds 1")

    total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        if not normalize:
            raise NotProbability(f"weights sum to {total:.17g}, not 1")
        if total <= 0:
            raise NotProbability("total weight is zero")
        weights = weights / total

    points, weights = _merge_atoms(points, weights)

    # pi-rotation invariance: every atom needs its antipode with equal weight;
    # an origin atom is self-paired.
    centre = _at_origin(points)
    j = _match(points, -points, COORD_TOL)
    lonely = ~centre & (j < 0)
    gap = np.where(centre | lonely, 0.0, np.abs(weights - weights[j]))
    uneven = gap > WEIGHT_TOL
    bad = np.flatnonzero(lonely | (uneven & (not symmetrize)))
    if len(bad):
        i = bad[0]
        p = points[i]
        if not lonely[i]:
            raise NotPiInvariant(
                f"weights at {tuple(p)} and antipode differ by {gap[i]:.3g}")
        if not symmetrize:
            raise NotPiInvariant(f"atom {tuple(p)} has no antipode")
        raise NotPiInvariant(
            f"atom {tuple(p)} has no antipode; symmetrize can only average "
            "weights over existing pairs, not invent atoms")
    # atom i sets both ends of (i, j[i]) to their mean; where several atoms
    # share an antipode, the highest-indexed writer's mean stands
    src = np.flatnonzero(uneven)
    writer = np.full(len(weights), -1)
    np.maximum.at(writer, np.concatenate([src, j[src]]), np.tile(src, 2))
    weights = np.where(writer >= 0,
                       0.5 * (weights[writer] + weights[j[writer]]), weights)

    return SpectralMeasure(points=points, weights=weights, kappa=kappa,
                           provenance=provenance)


def _circle_points(angles: np.ndarray) -> np.ndarray:
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    return np.where(np.abs(pts) < 1e-15, 0.0, pts)


def preset(name: str, **params) -> SpectralMeasure:
    """Named measures used across the experiments.

    cilleruelo            4 atoms, weight 1/4 at (+-1,0),(0,+-1)
    tilted_cilleruelo     4 atoms at angles pi/4 + k*pi/2
    uniform_circle        K equispaced unit-circle atoms (K even, >= 4)
    arc_nu_a              arc [-a,a] on the circle, symmetrized over the four
                          quarter-turns, discretized to K midpoint atoms
                          (K divisible by 4, >= 4); a in (0, pi/4]
    two_point             atoms at +-(cos theta, sin theta)
    delta_zero            unit mass at the origin
    section7_three_pair   pairs (+-1/3,0),(+-1,0),(0,+-1/3), weights
                          proportional to squared amplitudes (1, 0.8, 1);
                          kappa defaults to "one" (use freq_scale=3 at the
                          field level to undo the 1/3 frequency scaling)
    section7_monochromatic_six_point
                          uniform on +-(1,0),(0,+-1),+-(1,1)/sqrt(2), kappa "one"
    """
    kappa = params.pop("kappa", None)

    if name == "cilleruelo":
        kappa = kappa or "two_pi"
        pts = _circle_points(np.array([0.0, 0.5, 1.0, 1.5]) * math.pi)
        meas = make_atomic([(p, 0.25) for p in pts], kappa=kappa,
                           provenance={"name": name})
    elif name == "tilted_cilleruelo":
        kappa = kappa or "two_pi"
        pts = _circle_points(math.pi / 4 + np.array([0.0, 0.5, 1.0, 1.5]) * math.pi)
        meas = make_atomic([(p, 0.25) for p in pts], kappa=kappa,
                           provenance={"name": name})
    elif name == "uniform_circle":
        kappa = kappa or "two_pi"
        K = int(params.pop("K"))
        if K < 4:
            raise UnknownPreset("uniform_circle needs K >= 4")
        if K % 2:
            raise UnknownPreset("uniform_circle needs even K (pi-symmetry)")
        angles = 2.0 * math.pi * np.arange(K) / K
        meas = make_atomic([(p, 1.0 / K) for p in _circle_points(angles)],
                           kappa=kappa, provenance={"name": name, "K": K})
    elif name == "arc_nu_a":
        kappa = kappa or "two_pi"
        a = float(params.pop("a"))
        K = int(params.pop("K"))
        if K < 4 or K % 4:
            raise UnknownPreset("arc_nu_a needs K >= 4 divisible by 4")
        if not (0.0 < a <= math.pi / 4 + 1e-12):
            raise UnknownPreset("arc_nu_a needs 0 < a <= pi/4")
        m = K // 4
        mids = -a + (2.0 * np.arange(m) + 1.0) * a / m  # midpoint rule on [-a, a]
        angles = np.concatenate(
            [mids + k * math.pi / 2 for k in range(4)])
        meas = make_atomic([(p, 1.0 / K) for p in _circle_points(angles)],
                           kappa=kappa, provenance={"name": name, "a": a, "K": K})
    elif name == "two_point":
        kappa = kappa or "two_pi"
        theta = float(params.pop("theta", 0.0))
        p = (math.cos(theta), math.sin(theta))
        meas = make_atomic([(p, 0.5), ((-p[0], -p[1]), 0.5)], kappa=kappa,
                           provenance={"name": name, "theta": theta})
    elif name == "delta_zero":
        kappa = kappa or "two_pi"
        meas = make_atomic([((0.0, 0.0), 1.0)], kappa=kappa,
                           provenance={"name": name})
    elif name == "section7_three_pair":
        kappa = kappa or "one"
        amps2 = np.array([1.0, 0.8 ** 2, 1.0])
        w = amps2 / (2.0 * amps2.sum())  # per-atom weight of each pair
        atoms = [((1 / 3, 0.0), w[0]), ((-1 / 3, 0.0), w[0]),
                 ((1.0, 0.0), w[1]), ((-1.0, 0.0), w[1]),
                 ((0.0, 1 / 3), w[2]), ((0.0, -1 / 3), w[2])]
        meas = make_atomic(atoms, kappa=kappa, provenance={"name": name})
    elif name == "section7_monochromatic_six_point":
        kappa = kappa or "one"
        c = 1.0 / math.sqrt(2.0)
        pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (c, c), (-c, -c)]
        meas = make_atomic([(p, 1.0 / 6.0) for p in pts], kappa=kappa,
                           provenance={"name": name})
    else:
        raise UnknownPreset(name)

    if params:
        raise UnknownPreset(f"unused parameters for {name}: {sorted(params)}")
    return meas


def covariance(rho: SpectralMeasure, x) -> float:
    """r(x) = sum_k w_k cos(kappa * <x, xi_k>); real by pi-symmetry, r(0) = 1."""
    x = np.asarray(x, dtype=float)
    phases = rho.kappa_value * (rho.points @ x)
    return float(np.dot(rho.weights, np.cos(phases)))


def moment(rho: SpectralMeasure, a: int, b: int) -> float:
    """Raw support moment integral y1^a y2^b drho, needed up to total order 4."""
    if a < 0 or b < 0 or a + b > 4:
        raise ValueError("moments are provided for 0 <= a+b <= 4")
    return float(np.dot(rho.weights,
                        rho.points[:, 0] ** a * rho.points[:, 1] ** b))


def gradient_covariance(rho: SpectralMeasure) -> CovarianceMatrix:
    """2x2 covariance of the field gradient at a point: kappa^2 * second moments."""
    k2 = rho.kappa_value ** 2
    m = k2 * np.array([[moment(rho, 2, 0), moment(rho, 1, 1)],
                       [moment(rho, 1, 1), moment(rho, 0, 2)]])
    m = 0.5 * (m + m.T)
    lam = float(np.linalg.eigvalsh(m)[0])
    return CovarianceMatrix(matrix=m, lambda_min=lam)


def _require_circle(rho: SpectralMeasure):
    if not rho.is_monochromatic():
        raise NotOnCircle("all atoms must lie on the unit circle")


def atom_angles(rho: SpectralMeasure) -> np.ndarray:
    _require_circle(rho)
    return np.arctan2(rho.points[:, 1], rho.points[:, 0])


def fourier_coefficient(mu: SpectralMeasure, k: int) -> complex:
    """hat(mu)(k) = sum_j w_j exp(-i k theta_j) for a circle measure."""
    th = atom_angles(mu)
    return complex(np.dot(mu.weights, np.exp(-1j * k * th)))


def convolve(mu1: SpectralMeasure, mu2: SpectralMeasure) -> SpectralMeasure:
    """Convolution on the circle group: atoms at angle sums, weights multiplied."""
    th1, th2 = atom_angles(mu1), atom_angles(mu2)
    if mu1.kappa != mu2.kappa:
        raise ValueError("convolve requires a shared kappa convention")
    sums = (th1[:, None] + th2[None, :]).ravel() % (2.0 * math.pi)
    w = (mu1.weights[:, None] * mu2.weights[None, :]).ravel()
    pts = _circle_points(sums)
    # snap coordinates so that angle aliases (0 vs 2pi) merge cleanly
    pts = np.where(np.abs(pts) < 1e-15, 0.0, pts)
    return make_atomic(zip(pts, w), kappa=mu1.kappa,
                       provenance={"name": "convolution"})


def _weak_star_dictionary():
    funcs = []
    d = _WEAK_STAR_DEGREE
    for a in range(-d, d + 1):
        for b in range(-d, d + 1):
            funcs.append((a, b))
    return funcs


def weak_star_distance(r1: SpectralMeasure, r2: SpectralMeasure) -> float:
    """Bounded-Lipschitz-style metric over a fixed trigonometric dictionary.

    sup over cos/sin(2*pi*(a y1 + b y2)), |a|,|b| <= 3, of the difference of
    integrals.  Versioned via WEAK_STAR_DICT_VERSION.
    """
    best = 0.0
    for a, b in _weak_star_dictionary():
        ph1 = 2.0 * math.pi * (a * r1.points[:, 0] + b * r1.points[:, 1])
        ph2 = 2.0 * math.pi * (a * r2.points[:, 0] + b * r2.points[:, 1])
        dc = abs(float(np.dot(r1.weights, np.cos(ph1))
                       - np.dot(r2.weights, np.cos(ph2))))
        ds = abs(float(np.dot(r1.weights, np.sin(ph1))
                       - np.dot(r2.weights, np.sin(ph2))))
        best = max(best, dc, ds)
    return best


def antipodal_pairs(rho: SpectralMeasure):
    """(reps, pair_weights, origin_weight): rho's antipodal pair table.

    Per pair {p, -p}: the representative, the lexicographic max of p and -p
    (not the stored antipode, which may differ from -p by rounding), and the
    pair mass w[p] + w[antipode].  Representatives are sorted
    lexicographically descending, the coefficient order of field samples.
    Computed once per measure (SpectralMeasure.pair_table); the arrays are
    shared and read-only.
    """
    return rho.pair_table


# ---------------------------------------------------------------------------
# Measure file I/O (JSON; floats round-trip exactly via repr)

def measure_to_dict(rho: SpectralMeasure) -> dict:
    if rho.provenance and rho.provenance.get("name") in PRESET_NAMES:
        params = {k: v for k, v in rho.provenance.items() if k != "name"}
        params["kappa"] = rho.kappa
        return {"kind": "preset", "name": rho.provenance["name"], "params": params}
    return {"kind": "atomic", "kappa": rho.kappa,
            "atoms": [{"x": float(p[0]), "y": float(p[1]), "w": float(w)}
                      for p, w in zip(rho.points, rho.weights)]}


def measure_from_dict(d: dict) -> SpectralMeasure:
    if d.get("kind") == "atomic":
        return make_atomic([((a["x"], a["y"]), a["w"]) for a in d["atoms"]],
                           kappa=d.get("kappa", "two_pi"))
    if d.get("kind") == "preset":
        return preset(d["name"], **d.get("params", {}))
    raise ValueError(f"unknown measure kind {d.get('kind')!r}")


def save_measure(rho: SpectralMeasure, path):
    with open(path, "w") as fh:
        json.dump(measure_to_dict(rho), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_measure(path) -> SpectralMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))
