"""Lattice points on circles and random toral eigenfunctions.

r2(n) counts integer solutions of x^2 + y^2 = n; the normalized lattice
points carry an angular probability measure on the unit circle that serves as
the spectral measure of the degree-n random eigenfunction of the unit torus
(eigenvalue -4 pi^2 n).  Enumeration is brute force over x in [0, sqrt(n)],
capped at n <= 10^12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSumOfTwoSquares, TooLarge
from .fields import (POINTS_PER_WAVELENGTH, FieldSample, _cilleruelo_measure,
                     sample)
from .measures import SpectralMeasure, make_atomic

ENUMERATION_CAP = 10 ** 12


@dataclass(frozen=True)
class LatticeCircle:
    """Integer points on x^2 + y^2 = n."""

    n: int
    points: np.ndarray  # (r2, 2) int64, lexicographically sorted
    r2: int


def lattice_points(n: int) -> LatticeCircle:
    """Enumerate all integer points with squared norm n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > ENUMERATION_CAP:
        raise TooLarge(f"n={n} exceeds the brute-force cap {ENUMERATION_CAP}")
    pts = set()
    for x in range(math.isqrt(n) + 1):
        y2 = n - x * x
        y = math.isqrt(y2)
        if y * y == y2:
            for sx in (x, -x):
                for sy in (y, -y):
                    pts.add((sx, sy))
    arr = (np.array(sorted(pts), dtype=np.int64)
           if pts else np.zeros((0, 2), dtype=np.int64))
    return LatticeCircle(n=n, points=arr, r2=len(arr))


def r2(n: int) -> int:
    return lattice_points(n).r2


@functools.cache
def mu_n(n: int) -> SpectralMeasure:
    """Angular measure of the lattice points: atoms lambda/sqrt(n), equal weights.

    Built once per n and shared (with its pair and grid tables) by every
    torus draw of that n; a measure is frozen with read-only arrays.
    """
    lat = lattice_points(n)
    if lat.r2 == 0:
        raise NotSumOfTwoSquares(f"{n} is not a sum of two squares")
    root = math.sqrt(n)
    atoms = [((p[0] / root, p[1] / root), 1.0 / lat.r2) for p in lat.points]
    return make_atomic(atoms, kappa="two_pi",
                       provenance={"name": "mu_n", "n": n, "r2": lat.r2})


def sample_torus_wave(n: int, seed: int, stream: int = 0) -> FieldSample:
    """Unit-variance random eigenfunction of the torus with eigenvalue -4 pi^2 n.

    Realized over mu_n with frequency scale sqrt(n), so frequencies are the
    integer lattice points themselves and the field is 1-periodic in both
    coordinates.  The planar rescaling y -> f(y / sqrt(n)) with spectral
    measure mu_n is the same sample with freq_scale 1.
    """
    return sample(mu_n(n), seed, stream, freq_scale=math.sqrt(n))


def torus_spacing(n: int) -> float:
    """Default torus spacing: POINTS_PER_WAVELENGTH nodes per 1/ceil(sqrt n)."""
    return 1.0 / (POINTS_PER_WAVELENGTH * math.ceil(math.sqrt(n)))


def cilleruelo_torus_field(m: int, seed: int, stream: int = 0) -> FieldSample:
    """Axis-frequency torus field for n = m^2: two wrapping cosine trains.

    Sample over the four-atom axis measure with freq_scale m; in Rayleigh form
    (1/sqrt 2)(a1 cos(2 pi m x1 + e1) + a2 cos(2 pi m x2 + e2)).
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    return sample(_cilleruelo_measure("two_pi"), seed, stream,
                  freq_scale=float(m))

