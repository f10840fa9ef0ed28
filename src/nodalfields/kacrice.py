"""Closed-form first-intensity densities for zeros of derived fields.

For a unit-variance stationary field with atomic spectrum, every covariance
among (f, f1, f2, f11, f12, f22) at a point is a scaled support moment of the
measure, so expected flip and crossing densities reduce to small Gaussian
conditioning computations with an explicit |product| moment.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateConditioning
from .fields import unit_direction
from .measures import SpectralMeasure, moment

CONDITIONING_EPS = 1e-12

# Jet ordering: value, two first derivatives, three second derivatives.
JET_DERIVATIVES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def build_jet_covariance(rho: SpectralMeasure) -> np.ndarray:
    """6x6 covariance of (f, f1, f2, f11, f12, f22) at a point.

    Assembled from support moments up to order 4: the entry for derivative
    multi-indices (alpha, beta) is
    (-1)^|beta| * kappa^|g| * sign(|g|) * moment(g), g = alpha + beta, where
    the sign pattern is +1, -1, +1 for |g| = 0, 2, 4 and odd orders vanish by
    pi-symmetry.  The rows and columns follow JET_DERIVATIVES.
    """
    k = rho.kappa_value
    n = len(JET_DERIVATIVES)
    M = np.zeros((n, n))
    cycle = {0: 1.0, 2: -1.0, 4: 1.0}
    for i, a in enumerate(JET_DERIVATIVES):
        for j, b in enumerate(JET_DERIVATIVES):
            g = (a[0] + b[0], a[1] + b[1])
            order = g[0] + g[1]
            if order % 2:
                continue
            val = ((-1.0) ** (b[0] + b[1])) * cycle[order] \
                * k ** order * moment(rho, g[0], g[1])
            M[i, j] = val
    M = 0.5 * (M + M.T)
    lam = float(np.linalg.eigvalsh(M)[0])
    if lam < -1e-10:
        raise ValueError(f"jet covariance not PSD (lambda_min={lam:.3g})")
    return M


def abs_product_mean(sigma1: float, sigma2: float, corr: float) -> float:
    """E[|X Y|] for centered jointly Gaussian X, Y.

    Closed form (2 s1 s2 / pi) * (sqrt(1 - r^2) + r asin r); the test
    oracle ``abs_product_mean_quad`` in tests/oracles.py checks it by
    quadrature.
    """
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        return 0.0
    r = min(1.0, max(-1.0, corr))
    return (2.0 * sigma1 * sigma2 / math.pi) \
        * (math.sqrt(max(0.0, 1.0 - r * r)) + r * math.asin(r))


def _conditioned_pair(rho: SpectralMeasure, direction):
    """Conditional covariance of (T, Q) given f = d.grad f = 0.

    T is the gradient component orthogonal to d; Q = d^T Hessian d.  With d a
    unit vector, the Jacobian determinant of the map (f, d.grad f) equals
    -T * Q on {d.grad f = 0}, so its conditional |mean| is an abs-product
    moment of this pair.  The density is invariant under rescaling d, so
    d = ``unit_direction(direction)``.
    """
    d = unit_direction(direction)
    jet = build_jet_covariance(rho)
    # rows: conditioning functionals C = (f, d.grad f); observables W = (T, Q)
    L = np.zeros((4, 6))
    L[0, 0] = 1.0
    L[1, 1], L[1, 2] = d[0], d[1]
    L[2, 1], L[2, 2] = -d[1], d[0]
    L[3, 3], L[3, 4], L[3, 5] = d[0] * d[0], 2.0 * d[0] * d[1], d[1] * d[1]
    S = L @ jet @ L.T
    var_dir = S[1, 1]
    if var_dir < CONDITIONING_EPS * float(d @ d):
        raise DegenerateConditioning(
            f"var of the directional derivative is {var_dir:.3g}")
    Scc = S[:2, :2]
    Swc = S[2:, :2]
    Sww = S[2:, 2:]
    cond = Sww - Swc @ np.linalg.solve(Scc, Swc.T)
    return Scc, cond


def directional_flip_density(rho: SpectralMeasure, direction) -> float:
    """Expected density (per unit area) of points with f = d.grad f = 0."""
    Scc, cond = _conditioned_pair(rho, direction)
    phi0 = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(Scc)))
    s1 = math.sqrt(max(0.0, cond[0, 0]))
    s2 = math.sqrt(max(0.0, cond[1, 1]))
    if s1 == 0.0 or s2 == 0.0:
        return 0.0
    corr = cond[0, 1] / (s1 * s2)
    return phi0 * abs_product_mean(s1, s2, corr)


def flip_density(rho: SpectralMeasure, axis: int) -> float:
    """Density of horizontal (axis=1) or vertical (axis=2) flips."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return directional_flip_density(
        rho, (1.0, 0.0) if axis == 1 else (0.0, 1.0))


def diagonal_flip_density(rho: SpectralMeasure) -> float:
    """Flip density for the diagonal functional f1 + f2."""
    return directional_flip_density(rho, (1.0, 1.0))


def curve_intersection_density(rho: SpectralMeasure, direction) -> float:
    """Expected zeros per unit length along a straight line in `direction`.

    Equals (kappa/pi) * sqrt(second moment of the support along
    u = ``unit_direction(direction)``); at most kappa/pi for any measure on
    the unit disc.
    """
    u = unit_direction(direction)
    m = np.array([[moment(rho, 2, 0), moment(rho, 1, 1)],
                  [moment(rho, 1, 1), moment(rho, 0, 2)]])
    second = float(u @ m @ u)
    return rho.kappa_value / math.pi * math.sqrt(max(0.0, second))
