"""Exact realizations of stationary Gaussian fields with atomic spectra.

A sample is a finite trigonometric sum: one (cos, sin) coefficient pair per
antipodal atom pair, so values and derivatives are available in closed form
anywhere.  With i.i.d. standard normal coefficients the sample reproduces the
measure's covariance function exactly; there is no discretization in the law.

Coefficients come from a counter-based generator (Philox) keyed by
(seed, stream index), so Monte Carlo batches are reproducible independently of
evaluation order.

Grid evaluation is separable: the lattice axes and their 1-D cos/sin tables
depend on (measure, freq_scale, domain, h) only.  They are kept read-only in
one slot on the measure, keyed by (freq_scale, domain, h), so a batch of draws
over one measure and one lattice builds them once; a new key replaces them.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse
from .measures import SpectralMeasure, _slot, antipodal_pairs, preset

# Resolution rule: at least this many grid nodes per minimal wavelength before
# sign-based counting is trusted; the default grid uses POINTS_PER_WAVELENGTH.
MIN_POINTS_PER_WAVELENGTH = 12
POINTS_PER_WAVELENGTH = 16


@dataclass(frozen=True)
class SquareDomain:
    """Centered square [-R, R]^2."""
    R: float

    def descriptor(self) -> str:
        return f"square R={self.R:.17g}"


@dataclass(frozen=True)
class TorusDomain:
    """Unit torus, fundamental domain [0, 1)^2, periodic in both axes."""

    def descriptor(self) -> str:
        return "torus"


@dataclass(frozen=True)
class FieldSample:
    """One realization: a measure plus drawn Gaussian coefficients.

    Evaluation formula (kappa the measure's exponent factor, s = freq_scale):

        f(x) = origin_coeff * sqrt(w0)
             + sum_k sqrt(W_k) * (a_k cos(kappa*s*<xi_k, x>)
                                  + b_k sin(kappa*s*<xi_k, x>))

    xi_k (reps), W_k (pair_weights) and w0 (origin_weight) are the measure's
    antipodal pair table, read from the measure rather than copied; coeff_a
    and coeff_b hold one entry per pair in that table's order.
    """

    measure: SpectralMeasure
    coeff_a: np.ndarray
    coeff_b: np.ndarray
    origin_coeff: float = 0.0
    seed: int | None = None
    freq_scale: float = 1.0

    def __post_init__(self):
        self.coeff_a.setflags(write=False)
        self.coeff_b.setflags(write=False)

    @property
    def reps(self) -> np.ndarray:
        return self.measure.pair_table[0]

    @property
    def pair_weights(self) -> np.ndarray:
        return self.measure.pair_table[1]

    @property
    def origin_weight(self) -> float:
        return self.measure.pair_table[2]

    @property
    def frequencies(self) -> np.ndarray:
        """(m, 2) angular frequency vectors kappa * freq_scale * xi_k."""
        return self.measure.kappa_value * self.freq_scale * self.reps

    @property
    def max_frequency(self) -> float:
        if len(self.reps) == 0:
            return 0.0
        return float(np.hypot(*self.frequencies.T).max())

    def min_wavelength(self) -> float:
        fmax = self.max_frequency
        return math.inf if fmax == 0.0 else 2.0 * math.pi / fmax

    def amplitudes(self) -> np.ndarray:
        return np.sqrt(self.pair_weights)


@dataclass
class ScalarGrid:
    """Field values (and optional derivative grids) on a regular lattice.

    values[i, j] is the field at (xs[i], ys[j]).  Grids from evaluate_grid
    share their read-only axes with every grid of the same lattice.
    """

    domain: object
    h: float
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None
    d11: np.ndarray | None = None
    d12: np.ndarray | None = None
    d22: np.ndarray | None = None
    seed: int | None = None
    kappa: str = "two_pi"

    @property
    def periodic(self) -> bool:
        return isinstance(self.domain, TorusDomain)


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample(rho: SpectralMeasure, seed: int, stream: int = 0,
           freq_scale: float = 1.0) -> FieldSample:
    """Draw one field realization; deterministic in (seed, stream)."""
    m = len(antipodal_pairs(rho)[1])
    coeffs = _philox(seed, stream).standard_normal(2 * m + 1)
    return FieldSample(
        measure=rho,
        coeff_a=coeffs[0:2 * m:2].copy(), coeff_b=coeffs[1:2 * m:2].copy(),
        origin_coeff=float(coeffs[2 * m]),
        seed=seed, freq_scale=freq_scale)


def inject_sample(rho: SpectralMeasure, coeffs, origin_coeff: float = 0.0,
                  freq_scale: float = 1.0) -> FieldSample:
    """Bypass the RNG with explicit (a_k, b_k) pairs, in canonical pair order.

    Analysis/test hook: canonical order is lexicographically descending
    representatives (see measures.antipodal_pairs).
    """
    m = len(antipodal_pairs(rho)[1])
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (m, 2):
        raise ValueError(f"expected {(m, 2)} coefficient array, got {coeffs.shape}")
    return FieldSample(
        measure=rho, coeff_a=coeffs[:, 0].copy(), coeff_b=coeffs[:, 1].copy(),
        origin_coeff=float(origin_coeff), freq_scale=freq_scale)


def evaluate(s: FieldSample, x, order: int = 0):
    """Value / (value, gradient) / (value, gradient, Hessian) at a point."""
    out = evaluate_batch(s, np.reshape(x, (1, 2)), order)
    if order == 0:
        return float(out[0])
    return (float(out[0][0]), *(a[0] for a in out[1:]))


def evaluate_batch(s: FieldSample, pts, order: int = 0):
    """Values (and gradients, Hessians up to order 2) at (N, 2) points."""
    pts = np.asarray(pts, dtype=float)
    C = s.frequencies
    amp = s.amplitudes()
    ph = pts @ C.T                    # (N, m)
    ca, sa = np.cos(ph), np.sin(ph)
    wa, wb = amp * s.coeff_a, amp * s.coeff_b
    vals = ca @ wa + sa @ wb + s.origin_coeff * math.sqrt(s.origin_weight)
    if order == 0:
        return vals
    grads = (ca * wb - sa * wa) @ C   # d/dphase of each pair term
    if order == 1:
        return vals, grads
    curv = -(ca * wa + sa * wb)       # second derivative in phase
    return vals, grads, np.einsum("nk,ki,kj->nij", curv, C, C)


def unit_direction(direction) -> np.ndarray:
    """A finite nonzero 2-vector scaled to unit length, or a ValueError."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (2,) or not np.all(np.isfinite(d)):
        raise ValueError(
            f"direction must be a finite 2-vector, got {direction!r}")
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    return d / math.hypot(*d)


def grid_axes(domain, h: float):
    """Lattice axes for a domain; torus spacing is snapped to 1/n."""
    if isinstance(domain, SquareDomain):
        if not (math.isfinite(domain.R) and domain.R >= 0):
            raise ValueError(f"square half-side R must be finite and >= 0, "
                             f"got {domain.R}")
        n = int(math.floor(2.0 * domain.R / h + 1e-9)) + 1
        xs = -domain.R + h * np.arange(n)
        return xs, xs.copy(), h
    if isinstance(domain, TorusDomain):
        n = max(2, int(round(1.0 / h)))
        xs = np.arange(n) / n
        return xs, xs.copy(), 1.0 / n
    raise TypeError(f"unknown domain {domain!r}")


def grid_too_coarse(s: FieldSample, h: float) -> bool:
    """Resolution rule: spacing h gives fewer than MIN_POINTS_PER_WAVELENGTH
    nodes per minimal wavelength."""
    lam = s.min_wavelength()
    return (math.isfinite(lam)
            and h > lam / MIN_POINTS_PER_WAVELENGTH * (1 + 1e-9))


def default_spacing(s: FieldSample) -> float:
    """Resolution rule: POINTS_PER_WAVELENGTH nodes per minimal wavelength."""
    lam = s.min_wavelength()
    if not math.isfinite(lam):
        return 0.25
    return lam / POINTS_PER_WAVELENGTH


def _axis_tables(s: FieldSample, domain, h: float):
    """(xs, ys, h_eff, U, cy, sy), read-only, from the measure's table slot.

    U = [cos, sin](xs c1) and cy, sy = cos, sin(ys c2) for the frequency
    columns c1, c2 of s.
    """
    def build():
        xs, ys, h_eff = grid_axes(domain, h)
        C = s.frequencies
        phx = np.outer(xs, C[:, 0])
        phy = np.outer(ys, C[:, 1])
        U = np.hstack([np.cos(phx), np.sin(phx)])
        cy, sy = np.cos(phy), np.sin(phy)
        for arr in (xs, ys, U, cy, sy):
            arr.setflags(write=False)
        return xs, ys, h_eff, U, cy, sy

    return _slot(s.measure, "_axis_tables", (s.freq_scale, domain, h), build)


def evaluate_grid(s: FieldSample, domain, h: float | None = None,
                  order: int = 0) -> ScalarGrid:
    """Evaluate on the lattice of a square or torus domain.

    order 0 fills values; 1 adds first-derivative grids; 2 adds the three
    second-derivative grids.  Each jet grid is one matrix product of the 1-D
    cos/sin tables.  The axes and the tables come from one slot on the
    measure keyed by (freq_scale, domain, h): built on the first grid of a
    key, shared read-only (the grid's xs and ys too) until another key
    replaces them.
    """
    if h is None:
        h = default_spacing(s)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h}")
    if grid_too_coarse(s, h):
        warnings.warn(
            f"grid spacing {h:.4g} gives fewer than "
            f"{MIN_POINTS_PER_WAVELENGTH} points per minimal wavelength "
            f"{s.min_wavelength():.4g}",
            GridTooCoarse, stacklevel=2)
    xs, ys, h_eff, U, cy, sy = _axis_tables(s, domain, h)
    C = s.frequencies
    amp = s.amplitudes()
    wa, wb = amp * s.coeff_a, amp * s.coeff_b

    # separability: cos(c1 x + c2 y) splits into outer products of the 1-D
    # cos/sin tables, so every jet grid is one matrix product
    # U (nx, 2m) @ V (2m, ny) instead of a per-pair lattice sweep.
    S1 = (wa * cy + wb * sy).T              # pairs along rows
    S2 = (wb * cy - wa * sy).T

    def combine(top, bottom):
        return U @ np.vstack([top, bottom])

    val = combine(S1, S2)
    val += s.origin_coeff * math.sqrt(s.origin_weight)
    d1 = d2 = d11 = d12 = d22 = None
    c1 = C[:, 0][:, None]
    c2 = C[:, 1][:, None]
    if order >= 1:
        d1 = combine(c1 * S2, -c1 * S1)
        d2 = combine(c2 * S2, -c2 * S1)
    if order >= 2:
        d11 = combine(-c1 * c1 * S1, -c1 * c1 * S2)
        d12 = combine(-c1 * c2 * S1, -c1 * c2 * S2)
        d22 = combine(-c2 * c2 * S1, -c2 * c2 * S2)

    return ScalarGrid(domain=domain, h=h_eff, xs=xs, ys=ys, values=val,
                      d1=d1, d2=d2, d11=d11, d12=d12, d22=d22,
                      seed=s.seed, kappa=s.measure.kappa)


def grid_from_callable(fn, domain, h: float) -> ScalarGrid:
    """Grid of an arbitrary function fn(X, Y) (vectorized); analysis hook."""
    xs, ys, h_eff = grid_axes(domain, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return ScalarGrid(domain=domain, h=h_eff, xs=xs, ys=ys,
                      values=np.asarray(fn(X, Y), dtype=float))


def cilleruelo_field(seed: int, stream: int = 0) -> FieldSample:
    """Sample of the four-atom axis measure with kappa = 1.

    The result is (1/sqrt(2)) * (xi1 cos x1 + xi2 sin x1 + xi3 cos x2
    + xi4 sin x2); use cilleruelo_amplitudes for the Rayleigh form.
    """
    return sample(_cilleruelo_measure("one"), seed, stream)


@functools.cache
def _cilleruelo_measure(kappa: str) -> SpectralMeasure:
    """The four-atom axis measure, built once per kappa convention.

    A measure is frozen with read-only arrays, so every Cilleruelo sample can
    share one (and its pair table and grid tables).
    """
    return preset("cilleruelo", kappa=kappa)


def cilleruelo_amplitudes(s: FieldSample):
    """(a1, eta1, a2, eta2) with f = (1/sqrt 2)(a1 cos(x1+eta1) + a2 cos(x2+eta2))."""
    a1 = math.hypot(s.coeff_a[0], s.coeff_b[0])
    a2 = math.hypot(s.coeff_a[1], s.coeff_b[1])
    eta1 = math.atan2(-s.coeff_b[0], s.coeff_a[0])
    eta2 = math.atan2(-s.coeff_b[1], s.coeff_a[1])
    return a1, eta1, a2, eta2


def representation_covariance(s: FieldSample, x, y) -> float:
    """E[f(x) f(y)] computed symbolically from the coefficient structure.

    Independent of the drawn coefficients; equals covariance(rho, x - y) when
    freq_scale is 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ph = s.frequencies @ (x - y)
    return float(np.dot(s.pair_weights, np.cos(ph))) + s.origin_weight


def covariance_mc(rho: SpectralMeasure, x, M: int, seed: int):
    """Monte Carlo validation of the sampler against the analytic covariance.

    Returns (mean, stderr) of f(0) * f(x) over M independent samples, sample i
    drawn from the (seed, i) stream.
    """
    if M < 100:
        raise ValueError("need M >= 100")
    reps, pw, w0 = antipodal_pairs(rho)
    m = len(pw)
    amp = np.sqrt(pw)
    C = rho.kappa_value * reps
    x = np.asarray(x, dtype=float)

    def design(pt):
        ph = C @ pt
        u = np.empty(2 * m + 1)
        u[0:2 * m:2] = amp * np.cos(ph)
        u[1:2 * m:2] = amp * np.sin(ph)
        u[2 * m] = math.sqrt(w0)
        return u

    U = np.vstack([design(np.zeros(2)), design(x)])
    # one generator, reset per draw to the initial state of _philox(seed, i)
    gen = _philox(seed, 0)
    state = gen.bit_generator.state
    key = state["state"]["key"]
    prods = np.empty(M)
    for i in range(M):
        key[1] = i
        gen.bit_generator.state = state
        coeffs = gen.standard_normal(2 * m + 1)
        v = U @ coeffs
        prods[i] = v[0] * v[1]
    mean = float(prods.mean())
    stderr = float(prods.std(ddof=1) / math.sqrt(M))
    return mean, stderr
