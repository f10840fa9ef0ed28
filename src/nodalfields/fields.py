"""Exact realizations of stationary Gaussian fields with atomic spectra.

A sample is a finite trigonometric sum: one (cos, sin) coefficient pair per
antipodal atom pair, so values and derivatives are available in closed form
anywhere.  With i.i.d. standard normal coefficients the sample reproduces the
measure's covariance function exactly; there is no discretization in the law.
A derivative d.grad f along a fixed direction is again such a sum over the
same atoms, the slope sample (``_slope_sample``), so derivative grids and
point values come from the value evaluators.  ``evaluate_batch`` gives
values only, and each point's value does not depend on the batch it comes in.

Coefficients come from a counter-based generator (Philox) keyed by
(seed, stream index), so Monte Carlo batches are reproducible independently of
evaluation order.

Grid evaluation is separable: cos(c1 x + c2 y) splits into outer products
of 1-D cos/sin tables, so each grid, values or derivative, is one matrix
product instead of a per-pair lattice sweep.  The lattice axes and tables
depend on (measure, freq_scale, domain, h) only.  They are kept read-only in
one slot on the measure, keyed by (freq_scale, domain, h), so a batch of draws
over one measure and one lattice builds them once; a new key replaces them.

A reader of signs only, such as a census, takes a certified grid: a float32
product whose rounding error has a bound (N. J. Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 3.1).  This
module certifies no sign: ``topology.grid_signs`` gives each node the sign
of a float64 value, from ``evaluate_batch`` where the bound cannot decide.
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
# Products of at most this many multiply-adds may run in OpenBLAS's AVX-512
# small-matrix kernels, whose bits depend on the operands' layout and on the
# numpy/BLAS build: they take a Fortran-ordered right factor, and between
# builds only counts at tie-level nodes can differ.
SMALL_GEMM = 10**6
# Node cap of grid_axes: a grid of 2^28 float64 nodes fills 2 GiB; the
# largest report grid has about 1.7e6 nodes.
MAX_GRID_NODES = 2**28
# A certified grid's coefficients must keep their amplitude sum below this,
# so that no float32 value or partial sum can overflow (float32 reaches
# 2^128); other grids stay float64.
MAX_FLOAT32_SCALE = 2.0**100


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
    """One realization: a measure plus Gaussian coefficients, drawn or given.

    Evaluation formula (kappa the measure's exponent factor, s = freq_scale):

        f(x) = origin_coeff * sqrt(w0)
             + sum_k sqrt(W_k) * (a_k cos(kappa*s*<xi_k, x>)
                                  + b_k sin(kappa*s*<xi_k, x>))

    xi_k (reps), W_k (pair_weights), w0 (origin_weight) and kappa are read
    from the measure, not copied; coeff_a and coeff_b hold one entry per pair
    of its antipodal pair table, in order.  It keeps no seed.
    """

    measure: SpectralMeasure
    coeff_a: np.ndarray
    coeff_b: np.ndarray
    origin_coeff: float = 0.0
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

    def min_wavelength(self) -> float:
        """2 pi over the largest frequency norm; inf if none or it is 0."""
        fmax = float(np.hypot(*self.frequencies.T).max(initial=0.0))
        return math.inf if fmax == 0.0 else 2.0 * math.pi / fmax

    def amplitudes(self) -> np.ndarray:
        return np.sqrt(self.pair_weights)


@dataclass
class ScalarGrid:
    """Field values, and the derivative grids an order asks for, on a lattice.

    values[i, j] is the field at (xs[i], ys[j]); d1, d2, d11, d12, d22 are
    its derivatives there, or None.  Grids from evaluate_grid share their
    read-only axes with every grid of the same lattice.  A certified grid
    (``evaluate_grid(..., certified=True)``) has float32 values within
    bound of the float64 grid's, and keeps its sample, from which its
    signs are read (``topology.grid_signs``): a node's float32 value may
    sit on the other side of the tie threshold, its sign may not.  Both
    are None on a float64 grid.
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
    sample: FieldSample | None = None
    bound: float | None = None

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
        origin_coeff=float(coeffs[2 * m]), freq_scale=freq_scale)


def inject_sample(rho: SpectralMeasure, coeffs, origin_coeff: float = 0.0,
                  freq_scale: float = 1.0) -> FieldSample:
    """A sample with given (a_k, b_k) pairs, in canonical pair order.

    Coupled draws and section 7 fields come from here; canonical order is
    lexicographically descending representatives (measures.antipodal_pairs).
    """
    m = len(antipodal_pairs(rho)[1])
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (m, 2):
        raise ValueError(f"expected {(m, 2)} coefficient array, got {coeffs.shape}")
    return FieldSample(
        measure=rho, coeff_a=coeffs[:, 0].copy(), coeff_b=coeffs[:, 1].copy(),
        origin_coeff=float(origin_coeff), freq_scale=freq_scale)


def evaluate_batch(s: FieldSample, pts) -> np.ndarray:
    """Values at (N, 2) points, each pair term summed in closed form.

    A derivative along a direction is a sample of its own (see the module
    docstring), so this gives values only.  Each point's value is the one
    it gets alone: the phases and terms are elementwise products and each
    row is summed on its own, where a matrix product's BLAS kernel, and so
    its rounding, would depend on N.
    """
    pts = np.asarray(pts, dtype=float)
    C = s.frequencies
    ph = np.multiply.outer(pts[:, 0], C[:, 0])        # (N, m)
    terms = np.multiply.outer(pts[:, 1], C[:, 1])
    ph += terms
    amp = s.amplitudes()
    np.cos(ph, out=terms)
    terms *= amp * s.coeff_a
    np.sin(ph, out=ph)
    ph *= amp * s.coeff_b
    terms += ph
    return terms.sum(axis=1) + s.origin_coeff * math.sqrt(s.origin_weight)


def _slope_sample(s: FieldSample, d: np.ndarray) -> FieldSample:
    """d.grad f as a sample of the same measure; the one derivative rule.

    d.grad of a_k cos phi_k + b_k sin phi_k is
    (d.c_k)(b_k cos phi_k - a_k sin phi_k), so the slope sample has the
    pairs (d.c_k)(b_k, -a_k) and no origin term.
    """
    dc = s.frequencies @ d
    return FieldSample(measure=s.measure, coeff_a=dc * s.coeff_b,
                       coeff_b=-dc * s.coeff_a, freq_scale=s.freq_scale)


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
    """Lattice axes for a domain; torus spacing is snapped to 1/n.  A side
    of up to 2R/h + 1 nodes (1/h + 1/2 on the torus) that allows more than
    MAX_GRID_NODES nodes raises ValueError before any array is allocated."""
    if isinstance(domain, SquareDomain):
        if not (math.isfinite(domain.R) and domain.R >= 0):
            raise ValueError(f"square half-side R must be finite and >= 0, "
                             f"got {domain.R}")
        side = 2.0 * domain.R / h + 1.0
    elif isinstance(domain, TorusDomain):
        side = 1.0 / h + 0.5
    else:
        raise TypeError(f"unknown domain {domain!r}")
    if not side * side <= MAX_GRID_NODES:
        raise ValueError(f"h={h:.4g} gives a lattice side of {side:.4g}, "
                         f"past MAX_GRID_NODES")
    if isinstance(domain, TorusDomain):
        n = max(2, int(round(1.0 / h)))
        xs = np.arange(n) / n
        return xs, xs.copy(), 1.0 / n
    n = int(math.floor(2.0 * domain.R / h + 1e-9)) + 1
    xs = -domain.R + h * np.arange(n)
    return xs, xs.copy(), h


def grid_too_coarse(s: FieldSample, h: float) -> bool:
    """Resolution rule: fewer than MIN_POINTS_PER_WAVELENGTH nodes per
    minimal wavelength on a lattice of spacing h (the lattice's own)."""
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
    """(xs, ys, h_eff, U, U32, cy, sy), read-only, from the measure's table
    slot.

    U = [cos, sin](xs c1), (nx, 2m), U32 its float32 copy, and cy, sy =
    cos, sin(c2 ys), C-ordered (m, ny) pair rows, for the frequency columns
    c1, c2 of s.
    """
    def build():
        xs, ys, h_eff = grid_axes(domain, h)
        C = s.frequencies
        phx = np.outer(xs, C[:, 0])
        phy = np.outer(ys, C[:, 1])
        U = np.hstack([np.cos(phx), np.sin(phx)])
        U32 = U.astype(np.float32)
        cy, sy = np.cos(phy).T.copy(), np.sin(phy).T.copy()
        for arr in (xs, ys, U, U32, cy, sy):
            arr.setflags(write=False)
        return xs, ys, h_eff, U, U32, cy, sy

    return _slot(s.measure, "_axis_tables", (s.freq_scale, domain, h), build)


def _float32_bound(s: FieldSample, origin: float) -> float | None:
    """The bound of a certified grid of s, or None where s has none.

    With |U| <= 1, by Cauchy-Schwarz over each pair's (cos, sin) entries
    the terms of a node's product sum to at most A = sum_k sqrt(W_k)
    |(a_k, b_k)|.  A float32 product of the 2m-term dot products, casts of
    U and V included, then errs by at most about (2m + 2) 2^-24 A, and
    adding origin by 2^-24 (A + 2 |origin|), so

        bound = (2m + 4) (2^-23 (A + |origin|) + 2^-124)

    is about twice that.  The slack covers the float64 grid's own rounding
    and terms of order 2^-48, and the last term float32 underflow, where
    each operation may err by 2^-126 absolute.  Coefficients that are not
    finite, or whose A + |origin| passes MAX_FLOAT32_SCALE, get None: their
    grid is float64, and ``topology.grid_signs`` checks it for non-finite
    values where its signs are read.  A grid with a bound is not checked.
    """
    scale = (float(s.amplitudes() @ np.hypot(s.coeff_a, s.coeff_b))
             + abs(origin))
    if not scale <= MAX_FLOAT32_SCALE:
        return None
    return (2 * len(s.coeff_a) + 4) * (scale * 2.0**-23 + 2.0**-124)


def evaluate_grid(s: FieldSample, domain, h: float | None = None,
                  order: int = 0, certified: bool = False) -> ScalarGrid:
    """Evaluate on the lattice of a square or torus domain.

    h (default ``default_spacing(s)``) must be finite and positive.  The
    grid's h is the lattice's, which the torus snaps to 1/n; where that h is
    ``grid_too_coarse``, GridTooCoarse warns at the caller, so a batch
    warns once per call site.  order 0 fills values, 1 adds d1 and d2, and
    2 adds d11, d12 and d22; any other order raises ValueError.  A
    derivative grid is the value grid of a slope sample (``_slope_sample``):
    d1, d2 of f along e1, e2; d11, d12 of d1 along e1, e2; d22 of d2 along
    e2.  Each grid is one product of the x table U (nx, 2m) with one
    (2m, ny) right factor V, S1 = wa cy + wb sy over S2 = wb cy - wa sy for
    the sample's weighted pairs, refilled in place from the (m, ny) y rows.
    The axes and tables come from one slot on the measure keyed by
    (freq_scale, domain, h): built on the first grid of a key, shared
    read-only (the grid's xs and ys too) until another key replaces them.

    certified=True, for order 0 only, asks for a certified grid (see
    ScalarGrid): V is folded in float64 and cast, and the product takes
    the float32 copy of U, about twice as fast as float64 on one core.
    The grid carries its float32 values, their bound (``_float32_bound``)
    and s; its signs come from ``topology.grid_signs``.  Coefficients with
    no bound (not finite, or too large for float32) give a float64 grid.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"evaluate_grid takes order 0, 1 or 2, got {order!r}")
    if certified and order:
        raise ValueError("a certified grid has values only (order 0)")
    h = default_spacing(s) if h is None else h
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h}")
    xs, ys, h_eff, U, U32, cy, sy = _axis_tables(s, domain, h)
    if grid_too_coarse(s, h_eff):
        warnings.warn(f"grid spacing {h_eff:.4g} gives fewer than "
                      f"{MIN_POINTS_PER_WAVELENGTH} points per minimal "
                      f"wavelength {s.min_wavelength():.4g}", GridTooCoarse,
                      stacklevel=2)
    origin = s.origin_coeff * math.sqrt(s.origin_weight)
    bound = _float32_bound(s, origin) if certified else None
    samples = [s]
    if order >= 1:
        e1, e2 = np.eye(2)
        g1, g2 = _slope_sample(s, e1), _slope_sample(s, e2)
        samples += [g1, g2]
        if order == 2:
            samples += [_slope_sample(g1, e1), _slope_sample(g1, e2),
                        _slope_sample(g2, e2)]
    # in a C-ordered V each pair's coefficient scales one contiguous row.
    # BLAS rounds the product alike for either layout of V except in
    # OpenBLAS's small-matrix kernels, so a small product takes a
    # Fortran-ordered V: seeded grids of every size keep their bits
    m, ny = len(cy), len(ys)
    small = 2 * m * len(xs) * ny <= SMALL_GEMM
    V = np.empty((2 * m, ny), order="F" if small else "C")
    S1, S2 = V[:m], V[m:]                   # pairs along rows
    grids = []
    for t in samples:
        amp = t.amplitudes()
        wa, wb = (amp * t.coeff_a)[:, None], (amp * t.coeff_b)[:, None]
        np.multiply(wa, cy, out=S1)
        S1 += wb * sy
        np.multiply(wb, cy, out=S2)
        S2 -= wa * sy
        if bound is not None:               # the one grid, in float32
            U, V = U32, V.astype(np.float32)
        grids.append(U @ V)
    if origin:
        # a zero constant could only turn a -0.0 node into +0.0, which the
        # tie rule and every reader treat alike
        grids[0] += origin
    return ScalarGrid(domain, h_eff, xs, ys, *grids, bound=bound,
                      sample=None if bound is None else s)


def cilleruelo_field(seed: int, stream: int = 0) -> FieldSample:
    """Sample of the four-atom axis measure with kappa = 1.

    The result is (1/sqrt(2)) * (xi1 cos x1 + xi2 sin x1 + xi3 cos x2
    + xi4 sin x2); its Rayleigh amplitudes are hypot(coeff_a, coeff_b).
    """
    return sample(_cilleruelo_measure("one"), seed, stream)


@functools.cache
def _cilleruelo_measure(kappa: str) -> SpectralMeasure:
    """The four-atom axis measure, built once per kappa convention.

    A measure is frozen with read-only arrays, so every Cilleruelo sample can
    share one (and its pair table and grid tables).
    """
    return preset("cilleruelo", kappa=kappa)
