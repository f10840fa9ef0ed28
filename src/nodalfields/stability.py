"""Stability gauges, coupled sampling, and the perturbation sandwich.

A field is beta-stable on a region when max(|f|, |grad f|) stays above beta
everywhere; stable nodal patterns survive uniform perturbations smaller than
beta, so for coupled draws that are close in C^1 the counts of the perturbed
field at R -/+ 1 must sandwich the count of the reference field at R.  All
gauges are grid minima/maxima (an upper estimate of the true min; h recorded).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainMismatch
from .fields import (
    FieldSample,
    ScalarGrid,
    SquareDomain,
    _philox,
    default_spacing,
    evaluate_grid,
    grid_axes,
    inject_sample,
)
from .measures import SpectralMeasure, _slot, antipodal_pairs, preset
from .topology import count_components_plane


@dataclass(frozen=True)
class StabilityProfile:
    """Grid min of max(|f|, |grad f|) plus the grid C^2 norm.

    The ``stability_profile`` payload: each field is one key of ``to_dict()``.
    """

    minmax: float
    c2_norm: float
    h: float
    domain: str

    def to_dict(self):
        return {"kind": "stability_profile", **asdict(self)}


def _minmax(g: ScalarGrid) -> float:
    """Grid min of max(|f|, |grad f|), the beta-stability gauge."""
    return float(np.maximum(np.abs(g.values), np.hypot(g.d1, g.d2)).min())


def stability_profile(s: FieldSample, domain, h: float | None = None) -> StabilityProfile:
    g = evaluate_grid(s, domain, h, order=2)
    c2 = max(float(np.abs(arr).max())
             for arr in (g.values, g.d1, g.d2, g.d11, g.d12, g.d22))
    return StabilityProfile(minmax=_minmax(g), c2_norm=c2, h=g.h,
                            domain=g.domain.descriptor())


def c1_distance(g1: ScalarGrid, g2: ScalarGrid) -> float:
    """Grid C^1 distance: max over |f1-f2|, |d1 f1-d1 f2|, |d2 f1-d2 f2|.

    g1 and g2 are order-1 grids of one domain and spacing.
    """
    if g1.values.shape != g2.values.shape or abs(g1.h - g2.h) > 1e-12 \
            or g1.domain.descriptor() != g2.domain.descriptor():
        raise DomainMismatch("grids do not share a domain")
    return max(float(np.abs(g1.values - g2.values).max()),
               float(np.abs(g1.d1 - g2.d1).max()),
               float(np.abs(g1.d2 - g2.d2).max()))


# ---------------------------------------------------------------------------
# Coupling

def _transport_plan(reps0, pw0, reps1, pw1):
    """Greedy nearest matching with mass splitting between two pair lists.

    Candidates (i, j) are visited by the distance between reps0[i] and the
    closer of +-reps1[j], ties broken by (i, j): one stable argsort of the
    flat distance matrix.  A candidate whose two sides both keep more than
    1e-15 of their mass moves min(rem0[i], rem1[j]).  Returns the matched
    (i, j, sign, mass) arrays in visit order, sign being the one that aligns
    reps1[j], and the leftover mass of each side.
    """
    px, py = reps0[:, 0, None], reps0[:, 1, None]
    qx, qy = reps1[None, :, 0], reps1[None, :, 1]
    d_plus = np.hypot(px - qx, py - qy)
    d_minus = np.hypot(px + qx, py + qy)
    order = np.argsort(np.minimum(d_plus, d_minus), axis=None, kind="stable")
    ii, jj = np.unravel_index(order, d_plus.shape)
    rem0, rem1 = pw0.tolist(), pw1.tolist()
    hits, mass = [], []
    for n, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        if rem0[i] <= 1e-15 or rem1[j] <= 1e-15:
            continue
        m = min(rem0[i], rem1[j])
        hits.append(n)
        mass.append(m)
        rem0[i] -= m
        rem1[j] -= m
    hits = np.array(hits, dtype=np.intp)
    i, j = ii[hits], jj[hits]
    sign = np.where(d_plus[i, j] <= d_minus[i, j], 1.0, -1.0)
    return i, j, sign, np.array(mass, dtype=float), np.array(rem0), np.array(rem1)


def coupled_sample(rho0: SpectralMeasure, rho1: SpectralMeasure, seed: int,
                   stream: int = 0):
    """Draw (f0, f1) with shared Gaussian coefficients on transported mass.

    Antipodal-pair representatives are greedily matched by distance on the
    half-disc (mass splitting allowed); matched mass reuses one coefficient
    pair in both fields, leftover mass gets independent coefficients, so each
    marginal law is exact while the fields decouple only on unmatched mass.
    Identical measures yield identical samples.  The transport plan depends
    on the two measures only: it is built once per measure pair and kept,
    read-only, in a slot on rho0 keyed by the identity of rho1's pair table.

    One Philox stream (seed, stream) gives 2E + 2n0 + 2n1 + 3 standard
    normals, for E plan entries and n0, n1 antipodal pairs, laid out as:
    an (a, b) pair per plan entry in plan order; an (a, b) pair per pair of
    rho0, then per pair of rho1, for their leftover mass (drawn even when
    there is none); the shared origin normal; the origin normals of f0 and
    of f1.  Every seeded coupled draw depends on this layout.
    """
    reps0, pw0, w0_0 = antipodal_pairs(rho0)
    table1 = antipodal_pairs(rho1)
    reps1, pw1, w0_1 = table1

    def build():
        plan = _transport_plan(reps0, pw0, reps1, pw1)
        for arr in plan:
            arr.setflags(write=False)
        return plan

    i, j, sign, mass, left0, left1 = _slot(
        rho0, "_transport_plan", (id(table1), table1), build)

    n_e, n0, n1 = len(mass), len(pw0), len(pw1)
    z = _philox(seed, stream).standard_normal(2 * (n_e + n0 + n1) + 3)
    ab, own0, own1 = (a.reshape(-1, 2) for a in
                      np.split(z[:-3], [2 * n_e, 2 * (n_e + n0)]))
    c_shared, z_o0, z_o1 = z[-3:]

    # np.add.at adds in entry order, leftovers last, as a sequential sum would
    root = np.sqrt(mass)[:, None]
    acc0 = np.zeros((n0, 2))
    acc1 = np.zeros((n1, 2))
    np.add.at(acc0, i, root * ab)
    np.add.at(acc1, j, root * np.column_stack([ab[:, 0], sign * ab[:, 1]]))
    for acc, left, own in ((acc0, left0, own0), (acc1, left1, own1)):
        keep = left > 1e-15
        acc[keep] += np.sqrt(left[keep])[:, None] * own[keep]

    # origin channel: shared coefficient on the matched mass
    o0 = o1 = 0.0
    m_sh = min(w0_0, w0_1)
    if w0_0 > 0:
        o0 = (math.sqrt(m_sh) * c_shared
              + math.sqrt(w0_0 - m_sh) * z_o0) / math.sqrt(w0_0)
    if w0_1 > 0:
        o1 = (math.sqrt(m_sh) * c_shared
              + math.sqrt(w0_1 - m_sh) * z_o1) / math.sqrt(w0_1)

    with np.errstate(invalid="ignore", divide="ignore"):
        c0 = np.where(pw0[:, None] > 0, acc0 / np.sqrt(pw0)[:, None], 0.0)
        c1 = np.where(pw1[:, None] > 0, acc1 / np.sqrt(pw1)[:, None], 0.0)

    f0 = inject_sample(rho0, c0, origin_coeff=o0)
    f1 = inject_sample(rho1, c1, origin_coeff=o1)
    return f0, f1


@dataclass
class SandwichReport:
    """The ``stability_report`` payload: each field is one key of
    ``to_dict()``, which adds the derived ``violation_rate``."""

    M: int
    filtered: int
    violations: int
    beta: float
    R: float
    seed: int

    @property
    def violation_rate(self) -> float:
        return self.violations / self.filtered if self.filtered else 0.0

    def to_dict(self):
        return {"kind": "stability_report", **asdict(self),
                "violation_rate": self.violation_rate}


def _subcensus(grid: ScalarGrid, R_inner: float) -> int:
    """Interior count on the centered subsquare of an already evaluated grid.

    Raises DomainMismatch where the subsquare is not grid-aligned or does not
    fit in the grid.
    """
    R_outer = grid.domain.R
    k = int(round((R_outer - R_inner) / grid.h))
    if abs(k * grid.h - (R_outer - R_inner)) > 1e-9:
        raise DomainMismatch("subsquare is not grid-aligned")
    if k < 0:
        # slice(k, n - k) would take the grid's last |k| rows and columns
        raise DomainMismatch(f"subsquare R={R_inner:g} does not fit in the "
                             f"grid's square R={R_outer:g}")
    sl = slice(k, grid.values.shape[0] - k)
    sub = ScalarGrid(domain=SquareDomain(R_inner), h=grid.h,
                     xs=grid.xs[sl], ys=grid.ys[sl],
                     values=grid.values[sl, sl])
    return count_components_plane(sub).interior_components


def sandwich_check(rho0: SpectralMeasure, rho1: SpectralMeasure, R: float,
                   M: int, beta: float, seed: int,
                   h: float | None = None) -> SandwichReport:
    """Fraction of stable-and-close coupled draws violating the count sandwich.

    Filters: min-max of the reference field above 2*beta on the outer square
    (stability) and grid C^1 distance below beta (closeness); beta = inf
    disables both filters.  Among filtered draws the perturbed counts at
    R -/+ 1 must bracket the reference count at R, all cut from one grid
    on R + 1 whose spacing h divides 1: the default, the pair's finer
    ``default_spacing``, is refined to 1/ceil(1/h) where it does not, and
    any other h, or one whose lattice on R + 1 passes the node cap of
    ``grid_axes``, raises ValueError before the first draw.
    """
    if R < 1:
        raise ValueError("need R >= 1")
    if M < 1:
        raise ValueError("need M >= 1")
    if not beta > 0:
        raise ValueError(f"need beta > 0 (inf: no filters), got {beta}")
    outer = SquareDomain(R + 1.0)
    if h is not None:
        if not (0 < h <= 1 and math.isfinite(1 / h)
                and abs(math.remainder(1 / h, 1)) <= 1e-9):
            raise ValueError(f"need a spacing h that divides 1, got {h}")
        grid_axes(outer, h)
    # only the filters read derivative grids
    order = 1 if math.isfinite(beta) else 0
    filtered = violations = 0
    for i in range(M):
        f0, f1 = coupled_sample(rho0, rho1, seed, stream=i)
        if h is None:
            h = min(default_spacing(f0), default_spacing(f1))
            if abs(math.remainder(1 / h, 1)) > 1e-9:
                h = 1 / math.ceil(1 / h)
        g0 = evaluate_grid(f0, outer, h, order=order)
        g1 = evaluate_grid(f1, outer, h, order=order)
        if math.isfinite(beta):
            if _minmax(g0) <= 2.0 * beta:
                continue
            if c1_distance(g0, g1) >= beta:
                continue
        filtered += 1
        n0_R = _subcensus(g0, R)
        n1_lo = _subcensus(g1, R - 1.0)
        n1_hi = _subcensus(g1, R + 1.0)
        if not (n1_lo <= n0_R <= n1_hi):
            violations += 1
    return SandwichReport(M=M, filtered=filtered, violations=violations,
                          beta=beta, R=R, seed=seed)


# ---------------------------------------------------------------------------
# Deterministic example fields over three antipodal pairs

_AMP2 = 1.0 + 0.8 ** 2 + 1.0  # squared amplitudes of the printed formulas
_SQ = math.sqrt(_AMP2)
_G_SIN_Y = 0.1  # sin y coefficient of 'g'; see section7_field


def section7_measure(which: str) -> SpectralMeasure:
    if which in ("f", "g"):
        return preset("section7_three_pair")
    if which == "monochromatic_g":
        return preset("section7_monochromatic_six_point")
    raise ValueError("which must be 'f', 'g', or 'monochromatic_g'")


def section7_field(which: str, perturbation=None) -> FieldSample:
    """The deterministic witness fields, exactly injected.

    'f'  = sin x + 0.8 sin 3x + sin y     (many compact components)
    'g'  = sin x + 0.8 sin 3x + 0.1 sin y (none)
    'monochromatic_g' = 2 cos x + cos y    (none; monochromatic measure)

    The sin y coefficient of 'g' sets its stability margin.  With
    h(x) = sin x + 0.8 sin 3x, h' = cos x (9.6 cos^2 x - 6.2), so the
    extrema of h are +-(1 - 0.8) = +-0.2 at x = +-pi/2 and +-1.349 elsewhere.
    A coefficient of 0.2 would make g vanish with zero gradient at
    (pi/2, -pi/2), the point where small ovals are born; at 0.1 the grid
    min of max(|g|, |grad g|) is 0.1, above the C^1 size of the +-0.01
    perturbations below (at most 0.06 in value, 0.083 in gradient), so every
    such perturbation of 'g' stays loop-free.

    perturbation: 6 coefficients (eps1..eps6) adding
    eps1 sin x + eps2 cos x + eps3 sin 3x + eps4 cos 3x + eps5 sin y
    + eps6 cos y for the three-pair fields, or 4 coefficients adding
    eps1 sin x + eps2 sin y + eps3 cos((x+y)/sqrt 2) + eps4 sin((x+y)/sqrt 2)
    for the monochromatic one.
    """
    if which in ("f", "g"):
        rho = section7_measure(which)
        # canonical pair order: (1,0) [freq 3x], (1/3,0) [freq x], (0,1/3) [freq y]
        b_y = _SQ if which == "f" else _G_SIN_Y * _SQ
        coeffs = np.array([[0.0, _SQ], [0.0, _SQ], [0.0, b_y]])
        if perturbation is not None:
            e = np.asarray(perturbation, dtype=float)
            if e.shape != (6,):
                raise ValueError("need 6 perturbation coefficients")
            coeffs = coeffs + np.array([
                [e[3] * _SQ / 0.8, e[2] * _SQ / 0.8],
                [e[1] * _SQ, e[0] * _SQ],
                [e[5] * _SQ, e[4] * _SQ]])
        return inject_sample(rho, coeffs, freq_scale=3.0)

    rho = section7_measure("monochromatic_g")
    sq3 = math.sqrt(3.0)
    # canonical pair order: (1,0), (1/sqrt2,1/sqrt2), (0,1)
    coeffs = np.array([[2.0 * sq3, 0.0], [0.0, 0.0], [sq3, 0.0]])
    if perturbation is not None:
        e = np.asarray(perturbation, dtype=float)
        if e.shape != (4,):
            raise ValueError("need 4 perturbation coefficients")
        coeffs = coeffs + np.array([
            [0.0, e[0] * sq3],
            [e[2] * sq3, e[3] * sq3],
            [0.0, e[1] * sq3]])
    return inject_sample(rho, coeffs, freq_scale=1.0)
