"""Monte Carlo estimation of nodal-count asymptotics.

The expected count of compact nodal components in [-R, R]^2 grows like
c * 4R^2 with an O(R) correction, so c is recovered by weighted least squares
of mean/(4R^2) against 1/R over an increasing R schedule.  The absolute
discrepancy statistic plugs the fitted c back into single-R counts.

Everything is deterministic in (measure, schedule, M, seed): sample i of the
R_k block uses the counter-based stream k*M + i.  Sample loops run serially:
a thread pool measured slower than one thread on this per-draw workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .errors import DegenerateMeasure, ScheduleTooShort
from .fields import (SquareDomain, TorusDomain, default_spacing, evaluate_grid,
                     grid_too_coarse, sample)
from .measures import SpectralMeasure, gradient_covariance, measure_to_dict
from .topology import (count_components_plane, count_components_torus,
                       interior_domain_areas)


def measure_digest(rho: SpectralMeasure) -> str:
    blob = json.dumps(measure_to_dict(rho), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class EstimatorReport:
    """The ``cns_report`` payload: each field is one key of ``to_dict()``."""

    measure: dict
    measure_hash: str
    schedule: list
    means: list
    stderrs: list
    M: int
    h: list
    seed: int
    cns_estimate: float
    cns_stderr: float
    slope: float
    residuals: list
    grid_too_coarse: bool = False

    def to_dict(self) -> dict:
        return {"kind": "cns_report", **asdict(self)}


def _batch(draw, M: int, domain, h: float | None, census) -> list:
    """census(grid) of draw(i) for i < M.

    Warnings pass through, ``evaluate_grid``'s GridTooCoarse included: the
    default filter shows a warning once per message and call site, not once
    per draw.
    """
    return [census(evaluate_grid(draw(i), domain, h)) for i in range(M)]


def interior_counts(rho: SpectralMeasure, R: float, M: int,
                    h: float | None, seed: int, stream_base: int = 0) -> np.ndarray:
    """Interior component counts over M independent samples."""
    censuses = _batch(lambda i: sample(rho, seed, stream_base + i), M,
                      SquareDomain(R), h, count_components_plane)
    return np.asarray([c.interior_components for c in censuses], dtype=float)


def estimate_mean_count(rho: SpectralMeasure, R: float, M: int,
                        h: float | None = None, seed: int = 0,
                        stream_base: int = 0):
    """(mean, stderr) of the interior component count on [-R, R]^2."""
    if M < 10:
        raise ValueError("need M >= 10")
    if R < 1:
        raise ValueError("need R >= 1")
    counts = interior_counts(rho, R, M, h, seed, stream_base)
    return float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(M))


def fit_cns_from_table(Rs, means, stderrs):
    """WLS fit of mean/(4R^2) = c + b/R; returns (c, c_stderr, b, residuals).

    Exactly recovers c from synthetic data of the form c*4R^2 + b*R.  Monte
    Carlo uncertainty enters through the weights; the parameter error is
    scaled up by the reduced chi^2 when the linear model underfits.
    """
    Rs = np.asarray(Rs, dtype=float)
    if len(Rs) < 3:
        raise ScheduleTooShort("need at least 3 R values")
    means = np.asarray(means, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    y = means / (4.0 * Rs ** 2)
    sig = np.maximum(stderrs / (4.0 * Rs ** 2), 1e-15)
    if np.all(means == 0.0) and np.all(stderrs == 0.0):
        return 0.0, 0.0, 0.0, np.zeros_like(y)
    X = np.column_stack([np.ones_like(Rs), 1.0 / Rs])
    W = 1.0 / sig ** 2
    A = X.T @ (W[:, None] * X)
    bvec = X.T @ (W * y)
    theta = np.linalg.solve(A, bvec)
    resid = y - X @ theta
    dof = len(Rs) - 2
    chi2 = float(np.sum(W * resid ** 2))
    scale = max(1.0, chi2 / dof)
    cov = np.linalg.inv(A) * scale
    return (float(theta[0]), float(math.sqrt(max(cov[0, 0], 0.0))),
            float(theta[1]), resid)


def _checked_schedule(R_schedule) -> list:
    """The R schedule as a list, or ScheduleTooShort unless it has at least
    three strictly increasing values."""
    R_schedule = list(R_schedule)
    if len(R_schedule) < 3:
        raise ScheduleTooShort("schedule needs >= 3 increasing R values")
    if any(b <= a for a, b in zip(R_schedule, R_schedule[1:])):
        raise ScheduleTooShort("schedule must be strictly increasing")
    return R_schedule


def estimate_cns(rho: SpectralMeasure, R_schedule, M: int = 200,
                 seed: int = 0, h: float | None = None) -> EstimatorReport:
    """Fit the leading nodal-count coefficient over an R schedule."""
    R_schedule = _checked_schedule(R_schedule)
    probe = sample(rho, seed, 0)
    h_eff = h if h is not None else default_spacing(probe)
    too_coarse = grid_too_coarse(probe, h_eff)

    means, errs, hs = [], [], []
    for k, R in enumerate(R_schedule):
        m, e = estimate_mean_count(rho, R, M, h_eff, seed, stream_base=k * M)
        means.append(m)
        errs.append(e)
        hs.append(h_eff)
    c, c_err, slope, resid = fit_cns_from_table(R_schedule, means, errs)
    return EstimatorReport(
        measure=measure_to_dict(rho), measure_hash=measure_digest(rho),
        schedule=R_schedule, means=means, stderrs=errs, M=M, h=hs,
        seed=seed, cns_estimate=c, cns_stderr=c_err, slope=slope,
        residuals=[float(r) for r in resid], grid_too_coarse=too_coarse)


def estimate_dns(rho: SpectralMeasure, R: float, M: int, seed: int,
                 cns_estimate: float, h: float | None = None) -> float:
    """Plug-in absolute discrepancy E|count/(4R^2) - c| at a single R.

    Bias is O(stderr of the plug-in c + 1/R); report alongside c.
    """
    if M < 1:
        raise ValueError("need M >= 1")
    if R < 1:
        raise ValueError("need R >= 1")
    if not math.isfinite(cns_estimate):
        raise ValueError(f"plug-in c must be finite, got {cns_estimate}")
    counts = interior_counts(rho, R, M, h, seed)
    return float(np.mean(np.abs(counts / (4.0 * R * R) - cns_estimate)))


@dataclass
class TorusReport:
    """The ``torus_report`` payload: each field is one key of ``to_dict()``."""

    n: int
    M: int
    h: float
    seed: int
    mean_total: float
    stderr_total: float
    mean_wrapping: float
    cns_mu_n: float
    cns_stderr: float
    residual_over_sqrt_n: float

    def to_dict(self) -> dict:
        return {"kind": "torus_report", **asdict(self)}


def torus_count_report(n: int, M: int, h: float | None = None, seed: int = 0,
                       planar_schedule=(10.0, 20.0, 40.0),
                       planar_M: int | None = None) -> TorusReport:
    """Mean total component count of degree-n torus waves vs c(mu_n) * n."""
    from .arithmetic import mu_n, sample_torus_wave, torus_spacing

    if M < 2:
        raise ValueError("need M >= 2")
    if planar_M is None:
        planar_M = M
    if planar_M < 10:
        # estimate_cns would fail only after the whole torus batch
        raise ValueError(f"need planar_M >= 10 (default: M), got {planar_M}")
    planar_schedule = _checked_schedule(planar_schedule)
    rho = mu_n(n)
    if h is None:
        h = torus_spacing(n)
    censuses = _batch(lambda i: sample_torus_wave(n, seed, i), M,
                      TorusDomain(), h, count_components_torus)
    totals = np.array([c.total_components for c in censuses], dtype=float)
    wraps = np.array([c.wrapping_components for c in censuses], dtype=float)

    planar = estimate_cns(rho, planar_schedule, planar_M, seed)
    mean_total = float(totals.mean())
    resid = (mean_total - planar.cns_estimate * n) / math.sqrt(n)
    return TorusReport(
        n=n, M=M, h=h, seed=seed, mean_total=mean_total,
        stderr_total=float(totals.std(ddof=1) / math.sqrt(M)),
        mean_wrapping=float(wraps.mean()),
        cns_mu_n=planar.cns_estimate, cns_stderr=planar.cns_stderr,
        residual_over_sqrt_n=float(resid))


def continuity_experiment(measure_path, R: float, M: int, seed: int,
                          h: float | None = None):
    """c estimates along a measure path, keyed by distance to the endpoint.

    Returns a list of row dicts and the tail modulus
    max_{k >= j} |c_k - c_end|; the schedule (R/4, R/2, R) is derived from R.
    """
    measures = list(measure_path)
    if len(measures) < 3:
        raise ScheduleTooShort("path needs >= 3 measures")
    schedule = [R / 4.0, R / 2.0, R]
    from .measures import weak_star_distance

    reports = [estimate_cns(rho, schedule, M, seed, h) for rho in measures]
    end = measures[-1]
    rows = []
    for rho, rep in zip(measures, reports):
        rows.append({
            "distance_to_end": weak_star_distance(rho, end),
            "cns_estimate": rep.cns_estimate,
            "cns_stderr": rep.cns_stderr,
        })
    c_end = reports[-1].cns_estimate
    tail = [max(abs(r["cns_estimate"] - c_end) for r in rows[j:])
            for j in range(len(rows))]
    return rows, tail


def faber_krahn_min_area(kappa_value: float) -> float:
    """Least possible nodal-domain area for a wave with Delta f + k^2 f = 0."""
    j0 = float(special.jn_zeros(0, 1)[0])
    return math.pi * j0 * j0 / (kappa_value ** 2)


def small_domain_report(rho: SpectralMeasure, R: float, M: int,
                        delta_schedule, seed: int,
                        h: float | None = None):
    """Mean count of area-below-delta domains per R^2, with a log-log slope."""
    if M < 1:
        raise ValueError("need M >= 1")
    if gradient_covariance(rho).is_degenerate(1e-12):
        raise DegenerateMeasure("small-domain statistics need a nondegenerate measure")
    deltas = np.asarray(sorted(delta_schedule), dtype=float)
    areas = _batch(lambda i: sample(rho, seed, i), M, SquareDomain(R), h,
                   interior_domain_areas)
    table = np.array([np.count_nonzero(a[:, None] < deltas, axis=0)
                      for a in areas], dtype=float)
    dens = table.mean(axis=0) / (R * R)
    mask = dens > 0
    if np.count_nonzero(mask) >= 2:
        slope = float(np.polyfit(np.log(deltas[mask]), np.log(dens[mask]), 1)[0])
    else:
        slope = float("nan")
    return {"deltas": deltas.tolist(), "density": dens.tolist(), "slope": slope}
