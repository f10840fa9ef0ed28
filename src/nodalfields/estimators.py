"""Monte Carlo estimation of nodal-count asymptotics.

The expected count of compact nodal components in [-R, R]^2 grows like
c * 4R^2 with an O(R) correction, so c is recovered by weighted least squares
of mean/(4R^2) against 1/R over an increasing R schedule.  The absolute
discrepancy statistic plugs the fitted c back into single-R counts.

Everything is deterministic in (measure, schedule, M, seed): sample i of the
R_k block uses the counter-based stream k*M + i.  Sample loops run serially;
threads over draws wait for ROADMAP direction 8.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ScheduleTooShort
from .fields import (SquareDomain, TorusDomain, default_spacing, evaluate_grid,
                     grid_axes, grid_too_coarse, sample)
from .measures import SpectralMeasure, measure_to_dict
from .topology import count_components_plane, count_components_torus


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
    """census(grid) of draw(i) for i < M, on certified grids.

    Both censuses read signs only, so they take certified grids.  Warnings
    pass through, ``evaluate_grid``'s GridTooCoarse included: the default
    filter shows a warning once per message and call site, not per draw.
    """
    return [census(evaluate_grid(draw(i), domain, h, certified=True))
            for i in range(M)]


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
    scaled up by the reduced chi^2 when the linear model underfits.  An
    all-zero table gives c = 0 exactly; a table with some, not all, stderrs
    0 raises ValueError, since those blocks have no weight to give.
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
    flat = stderrs == 0.0
    if flat.any() and not flat.all():
        # the sigma floor would weigh these blocks ~1e30 and pin the fit
        raise ValueError(
            f"zero stderr at R = {Rs[flat].tolist()}: every draw there gave "
            f"the same count, so the fit cannot weigh those blocks against "
            f"the others; raise M or R")
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
    three strictly increasing values, or ValueError unless each is finite
    and at least 1, before any block is drawn."""
    R_schedule = list(R_schedule)
    if len(R_schedule) < 3:
        raise ScheduleTooShort("schedule needs >= 3 increasing R values")
    if not all(math.isfinite(R) and R >= 1 for R in R_schedule):
        raise ValueError(f"schedule radii must be finite and >= 1, "
                         f"got {R_schedule}")
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
                       planar_M: int | None = None) -> TorusReport:
    """Mean total component count of degree-n torus waves vs c(mu_n) * n.

    c(mu_n) is ``estimate_cns`` of mu_n over R = 10, 20, 40 with planar_M
    (default M) draws per R; the torus spacing h defaults to
    ``torus_spacing(n)``, and the report gives the lattice's, 1/round(1/h).
    The estimates share draws: a torus draw is the planar draw of its Philox
    stream (seed, i) at frequency scale sqrt(n), so the planar R = 10 block
    (streams i < planar_M) reuses the torus draws' coefficients for
    i < min(M, planar_M), and the later blocks those past planar_M."""
    # looked up per call, not at import: perfbench traces torus draws by
    # wrapping arithmetic.sample_torus_wave in place
    from .arithmetic import mu_n, sample_torus_wave, torus_spacing

    if M < 2:
        raise ValueError("need M >= 2")
    if planar_M is None:
        planar_M = M
    if planar_M < 10:
        # estimate_cns would fail only after the whole torus batch
        raise ValueError(f"need planar_M >= 10 (default: M), got {planar_M}")
    rho = mu_n(n)
    h = torus_spacing(n) if h is None else h
    censuses = _batch(lambda i: sample_torus_wave(n, seed, i), M,
                      TorusDomain(), h, count_components_torus)
    totals = np.array([c.total_components for c in censuses], dtype=float)
    wraps = np.array([c.wrapping_components for c in censuses], dtype=float)

    planar = estimate_cns(rho, (10.0, 20.0, 40.0), planar_M, seed)
    mean_total = float(totals.mean())
    resid = (mean_total - planar.cns_estimate * n) / math.sqrt(n)
    return TorusReport(
        n=n, M=M, h=grid_axes(TorusDomain(), h)[2], seed=seed,
        mean_total=mean_total,
        stderr_total=float(totals.std(ddof=1) / math.sqrt(M)),
        mean_wrapping=float(wraps.mean()),
        cns_mu_n=planar.cns_estimate, cns_stderr=planar.cns_stderr,
        residual_over_sqrt_n=float(resid))

