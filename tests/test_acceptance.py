"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output).  Heavy Monte Carlo artifacts are shared through
module-scoped fixtures; everything is seeded and deterministic.
"""

import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from nodalfields.arithmetic import (
    cilleruelo_torus_field,
    mu_n,
    r2,
    sample_torus_wave,
)
from nodalfields.estimators import estimate_cns, torus_count_report
from nodalfields.fields import (
    SquareDomain,
    TorusDomain,
    cilleruelo_field,
    evaluate_grid,
    sample,
)
from nodalfields.kacrice import (
    curve_intersection_density,
    diagonal_flip_density,
    directional_flip_density,
    flip_density,
)
from nodalfields.measures import (
    covariance,
    gradient_covariance,
    make_atomic,
    preset,
)
from nodalfields.stability import sandwich_check, section7_field
from nodalfields.topology import (
    count_components_plane,
    count_components_torus,
    count_curve_intersections,
    count_flips,
)
from oracles import covariance_mc, r2_divisor_oracle

NU0_ONE = preset("cilleruelo", kappa="one")
U64 = preset("uniform_circle", K=64)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def u64_cns_report():
    # shared by criteria 7 and 8: M=200, schedule {10, 20, 40}
    return estimate_cns(U64, [10.0, 20.0, 40.0], M=200, seed=101)


def test_criterion_01_cilleruelo_null_count():
    t0 = time.time()
    dom = SquareDomain(20.0)
    worst = 0
    for i in range(200):
        s = cilleruelo_field(seed=1000, stream=i)
        c = count_components_plane(evaluate_grid(s, dom, 0.05))
        worst = max(worst, c.interior_components)
    ok = worst == 0
    assert report(1, "axis-measure fields have no compact components", ok,
                  f"max interior over 200 seeds = {worst} ({time.time()-t0:.0f}s)")


def test_criterion_02_diagonal_density_vanishes():
    d0 = diagonal_flip_density(NU0_ONE)
    d0b = diagonal_flip_density(preset("cilleruelo"))
    dt = directional_flip_density(preset("tilted_cilleruelo", kappa="one"),
                                  (1.0, 0.0))
    ok = abs(d0) <= 1e-12 and abs(d0b) <= 1e-12 and abs(dt) <= 1e-12
    assert report(2, "diagonal zero-density identities", ok,
                  f"nu0: {d0:.2e}, nu0(2pi): {d0b:.2e}, tilted/axis: {dt:.2e}")


def test_criterion_03_degenerate_measures():
    t0 = time.time()
    ok = True
    details = []
    for name in ("two_point", "delta_zero"):
        rho = preset(name)
        lam = gradient_covariance(rho).lambda_min
        ok &= lam < 1e-12
        worst = 0
        dom = SquareDomain(10.0)
        for i in range(200):
            s = sample(rho, seed=1100, stream=i)
            c = count_components_plane(evaluate_grid(s, dom, h=0.25))
            worst = max(worst, c.interior_components)
        ok &= worst == 0
        details.append(f"{name}: lambda_min={lam:.1e}, max interior={worst}")
    assert report(3, "degenerate measures yield no compact components", ok,
                  "; ".join(details) + f" ({time.time()-t0:.0f}s)")


# Criterion 4 makes 10 two-sided z checks (2 measures x 5 displacements) that
# share seeds across the two measures, so they are gated as one family with
# Bonferroni, which holds under any dependence.  The family-wise false-alarm
# rate is the one a single 3-sigma criterion in this file carries,
# 2 (1 - Phi(3)) = 0.27%; split over 20 tails it gives the per-check bound
# |z| < Phi^-1(1 - 0.0027 / 20) = 3.64.
SAMPLER_CHECKS = 10
SAMPLER_FAMILY_RATE = 2 * (1 - NormalDist().cdf(3.0))
SAMPLER_Z_BOUND = NormalDist().inv_cdf(
    1 - SAMPLER_FAMILY_RATE / (2 * SAMPLER_CHECKS))


def test_criterion_04_sampler_fidelity():
    t0 = time.time()
    M = 10 ** 5
    ok = True
    worst_z = 0.0
    n_checks = 0
    displacements = [(0.5, 0.0), (math.pi, 0.0), (1.0, 1.0), (0.25, -0.75),
                     (2.0, 0.5)]
    for rho, analytic in (
            (NU0_ONE, lambda x: 0.5 * (math.cos(x[0]) + math.cos(x[1]))),
            (U64, lambda x: covariance(U64, x))):
        for j, x in enumerate(displacements):
            mean, se = covariance_mc(rho, x, M, seed=1200 + j)
            z = abs(mean - analytic(x)) / se
            worst_z = max(worst_z, z)
            ok &= z < SAMPLER_Z_BOUND
            n_checks += 1
    ok &= n_checks == SAMPLER_CHECKS
    assert report(4, "empirical covariance matches analytic", ok,
                  f"max |z| = {worst_z:.2f} over {n_checks} displacement "
                  f"checks at M=1e5, gate |z| < {SAMPLER_Z_BOUND:.2f} per "
                  f"check (family-wise rate {SAMPLER_FAMILY_RATE:.2%}, "
                  f"Bonferroni) ({time.time()-t0:.0f}s)")


def test_criterion_05_flip_density_vs_empirical():
    t0 = time.time()
    R, M = 20.0, 200
    area = 4 * R * R
    ok = True
    details = []
    for rho, tag in ((U64, "uniform64"), (NU0_ONE, "axis4")):
        dens = flip_density(rho, 1)
        counts = np.array([count_flips(sample(rho, 1300, i), SquareDomain(R),
                                       direction=(1.0, 0.0))
                           for i in range(M)])
        mean = counts.mean() / area
        se = counts.std(ddof=1) / math.sqrt(M) / area
        z = abs(mean - dens) / se
        ok &= z < 3.0
        details.append(f"{tag}: closed {dens:.4f}, MC {mean:.4f}+-{se:.4f} (z={z:.2f})")
    assert report(5, "Kac-Rice flip densities match Monte Carlo", ok,
                  "; ".join(details) + f" ({time.time()-t0:.0f}s)")


def test_criterion_06_curve_intersection_density():
    t0 = time.time()
    rng = np.random.default_rng(1400)
    ok = True
    details = []
    for rho, tag in ((U64, "uniform64"), (NU0_ONE, "axis4"),
                     (preset("tilted_cilleruelo"), "tilted")):
        u = rng.normal(size=2)
        u /= np.hypot(*u)
        dens = curve_intersection_density(rho, u)
        counts = []
        for i in range(100):
            s = sample(rho, 1410, i)
            p0 = rng.uniform(-3, 3, 2)
            counts.append(count_curve_intersections(s, p0, p0 + u))
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / 10.0
        z = abs(mean - dens) / se if se > 0 else 0.0
        ok &= z < 3.0
        details.append(f"{tag}: {dens:.3f} vs {mean:.3f} (z={z:.2f})")
    # uniform bound over a random 50-measure sweep
    worst_ratio = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        pts = rng.uniform(-0.7, 0.7, (m, 2))
        w = rng.uniform(0.05, 1.0, m)
        rho = make_atomic([(p, wi) for p, wi in zip(pts, w)]
                          + [(-p, wi) for p, wi in zip(pts, w)], normalize=True)
        u = rng.normal(size=2)
        u /= np.hypot(*u)
        ratio = curve_intersection_density(rho, u) / (rho.kappa_value / math.pi)
        worst_ratio = max(worst_ratio, ratio)
        ok &= ratio <= 1.0 + 1e-12
    assert report(6, "crossing densities match counts; uniform bound kappa/pi", ok,
                  "; ".join(details)
                  + f"; sweep max density/(kappa/pi) = {worst_ratio:.3f}"
                  + f" ({time.time()-t0:.0f}s)")


def test_criterion_07_rate_shape(u64_cns_report):
    rep = u64_cns_report
    Rs = rep.schedule
    ys = [m / (4 * R * R) for m, R in zip(rep.means, Rs)]
    ses = [e / (4 * R * R) for e, R in zip(rep.stderrs, Rs)]
    d1 = abs(ys[0] - ys[1])
    d2 = abs(ys[1] - ys[2])
    err = 3 * math.sqrt(ses[0] ** 2 + 4 * ses[1] ** 2 + ses[2] ** 2)
    ok = d2 <= d1 + err
    assert report(7, "successive scaled-count gaps shrink like C/R", ok,
                  f"d1={d1:.5f}, d2={d2:.5f}, allowance={err:.5f}, "
                  f"ratio={d2/d1:.2f}")


def test_criterion_08_positivity_and_continuity(u64_cns_report):
    t0 = time.time()
    c_u = u64_cns_report.cns_estimate
    e_u = u64_cns_report.cns_stderr
    ok = c_u > 5 * e_u
    details = [f"uniform64: c={c_u:.4f}+-{e_u:.4f} ({c_u/e_u:.0f} sigma)"]

    cs, es = [], []
    for a in (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4):
        rep = estimate_cns(preset("arc_nu_a", a=a, K=64), [10.0, 20.0, 40.0],
                           M=100, seed=202)
        cs.append(rep.cns_estimate)
        es.append(rep.cns_stderr)
    for j in range(len(cs) - 1):
        ok &= cs[j + 1] >= cs[j] - 3 * math.sqrt(es[j] ** 2 + es[j + 1] ** 2)
    end_gap = abs(cs[-1] - c_u)
    end_err = 3 * math.sqrt(es[-1] ** 2 + e_u ** 2)
    ok &= end_gap <= end_err
    details.append("arc path c = " + ", ".join(f"{c:.4f}" for c in cs))
    details.append(f"endpoint gap {end_gap:.4f} <= {end_err:.4f}")
    assert report(8, "positive universal constant; monotone arc path", ok,
                  "; ".join(details) + f" ({time.time()-t0:.0f}s)")


def test_criterion_09_section7_witness():
    t0 = time.time()
    dom = SquareDomain(20.0)
    base_f = count_components_plane(
        evaluate_grid(section7_field("f"), dom, 0.05)).interior_components
    base_g = count_components_plane(
        evaluate_grid(section7_field("g"), dom, 0.05)).interior_components
    ok = base_f >= 20 and base_g == 0
    worst_dev = 0.0
    for bits in range(64):
        eps = tuple(0.01 if (bits >> k) & 1 else -0.01 for k in range(6))
        cf = count_components_plane(evaluate_grid(
            section7_field("f", perturbation=eps), dom, 0.05)).interior_components
        cg = count_components_plane(evaluate_grid(
            section7_field("g", perturbation=eps), dom, 0.05)).interior_components
        worst_dev = max(worst_dev, abs(cf - base_f) / base_f)
        ok &= abs(cf - base_f) / base_f <= 0.02
        ok &= cg == 0
    assert report(9, "loop-rich vs loop-free deterministic witnesses", ok,
                  f"f: {base_f} components (max rel. deviation over 64 sign "
                  f"patterns {worst_dev:.3f}), g: {base_g} "
                  f"({time.time()-t0:.0f}s)")


def test_criterion_10_torus_consistency():
    t0 = time.time()
    # frozen from the calibration run; seed 77 prints +0.327, +0.127 and
    # +0.094 for n = 65, 325 and 1105
    C0 = 1.5
    ok = True
    resids = []
    for n in (65, 325, 1105):
        rep = torus_count_report(n, M=120, seed=77, planar_M=120)
        resids.append(rep.residual_over_sqrt_n)
        ok &= abs(rep.residual_over_sqrt_n) <= C0
    detail = "residuals/sqrt(n) = " + ", ".join(f"{r:+.3f}" for r in resids)

    wrap_ok = True
    for i in range(20):
        s = cilleruelo_torus_field(5, seed=1500, stream=i)
        c = count_components_torus(evaluate_grid(s, TorusDomain(), 1.0 / 80))
        wrap_ok &= c.interior_components == 0
        wrap_ok &= 2 <= c.wrapping_components <= 20
    ok &= wrap_ok
    assert report(10, "torus counts track c(mu_n)*n; square-n fields wrap", ok,
                  detail + f"; axis-type n=25 all-wrapping: {wrap_ok} "
                  f"({time.time()-t0:.0f}s)")


def test_criterion_11_arithmetic_oracles():
    t0 = time.time()
    ok = True
    bad = None
    for n in range(1, 10001):
        if r2(n) != r2_divisor_oracle(n):
            ok = False
            bad = n
            break
    sym_ok = all(mu_n(n).has_torus_symmetries()
                 for n in range(1, 10001) if r2(n) > 0)
    ok &= sym_ok

    worst = 0.0
    for n in (5, 65, 2917):
        s = sample_torus_wave(n, seed=3)
        N = 512
        v = evaluate_grid(s, TorusDomain(), 1.0 / N).values
        F = np.fft.fft2(v)
        mag = np.abs(F)
        k = (np.fft.fftfreq(N) * N).astype(int)
        KX, KY = np.meshgrid(k, k, indexing="ij")
        K2 = KX * KX + KY * KY
        live = mag > mag.max() * 1e-9
        ok &= bool(np.all(K2[live] == n))       # spectral support exactly on the circle
        lap = np.fft.ifft2(np.where(live, F, 0) * (-4 * np.pi ** 2) * K2).real
        resid = float(np.abs(lap + 4 * np.pi ** 2 * n * v).max())
        worst = max(worst, resid)
        ok &= resid < 1e-8
    assert report(11, "r2 oracle, mu_n symmetries, eigenfunction identity", ok,
                  f"r2 mismatch at n={bad}; " if bad else ""
                  f"symmetries ok={sym_ok}; max eigen-residual {worst:.2e} "
                  f"({time.time()-t0:.0f}s)")


def test_criterion_12_sandwich():
    t0 = time.time()
    rep = sandwich_check(preset("uniform_circle", K=128),
                         preset("uniform_circle", K=256),
                         R=10.0, M=100, beta=0.05, seed=1600)
    ok = rep.violations == 0
    detail = (f"literal criterion: filtered {rep.filtered}/100, "
              f"violations {rep.violations}")

    # non-vacuous companion: a coupling that does pass the closeness filter
    rot = make_atomic(
        [((math.cos(t + 3e-5), math.sin(t + 3e-5)), 1 / 64)
         for t in 2 * math.pi * np.arange(64) / 64])
    rep2 = sandwich_check(U64, rot, R=10.0, M=100, beta=0.05, seed=1601)
    ok &= rep2.filtered > 0 and rep2.violations == 0
    detail += (f"; near-measure companion: filtered {rep2.filtered}/100, "
               f"violations {rep2.violations}")

    # and the filter is necessary: far measures violate when unfiltered
    rep3 = sandwich_check(preset("cilleruelo"), U64, R=6.0, M=20,
                          beta=math.inf, seed=1602)
    ok &= rep3.violations > 0
    detail += f"; far-unfiltered violations {rep3.violations}/20"
    assert report(12, "count sandwich holds on stable close draws", ok,
                  detail + f" ({time.time()-t0:.0f}s)")
