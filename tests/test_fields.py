import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from nodalfields import fields
from nodalfields.errors import GridTooCoarse
from nodalfields.fields import (
    SquareDomain,
    TorusDomain,
    cilleruelo_amplitudes,
    cilleruelo_field,
    covariance_mc,
    evaluate,
    evaluate_batch,
    evaluate_grid,
    inject_sample,
    representation_covariance,
    sample,
)
from nodalfields.measures import SpectralMeasure, covariance, preset

NU0 = preset("cilleruelo", kappa="one")


def test_sample_structure_and_determinism():
    s1 = sample(NU0, seed=123)
    s2 = sample(NU0, seed=123)
    assert np.array_equal(s1.coeff_a, s2.coeff_a)
    assert np.array_equal(s1.coeff_b, s2.coeff_b)
    assert len(s1.pair_weights) == 2
    assert np.allclose(s1.pair_weights, 0.5)
    s3 = sample(NU0, seed=124)
    assert not np.array_equal(s1.coeff_a, s3.coeff_a)


def test_delta_zero_sample_is_constant():
    s = sample(preset("delta_zero"), seed=5)
    vals = evaluate_batch(s, np.random.default_rng(0).uniform(-5, 5, (20, 2)))
    assert np.allclose(vals, vals[0])
    assert vals[0] == pytest.approx(s.origin_coeff)


def test_injected_cilleruelo_values():
    inj = inject_sample(NU0, [(1.0, 0.0), (1.0, 0.0)])
    assert evaluate(inj, (0.0, 0.0)) == pytest.approx(math.sqrt(2.0))
    _, grad = evaluate(inj, (0.0, 0.0), order=1)
    assert np.allclose(grad, 0.0)


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    s = sample(preset("uniform_circle", K=16), seed=8)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(-3, 3, 2)
        v, grad, hess = evaluate(s, x, order=2)
        fd1 = (evaluate(s, x + [h, 0]) - evaluate(s, x - [h, 0])) / (2 * h)
        fd2 = (evaluate(s, x + [0, h]) - evaluate(s, x - [0, h])) / (2 * h)
        assert grad[0] == pytest.approx(fd1, abs=1e-6)
        assert grad[1] == pytest.approx(fd2, abs=1e-6)
        fd11 = (evaluate(s, x + [h, 0]) - 2 * v + evaluate(s, x - [h, 0])) / h ** 2
        assert hess[0, 0] == pytest.approx(fd11, abs=1e-4)
        assert hess[0, 1] == pytest.approx(hess[1, 0])


def test_exact_covariance_reproduction():
    # algebraic identity on the coefficient structure, not Monte Carlo
    rng = np.random.default_rng(11)
    for rho in (NU0, preset("uniform_circle", K=32), preset("two_point"),
                preset("section7_three_pair"), preset("delta_zero")):
        s = sample(rho, seed=1)
        for _ in range(8):
            x = rng.uniform(-4, 4, 2)
            y = rng.uniform(-4, 4, 2)
            assert representation_covariance(s, x, y) == pytest.approx(
                covariance(rho, x - y), abs=1e-12)


def test_grid_matches_pointwise():
    s = sample(preset("uniform_circle", K=16), seed=2)
    g = evaluate_grid(s, SquareDomain(1.0), 0.5, order=2)
    assert g.values.shape == (5, 5)
    i, j = 3, 1
    v, grad, hess = evaluate(s, (g.xs[i], g.ys[j]), order=2)
    assert g.values[i, j] == pytest.approx(v, abs=1e-12)
    assert g.d1[i, j] == pytest.approx(grad[0], abs=1e-12)
    assert g.d2[i, j] == pytest.approx(grad[1], abs=1e-12)
    assert g.d11[i, j] == pytest.approx(hess[0, 0], abs=1e-10)
    assert g.d12[i, j] == pytest.approx(hess[0, 1], abs=1e-10)
    assert g.d22[i, j] == pytest.approx(hess[1, 1], abs=1e-10)


def test_torus_grid_periodicity():
    from nodalfields.arithmetic import sample_torus_wave
    s = sample_torus_wave(65, seed=9)
    for x in [(0.2, 0.7), (0.0, 0.0), (0.9, 0.1)]:
        assert evaluate(s, x) == pytest.approx(
            evaluate(s, (x[0] + 1.0, x[1])), abs=1e-12)


def test_grid_too_coarse_warning():
    s = sample(preset("uniform_circle", K=8), seed=1)  # wavelength 1
    with pytest.warns(GridTooCoarse):
        evaluate_grid(s, SquareDomain(2.0), 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate_grid(s, SquareDomain(2.0), 1.0 / 16.0)  # fine grid: no warning


def test_cilleruelo_amplitudes():
    s = cilleruelo_field(seed=5)
    a1, e1, a2, e2 = cilleruelo_amplitudes(s)
    # peak value (a1 + a2)/sqrt(2) is attained at the phase origin
    assert evaluate(s, (-e1, -e2)) == pytest.approx((a1 + a2) / math.sqrt(2))
    # reconstruction identity
    x = (0.37, -1.2)
    want = (a1 * math.cos(x[0] + e1) + a2 * math.cos(x[1] + e2)) / math.sqrt(2)
    assert evaluate(s, x) == pytest.approx(want, abs=1e-12)


def test_cilleruelo_rayleigh_statistics():
    # oracle: Rayleigh(1) has mean sqrt(pi/2); P(a1 > a2) = 1/2 by symmetry
    M = 20000
    a1s = np.empty(M)
    a2s = np.empty(M)
    for i in range(M):
        a1, _, a2, _ = cilleruelo_amplitudes(cilleruelo_field(99, i))
        a1s[i] = a1
        a2s[i] = a2
    mean = a1s.mean()
    stderr = a1s.std(ddof=1) / math.sqrt(M)
    assert abs(mean - math.sqrt(math.pi / 2)) < 3 * stderr
    p = (a1s > a2s).mean()
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / M)


def test_covariance_mc():
    mean, se = covariance_mc(NU0, (math.pi, 0.0), M=20000, seed=16)
    assert abs(mean - 0.0) < 3 * se
    mean, se = covariance_mc(NU0, (0.0, 0.0), M=20000, seed=17)
    assert abs(mean - 1.0) < 3 * se
    u64 = preset("uniform_circle", K=64)
    mean, se = covariance_mc(u64, (0.5, 0.0), M=20000, seed=18)
    assert abs(mean - covariance(u64, (0.5, 0.0))) < 3 * se
    with pytest.raises(ValueError):
        covariance_mc(NU0, (0, 0), M=50, seed=1)


@pytest.mark.parametrize("rho, x, M, seed, want", [
    (preset("uniform_circle", K=64), (0.25, -0.75), 1000, 1200,
     ("-0x1.b118778c353d5p-3", "0x1.09dcf5008d6d0p-5")),
    (NU0, (0.5, 0.0), 500, 7,
     ("0x1.ed1e36925509cp-1", "0x1.1070effac8f92p-4")),
    (preset("delta_zero"), (1.0, 1.0), 200, 3,
     ("0x1.dfc3fae3ddfc5p-1", "0x1.84591c4100978p-4")),
], ids=["u64", "cilleruelo", "delta_zero"])
def test_covariance_mc_seeded_output(rho, x, M, seed, want):
    # sample i is the (seed, i) Philox stream, exactly as in sample()
    mean, se = covariance_mc(rho, x, M, seed)
    assert (mean.hex(), se.hex()) == want


def test_stationarity_and_value_gradient_independence():
    # law of (f, grad f) does not depend on the base point; f(x) independent
    # of grad f(x): check first/second empirical moments at two points
    u16 = preset("uniform_circle", K=16)
    M = 4000
    rows = {p: np.empty((M, 3)) for p in ((0.0, 0.0), (1.3, -0.7))}
    for i in range(M):
        s = sample(u16, seed=55, stream=i)
        for p, arr in rows.items():
            v, g = evaluate(s, p, order=1)
            arr[i] = (v, g[0], g[1])
    for col in range(3):
        a = rows[(0.0, 0.0)][:, col]
        b = rows[(1.3, -0.7)][:, col]
        se = math.sqrt(a.var() / M + b.var() / M)
        assert abs(a.mean() - b.mean()) < 4 * se
        se2 = math.sqrt(a.var() * 2 / M + b.var() * 2 / M) * 2
        assert abs((a ** 2).mean() - (b ** 2).mean()) < 4 * se2 + 1e-9
    # independence: empirical covariance of f with d1 f at the origin
    a = rows[(0.0, 0.0)]
    cov = np.mean(a[:, 0] * a[:, 1])
    se = np.std(a[:, 0] * a[:, 1], ddof=1) / math.sqrt(M)
    assert abs(cov) < 3 * se


def test_degenerate_measure_constant_along_null_direction():
    s = sample(preset("two_point", theta=0.0, kappa="one"), seed=21)
    # field depends only on x1: constant along x2
    xs = np.linspace(-5, 5, 11)
    base = evaluate_batch(s, np.column_stack([xs, np.zeros_like(xs)]))
    shifted = evaluate_batch(s, np.column_stack([xs, 3.7 * np.ones_like(xs)]))
    assert np.allclose(base, shifted, atol=1e-10)


# -- axis tables kept on the measure -----------------------------------------

def _on_fresh_measure(s):
    """The same draw over a newly built equal measure, whose slots are empty."""
    rho = s.measure
    fresh = SpectralMeasure(points=rho.points.copy(),
                            weights=rho.weights.copy(), kappa=rho.kappa)
    return dataclasses.replace(s, measure=fresh)


def _assert_same_grid(g, want):
    assert g.h == want.h and g.domain == want.domain
    for name in ("xs", "ys", "values", "d1", "d2", "d11", "d12", "d22"):
        a, b = getattr(g, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_grid_tables_follow_domain_spacing_and_freq_scale():
    from nodalfields.arithmetic import planar_rescale, sample_torus_wave
    torus = sample_torus_wave(65, seed=3)       # freq_scale sqrt(65)
    planar = planar_rescale(torus)              # same measure, freq_scale 1
    other = sample(torus.measure, seed=4, freq_scale=torus.freq_scale)
    keys = [(torus, TorusDomain(), 1 / 128, 1),
            (planar, SquareDomain(2.0), 1 / 16, 0),
            (other, TorusDomain(), 1 / 128, 2),
            (torus, TorusDomain(), 1 / 100, 0),
            (planar, SquareDomain(2.0), 1 / 13, 2),
            (planar, SquareDomain(1.5), 1 / 16, 1),
            # same domain and spacing, two frequency scales
            (torus, SquareDomain(0.5), 1 / 128, 0),
            (planar, SquareDomain(0.5), 1 / 128, 1)]
    for _ in range(2):
        for s, domain, h, order in keys:
            g = evaluate_grid(s, domain, h, order)
            _assert_same_grid(
                g, evaluate_grid(_on_fresh_measure(s), domain, h, order))
    # a repeated key reuses the axes and tables of the previous grid
    g1 = evaluate_grid(torus, TorusDomain(), 1 / 128)
    g2 = evaluate_grid(other, TorusDomain(), 1 / 128)
    assert g2.xs is g1.xs and g2.ys is g1.ys


def test_grid_axes_and_tables_are_read_only():
    s = sample(preset("uniform_circle", K=16), seed=2)
    domain = SquareDomain(1.0)
    g = evaluate_grid(s, domain, 1 / 16)
    xs, ys, h_eff, *tables = fields._axis_tables(s, domain, 1 / 16)
    assert xs is g.xs and ys is g.ys and h_eff == g.h
    for arr in [g.xs, g.ys] + tables:
        with pytest.raises(ValueError):
            arr[0] = 2.0
    # each grid owns its values
    assert g.values.flags.writeable
    assert evaluate_grid(s, domain, 1 / 16).values is not g.values


def test_threads_sharing_a_measure_get_the_serial_grids():
    rho = preset("uniform_circle", K=32)
    jobs = [(sample(rho, seed=k), SquareDomain(0.5 + 0.25 * (k % 2)))
            for k in range(4)]
    want = [evaluate_grid(_on_fresh_measure(s), d, 1 / 16, order=1)
            for s, d in jobs]
    errors = []

    def work(k):
        s, d = jobs[k]
        try:
            for _ in range(300):
                _assert_same_grid(evaluate_grid(s, d, 1 / 16, order=1), want[k])
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
