import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from nodalfields import fields
from nodalfields.errors import GridTooCoarse
from nodalfields.fields import (
    SquareDomain,
    TorusDomain,
    _slope_sample,
    cilleruelo_field,
    evaluate_batch,
    evaluate_grid,
    grid_axes,
    inject_sample,
    sample,
)
from nodalfields.measures import (
    SpectralMeasure,
    covariance,
    make_atomic,
    preset,
)
from nodalfields.stability import section7_field
from oracles import (
    covariance_mc,
    point_gradients,
    point_hessians,
    representation_covariance,
    stacked_jet_grids,
)

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
    (v,) = evaluate_batch(inj, [(0.0, 0.0)])
    (grad,) = point_gradients(inj, [(0.0, 0.0)])
    assert v == pytest.approx(math.sqrt(2.0))
    assert np.allclose(grad, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inject_sample_refuses_non_finite_coefficients(bad):
    # refused before any grid is evaluated, naming the first bad pair or the
    # origin; the pairs after it and a finite origin do not matter
    rho = preset("uniform_circle", K=16)
    coeffs = np.ones((8, 2))
    coeffs[3, 1] = bad
    coeffs[5, 0] = bad
    with pytest.raises(ValueError, match=r"coefficient pair 3, \(1\.0, "):
        inject_sample(rho, coeffs, origin_coeff=2.0)
    with pytest.raises(ValueError, match=f"origin_coeff {bad} is not finite"):
        inject_sample(rho, np.ones((8, 2)), origin_coeff=bad)
    # the section 7 fields reach it through their perturbations
    with pytest.raises(ValueError, match="coefficient pair 2"):
        section7_field("g", perturbation=[0, 0, 0, 0, bad, 0])


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    s = sample(preset("uniform_circle", K=16), seed=8)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(-3, 3, 2)
        (v,) = evaluate_batch(s, [x])
        (grad,) = point_gradients(s, [x])
        (hess,) = point_hessians(s, [x])
        fp1, fm1, fp2, fm2 = evaluate_batch(
            s, [x + [h, 0], x - [h, 0], x + [0, h], x - [0, h]])
        fd1 = (fp1 - fm1) / (2 * h)
        fd2 = (fp2 - fm2) / (2 * h)
        assert grad[0] == pytest.approx(fd1, abs=1e-6)
        assert grad[1] == pytest.approx(fd2, abs=1e-6)
        fd11 = (fp1 - 2 * v + fm1) / h ** 2
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
    x = (g.xs[i], g.ys[j])
    (v,) = evaluate_batch(s, [x])
    (grad,) = point_gradients(s, [x])
    (hess,) = point_hessians(s, [x])
    assert g.values[i, j] == pytest.approx(v, abs=1e-12)
    assert g.d1[i, j] == pytest.approx(grad[0], abs=1e-12)
    assert g.d2[i, j] == pytest.approx(grad[1], abs=1e-12)
    assert g.d11[i, j] == pytest.approx(hess[0, 0], abs=1e-10)
    assert g.d12[i, j] == pytest.approx(hess[0, 1], abs=1e-10)
    assert g.d22[i, j] == pytest.approx(hess[1, 1], abs=1e-10)


def test_batch_evaluates_values_only():
    # derivatives along a direction are samples of their own (the flips'
    # slope sample), so evaluate_batch takes no order
    s = sample(preset("uniform_circle", K=16), seed=2)
    with pytest.raises(TypeError):
        evaluate_batch(s, [(0.0, 0.0)], order=1)
    assert evaluate_batch(s, [(0.0, 0.0), (1.0, 2.0)]).shape == (2,)


@pytest.mark.parametrize("s", [
    sample(preset("uniform_circle", K=64), seed=3),
    sample(make_atomic([((0.0, 0.0), 0.4), ((0.6, 0.8), 0.3),
                        ((-0.6, -0.8), 0.3)]), seed=4),
    dataclasses.replace(section7_field("f"), freq_scale=3.0),
], ids=["u64", "origin-atom", "section7-scaled"])
def test_batch_gives_each_point_its_value_alone(s):
    # a point's value does not depend on the batch it comes in, so the
    # flips' exactly evaluated signs do not depend on which unsure points
    # are evaluated together
    pts = np.random.default_rng(7).uniform(-10.0, 10.0, (400, 2))
    alone = np.concatenate([evaluate_batch(s, p[None]) for p in pts])
    for n in (1, 7, 37, 400):
        assert evaluate_batch(s, pts[:n]).tobytes() == alone[:n].tobytes()


def test_grid_rejects_an_order_outside_0_to_2():
    s = sample(preset("uniform_circle", K=16), seed=2)
    for order in (3, -1):
        with pytest.raises(ValueError, match=f"order 0, 1 or 2, got {order}$"):
            evaluate_grid(s, SquareDomain(1.0), 1 / 16, order=order)


JETS = ("values", "d1", "d2", "d11", "d12", "d22")
# the axes each grid differentiates along, in order: d12 is d/dx2 of d1
JET_AXES = ((), (0,), (1,), (0, 0), (0, 1), (1, 1))
EPS = np.finfo(float).eps


def _assert_matches_stacked_oracle(s, domain, h):
    """Each grid of each order against the stacked oracle; returns the
    multiply-adds of each of the grid's products.

    A grid is bit for bit the oracle's order-0 grid of its slope sample.
    Against the oracle's former jet formula, which scales the value pairs
    by c_k1, c_k2 and their products, it moves by rounding only.  Let T_k
    be sqrt(W_k) (|a_k| + |b_k|) times the product of |c_ki| along the
    grid's axes.  Either way rounds each entry of pair k of the right
    factor at most six times, by at most eps/2 of T_k each, and sums 2m
    products with |U| <= 1 within m eps of 2 sum_k T_k, so it errs by at
    most (2m + 6) eps sum_k T_k, and the two ways differ by twice that.
    """
    m = len(s.coeff_a)
    e = np.eye(2)
    weights = s.amplitudes() * (np.abs(s.coeff_a) + np.abs(s.coeff_b))
    for order in (0, 1, 2):
        g = evaluate_grid(s, domain, h, order)
        jets = stacked_jet_grids(s, g.xs, g.ys, order)
        for name, axes, jet in zip(JETS, JET_AXES, jets):
            got = getattr(g, name)
            assert (got is None) == (jet is None), (name, order)
            if jet is None:
                continue
            t = s
            for i in axes:
                t = _slope_sample(t, e[i])
            want = stacked_jet_grids(t, g.xs, g.ys, 0)[0]
            assert np.array_equal(got, want), (name, order)
            assert got.tobytes() == want.tobytes(), (name, order)
            T = weights * np.prod(np.abs(s.frequencies[:, list(axes)]), axis=1)
            assert np.abs(got - jet).max(initial=0.0) \
                <= 2 * (2 * m + 6) * EPS * T.sum(), (name, order)
    return 2 * m * g.values.size


def test_grid_matches_stacked_oracle(monkeypatch):
    # the coefficients folded in place into one right factor give the bits
    # of the former transposed and stacked factors, on products small
    # enough for OpenBLAS's small-matrix kernels (a Fortran-ordered factor)
    # and on larger ones (a C-ordered factor); a derivative grid is the
    # value grid of its slope sample, within rounding of the jet formula
    from nodalfields.arithmetic import mu_n, sample_torus_wave, torus_spacing
    with_origin = sample(make_atomic([((0.0, 0.0), 0.4), ((0.6, 0.8), 0.3),
                                      ((-0.6, -0.8), 0.3)]), seed=4)
    assert with_origin.origin_coeff != 0 and with_origin.origin_weight > 0
    cases = [(sample(preset("uniform_circle", K=K), seed=K),
              SquareDomain(2.0), None) for K in (16, 64, 128, 256)]
    # a coupled_sandwich grid: 289^2 nodes, 64 pairs
    cases.append((sample(preset("uniform_circle", K=128), seed=1),
                  SquareDomain(9.0), 1 / 16))
    for n in (65, 1105):
        cases.append((sample(mu_n(n), seed=n), SquareDomain(3.0), None))
        cases.append((sample_torus_wave(n, seed=n), TorusDomain(),
                      torus_spacing(n)))
    cases += [(section7_field("f"), SquareDomain(3.0), None),
              (sample(preset("delta_zero"), seed=3), SquareDomain(1.0), 0.25),
              (with_origin, SquareDomain(2.0), None),
              (sample(preset("uniform_circle", K=64), seed=5),   # 1 x 1
               SquareDomain(0.0), 1 / 16)]
    madds = [_assert_matches_stacked_oracle(s, domain, h)
             for s, domain, h in cases]
    assert min(madds) <= fields.SMALL_GEMM < max(madds)
    # 1 x n and n x 1 lattices, which no domain builds
    line = -1.0 + np.arange(23) / 16
    for nx, ny in ((1, 23), (23, 1)):
        monkeypatch.setattr(fields, "grid_axes",
                            lambda domain, h, nx=nx, ny=ny:
                            (line[:nx].copy(), line[:ny].copy(), h))
        s = sample(preset("uniform_circle", K=32), seed=nx)  # fresh slot
        g = evaluate_grid(s, SquareDomain(1.0), 1 / 16)
        assert g.values.shape == (nx, ny)
        _assert_matches_stacked_oracle(s, SquareDomain(1.0), 1 / 16)


def test_torus_grid_periodicity():
    from nodalfields.arithmetic import sample_torus_wave
    s = sample_torus_wave(65, seed=9)
    for x in [(0.2, 0.7), (0.0, 0.0), (0.9, 0.1)]:
        here, shifted = evaluate_batch(s, [x, (x[0] + 1.0, x[1])])
        assert here == pytest.approx(shifted, abs=1e-12)


def test_grid_too_coarse_warning():
    s = sample(preset("uniform_circle", K=8), seed=1)  # wavelength 1
    with pytest.warns(GridTooCoarse):
        evaluate_grid(s, SquareDomain(2.0), 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate_grid(s, SquareDomain(2.0), 1.0 / 16.0)  # fine grid: no warning


def test_torus_grid_checks_the_spacing_it_runs_on():
    # 1/43.4 alone passes the rule on mu_13; the torus snaps it to 1/43,
    # 11.9 nodes per wavelength
    from nodalfields.arithmetic import sample_torus_wave
    s = sample_torus_wave(13, 1)
    with pytest.warns(GridTooCoarse, match="grid spacing 0.02326 "):
        g = evaluate_grid(s, TorusDomain(), 1 / 43.4)
    assert g.h == 1 / 43
    assert 11.8 < s.min_wavelength() / g.h < 12


def test_cilleruelo_amplitudes():
    s = cilleruelo_field(seed=5)
    a1, a2 = np.hypot(s.coeff_a, s.coeff_b)
    e1, e2 = np.arctan2(-s.coeff_b, s.coeff_a)
    x = (0.37, -1.2)
    peak, value = evaluate_batch(s, [(-e1, -e2), x])
    # peak value (a1 + a2)/sqrt(2) is attained at the phase origin
    assert peak == pytest.approx((a1 + a2) / math.sqrt(2))
    # reconstruction identity
    want = (a1 * math.cos(x[0] + e1) + a2 * math.cos(x[1] + e2)) / math.sqrt(2)
    assert value == pytest.approx(want, abs=1e-12)


def test_cilleruelo_rayleigh_statistics():
    # oracle: Rayleigh(1) has mean sqrt(pi/2); P(a1 > a2) = 1/2 by symmetry
    M = 20000
    a1s = np.empty(M)
    a2s = np.empty(M)
    for i in range(M):
        s = cilleruelo_field(99, i)
        a1s[i], a2s[i] = np.hypot(s.coeff_a, s.coeff_b)
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
            (v,) = evaluate_batch(s, [p])
            (g,) = point_gradients(s, [p])
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
    from nodalfields.arithmetic import sample_torus_wave
    torus = sample_torus_wave(65, seed=3)       # freq_scale sqrt(65)
    planar = dataclasses.replace(torus, freq_scale=1.0)  # same measure
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


def test_grid_axes_refuse_a_lattice_past_the_node_cap():
    # the cap is checked before np.arange allocates: the square would take
    # two axes of 3.2e7 nodes (512 MB) and the torus two of 1e12
    for domain, h in ((SquareDomain(1e6), 1 / 16), (TorusDomain(), 1e-12)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_GRID_NODES"):
                grid_axes(domain, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (domain, peak)
    # a square side of 2^14 nodes reaches the cap, one more node passes it
    side = math.isqrt(fields.MAX_GRID_NODES)
    assert side * side == fields.MAX_GRID_NODES
    assert len(grid_axes(SquareDomain((side - 1) / 32), 1 / 16)[0]) == side
    with pytest.raises(ValueError, match="MAX_GRID_NODES"):
        grid_axes(SquareDomain(side / 32), 1 / 16)


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
