import dataclasses
import math

import numpy as np
import pytest

from nodalfields.arithmetic import (
    cilleruelo_torus_field,
    lattice_points,
    mu_n,
    r2,
    sample_torus_wave,
)
from nodalfields.errors import NotSumOfTwoSquares, TooLarge
from nodalfields.fields import TorusDomain, evaluate_batch, evaluate_grid
from nodalfields.measures import antipodal_pairs, covariance, preset
from oracles import r2_divisor_oracle, representation_covariance


def test_lattice_points_small_cases():
    assert lattice_points(5).r2 == 8
    assert lattice_points(25).r2 == 12
    assert lattice_points(3).r2 == 0
    assert lattice_points(1).r2 == 4
    assert lattice_points(65).r2 == 16
    pts = {tuple(p) for p in lattice_points(5).points}
    assert pts == {(1, 2), (2, 1), (-1, 2), (-2, 1), (1, -2), (2, -1),
                   (-1, -2), (-2, -1)}


def test_lattice_symmetries_and_mod4():
    for n in range(1, 200):
        lat = lattice_points(n)
        pts = {tuple(p) for p in lat.points}
        for x, y in pts:
            assert (-x, -y) in pts
            assert (-y, x) in pts
            assert (x, -y) in pts
        if lat.r2 > 0:
            assert lat.r2 % 4 == 0


def test_r2_divisor_oracle_up_to_10000():
    for n in range(1, 10001):
        assert r2(n) == r2_divisor_oracle(n), n


def test_lattice_points_cap():
    with pytest.raises(TooLarge):
        lattice_points(10 ** 12 + 1)
    with pytest.raises(ValueError):
        lattice_points(0)


def test_mu_n_geometry():
    # the same atoms up to the last bit of 1/sqrt(2) against cos(pi/4)
    for n, name in ((1, "cilleruelo"), (2, "tilted_cilleruelo")):
        got, want = mu_n(n), preset(name)
        assert np.abs(got.points - want.points).max() <= 1e-15, n
        assert np.array_equal(got.weights, want.weights), n
    with pytest.raises(NotSumOfTwoSquares):
        mu_n(3)
    m2917 = mu_n(2917)
    assert m2917.n_atoms == 8
    # atoms cluster near the axes: every atom within 0.02 rad of a multiple of pi/2
    ang = np.arctan2(m2917.points[:, 1], m2917.points[:, 0])
    frac = np.abs((ang + math.pi / 4) % (math.pi / 2) - math.pi / 4)
    assert np.all(frac < 0.02)


def test_torus_draws_of_one_n_share_one_measure():
    a = sample_torus_wave(1105, seed=1)
    b = sample_torus_wave(1105, seed=2, stream=3)
    assert a.measure is b.measure is mu_n(1105)
    assert antipodal_pairs(a.measure) is antipodal_pairs(b.measure)


def test_mu_n_torus_symmetries_up_to_10000():
    count = 0
    for n in range(1, 10001):
        if r2(n) == 0:
            continue
        count += 1
        assert mu_n(n).has_torus_symmetries(), n
    assert count > 2000


def test_torus_wave_unit_variance_and_periodicity():
    s = sample_torus_wave(65, seed=4)
    # representation variance is exactly 1 at any point
    assert representation_covariance(s, (0.3, 0.9), (0.3, 0.9)) == pytest.approx(1.0)
    for x in [(0.1, 0.2), (0.77, 0.31)]:
        here, shifted = evaluate_batch(s, [x, (x[0] + 1.0, x[1] + 1.0)])
        assert here == pytest.approx(shifted, abs=1e-12)


def test_torus_wave_law_matches_cilleruelo_for_n1():
    # mu_1 = axis measure, so the n=1 wave is the four-coefficient field with
    # integer frequencies: covariance r((x)) = (cos 2 pi x1 + cos 2 pi x2)/2
    s = sample_torus_wave(1, seed=8)
    for d in [(0.3, 0.0), (0.1, 0.7)]:
        want = 0.5 * (math.cos(2 * math.pi * d[0]) + math.cos(2 * math.pi * d[1]))
        assert representation_covariance(s, d, (0.0, 0.0)) == pytest.approx(want)


def test_eigenfunction_identity_spectral():
    # grid FFT: all supra-noise modes sit exactly on ||k||^2 = n, and the
    # band-verified spectral Laplacian satisfies the eigenvalue identity
    for n in (5, 65):
        s = sample_torus_wave(n, seed=3)
        N = 256
        v = evaluate_grid(s, TorusDomain(), 1.0 / N).values
        F = np.fft.fft2(v)
        mag = np.abs(F)
        k = (np.fft.fftfreq(N) * N).astype(int)
        KX, KY = np.meshgrid(k, k, indexing="ij")
        K2 = KX * KX + KY * KY
        live = mag > mag.max() * 1e-9
        assert np.all(K2[live] == n)
        lap = np.fft.ifft2(np.where(live, F, 0) * (-4 * np.pi ** 2) * K2).real
        assert np.abs(lap + 4 * np.pi ** 2 * n * v).max() < 1e-8


def test_planar_rescale_covariance():
    s = sample_torus_wave(65, seed=3)
    g = dataclasses.replace(s, freq_scale=1.0)
    rho = mu_n(65)
    for d in [(0.4, 0.1), (1.3, -0.6)]:
        assert representation_covariance(g, d, (0.0, 0.0)) == pytest.approx(
            covariance(rho, d), abs=1e-12)


def test_cilleruelo_torus_field_structure():
    s = cilleruelo_torus_field(5, seed=2)
    x = (0.13, 0.57)
    here, shifted, value = evaluate_batch(
        s, [(0.2, 0.9), (0.2 + 1.0 / 5.0, 0.9), x])
    assert here == pytest.approx(shifted, abs=1e-12)  # 1/m-periodic in x1
    a1, a2 = np.hypot(s.coeff_a, s.coeff_b)
    e1, e2 = np.arctan2(-s.coeff_b, s.coeff_a)
    want = (a1 * math.cos(2 * math.pi * 5 * x[0] + e1)
            + a2 * math.cos(2 * math.pi * 5 * x[1] + e2)) / math.sqrt(2)
    assert value == pytest.approx(want, abs=1e-12)
