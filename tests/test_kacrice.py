import math

import numpy as np
import pytest

from nodalfields.errors import DegenerateConditioning
from nodalfields.fields import SquareDomain, sample
from nodalfields.kacrice import (
    JET_DERIVATIVES,
    abs_product_mean,
    build_jet_covariance,
    curve_intersection_density,
    diagonal_flip_density,
    directional_flip_density,
    flip_density,
)
from nodalfields.measures import make_atomic, moment, preset
from nodalfields.topology import count_curve_intersections, count_flips
from oracles import abs_product_mean_quad

NU0_ONE = preset("cilleruelo", kappa="one")
U64 = preset("uniform_circle", K=64)


def random_measure(rng, monochromatic=False):
    m = int(rng.integers(1, 5))
    if monochromatic:
        th = rng.uniform(0, math.pi, m)
        pts = np.column_stack([np.cos(th), np.sin(th)])
    else:
        pts = rng.uniform(-0.7, 0.7, (m, 2))
    w = rng.uniform(0.05, 1.0, m)
    atoms = [(p, wi) for p, wi in zip(pts, w)] + \
            [(-p, wi) for p, wi in zip(pts, w)]
    return make_atomic(atoms, normalize=True)


def test_jet_covariance_entries():
    M = build_jet_covariance(NU0_ONE)
    assert M[0, 0] == pytest.approx(1.0)
    assert M[0, 1] == 0.0 and M[0, 2] == 0.0          # value indep. of gradient
    assert M[0, 3] == pytest.approx(-moment(NU0_ONE, 2, 0))
    assert M[4, 4] == pytest.approx(0.0, abs=1e-15)   # var(f12) = moment(2,2) = 0
    assert M[1, 1] == pytest.approx(0.5)
    assert M[3, 3] == pytest.approx(0.5)              # moment(4,0)
    # delta at origin: every derivative entry vanishes
    dz = build_jet_covariance(preset("delta_zero"))
    assert np.allclose(dz[1:, 1:], 0.0)
    assert dz[0, 0] == pytest.approx(1.0)


def test_jet_covariance_ratio_bound_on_circle_measures():
    # var(f11)/var(f1) <= kappa^2 because y1^4 <= y1^2 on the disc
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_measure(rng, monochromatic=True)
        jet = build_jet_covariance(rho)
        if jet[1, 1] > 1e-12:
            assert jet[3, 3] / jet[1, 1] <= rho.kappa_value ** 2 + 1e-9


def test_jet_covariance_matches_finite_difference_of_covariance():
    # oracle: numerically differentiate the covariance function
    from nodalfields.measures import covariance
    rho = preset("tilted_cilleruelo", kappa="one")
    jet = build_jet_covariance(rho)
    h = 1e-3

    def r(x, y):
        return covariance(rho, (x, y))

    var_f1 = -(r(h, 0) - 2 * r(0, 0) + r(-h, 0)) / h ** 2
    assert jet[1, 1] == pytest.approx(var_f1, abs=1e-5)
    cov_f_f11 = (r(h, 0) - 2 * r(0, 0) + r(-h, 0)) / h ** 2
    assert jet[0, 3] == pytest.approx(cov_f_f11, abs=1e-5)


def test_jet_invariant_under_atom_relabeling():
    pts = [(0.6, 0.1), (-0.6, -0.1), (0.2, -0.5), (-0.2, 0.5)]
    w = [0.3, 0.3, 0.2, 0.2]
    a = make_atomic(list(zip(pts, w)))
    b = make_atomic(list(zip(reversed(pts), reversed(w))))
    assert np.allclose(build_jet_covariance(a),
                       build_jet_covariance(b))


def test_abs_product_mean_formula_against_quadrature_and_mc():
    rng = np.random.default_rng(9)
    for _ in range(10):
        s1, s2 = rng.uniform(0.2, 3.0, 2)
        r = rng.uniform(-0.95, 0.95)
        closed = abs_product_mean(s1, s2, r)
        assert closed == pytest.approx(abs_product_mean_quad(s1, s2, r), abs=1e-8)
    # one Monte Carlo spot check of the closed form
    s1, s2, r = 1.3, 0.7, -0.6
    cov = [[s1 ** 2, r * s1 * s2], [r * s1 * s2, s2 ** 2]]
    xy = np.random.default_rng(1).multivariate_normal([0, 0], cov, size=2 * 10 ** 6)
    mc = np.abs(xy[:, 0] * xy[:, 1]).mean()
    assert abs_product_mean(s1, s2, r) == pytest.approx(mc, rel=5e-3)


def test_flip_density_degenerate_cases():
    two = preset("two_point", theta=0.0, kappa="one")
    assert flip_density(two, 1) == 0.0            # conditioned det vanishes
    with pytest.raises(DegenerateConditioning):
        flip_density(two, 2)                      # var d2 f = 0
    with pytest.raises(DegenerateConditioning):
        flip_density(preset("delta_zero"), 1)


@pytest.mark.parametrize("density", [directional_flip_density,
                                     curve_intersection_density])
def test_densities_reject_bad_directions(density):
    rho = preset("uniform_circle", K=16)
    for d in ((math.nan, 1.0), (math.inf, 0.0), (1.0, 2.0, 3.0)):
        with pytest.raises(ValueError, match="finite 2-vector"):
            density(rho, d)
    with pytest.raises(ValueError, match="direction must be nonzero"):
        density(rho, (0.0, 0.0))


def test_flip_density_cilleruelo_closed_form():
    # oracle: product structure gives density (1/pi^2) P(a2 > a1) = 1/(2 pi^2)
    assert flip_density(NU0_ONE, 1) == pytest.approx(1 / (2 * math.pi ** 2), abs=1e-12)
    assert flip_density(NU0_ONE, 2) == pytest.approx(1 / (2 * math.pi ** 2), abs=1e-12)


def test_diagonal_flip_density_vanishes_for_axis_measures():
    assert diagonal_flip_density(NU0_ONE) == pytest.approx(0.0, abs=1e-12)
    assert diagonal_flip_density(preset("cilleruelo")) == pytest.approx(0.0, abs=1e-12)
    tilted = preset("tilted_cilleruelo", kappa="one")
    assert directional_flip_density(tilted, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert diagonal_flip_density(U64) > 0.1


def test_flip_density_matches_monte_carlo():
    dens = flip_density(NU0_ONE, 1)
    R, M = 12.0, 60
    counts = [count_flips(sample(NU0_ONE, 700, i), SquareDomain(R),
                          direction=(1.0, 0.0))
              for i in range(M)]
    area = 4 * R * R
    mean = np.mean(counts) / area
    se = np.std(counts, ddof=1) / math.sqrt(M) / area
    assert abs(mean - dens) < 3 * se


def test_diagonal_flip_density_matches_monte_carlo():
    dens = diagonal_flip_density(U64)
    R, M = 6.0, 40
    counts = [count_flips(sample(U64, 900, i), SquareDomain(R),
                          direction=(1.0, 1.0))
              for i in range(M)]
    area = 4 * R * R
    mean = np.mean(counts) / area
    se = np.std(counts, ddof=1) / math.sqrt(M) / area
    assert abs(mean - dens) < 3 * se


def test_curve_intersection_density_closed_forms():
    assert curve_intersection_density(preset("uniform_circle", K=256), (1, 0)) \
        == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert curve_intersection_density(NU0_ONE, (1, 0)) \
        == pytest.approx(math.sqrt(0.5) / math.pi, abs=1e-12)
    assert curve_intersection_density(preset("two_point", theta=0.0), (0, 1)) == 0.0


def test_curve_intersection_density_uniform_bound():
    # density <= kappa/pi for every measure and direction
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = random_measure(rng, monochromatic=bool(rng.integers(2)))
        u = rng.normal(size=2)
        u /= np.hypot(*u)
        assert curve_intersection_density(rho, u) <= rho.kappa_value / math.pi + 1e-12


def test_curve_intersection_density_matches_counts():
    rng = np.random.default_rng(77)
    for rho in (NU0_ONE, U64, preset("tilted_cilleruelo")):
        dens = curve_intersection_density(rho, (1.0, 0.0))
        M = 120
        counts = []
        L = 4.0
        for i in range(M):
            s = sample(rho, 810, i)
            y = rng.uniform(-1, 1)
            x0 = rng.uniform(-1, 1)
            counts.append(count_curve_intersections(s, (x0, y), (x0 + L, y)))
        mean = np.mean(counts) / L
        se = np.std(counts, ddof=1) / math.sqrt(M) / L
        assert abs(mean - dens) < 3 * se + 1e-9


def test_conditioning_shrinks_variance():
    # every conditional variance <= the unconditional one
    from nodalfields.kacrice import _conditioned_pair
    rng = np.random.default_rng(13)
    for _ in range(25):
        rho = random_measure(rng, monochromatic=bool(rng.integers(2)))
        d = rng.normal(size=2)
        jet = build_jet_covariance(rho)
        try:
            _, cond = _conditioned_pair(rho, d)
        except DegenerateConditioning:
            continue
        dn = d / np.hypot(*d)
        var_T = float(np.array([-dn[1], dn[0]]) @ jet[1:3, 1:3]
                      @ np.array([-dn[1], dn[0]]))
        q = np.array([dn[0] ** 2, 2 * dn[0] * dn[1], dn[1] ** 2])
        var_Q = float(q @ jet[3:, 3:] @ q)
        assert cond[0, 0] <= var_T + 1e-12
        assert cond[1, 1] <= var_Q + 1e-12


def test_flip_density_bounded_by_variance_chain():
    # density = O(sqrt(var(d2 f))) uniformly: the Cauchy-Schwarz chain with
    # the explicit constant sqrt(var f11 | .)/(2 pi sqrt(var f1)) <= kappa/(2 pi)
    rng = np.random.default_rng(17)
    for _ in range(25):
        rho = random_measure(rng, monochromatic=bool(rng.integers(2)))
        jet = build_jet_covariance(rho)
        if jet[1, 1] < 1e-10:
            continue
        dens = flip_density(rho, 1)
        bound = (1.0 / (2 * math.pi * math.sqrt(jet[1, 1]))) \
            * math.sqrt(jet[2, 2]) * math.sqrt(jet[3, 3])
        assert dens <= bound + 1e-12
        assert dens <= rho.kappa_value / (2 * math.pi) * math.sqrt(jet[2, 2]) + 1e-12


def test_jet_order_is_six():
    assert len(JET_DERIVATIVES) == 6
    PSD = build_jet_covariance(U64)
    assert np.linalg.eigvalsh(PSD)[0] >= -1e-10
