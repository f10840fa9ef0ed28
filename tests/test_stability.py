import hashlib
import math

import numpy as np
import pytest

from nodalfields.errors import DomainMismatch
from nodalfields.fields import (
    SquareDomain,
    evaluate,
    evaluate_grid,
    inject_sample,
    sample,
)
from nodalfields import stability
from nodalfields.measures import (
    SpectralMeasure,
    antipodal_pairs,
    make_atomic,
    preset,
)
from nodalfields.stability import (
    _transport_plan,
    c1_distance,
    coupled_sample,
    sandwich_check,
    section7_field,
    section7_measure,
    stability_profile,
)
from nodalfields.topology import count_components_plane


def rotated_axis_measure(eps, kappa="one"):
    c, s = math.cos(eps), math.sin(eps)
    return make_atomic([((c, s), 0.25), ((-c, -s), 0.25),
                        ((-s, c), 0.25), ((s, -c), 0.25)], kappa=kappa)


def test_stability_profile_analytic_fields():
    # g = 2 cos x + cos y: on its zero set |grad g|^2 = 5 - 8 cos^2 x >= 3
    gm = section7_field("monochromatic_g")
    prof = stability_profile(gm, SquareDomain(10.0), h=2 * math.pi / 64)
    assert prof.minmax >= 0.5
    assert prof.c2_norm <= 3.0 + 1e-9

    # saddle with f = |grad f| = 0 at (pi, 0) drives the gauge to 0
    nu0 = preset("cilleruelo", kappa="one")
    degen = inject_sample(nu0, [(1.0, 0.0), (1.0, 0.0)])
    vals = [stability_profile(degen, SquareDomain(4.0), h=h).minmax
            for h in (0.2, 0.05, 0.0125)]
    assert vals[0] > vals[-1]
    assert vals[-1] < 0.02

    const = sample(preset("delta_zero"), seed=1)
    prof = stability_profile(const, SquareDomain(5.0), h=0.5)
    assert prof.minmax == pytest.approx(abs(const.origin_coeff))


def test_c1_distance_basic():
    s = sample(preset("uniform_circle", K=16), seed=3)
    assert c1_distance(s, s, SquareDomain(5.0)) == 0.0
    # adding eps times a unit-amplitude single-pair wave moves C1 by <= eps(1+kappa)
    eps = 0.01
    bump = inject_sample(preset("two_point", theta=0.3, kappa="one"),
                         [(eps / math.sqrt(1.0), 0.0)])
    # combine by evaluating on a common grid: same measure structure is not
    # required by the gauge, only a shared domain
    g1 = evaluate_grid(s, SquareDomain(5.0), 1.0 / 16, order=1)
    gb = evaluate_grid(bump, SquareDomain(5.0), 1.0 / 16, order=1)
    diff = max(np.abs(gb.values).max(), np.abs(gb.d1).max(), np.abs(gb.d2).max())
    assert diff <= eps * (1 + 1.0) + 1e-12


def test_c1_distance_is_pseudometric():
    rng = np.random.default_rng(8)
    u16 = preset("uniform_circle", K=16)
    dom = SquareDomain(3.0)
    for _ in range(5):
        a, b, c = (sample(u16, seed=int(rng.integers(10 ** 6))) for _ in range(3))
        dab = c1_distance(a, b, dom, h=1 / 16)
        dba = c1_distance(b, a, dom, h=1 / 16)
        dac = c1_distance(a, c, dom, h=1 / 16)
        dcb = c1_distance(c, b, dom, h=1 / 16)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= dac + dcb + 1e-12


def test_c1_distance_domain_mismatch():
    from nodalfields.stability import _c1_distance_grids
    s = sample(preset("uniform_circle", K=16), seed=3)
    g1 = evaluate_grid(s, SquareDomain(5.0), 1 / 16, order=1)
    g2 = evaluate_grid(s, SquareDomain(4.0), 1 / 16, order=1)
    with pytest.raises(DomainMismatch):
        _c1_distance_grids(g1, g2)


def test_coupled_sample_identical_measures():
    u = preset("uniform_circle", K=32)
    f0, f1 = coupled_sample(u, u, seed=7)
    assert np.array_equal(f0.coeff_a, f1.coeff_a)
    assert np.array_equal(f0.coeff_b, f1.coeff_b)
    assert c1_distance(f0, f1, SquareDomain(8.0)) == 0.0


def origin_and_fan_measure():
    # mass 0.6 at the origin and four pairs of mass 0.1 near the x-axis: the
    # (1, 0) pair of the axis measure takes all four and keeps 0.1 left over
    atoms = [((0.0, 0.0), 0.6)]
    for t in (0.1, 0.2, 0.3, 0.4):
        atoms += [((math.cos(t), math.sin(t)), 0.05),
                  ((-math.cos(t), -math.sin(t)), 0.05)]
    return make_atomic(atoms)


COUPLING_PAIRS = {
    "uniform128-256": lambda: (preset("uniform_circle", K=128),
                               preset("uniform_circle", K=256)),
    "axis-rotated": lambda: (preset("cilleruelo", kappa="one"),
                             rotated_axis_measure(0.01)),
    "origin-uniform8": lambda: (preset("delta_zero"),
                                preset("uniform_circle", K=8)),
    "fan-axis": lambda: (origin_and_fan_measure(), preset("cilleruelo")),
    "identical": lambda: (preset("uniform_circle", K=32),) * 2,
    "section7": lambda: (section7_measure("f"),
                         section7_measure("monochromatic_g")),
}


@pytest.mark.parametrize("name,digest", [
    ("uniform128-256", "35183f4ab1dd511c"),
    ("axis-rotated", "22ab339de137fe42"),
    ("origin-uniform8", "e07acbbb05168929"),  # origin channel, empty plan
    ("fan-axis", "be931a27237ce991"),  # matched mass summed before leftovers
])
def test_coupled_sample_seeded_coefficients(name, digest):
    # seeded coupled draws are a contract: pin their coefficient bytes
    rho0, rho1 = COUPLING_PAIRS[name]()
    h = hashlib.sha256()
    for stream in range(3):
        for f in coupled_sample(rho0, rho1, seed=2, stream=stream):
            h.update(f.coeff_a.tobytes())
            h.update(f.coeff_b.tobytes())
            h.update(np.float64(f.origin_coeff).tobytes())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("name", sorted(COUPLING_PAIRS))
def test_transport_plan_splits_each_pair_weight(name):
    rho0, rho1 = COUPLING_PAIRS[name]()
    reps0, pw0, _ = antipodal_pairs(rho0)
    reps1, pw1, _ = antipodal_pairs(rho1)
    i, j, sign, mass, left0, left1 = _transport_plan(reps0, pw0, reps1, pw1)
    assert np.all(mass > 1e-15)
    assert set(sign.tolist()) <= {-1.0, 1.0}
    # matched plus leftover mass is each pair's weight, on both sides
    np.testing.assert_allclose(
        np.bincount(i, mass, len(pw0)) + left0, pw0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        np.bincount(j, mass, len(pw1)) + left1, pw1, rtol=0, atol=1e-15)
    if name == "identical":
        assert np.array_equal(i, np.arange(len(pw0)))
        assert np.array_equal(j, i)
        assert np.all(sign == 1.0)
        assert np.array_equal(mass, pw0)
        assert not left0.any() and not left1.any()


def _fresh(rho):
    """A newly built measure equal to rho, with empty slots."""
    return SpectralMeasure(points=rho.points.copy(),
                           weights=rho.weights.copy(), kappa=rho.kappa)


def test_transport_plan_is_kept_per_measure_pair():
    rho0 = preset("uniform_circle", K=16)
    partners = [preset("uniform_circle", K=24), origin_and_fan_measure(), rho0]
    for stream in range(6):
        rho1 = partners[stream % 3]
        got = coupled_sample(rho0, rho1, seed=7, stream=stream)
        want = coupled_sample(_fresh(rho0), _fresh(rho1), seed=7, stream=stream)
        for f, w in zip(got, want):
            assert f.coeff_a.tobytes() == w.coeff_a.tobytes()
            assert f.coeff_b.tobytes() == w.coeff_b.tobytes()
            assert f.origin_coeff == w.origin_coeff
    # the last pair's plan is reused and read-only
    _, plan = rho0.__dict__["_transport_plan"]
    coupled_sample(rho0, rho0, seed=8)
    assert rho0.__dict__["_transport_plan"][1] is plan
    for arr in plan:
        assert not arr.flags.writeable


@pytest.mark.parametrize("beta,order", [(math.inf, 0), (0.05, 1)])
def test_sandwich_evaluates_derivatives_only_for_the_filters(monkeypatch, beta,
                                                             order):
    orders = []

    def recording(s, domain, h=None, order=0):
        orders.append(order)
        return evaluate_grid(s, domain, h, order)

    monkeypatch.setattr(stability, "evaluate_grid", recording)
    u = preset("uniform_circle", K=16)
    sandwich_check(u, u, R=2.0, M=3, beta=beta, seed=1)
    assert orders == [order] * 6


def test_coupled_sample_marginal_law():
    # matched+leftover combination must keep per-pair coefficients standard
    # normal: check moments over many draws
    u64 = preset("uniform_circle", K=64)
    u128 = preset("uniform_circle", K=128)
    M = 3000
    acc = np.empty((M, 2))
    for i in range(M):
        f0, f1 = coupled_sample(u64, u128, seed=15, stream=i)
        acc[i, 0] = f0.coeff_a[3]
        acc[i, 1] = f1.coeff_b[7]
    for col in range(2):
        z = acc[:, col]
        assert abs(z.mean()) < 4 / math.sqrt(M)
        assert abs(z.var() - 1.0) < 6 / math.sqrt(M)


def test_coupling_refinement_distance_shrinks():
    # on a domain small enough for the angular mismatch to stay coherent,
    # doubling K halves the coupling error
    meds = []
    for K in (32, 64, 128):
        d = [c1_distance(*coupled_sample(preset("uniform_circle", K=K),
                                         preset("uniform_circle", K=2 * K),
                                         seed=5, stream=i),
                         SquareDomain(2.0), h=1 / 16)
             for i in range(10)]
        meds.append(np.median(d))
    assert meds[0] > meds[1] > meds[2]


def test_coupling_rotated_axis_measure():
    # own oracle run (100 seeds): median ~0.16, 95th percentile ~0.24; the
    # frozen bounds add sampling margin
    nu0 = preset("cilleruelo", kappa="one")
    rot = rotated_axis_measure(0.01)
    ds = np.array([c1_distance(*coupled_sample(nu0, rot, seed=31, stream=i),
                               SquareDomain(10.0), h=2 * math.pi / 32)
                   for i in range(100)])
    assert np.median(ds) < 0.2
    assert np.quantile(ds, 0.95) < 0.3


def test_sandwich_identical_measures_no_violations():
    u = preset("uniform_circle", K=32)
    rep = sandwich_check(u, u, R=5.0, M=10, beta=0.05, seed=3)
    assert rep.violations == 0


def test_sandwich_close_measures_no_violations():
    u64 = preset("uniform_circle", K=64)
    rot = make_atomic(
        [((math.cos(t + 3e-5), math.sin(t + 3e-5)), 1 / 64)
         for t in 2 * math.pi * np.arange(64) / 64])
    rep = sandwich_check(u64, rot, R=8.0, M=30, beta=0.05, seed=9)
    assert rep.filtered > 0          # the closeness filter passes some draws
    assert rep.violations == 0


def test_sandwich_far_measures_violate_without_filter():
    rep = sandwich_check(preset("cilleruelo"), preset("uniform_circle", K=64),
                         R=6.0, M=20, beta=math.inf, seed=2)
    assert rep.filtered == 20
    assert rep.violations > 0


def test_sandwich_needs_unit_radius():
    u = preset("uniform_circle", K=16)
    with pytest.raises(ValueError, match="need R >= 1"):
        sandwich_check(u, u, R=0.5, M=2, beta=math.inf, seed=1)


def test_sandwich_needs_a_draw():
    u = preset("uniform_circle", K=16)
    for M in (0, -3):
        with pytest.raises(ValueError, match="need M >= 1"):
            sandwich_check(u, u, R=4.0, M=M, beta=math.inf, seed=1)


def test_section7_fields_formulas_and_counts():
    f = section7_field("f")
    g = section7_field("g")
    gm = section7_field("monochromatic_g")
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.uniform(-8, 8, 2)
        assert evaluate(f, (x, y)) == pytest.approx(
            math.sin(x) + 0.8 * math.sin(3 * x) + math.sin(y), abs=1e-12)
        assert evaluate(g, (x, y)) == pytest.approx(
            math.sin(x) + 0.8 * math.sin(3 * x) + 0.1 * math.sin(y), abs=1e-12)
        assert evaluate(gm, (x, y)) == pytest.approx(
            2 * math.cos(x) + math.cos(y), abs=1e-12)
    dom = SquareDomain(20.0)
    assert count_components_plane(evaluate_grid(f, dom, 0.05)).interior_components > 20
    assert count_components_plane(evaluate_grid(g, dom, 0.05)).interior_components == 0
    assert count_components_plane(evaluate_grid(gm, dom, 0.05)).interior_components == 0
    # the loop-free witness must outlast the +-0.01 perturbations of
    # acceptance criterion 9: their C^1 size is at most 0.06 in value and
    # |(0.01 + 0.01 + 0.03 + 0.03, 0.01 + 0.01)| = 0.0825 in gradient
    pert_c1 = max(6 * 0.01, math.hypot(0.08, 0.02))
    margin = stability_profile(g, dom, 0.05).minmax
    assert margin > pert_c1, (
        f"'g' has stability margin {margin:.3f}, not above the criterion-9 "
        f"perturbation size {pert_c1:.3f}")


def test_section7_perturbation_structure():
    eps = (0.003, -0.002, 0.001, 0.004, -0.005, 0.002)
    fp = section7_field("f", perturbation=eps)
    rng = np.random.default_rng(1)
    for _ in range(6):
        x, y = rng.uniform(-5, 5, 2)
        want = (math.sin(x) + 0.8 * math.sin(3 * x) + math.sin(y)
                + eps[0] * math.sin(x) + eps[1] * math.cos(x)
                + eps[2] * math.sin(3 * x) + eps[3] * math.cos(3 * x)
                + eps[4] * math.sin(y) + eps[5] * math.cos(y))
        assert evaluate(fp, (x, y)) == pytest.approx(want, abs=1e-12)
    gp = section7_field("monochromatic_g", perturbation=(0.01, -0.01, 0.02, 0.005))
    for _ in range(6):
        x, y = rng.uniform(-5, 5, 2)
        want = (2 * math.cos(x) + math.cos(y) + 0.01 * math.sin(x)
                - 0.01 * math.sin(y) + 0.02 * math.cos((x + y) / math.sqrt(2))
                + 0.005 * math.sin((x + y) / math.sqrt(2)))
        assert evaluate(gp, (x, y)) == pytest.approx(want, abs=1e-12)


def test_section7_measures():
    three = section7_measure("f")
    assert three.n_atoms == 6
    assert not three.is_monochromatic()
    six = section7_measure("monochromatic_g")
    assert six.n_atoms == 6
    assert six.is_monochromatic()
