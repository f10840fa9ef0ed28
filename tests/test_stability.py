import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from nodalfields.errors import DomainMismatch
from nodalfields.fields import (
    ScalarGrid,
    SquareDomain,
    TorusDomain,
    default_spacing,
    evaluate_batch,
    evaluate_grid,
    inject_sample,
    sample,
)
from nodalfields import stability, topology
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
from nodalfields.topology import (
    TIE_TOL,
    count_components_plane,
    grid_signs,
    sign_grid,
)


def rotated_axis_measure(eps, kappa="one"):
    c, s = math.cos(eps), math.sin(eps)
    return make_atomic([((c, s), 0.25), ((-c, -s), 0.25),
                        ((-s, c), 0.25), ((s, -c), 0.25)], kappa=kappa)


def grid_c1_distance(f0, f1, domain, h):
    """c1_distance of the order-1 grids of f0 and f1 on one domain."""
    return c1_distance(evaluate_grid(f0, domain, h, order=1),
                       evaluate_grid(f1, domain, h, order=1))


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
    assert grid_c1_distance(s, s, SquareDomain(5.0), default_spacing(s)) == 0.0
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
        dab = grid_c1_distance(a, b, dom, 1 / 16)
        dba = grid_c1_distance(b, a, dom, 1 / 16)
        dac = grid_c1_distance(a, c, dom, 1 / 16)
        dcb = grid_c1_distance(c, b, dom, 1 / 16)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= dac + dcb + 1e-12


def test_c1_distance_domain_mismatch():
    s = sample(preset("uniform_circle", K=16), seed=3)
    g1 = evaluate_grid(s, SquareDomain(5.0), 1 / 16, order=1)
    g2 = evaluate_grid(s, SquareDomain(4.0), 1 / 16, order=1)
    with pytest.raises(DomainMismatch):
        c1_distance(g1, g2)


def test_subcensus_needs_an_aligned_subsquare_that_fits():
    s = sample(preset("uniform_circle", K=64), seed=3)
    g = evaluate_grid(s, SquareDomain(9.0), 1 / 16)
    assert g.values.shape == (289, 289)
    assert stability._subcensus(g, 9.0) \
        == count_components_plane(g).interior_components
    inner = evaluate_grid(s, SquareDomain(8.0), 1 / 16)
    assert stability._subcensus(g, 8.0) \
        == count_components_plane(inner).interior_components > 0
    # larger than the grid: the slice would wrap to its last rows and columns
    for R in (9.0 + 1 / 16, 10.0, 20.0):
        with pytest.raises(DomainMismatch, match="does not fit"):
            stability._subcensus(g, R)
    with pytest.raises(DomainMismatch, match="grid-aligned"):
        stability._subcensus(g, 8.0 + 1 / 32)
    # a torus grid has no centred sub-square, and no square fits a NaN or
    # an infinite R: each is refused by name, not by an unrelated error
    torus = evaluate_grid(s, TorusDomain(), 1 / 32)
    with pytest.raises(DomainMismatch, match="torus"):
        stability._subcensus(torus, 0.25)
    with pytest.raises(DomainMismatch, match="R=nan does not fit"):
        stability._subcensus(g, math.nan)
    with pytest.raises(DomainMismatch, match="R=inf does not fit"):
        stability._subcensus(g, math.inf)


def _sandwich_spacing(f0, f1):
    """sandwich_check's default spacing for the draw (f0, f1)."""
    h = min(default_spacing(f0), default_spacing(f1))
    return h if abs(math.remainder(1 / h, 1)) <= 1e-9 else 1 / math.ceil(1 / h)


@pytest.mark.parametrize("rho0,rho1,R", [
    (preset("uniform_circle", K=128), preset("uniform_circle", K=256), 8.0),
    (preset("uniform_circle", K=16), preset("uniform_circle", K=32), 3.0),
    (preset("cilleruelo"), preset("uniform_circle", K=64), 6.0)],
    ids=["K128-K256", "K16-K32", "cilleruelo-K64"])
def test_certified_subcensus_counts_are_the_float64_counts(rho0, rho1, R):
    # every window of the sandwich, on both fields of each coupled draw
    outer = SquareDomain(R + 1.0)
    for i in range(40):
        f0, f1 = coupled_sample(rho0, rho1, seed=21, stream=i)
        h = _sandwich_spacing(f0, f1)
        for f in (f0, f1):
            g32 = evaluate_grid(f, outer, h, certified=True)
            g64 = evaluate_grid(f, outer, h)
            assert g32.values.dtype == np.float32 and g32.bound is not None
            for r in (R - 1.0, R, R + 1.0):
                assert (stability._subcensus(g32, r)
                        == stability._subcensus(g64, r))


def test_certified_subsquare_signs_its_planted_nodes_exactly(monkeypatch):
    # float32 values planted on the first and last rows and columns of the
    # strided R - 1 window of a certified grid, on the other side of the
    # tie threshold from the field there: those 0.75 bound from it are
    # valued at the window's own nodes and get the field's sign, those
    # 1.25 bound from it keep their own.  The corners of a zero-mean saddle
    # cell, moved half a bound against the field's centre mean, keep their
    # signs, and the cell is joined by that mean's sign
    f = sample(preset("uniform_circle", K=256), seed=3)
    g = evaluate_grid(f, SquareDomain(9.0), 1 / 16, certified=True)
    g64 = evaluate_grid(f, SquareDomain(9.0), 1 / 16)
    k, n = 32, 225                   # the R - 1 window's offset and side
    tie, b = -TIE_TOL, g.bound
    lines = np.array([0, n - 1])
    along = np.array([17, 60, 111, 170, 31, 143])
    ii = np.concatenate([np.repeat(lines, 6), np.tile(along, 2)])
    jj = np.concatenate([np.tile(along, 2), np.repeat(lines, 6)])
    near = np.tile(np.arange(6) < 4, 4)
    pts = np.column_stack([g.xs[k + ii], g.ys[k + jj]])
    side = np.where(sign_grid(evaluate_batch(f, pts)), -1.0, 1.0)
    planted = g.values.copy()
    reference = g64.values.copy()
    put = tie + side * np.where(near, 0.75, 1.25) * b
    planted[k + ii, k + jj] = put
    reference[k + ii[~near], k + jj[~near]] = put[~near]
    # the saddle cell (c, c) of the window: +a on one diagonal, -a on the other
    c, a = 100, 0.1
    ci, cj = c + np.array([0, 1, 0, 1]), c + np.array([0, 0, 1, 1])
    corners = np.column_stack([g.xs[k + ci], g.ys[k + cj]])
    centre = sign_grid(np.array([evaluate_batch(f, corners).mean()]))
    move = 0.5 * b if centre[0] else -0.5 * b
    sad = tie + a * np.array([1.0, -1.0, -1.0, 1.0])
    planted[k + ci, k + cj] = sad - move
    reference[k + ci, k + cj] = sad + move
    outer = replace(g, values=planted)
    subs = []

    def recording(sub):
        subs.append(sub)
        return count_components_plane(sub)

    monkeypatch.setattr(stability, "count_components_plane", recording)
    count = stability._subcensus(outer, 7.0)
    monkeypatch.undo()
    (sub,) = subs
    assert sub.values.shape == (n, n) and not sub.values.flags.c_contiguous
    pos = grid_signs(sub)
    assert np.array_equal(pos[ii, jj], np.where(near, side < 0, side > 0))
    assert np.array_equal(pos[ci, cj], sad > tie)
    assert sign_grid(sub.values[ci, cj].mean(keepdims=True)) != centre
    assert np.array_equal(topology._centre_signs(sub, np.array([c]),
                                                 np.array([c])), centre)
    window = slice(k, k + n)
    ref = ScalarGrid(SquareDomain(7.0), g.h, g.xs[window], g.ys[window],
                     reference[window, window])
    assert np.array_equal(pos, grid_signs(ref))
    assert count == count_components_plane(ref).interior_components


def test_coupled_sample_identical_measures():
    u = preset("uniform_circle", K=32)
    f0, f1 = coupled_sample(u, u, seed=7)
    assert np.array_equal(f0.coeff_a, f1.coeff_a)
    assert np.array_equal(f0.coeff_b, f1.coeff_b)
    assert grid_c1_distance(f0, f1, SquareDomain(8.0),
                            default_spacing(f0)) == 0.0


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
    # the censuses read signs only: at beta = inf both grids of a draw are
    # certified.  The filters read float64 order-1 grids, f1's only for a
    # draw whose f0 passes the stability filter
    draws, grids = [], []

    def drawing(*args, **kwargs):
        draws.append(coupled_sample(*args, **kwargs))
        return draws[-1]

    def recording(s, domain, h=None, order=0, certified=False):
        g = evaluate_grid(s, domain, h, order, certified)
        grids.append((s, order, certified, g))
        return g

    monkeypatch.setattr(stability, "coupled_sample", drawing)
    monkeypatch.setattr(stability, "evaluate_grid", recording)
    u = preset("uniform_circle", K=32)
    sandwich_check(u, u, R=3.0, M=3, beta=beta, seed=1)
    label = {id(f): (i, k) for i, pair in enumerate(draws)
             for k, f in enumerate(pair)}
    got = [(label[id(s)], o, c) for s, o, c, _ in grids]
    if order == 0:
        want = [((i, k), 0, True) for i in range(3) for k in (0, 1)]
        assert all(g.bound is not None for *_, g in grids)
    else:
        stable = [stability._minmax(g) > 2 * beta
                  for s, *_, g in grids if label[id(s)][1] == 0]
        assert len(stable) == 3 and 0 < sum(stable) < 3
        want = [((i, k), 1, False) for i, ok in enumerate(stable)
                for k in (0, 1)[:1 + ok]]
    assert got == want


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
        d = [grid_c1_distance(*coupled_sample(preset("uniform_circle", K=K),
                                              preset("uniform_circle", K=2 * K),
                                              seed=5, stream=i),
                              SquareDomain(2.0), 1 / 16)
             for i in range(10)]
        meds.append(np.median(d))
    assert meds[0] > meds[1] > meds[2]


def test_coupling_rotated_axis_measure():
    # own oracle run (100 seeds): median ~0.16, 95th percentile ~0.24; the
    # frozen bounds add sampling margin
    nu0 = preset("cilleruelo", kappa="one")
    rot = rotated_axis_measure(0.01)
    ds = np.array([grid_c1_distance(*coupled_sample(nu0, rot, seed=31,
                                                    stream=i),
                                    SquareDomain(10.0), 2 * math.pi / 32)
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


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_sandwich_rejects_a_non_finite_radius_before_drawing(monkeypatch, R):
    # NaN passed the former guard R < 1: the plan was built and a coupled
    # draw made before grid_axes refused the outer square
    def no_draw(*args, **kwargs):
        raise AssertionError("coupled_sample called before R was checked")

    monkeypatch.setattr(stability, "coupled_sample", no_draw)
    u16, u32 = (preset("uniform_circle", K=K) for K in (16, 32))
    with pytest.raises(ValueError, match="need R >= 1 and finite"):
        sandwich_check(u16, u32, R, 2, math.inf, 1)


def test_sandwich_needs_a_draw():
    u = preset("uniform_circle", K=16)
    for M in (0, -3):
        with pytest.raises(ValueError, match="need M >= 1"):
            sandwich_check(u, u, R=4.0, M=M, beta=math.inf, seed=1)


def test_sandwich_default_spacing_divides_one():
    # kappa "one" gives a default spacing of 2 pi / 16, which does not
    # divide 1, so the squares R and R - 1 miss its grid; it runs on 1/3
    u16, u32 = (preset("uniform_circle", K=K, kappa="one") for K in (16, 32))
    rep = sandwich_check(u16, u32, R=3.0, M=3, beta=math.inf, seed=1)
    assert rep.filtered == 3


def test_sandwich_rejects_a_spacing_before_drawing(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return coupled_sample(*args, **kwargs)

    monkeypatch.setattr(stability, "coupled_sample", counting)
    u16, u32 = (preset("uniform_circle", K=K, kappa="one") for K in (16, 32))
    # 1/h overflows for a subnormal h
    for h in (0.03, 0.0, 1e-320, 5e-324):
        with pytest.raises(ValueError, match="divides 1"):
            sandwich_check(u16, u32, R=3.0, M=3, beta=math.inf, seed=1, h=h)
    # 1/h is within 1e-9 of an integer below about 1e-16, but its lattice
    # on the outer square passes the node cap of grid_axes
    with pytest.raises(ValueError, match="h=1e-20 gives a lattice side"):
        sandwich_check(u16, u32, R=3.0, M=3, beta=math.inf, seed=1, h=1e-20)
    assert calls == []


def test_section7_fields_formulas_and_counts():
    f = section7_field("f")
    g = section7_field("g")
    gm = section7_field("monochromatic_g")
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.uniform(-8, 8, 2)
        assert evaluate_batch(f, [(x, y)])[0] == pytest.approx(
            math.sin(x) + 0.8 * math.sin(3 * x) + math.sin(y), abs=1e-12)
        assert evaluate_batch(g, [(x, y)])[0] == pytest.approx(
            math.sin(x) + 0.8 * math.sin(3 * x) + 0.1 * math.sin(y), abs=1e-12)
        assert evaluate_batch(gm, [(x, y)])[0] == pytest.approx(
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
        (got,) = evaluate_batch(fp, [(x, y)])
        assert got == pytest.approx(want, abs=1e-12)
    gp = section7_field("monochromatic_g", perturbation=(0.01, -0.01, 0.02, 0.005))
    for _ in range(6):
        x, y = rng.uniform(-5, 5, 2)
        want = (2 * math.cos(x) + math.cos(y) + 0.01 * math.sin(x)
                - 0.01 * math.sin(y) + 0.02 * math.cos((x + y) / math.sqrt(2))
                + 0.005 * math.sin((x + y) / math.sqrt(2)))
        (got,) = evaluate_batch(gp, [(x, y)])
        assert got == pytest.approx(want, abs=1e-12)


def test_section7_measures():
    three = section7_measure("f")
    assert three.n_atoms == 6
    assert not three.is_monochromatic()
    six = section7_measure("monochromatic_g")
    assert six.n_atoms == 6
    assert six.is_monochromatic()
