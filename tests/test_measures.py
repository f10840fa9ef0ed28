import json
import math
import re

import numpy as np
import pytest
from scipy import integrate, special

from nodalfields.errors import (
    NotPiInvariant,
    NotProbability,
    SupportOutsideDisc,
    UnknownPreset,
)
from nodalfields import measures
from nodalfields.measures import (
    COORD_TOL,
    SpectralMeasure,
    antipodal_pairs,
    covariance,
    gradient_covariance,
    load_measure,
    make_atomic,
    measure_from_dict,
    measure_to_dict,
    moment,
    preset,
    save_measure,
)
from oracles import circle_convolution

NU0 = preset("cilleruelo", kappa="one")


def test_make_atomic_two_point_degenerate():
    rho = make_atomic([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)])
    cov = gradient_covariance(rho)
    # oracle: second moments summed by hand over the two atoms
    assert cov.matrix[0, 0] == pytest.approx((2 * math.pi) ** 2 * 1.0)
    assert cov.lambda_min == pytest.approx(0.0, abs=1e-12)


def test_make_atomic_rejects_bad_weights():
    with pytest.raises(NotProbability):
        make_atomic([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.4)])


def test_make_atomic_rejects_outside_disc():
    with pytest.raises(SupportOutsideDisc):
        make_atomic([((1.5, 0.0), 0.5), ((-1.5, 0.0), 0.5)])


def test_make_atomic_rejects_asymmetric():
    with pytest.raises(NotPiInvariant, match=r"^weights at \(-1\.0, 0\.0\) "
                       r"and antipode differ by 0\.6$"):
        make_atomic([((1.0, 0.0), 0.7), ((-1.0, 0.0), 0.1), ((0.0, 0.0), 0.2)])
    # the origin atom is its own antipode; (0.5, 0) has none
    with pytest.raises(NotPiInvariant,
                       match=r"^atom \(0\.5, 0\.0\) has no antipode$"):
        make_atomic([((0.5, 0.0), 0.5), ((0.0, 0.0), 0.5)])


def test_make_atomic_rejects_non_finite_atoms():
    # every comparison with NaN is False, so a NaN weight once passed the
    # sum check and a NaN location was reported as a lonely atom
    good = [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]
    for bad in (math.nan, math.inf, -math.inf):
        for normalize in (False, True):
            with pytest.raises(NotProbability, match=re.escape(
                    f"atom (-1.0, 0.0) has weight {bad}")):
                make_atomic([good[0], ((-1.0, 0.0), bad)],
                            normalize=normalize)
            with pytest.raises(SupportOutsideDisc, match=re.escape(
                    f"atom (1.0, {bad}) is not in the closed unit disc")):
                make_atomic([((1.0, bad), 0.5), good[1]],
                            normalize=normalize)
    # json reads NaN and Infinity, so a measure file can hold them
    d = measure_to_dict(make_atomic(good))
    d["atoms"][0]["w"] = math.nan
    with pytest.raises(NotProbability, match="has weight nan"):
        measure_from_dict(json.loads(json.dumps(d)))


def test_make_atomic_merges_duplicates():
    rho = make_atomic([((0.5, 0.0), 0.25), ((0.5, 1e-14), 0.25),
                       ((-0.5, 0.0), 0.5)])
    assert rho.n_atoms == 2
    assert rho.weights.sum() == pytest.approx(1.0)


def test_presets_cilleruelo_geometry():
    assert NU0.n_atoms == 4
    pts = {tuple(p) for p in NU0.points}
    assert pts == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    assert np.allclose(NU0.weights, 0.25)

    tilted = preset("tilted_cilleruelo")
    angles = sorted(math.atan2(p[1], p[0]) % (2 * math.pi) for p in tilted.points)
    want = sorted((math.pi / 4 + k * math.pi / 2) % (2 * math.pi) for k in range(4))
    assert np.allclose(angles, want)

    u8 = preset("uniform_circle", K=8)
    assert u8.n_atoms == 8
    assert np.allclose(u8.weights, 1 / 8)


def test_preset_default_kappa():
    # "one" for the two section 7 presets, "two_pi" otherwise; kappa= wins
    params = {"uniform_circle": {"K": 8}, "arc_nu_a": {"a": 0.5, "K": 8}}
    section7 = {"section7_three_pair", "section7_monochromatic_six_point"}
    for name in sorted(measures.PRESET_NAMES):
        kw = params.get(name, {})
        want = "one" if name in section7 else "two_pi"
        assert preset(name, **kw).kappa == want
        other = "two_pi" if name in section7 else "one"
        assert preset(name, kappa=other, **kw).kappa == other


def test_preset_validation():
    with pytest.raises(UnknownPreset):
        preset("no_such_measure")
    with pytest.raises(UnknownPreset):
        preset("uniform_circle", K=3)
    with pytest.raises(UnknownPreset):
        preset("arc_nu_a", a=0.1, K=10)  # not divisible by 4


def test_covariance_basics():
    assert covariance(NU0, (0.0, 0.0)) == pytest.approx(1.0)
    # oracle: r(x) = (cos x1 + cos x2) / 2
    for x in [(math.pi, 0.0), (0.3, 1.1), (-2.0, 0.4)]:
        assert covariance(NU0, x) == pytest.approx(
            0.5 * (math.cos(x[0]) + math.cos(x[1])), abs=1e-12)


def test_covariance_uniform_matches_bessel():
    # oracle: quadrature of the circle average of e(<x, y>)
    u256 = preset("uniform_circle", K=256)
    val = covariance(u256, (0.5, 0.0))
    quad, _ = integrate.quad(
        lambda t: math.cos(2 * math.pi * 0.5 * math.cos(t)) / (2 * math.pi),
        0, 2 * math.pi)
    assert val == pytest.approx(quad, abs=1e-9)
    assert val == pytest.approx(special.j0(math.pi), abs=1e-6)


def test_covariance_properties_random_measures():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.integers(1, 6)
        pts = rng.uniform(-0.7, 0.7, size=(m, 2))
        w = rng.uniform(0.1, 1.0, size=m)
        atoms = [(p, wi) for p, wi in zip(pts, w)] + \
                [(-p, wi) for p, wi in zip(pts, w)]
        rho = make_atomic(atoms, normalize=True)
        x = rng.uniform(-3, 3, size=2)
        assert covariance(rho, (0.0, 0.0)) == pytest.approx(1.0)
        assert abs(covariance(rho, x)) <= 1.0 + 1e-12
        assert covariance(rho, x) == pytest.approx(covariance(rho, -x), abs=1e-12)


def test_gradient_covariance_consistency_with_moments():
    for rho in (NU0, preset("uniform_circle", K=16), preset("tilted_cilleruelo")):
        cov = gradient_covariance(rho)
        k2 = rho.kappa_value ** 2
        assert cov.matrix[0, 0] == pytest.approx(k2 * moment(rho, 2, 0))
        assert cov.matrix[0, 1] == pytest.approx(k2 * moment(rho, 1, 1))
        assert cov.matrix[1, 1] == pytest.approx(k2 * moment(rho, 0, 2))


def test_gradient_covariance_examples():
    cov = gradient_covariance(preset("cilleruelo"))  # kappa = 2 pi
    assert np.allclose(cov.matrix, 2 * math.pi ** 2 * np.eye(2))
    assert cov.lambda_min == pytest.approx(2 * math.pi ** 2)
    assert gradient_covariance(preset("two_point")).lambda_min == pytest.approx(0.0, abs=1e-12)
    dz = gradient_covariance(preset("delta_zero"))
    assert np.allclose(dz.matrix, 0.0)


def test_moments():
    assert moment(NU0, 2, 0) == pytest.approx(0.5)
    assert moment(NU0, 1, 1) == 0.0
    # oracle: integral of cos^4 over the circle = 3/8
    assert moment(preset("uniform_circle", K=512), 4, 0) == pytest.approx(3 / 8, abs=1e-6)
    with pytest.raises(ValueError):
        moment(NU0, 3, 2)


def test_torus_symmetries():
    assert NU0.has_torus_symmetries()
    assert preset("tilted_cilleruelo").has_torus_symmetries()
    assert preset("uniform_circle", K=64).has_torus_symmetries()
    assert preset("arc_nu_a", a=math.pi / 8, K=32).has_torus_symmetries()
    assert not preset("two_point", theta=0.3).has_torus_symmetries()
    assert not preset("delta_zero").has_torus_symmetries()


def test_antipodal_pairs():
    reps, pw, w0 = antipodal_pairs(NU0)
    assert len(pw) == 2
    assert np.allclose(pw, 0.5)
    assert tuple(reps[0]) == (1.0, 0.0)
    assert tuple(reps[1]) == (0.0, 1.0)
    assert w0 == 0.0
    reps, pw, w0 = antipodal_pairs(preset("delta_zero"))
    assert len(pw) == 0 and w0 == 1.0


# The former per-atom loops, kept as oracles for the vectorized matcher.

def _find_atom_oracle(points, target, tol):
    close = (np.abs(points[:, 0] - target[0]) <= tol) \
        & (np.abs(points[:, 1] - target[1]) <= tol)
    idx = np.nonzero(close)[0]
    return int(idx[0]) if len(idx) else -1


def _pairs_oracle(rho):
    tol = 1e-12
    reps, pw = [], []
    origin = 0.0
    seen = np.zeros(rho.n_atoms, dtype=bool)
    for i in range(rho.n_atoms):
        if seen[i]:
            continue
        p, w = rho.points[i], float(rho.weights[i])
        if abs(p[0]) <= tol and abs(p[1]) <= tol:
            origin += w
            seen[i] = True
            continue
        j = _find_atom_oracle(rho.points, -p, tol)
        seen[i] = True
        total = w
        if j >= 0 and j != i and not seen[j]:
            total += float(rho.weights[j])
            seen[j] = True
        rep = p if tuple(p) >= tuple(-p) else -p
        reps.append(rep)
        pw.append(total)
    if reps:
        reps = np.asarray(reps)
        pw = np.asarray(pw)
        order = np.lexsort((reps[:, 1], reps[:, 0]))[::-1]
        reps, pw = reps[order], pw[order]
    else:
        reps = np.zeros((0, 2))
        pw = np.zeros(0)
    return reps, pw, origin


def _torus_symmetries_oracle(rho, tol=1e-12):
    norms = np.hypot(rho.points[:, 0], rho.points[:, 1])
    if not np.all(np.abs(norms - 1.0) <= tol):
        return False
    quarter = np.column_stack([-rho.points[:, 1], rho.points[:, 0]])
    conj = np.column_stack([rho.points[:, 0], -rho.points[:, 1]])
    return all(
        (j := _find_atom_oracle(rho.points, q, tol)) >= 0
        and abs(rho.weights[j] - w) <= tol
        for mapped in (quarter, conj) for q, w in zip(mapped, rho.weights))


def _assert_table_is_oracle(rho):
    reps, pw, w0 = antipodal_pairs(rho)
    want_reps, want_pw, want_w0 = _pairs_oracle(rho)
    assert reps.shape == want_reps.shape and reps.dtype == want_reps.dtype
    # bit patterns, so -0.0 and 0.0 count as different
    assert reps.tobytes() == want_reps.tobytes()
    assert pw.tobytes() == want_pw.tobytes()
    assert w0 == want_w0 and type(w0) is float


def _random_symmetric_measure(rng, with_origin):
    """Pairs from rotated circle points, inner points and a coarse grid."""
    m = int(rng.integers(1, 40))
    kind = rng.integers(3)
    if kind == 0:    # antipode at theta + pi: not an exact negative
        th = rng.uniform(0, np.pi, m)
        pts = np.column_stack([np.cos(th), np.sin(th)])
        anti = np.column_stack([np.cos(th + np.pi), np.sin(th + np.pi)])
    elif kind == 1:
        pts = rng.uniform(-0.7, 0.7, size=(m, 2))
        anti = -pts
    else:            # many atoms share an x coordinate
        pts = np.unique(rng.integers(-4, 5, size=(m, 2)), axis=0) / 8.0
        pts = pts[np.any(pts != 0, axis=1)]
        anti = -pts
    w = rng.uniform(0.1, 1.0, size=len(pts))
    atoms = [(p, wi) for p, wi in zip(pts, w)] + \
            [(q, wi) for q, wi in zip(anti, w)]
    if with_origin:
        atoms.append(((0.0, 0.0), float(rng.uniform(0.1, 1.0))))
    return make_atomic(atoms, normalize=True)


def _preset_zoo():
    rhos = [preset("uniform_circle", K=K) for K in range(4, 257, 2)]
    rhos += [preset("arc_nu_a", a=a, K=K)
             for a in (0.1, 0.3, math.pi / 8, math.pi / 4) for K in (4, 16, 32, 64)]
    rhos += [preset("two_point", theta=t) for t in (0.0, 0.3, math.pi / 2)]
    rhos += [preset(name) for name in (
        "cilleruelo", "tilted_cilleruelo", "delta_zero", "section7_three_pair",
        "section7_monochromatic_six_point")]
    rhos += [NU0, preset("cilleruelo", kappa="one")]
    a, b = preset("cilleruelo"), preset("tilted_cilleruelo")
    c, u64 = preset("uniform_circle", K=8), preset("uniform_circle", K=64)
    conv = circle_convolution
    rhos += [conv(a, a), conv(a, b), conv(b, a), conv(a, u64),
             conv(conv(a, b), c), conv(a, conv(b, c))]
    return rhos


def test_pair_table_equals_former_loop_on_presets_and_convolutions():
    for rho in _preset_zoo():
        _assert_table_is_oracle(rho)


def test_pair_table_equals_former_loop_on_lattice_measures():
    from nodalfields.arithmetic import mu_n, r2
    count = 0
    for n in range(1, 3001):
        if r2(n):
            _assert_table_is_oracle(mu_n(n))
            count += 1
    assert count == 899


def test_pair_table_equals_former_loop_on_random_measures():
    rng = np.random.default_rng(20170703)
    for k in range(240):
        _assert_table_is_oracle(_random_symmetric_measure(rng, k % 2 == 1))
    # unmerged clusters within 1.5 COORD_TOL, built without make_atomic:
    # first antipode matches are not mutual and atoms compete for one partner
    for _ in range(200):
        base = rng.uniform(-0.8, 0.8, size=(rng.integers(1, 5), 2))
        if rng.random() < 0.3:
            base = np.vstack([base, [[0.0, 0.0]]])
        pts = np.array([sign * b + rng.uniform(-1.5e-12, 1.5e-12, 2)
                        * rng.integers(0, 2, 2)
                        for b in base for sign in (1, -1)
                        for _ in range(rng.integers(1, 4))])
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        w = rng.uniform(0.1, 1.0, len(pts))
        _assert_table_is_oracle(SpectralMeasure(points=pts, weights=w / w.sum()))


def _merge_atoms_oracle(points, weights):
    """The former clustering loop of measures._merge_atoms."""
    out_p, out_w = [], []
    order = np.argsort(points[:, 0], kind="stable")
    pts, wts = points[order], weights[order]
    n = len(wts)
    i = 0
    while i < n:
        j = i + 1
        while j < n and pts[j, 0] - pts[j - 1, 0] <= COORD_TOL:
            j += 1
        sub = np.argsort(pts[i:j, 1], kind="stable") + i
        k = 0
        while k < len(sub):
            m = k + 1
            while m < len(sub) and pts[sub[m], 1] - pts[sub[m - 1], 1] <= COORD_TOL:
                m += 1
            grp = sub[k:m]
            out_p.append(pts[grp[0]])
            out_w.append(float(wts[grp].sum()))
            k = m
        i = j
    pts = np.asarray(out_p, dtype=float)
    wts = np.asarray(out_w, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order], wts[order]


def _assert_merge_is_oracle(got, points, weights):
    got_p, got_w = got
    want_p, want_w = _merge_atoms_oracle(points, weights)
    assert got_p.shape == want_p.shape and got_w.shape == want_w.shape
    # bit patterns: the same representatives and the same summation order
    assert got_p.tobytes() == want_p.tobytes()
    assert got_w.tobytes() == want_w.tobytes()


@pytest.fixture
def merge_checked(monkeypatch):
    """Compare every merge make_atomic runs with the former loop."""
    real = measures._merge_atoms
    calls = []

    def checked(points, weights):
        out = real(points, weights)
        _assert_merge_is_oracle(out, points, weights)
        calls.append((len(weights), len(out[1])))
        return out

    monkeypatch.setattr(measures, "_merge_atoms", checked)
    return calls


def test_merge_equals_former_loop_on_presets_and_lattice_measures(merge_checked):
    from nodalfields.arithmetic import mu_n, r2
    zoo = _preset_zoo()
    # mu_n caches its measures; its undecorated builder merges afresh
    lattice = [mu_n.__wrapped__(n) for n in range(1, 3001) if r2(n)]
    assert len(lattice) == 899
    assert len(merge_checked) > len(zoo) + len(lattice)
    # the convolutions merge coincident atom sums
    assert any(n_out < n_in for n_in, n_out in merge_checked)


def test_merge_equals_former_loop_on_near_tolerance_clusters():
    rng = np.random.default_rng(20170704)
    for trial in range(400):
        base = rng.uniform(-1, 1, size=(rng.integers(1, 10), 2))
        if rng.random() < 0.3:      # x clusters that interleave in y
            base[:, 0] = base[0, 0]
        # some groups above 8 and 128 atoms, where ndarray.sum goes pairwise
        sizes = rng.integers(1, 300 if trial % 8 == 0 else 12, len(base))
        pts = np.repeat(base, sizes, axis=0)
        jitter = rng.uniform(-1.5, 1.5, pts.shape) * COORD_TOL
        pts = pts + jitter * rng.integers(0, 2, pts.shape)
        w = rng.uniform(0.0, 1.0, len(pts)) * 10.0 ** rng.uniform(-9, 0, len(pts))
        perm = rng.permutation(len(pts))
        pts, w = pts[perm], w[perm]
        _assert_merge_is_oracle(measures._merge_atoms(pts, w), pts, w)


def test_pair_table_is_built_once_and_read_only():
    rho = preset("uniform_circle", K=16)
    table = antipodal_pairs(rho)
    assert antipodal_pairs(rho) is table
    reps, pw, _ = table
    with pytest.raises(ValueError):
        reps[0, 0] = 2.0
    with pytest.raises(ValueError):
        pw[0] = 2.0


def test_torus_symmetries_equal_former_loop():
    from nodalfields.arithmetic import mu_n, r2
    rng = np.random.default_rng(5)
    rhos = [mu_n(n) for n in range(1, 10001) if r2(n)]
    rhos += [preset("two_point", theta=0.3), preset("delta_zero"),
             preset("arc_nu_a", a=0.2, K=16), preset("section7_three_pair"),
             preset("section7_monochromatic_six_point")]
    rhos += [_random_symmetric_measure(rng, False) for _ in range(40)]
    answers = [rho.has_torus_symmetries() for rho in rhos]
    assert answers == [_torus_symmetries_oracle(rho) for rho in rhos]
    assert all(answers[:-45]) and not all(answers[-45:])


def test_measure_file_roundtrip(tmp_path):
    rho = make_atomic([((0.123456789012345, 0.5), 0.25),
                       ((-0.123456789012345, -0.5), 0.25),
                       ((0.7, -0.1), 0.25), ((-0.7, 0.1), 0.25)],
                      kappa="one")
    path = tmp_path / "m.json"
    save_measure(rho, path)
    back = load_measure(path)
    assert back.kappa == "one"
    assert np.array_equal(back.points, rho.points)  # bit-stable decimal roundtrip
    assert np.array_equal(back.weights, rho.weights)
    # file format shape
    doc = json.loads(path.read_text())
    assert doc["kind"] == "atomic"
    assert {"x", "y", "w"} <= set(doc["atoms"][0])


def test_preset_roundtrip_through_dict():
    rho = preset("uniform_circle", K=16)
    back = measure_from_dict(measure_to_dict(rho))
    assert np.array_equal(back.points, rho.points)
    assert back.kappa == rho.kappa
