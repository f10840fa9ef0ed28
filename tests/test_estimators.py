import json
import math
import warnings

import numpy as np
import pytest

from nodalfields import cli, estimators
from nodalfields.errors import GridTooCoarse, ScheduleTooShort
from nodalfields.estimators import (
    estimate_cns,
    estimate_dns,
    estimate_mean_count,
    fit_cns_from_table,
    measure_digest,
    torus_count_report,
)
from nodalfields.fields import SquareDomain, evaluate_grid, sample
from nodalfields.measures import preset
from nodalfields.topology import count_components_plane

U32 = preset("uniform_circle", K=32)


def test_fit_recovers_exact_linear_model():
    Rs = [10.0, 20.0, 40.0]
    means = [0.05 * 4 * R * R + 1.0 * R for R in Rs]
    c, cerr, slope, resid = fit_cns_from_table(Rs, means, [1.0, 1.0, 1.0])
    assert c == pytest.approx(0.05, abs=1e-10)
    assert np.allclose(resid, 0.0, atol=1e-12)
    with pytest.raises(ScheduleTooShort):
        fit_cns_from_table([10.0, 20.0], [1.0, 2.0], [0.1, 0.1])


def test_fit_rejects_blocks_without_spread():
    # a zero stderr would weigh its block ~1e30 and pin c to it
    with pytest.raises(ValueError, match=r"R = \[1.0, 2.0\].*raise M or R"):
        fit_cns_from_table([1.0, 2.0, 3.0], [0.0, 0.0, 4.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match=r"R = \[20.0\]"):
        fit_cns_from_table([10.0, 20.0, 40.0], [50.0, 180.0, 700.0],
                           [2.0, 0.0, 9.0])
    # an all-zero table keeps its exact answer
    c, cerr, slope, resid = fit_cns_from_table([1.0, 2.0, 3.0], [0.0] * 3,
                                               [0.0] * 3)
    assert (c, cerr, slope) == (0.0, 0.0, 0.0)
    assert not np.any(resid)


def test_zero_measures_give_zero_counts():
    for name in ("two_point", "delta_zero"):
        mean, se = estimate_mean_count(preset(name), R=6.0, M=20, seed=3)
        assert mean == 0.0 and se == 0.0
    nu0 = preset("cilleruelo", kappa="one")
    mean, se = estimate_mean_count(nu0, R=10.0, M=20, seed=3)
    assert mean == 0.0 and se == 0.0
    rep = estimate_cns(nu0, [6.0, 10.0, 14.0], M=12, seed=3)
    assert rep.cns_estimate == 0.0 and rep.cns_stderr == 0.0


def test_estimate_cns_uniform_positive():
    rep = estimate_cns(U32, [6.0, 10.0, 14.0], M=40, seed=5)
    assert rep.cns_estimate > 0.1
    assert rep.cns_estimate > 5 * rep.cns_stderr
    assert rep.measure_hash == measure_digest(U32)
    d = rep.to_dict()
    assert d["kind"] == "cns_report"
    json.dumps(d)  # serializable


def test_estimate_cns_validation():
    with pytest.raises(ScheduleTooShort):
        estimate_cns(U32, [10.0], M=10, seed=1)
    with pytest.raises(ScheduleTooShort):
        estimate_cns(U32, [10.0, 5.0, 20.0], M=10, seed=1)


@pytest.mark.parametrize("schedule", [[2.0, 4.0, math.nan],
                                      [2.0, 4.0, math.inf],
                                      [0.5, 1.0, 2.0]])
def test_bad_schedule_radii_fail_before_the_first_draw(monkeypatch,
                                                       schedule):
    # a non-finite radius, or one below 1, used to fail in grid_axes or
    # estimate_mean_count only after the earlier blocks had been drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("sample called before the schedule was checked")

    monkeypatch.setattr(estimators, "sample", no_draw)
    with pytest.raises(ValueError, match="schedule radii"):
        estimate_cns(U32, schedule, M=10, seed=0)
    argv = ["cns", "--preset", "uniform:16", "--M", "10", "--schedule",
            ",".join(str(R) for R in schedule)]
    assert cli.main(argv) == 2


def test_determinism():
    r1 = estimate_mean_count(U32, R=6.0, M=16, seed=9)
    r2 = estimate_mean_count(U32, R=6.0, M=16, seed=9)
    assert r1 == r2


def test_adding_samples_moves_mean_within_error():
    m1, e1 = estimate_mean_count(U32, R=6.0, M=30, seed=11)
    m2, e2 = estimate_mean_count(U32, R=6.0, M=60, seed=11)
    assert abs(m1 - m2) <= 4 * max(e1, 1e-12)


def test_estimate_dns():
    nu0 = preset("cilleruelo", kappa="one")
    assert estimate_dns(nu0, R=8.0, M=15, seed=2, cns_estimate=0.0) == 0.0
    # smooth measure: discrepancy shrinks with R
    c = estimate_cns(U32, [6.0, 10.0, 14.0], M=40, seed=5).cns_estimate
    d_small = estimate_dns(U32, R=6.0, M=40, seed=6, cns_estimate=c)
    d_big = estimate_dns(U32, R=14.0, M=40, seed=6, cns_estimate=c)
    assert d_big < d_small


def test_dns_positive_for_three_pair_ensemble():
    # the three-pair measure mixes loop-rich and loop-free samples, so the
    # scaled count keeps fluctuating: plug-in discrepancy stays away from 0
    rho = preset("section7_three_pair")
    R, M = 15.0, 40
    counts = np.array([
        count_components_plane(evaluate_grid(
            sample(rho, 7, i, freq_scale=3.0), SquareDomain(R))).interior_components
        for i in range(M)], dtype=float)
    dens = counts / (4 * R * R)
    c_hat = dens.mean()
    dns = np.abs(dens - c_hat).mean()
    assert dns > 0.005
    assert dens.std() > 0.005


def test_grid_too_coarse_flag():
    lam = sample(U32, seed=1).min_wavelength()
    coarse = estimate_cns(U32, [1.0, 1.5, 2.0], M=10, seed=1, h=lam / 11)
    assert coarse.grid_too_coarse
    assert not estimate_cns(U32, [1.0, 1.5, 2.0], M=10, seed=1).grid_too_coarse


def test_batches_pass_warnings_through(monkeypatch):
    from nodalfields import estimators

    def noisy_census(g):
        warnings.warn("census trouble", RuntimeWarning)
        return count_components_plane(g)

    monkeypatch.setattr(estimators, "count_components_plane", noisy_census)
    with pytest.warns(RuntimeWarning, match="census trouble"):
        estimate_mean_count(U32, 2.0, 10, seed=1)
    monkeypatch.undo()
    coarse = sample(U32, seed=1).min_wavelength() / 11
    runs = [
        lambda: estimate_mean_count(U32, 2.0, 10, h=coarse, seed=1),
        lambda: estimate_dns(U32, 2.0, 3, 1, 0.05, h=coarse),
        lambda: torus_count_report(65, 5, h=1 / 40, planar_M=10),
    ]
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridTooCoarse):
                run()
    # the default filter shows a coarse batch's warning once, not per draw
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        estimate_mean_count(U32, 2.0, 10, h=coarse, seed=1)
    assert [w.category for w in caught] == [GridTooCoarse]


def test_torus_count_report_smoke():
    rep = torus_count_report(65, M=20, seed=3, planar_M=20)
    assert rep.mean_total > 0
    assert rep.cns_mu_n > 0
    assert abs(rep.residual_over_sqrt_n) < 3.0
    d = rep.to_dict()
    assert d["kind"] == "torus_report"
    # the report's h is the one its censuses ran on: the lattice's 1/33
    with pytest.warns(GridTooCoarse):
        rep = torus_count_report(65, 2, h=0.03, seed=1, planar_M=10)
    assert rep.h == 1 / 33


def test_torus_count_report_needs_two_draws():
    with pytest.raises(ValueError, match="need M >= 2"):
        torus_count_report(65, 1, planar_M=10)


def test_torus_report_cilleruelo_type_n1():
    # mu_1 is the axis measure: no contractible components, all wrapping
    from nodalfields.arithmetic import sample_torus_wave
    from nodalfields.fields import TorusDomain, evaluate_grid
    from nodalfields.topology import count_components_torus
    for i in range(10):
        s = sample_torus_wave(1, seed=21, stream=i)
        c = count_components_torus(evaluate_grid(s, TorusDomain(), 1.0 / 32))
        assert c.interior_components == 0
        assert c.wrapping_components in (2, 4)


def test_empty_batches_raise():
    with pytest.raises(ValueError, match="need M >= 1"):
        estimate_dns(U32, R=3.0, M=0, seed=1, cns_estimate=0.1)
    with pytest.raises(ValueError, match="need R >= 1"):
        estimate_dns(U32, R=0.0, M=3, seed=1, cns_estimate=0.1)
