"""Bit-identity of seeded output, pinned as sha256 digests.

Each workload digest is the sha256 of the report payload serialized as the
CLI prints it (sorted-key JSON, indent 2, trailing newline), so any change to
a seeded number, a key or a float's last bit fails here.  The table digest
covers the antipodal pair tables and the first draw of several measures;
every other seeded number starts from those.  The values were derived before
the pair table moved onto the measure; the plane_cns and torus_census
digests were re-derived when the plane census began joining saddle
diagonals, and each equals the digest of the same payload computed with the
flood-fill oracle of tests/test_topology.py as the census.  The three
sandwich digests were re-derived when the sandwich report began to carry
its seed: each is the digest of the former payload with "seed": 1 added.
The two stability CLI digests are of the whole stdout, taken while every
sandwich grid was float64.  The certificate digests were taken while the
certificate valued its undecided nodes with ``evaluate_batch``, before it
read them from the grid's own float64 tables.
Regenerate them only with a change that alters seeded output on purpose,
and say so.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from nodalfields.arithmetic import cilleruelo_torus_field, mu_n
from nodalfields.cli import main
from nodalfields.estimators import estimate_cns, torus_count_report
from nodalfields.fields import ScalarGrid, cilleruelo_field, sample
from nodalfields.measures import antipodal_pairs, preset
from nodalfields.stability import sandwich_check


def _payload_digest(payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _uniform(K):
    return preset("uniform_circle", K=K)


WORKLOADS = {
    "plane_cns": (
        lambda: estimate_cns(_uniform(64), [2.5, 5, 10], 10, 1),
        "b614f863f70b903356fdd7324dc13dfcdfbd8dd8c8ef50d74aec9e8a90dee762"),
    "torus_census": (
        lambda: torus_count_report(65, 2, seed=1, planar_M=10),
        "ee815582d7a1164e3bd2f070ed77ce49993458b856766f8e84d399550467a584"),
    "coupled_sandwich": (
        lambda: sandwich_check(_uniform(128), _uniform(256), 8.0, 1,
                               math.inf, 1),
        "672b33302a8af02c178ff078c07221ef51ff05596c82a1b3fe8ddf92fc285b7f"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_payload_digest(name):
    run, want = WORKLOADS[name]
    assert _payload_digest(run().to_dict()) == want


# certified grids on which the bound leaves many nodes and saddle centres
# undecided, so that their payloads pin the float64 values that sign them
CERTIFICATE_WORKLOADS = {
    "sandwich_K128_K256": (
        lambda: sandwich_check(_uniform(128), _uniform(256), 8.0, 10,
                               math.inf, 2),
        "14fdc8e38c502a8091943eb4254d2f96eafca59e95cce04ab7b0ce86bea5ef20"),
    "cns_K256": (
        lambda: estimate_cns(_uniform(256), [4, 6, 8], 10, 3),
        "58acf0959be6768b7cef4b5a017376302a136371879d5b601690610cf00ca6dd"),
    "torus_1105": (
        lambda: torus_count_report(1105, 2, seed=3, planar_M=10),
        "38d874cd17e043bbd84814c695b15892e7189ba7dd30f200c5b954b7295fff9b"),
}


def test_certificate_payload_digests(monkeypatch):
    valued = []
    node_values = ScalarGrid.node_values

    def recording(g, flat):
        valued.append(len(flat))
        return node_values(g, flat)

    monkeypatch.setattr(ScalarGrid, "node_values", recording)
    for name, (run, want) in CERTIFICATE_WORKLOADS.items():
        assert _payload_digest(run().to_dict()) == want, name
    # the pins exercise the valuation of undecided nodes
    assert sum(valued) >= 300


@pytest.mark.parametrize("K1,digest", [
    # the closeness filter rejects every draw that passes stability
    (256, "6eb7d4f1ab7668f06b9676494688b5f92070321c2dd5a6862754d9dcff667d98"),
    # identical fields: 2 of 10 draws pass both filters
    (128, "5dbabf3f534df16ce51506dfde8e446019fadfe38bd6d8ca51b3e8cf986bde5d"),
], ids=["K256", "K128"])
def test_finite_beta_sandwich_digest(K1, digest):
    rep = sandwich_check(_uniform(128), _uniform(K1), 8.0, 10, 0.05, 1)
    assert _payload_digest(rep.to_dict()) == digest


@pytest.mark.parametrize("args,digest", [
    # filters off: the censuses read certified grids
    (["--beta", "inf", "--M", "10"],
     "8750c9c72a3ce828b26e193f6c97e95d330b606d5f0d8297180e9c1c380cbfa1"),
    # filters on: float64 order-1 grids
    (["--beta", "0.05", "--M", "20"],
     "79c2b0595f0223a717ad80adcebdcb8aedc5b721f3fe795c1aa613d81bd40353"),
], ids=["beta_inf", "beta_0.05"])
def test_stability_cli_stdout_digest(capsys, args, digest):
    assert main(["stability", "--preset", "uniform:128", "--preset2",
                 "uniform:256", "--R", "8", *args, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pair_tables_and_first_draws_digest():
    # per measure: reps, pair weights and origin weight of the table, then
    # coeff_a, coeff_b and origin_coeff of sample(rho, 1, 0), as float64 bytes
    measures = [_uniform(64), _uniform(256), preset("cilleruelo"),
                preset("section7_three_pair"), preset("delta_zero"),
                mu_n(65), mu_n(1105)]
    h = hashlib.sha256()
    for rho in measures:
        reps, pw, w0 = antipodal_pairs(rho)
        s = sample(rho, 1, 0)
        for arr in (reps, pw, np.float64(w0), s.coeff_a, s.coeff_b,
                    np.float64(s.origin_coeff)):
            h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == (
        "cdc4d18bccde4a73890253f70811f03041541aa6985b9b5783edb4ece5a06015")


def test_cilleruelo_samples_digest():
    # coeff_a, coeff_b, origin_coeff and freq_scale of the planar and the
    # torus Cilleruelo samples, derived while each call built its own measure
    h = hashlib.sha256()
    for seed in range(3):
        for stream in range(3):
            for s in (cilleruelo_field(seed, stream),
                      cilleruelo_torus_field(5, seed, stream)):
                h.update(np.concatenate([s.coeff_a, s.coeff_b,
                                         [s.origin_coeff, s.freq_scale]])
                         .tobytes())
    assert h.hexdigest() == (
        "b5f9c433558bcf4455b1136279bb22c624bed3f50072526345d50268ccc84012")
    # one frozen measure per kappa convention serves every call
    assert cilleruelo_field(1).measure is cilleruelo_field(2, 3).measure
    assert (cilleruelo_torus_field(5, 1).measure
            is cilleruelo_torus_field(7, 2).measure)
