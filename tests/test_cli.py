import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from nodalfields.cli import main, parse_measure_spec
from nodalfields.estimators import (EstimatorReport, TorusReport,
                                    torus_count_report)
from nodalfields.measures import load_measure, preset
from nodalfields.stability import SandwichReport, StabilityProfile

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "nodalfields" / "schemas"
     / "report.schema.json").read_text())


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("kind, report, derived", [
    ("cns_report", EstimatorReport, set()),
    ("torus_report", TorusReport, set()),
    ("stability_profile", StabilityProfile, set()),
    ("stability_report", SandwichReport, {"violation_rate"}),
])
def test_schema_keys_are_report_fields(kind, report, derived):
    # to_dict() emits "kind", every field and the derived keys, nothing else
    fields = {f.name for f in dataclasses.fields(report)}
    assert set(SCHEMA["definitions"][kind]["properties"]) == (
        {"kind"} | fields | derived)


def test_parse_measure_spec():
    assert parse_measure_spec("uniform:64").n_atoms == 64
    assert parse_measure_spec("cilleruelo").n_atoms == 4
    arc = parse_measure_spec("arc:0.3,16")
    assert arc.n_atoms == 16
    assert parse_measure_spec("two_point:0.5").n_atoms == 2
    assert parse_measure_spec("mu_n:65").n_atoms == 16


def test_portrait_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["portrait", "--preset", "cilleruelo", "--kappa", "one",
            "--R", "12", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert sha(str(out1) + ".svg") == sha(str(out2) + ".svg")
    assert sha(str(out1) + ".csv") == sha(str(out2) + ".csv")
    svg = Path(str(out1) + ".svg").read_text()
    assert svg.count(" Z") == 0  # axis-measure samples have no closed loops
    header = Path(str(out1) + ".csv").read_text().splitlines()[0]
    assert header == ("# domain=square R=12 h=0.39269908169872414 seed=7 "
                      "kappa=one")


def test_portrait_past_the_node_cap_exits_2(tmp_path, capsys):
    # R = 1e6 at the default spacing 1/16 asks for a side of 3.2e7 nodes;
    # the node cap refuses it before any table is built or file written
    out = tmp_path / "big"
    assert main(["portrait", "--preset", "uniform:64", "--R", "1e6",
                 "--out", str(out)]) == 2
    assert "MAX_GRID_NODES" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_portrait_section7_has_loops(tmp_path):
    out = tmp_path / "s7"
    assert main(["portrait", "--section7", "f", "--R", "15",
                 "--out", str(out)]) == 0
    svg = Path(str(out) + ".svg").read_text()
    assert svg.count(" Z") > 0


def test_portrait_torus_with_ppm(tmp_path):
    out = tmp_path / "t"
    assert main(["portrait", "--torus-n", "65", "--seed", "1", "--ppm",
                 "--out", str(out)]) == 0
    data = Path(str(out) + ".ppm").read_bytes()
    assert data.startswith(b"P6\n")


@pytest.mark.parametrize("args, nodes, digest, paths, closed, ppm_digest, "
                         "header", [
    (["--preset", "uniform:64", "--R", "6", "--seed", "3"], 193,
     "2540f068c25755f1ce5cb97637a8765deffb715823027b00059938993858bcde", 53, 15,
     "a7e4ba42456d5c516105c6491f9a9eb1d68b38ab367d7b0a6ace29eb0cf5673a",
     "# domain=square R=6 h=0.062499999999999993 seed=3 kappa=two_pi"),
    (["--section7", "f", "--R", "15"], 230,
     "5963d555bb50b69d886f2c807052f0523db5dbdfbfa44b499cc978b139bdb765", 59, 40,
     "043de9d9aa52bf506ca1781a5feb6766bb90112d494714bdc92dfa97dd6030f4",
     "# domain=square R=15 h=0.1308996938995747 seed=none kappa=one"),
    # the torus grid of torus_count_report: torus_spacing(65) = 1/144
    (["--torus-n", "65", "--seed", "1"], 144,
     "cfd3c8c9e9003440ac8bf6c6726b8229b3ab1f52335b68caf935da0dbb4f99c7", 41, 11,
     "2939a22d8993c7c3a5d1d31cdd8d8feda253185431a9c1c838ea91a34803453b",
     "# domain=torus h=0.0069444444444444441 seed=1 kappa=two_pi"),
], ids=["uniform64", "section7-f", "torus65"])
def test_portrait_svg_digests(tmp_path, args, nodes, digest, paths, closed,
                              ppm_digest, header):
    # pinned bytes of the portrait chain order and coordinates, and of the
    # sign raster with its crossing pixels, on a pinned nodes x nodes grid;
    # the CSV header names the draw's seed ("none" for a fixed field) and
    # its measure's kappa
    out = tmp_path / "p"
    assert main(["portrait", *args, "--ppm", "--out", str(out)]) == 0
    lines = Path(str(out) + ".csv").read_text().splitlines()
    assert lines[0] == header
    rows = lines[1:]
    assert (len(rows), len(rows[0].split(","))) == (nodes, nodes)
    svg = Path(str(out) + ".svg").read_text()
    assert (svg.count("<path"), svg.count(" Z")) == (paths, closed)
    assert sha(str(out) + ".svg") == digest
    assert sha(str(out) + ".ppm") == ppm_digest


def test_cns_report_schema_and_determinism(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["cns", "--preset", "uniform:16", "--schedule", "4,6,8",
            "--M", "12", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert sha(str(out1) + ".json") == sha(str(out2) + ".json")
    payload = json.loads(Path(str(out1) + ".json").read_text())
    validate(payload)
    csv_lines = Path(str(out1) + ".csv").read_text().splitlines()
    assert csv_lines[0] == "R,mean,stderr,M,h"
    assert len(csv_lines) == 4


def test_dns_report(tmp_path):
    out = tmp_path / "d"
    assert main(["dns", "--preset", "two_point:0.0", "--R", "6", "--M", "10",
                 "--cns", "0.0", "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads(Path(str(out) + ".json").read_text())
    validate(payload)
    assert payload["dns_estimate"] == 0.0


def test_torus_planar_m_zero_fails(monkeypatch):
    # planar_M is checked before mu_n is built or any torus draw is made
    import nodalfields.arithmetic as arithmetic

    def no_call(*args, **kwargs):
        raise AssertionError("mu_n or sample_torus_wave was called")

    monkeypatch.setattr(arithmetic, "mu_n", no_call)
    monkeypatch.setattr(arithmetic, "sample_torus_wave", no_call)
    for planar_M in (0, 9):
        with pytest.raises(ValueError, match="need planar_M >= 10"):
            torus_count_report(65, 2, seed=1, planar_M=planar_M)
    assert main(["torus", "--n", "65", "--M", "2", "--planar-M", "0"]) == 2


def test_torus_report(tmp_path):
    out = tmp_path / "t"
    assert main(["torus", "--n", "65", "--M", "10", "--planar-M", "10",
                 "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads(Path(str(out) + ".json").read_text())
    validate(payload)
    assert payload["n"] == 65


def test_lattice_report(tmp_path):
    out = tmp_path / "lat"
    assert main(["lattice", "--n", "65", "--out", str(out)]) == 0
    payload = json.loads(Path(str(out) + ".json").read_text())
    validate(payload)
    assert payload["r2"] == 16
    assert len(payload["points"]) == 16
    assert "mu_n" in payload


def test_flips_report(tmp_path):
    out = tmp_path / "f"
    assert main(["flips", "--preset", "cilleruelo", "--kappa", "one",
                 "--diagonal", "--out", str(out)]) == 0
    payload = json.loads(Path(str(out) + ".json").read_text())
    validate(payload)
    assert payload["closed_form"] == pytest.approx(0.0, abs=1e-12)

    out2 = tmp_path / "f2"
    assert main(["flips", "--preset", "cilleruelo", "--kappa", "one",
                 "--axis", "1", "--empirical", "--R", "8", "--M", "10",
                 "--out", str(out2)]) == 0
    payload = json.loads(Path(str(out2) + ".json").read_text())
    validate(payload)
    want = 1 / (2 * math.pi ** 2)
    assert payload["closed_form"] == pytest.approx(want, abs=1e-12)
    emp = payload["empirical"]
    assert abs(emp["density"] - want) < 4 * emp["density_stderr"] + 0.02


def test_flips_single_draw_has_no_stderr(capsys):
    argv = ["flips", "--preset", "uniform:64", "--R", "10.0", "--axis", "1",
            "--empirical", "--seed", "1", "--M"]
    assert main(argv + ["1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload)
    assert payload["empirical"]["density_stderr"] is None
    # two draws keep their arithmetic: same bytes as when M = 1 printed 0.0
    assert main(argv + ["2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a281f457c29bda03bb4547100a46f728e7ee6d440ce07c3b86b69e1f7359f78b")


@pytest.mark.parametrize("flip, digest", [
    (["--axis", "1"],
     "7f33619caca904d05509dd92a481c6754a5eade90287e3862a707286ae6c9a6d"),
    (["--axis", "2"],
     "e5116060b8b8896bb244ef73c369fcc85a15fa52cf19ca5f6248a91008fee7ed"),
    (["--diagonal"],
     "d8dbe6edcadbcd03872895adb4cd24ab585bc374119ed01781c009baca7916de"),
], ids=["axis1", "axis2", "diagonal"])
def test_flips_payload_digests(capsys, flip, digest):
    assert main(["flips", "--preset", "uniform:16", "--R", "3", "--empirical",
                 "--M", "3", *flip]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_stability_report(tmp_path):
    out = tmp_path / "s"
    assert main(["stability", "--preset", "uniform:32", "--preset2",
                 "uniform:32", "--R", "5", "--M", "5", "--beta", "0.05",
                 "--seed", "4", "--out", str(out)]) == 0
    payload = json.loads(Path(str(out) + ".json").read_text())
    validate(payload)
    assert payload["sandwich"]["violations"] == 0


def test_stability_filter_off_is_strict_json(capsys):
    # beta = inf, the documented filter-off mode, prints as null: JSON has
    # no Infinity
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    assert main(["stability", "--preset", "uniform:16", "--preset2",
                 "uniform:16", "--R", "3", "--M", "2", "--beta", "inf"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    validate(payload)
    assert payload["sandwich"]["beta"] is None
    assert payload["sandwich"]["filtered"] == 2


def test_non_finite_measure_file_fails_before_any_draw(tmp_path,
                                                       monkeypatch, capsys):
    # json reads NaN and Infinity: the file is refused when it is loaded,
    # naming the atom, before any coefficient is drawn
    from nodalfields import fields

    def draw(*args):
        raise AssertionError("a coefficient was drawn")

    monkeypatch.setattr(fields, "_philox", draw)
    measure = tmp_path / "m.json"
    for key, bad, message in (("w", math.nan, "has weight nan"),
                              ("w", math.inf, "has weight inf"),
                              ("x", math.nan, "is not in the closed unit disc")):
        atoms = [{"x": x, "y": 0.0, "w": 0.5} for x in (1.0, -1.0)]
        atoms[0][key] = bad
        measure.write_text(json.dumps({"kind": "atomic", "atoms": atoms}))
        for command in (["cns", "--M", "10"],
                        ["flips", "--empirical", "--R", "3", "--M", "2"]):
            capsys.readouterr()
            assert main(command + ["--measure", str(measure)]) == 2
            assert message in capsys.readouterr().err


def test_measure_roundtrip(tmp_path):
    out = tmp_path / "m.json"
    assert main(["measure", "--preset", "uniform:8", "--out", str(out)]) == 0
    rho, want = load_measure(out), preset("uniform_circle", K=8)
    assert np.array_equal(rho.points, want.points)
    assert np.array_equal(rho.weights, want.weights)


def test_exit_codes(tmp_path):
    assert main(["flips", "--preset", "nonsense"]) == 2
    assert main(["cns", "--preset", "uniform:3"]) == 2      # K too small
    assert main(["flips", "--preset", "uniform:64", "--R", "2", "--axis", "1",
                 "--empirical", "--M", "0"]) == 2           # no draws
    for R in ("0", "-2"):
        assert main(["flips", "--preset", "uniform:64", "--R", R, "--axis",
                     "1", "--empirical", "--M", "2"]) == 2  # empty square
    assert main(["torus", "--n", "65", "--M", "1"]) == 2     # no stderr
    # mu_n:n keeps the torus convention rather than drop --kappa
    assert main(["measure", "--preset", "mu_n:65", "--kappa", "one",
                 "--out", str(tmp_path / "mu.json")]) == 2
    assert main(["cns", "--preset", "mu_n:5", "--kappa", "one", "--M", "10",
                 "--schedule", "2,3,4"]) == 2
    assert main(["cns", "--preset", "arc:0.5,8", "--M", "10",
                 "--schedule", "1,2,3"]) == 2               # a flat R block
    assert main(["stability", "--preset", "uniform:16", "--preset2",
                 "uniform:16", "--R", "4", "--M", "0"]) == 2  # no draws
    for bad in (["--M", "0", "--R", "3"], ["--M", "3", "--R", "0"]):
        assert main(["dns", "--preset", "uniform:64", "--cns", "0.1",
                     *bad]) == 2                            # NaN otherwise
    for beta in ("0", "-1", "nan"):                         # no usable filter
        assert main(["stability", "--preset", "uniform:16", "--preset2",
                     "uniform:16", "--R", "3", "--M", "2",
                     "--beta", beta]) == 2
    for c in ("nan", "inf"):                                # non-finite plug-in
        assert main(["dns", "--preset", "uniform:8", "--R", "3", "--M", "2",
                     "--cns", c]) == 2
    for flags in (["--diagonal", "--axis", "2"], ["--axis", "1", "--diagonal"]):
        assert main(["flips", "--preset", "uniform:64", *flags]) == 2
    portrait = ["portrait", "--preset", "uniform:8", "--out", str(tmp_path / "p")]
    # one field source at most, and --kappa with a preset only
    measure = tmp_path / "m.json"
    assert main(["measure", "--preset", "cilleruelo", "--out",
                 str(measure)]) == 0
    draw = ["portrait", "--out", str(tmp_path / "q")]
    for sources in (["--preset", "uniform:64", "--torus-n", "65"],
                    ["--section7", "f", "--torus-n", "65"],
                    ["--preset", "uniform:64", "--section7", "g"],
                    ["--measure", str(measure), "--section7", "f"],
                    ["--torus-n", "65", "--kappa", "one"],
                    ["--section7", "f", "--kappa", "one"],
                    # the section 7 fields take no seed, the torus no R
                    ["--section7", "f", "--seed", "5"],
                    ["--section7", "f", "--seed", "1"],
                    ["--torus-n", "5", "--R", "7"],
                    ["--torus-n", "5", "--R", "10"]):
        assert main(draw + sources) == 2
    for command in ("cns", "dns", "flips"):
        assert main([command, "--measure", str(measure), "--preset",
                     "cilleruelo", "--kappa", "one"]) == 2
        assert main([command, "--measure", str(measure), "--kappa",
                     "one"]) == 2
    assert not list(tmp_path.glob("q.*"))
    assert main(portrait + ["--R", "2", "--size", "0"]) == 2  # no pixels
    for R in ("-1", "inf"):
        assert main(portrait + ["--R", R]) == 2             # no square lattice
    assert main(portrait + ["--R", "2", "--h", "inf"]) == 2  # a NaN node
    assert main(["stability", "--preset", "uniform:8", "--R", "2",
                 "--h", "inf"]) == 2                        # NaN minmax
    assert main(["lattice", "--n", "65",
                 "--out", "/nonexistent_dir/x"]) == 3
    assert main(["lattice"]) == 2                           # missing required flag
    assert main(["--version"]) == 0
