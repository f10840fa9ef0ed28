"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 I/O error.  Outputs are
byte-identical for identical configurations: reports are sorted-key JSON (and
CSV), images deterministic SVG / binary PPM.  The default seed is 1.

Measure specs accept a file path (via --measure) or a preset string:
cilleruelo | tilted_cilleruelo | uniform:K | arc:a,K | two_point:theta |
delta_zero | section7_three_pair | section7_monochromatic_six_point | mu_n:n
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

from . import __version__
from .errors import NodalError
from .fields import SquareDomain, TorusDomain, evaluate_grid, sample
from .measures import SpectralMeasure, load_measure, preset, save_measure
from .portraits import dump_grid_csv, render_ppm, render_svg

DEFAULT_SEED = 1


def parse_measure_spec(spec: str, kappa: str | None = None) -> SpectralMeasure:
    name, _, arg = spec.partition(":")
    kw = {"kappa": kappa} if kappa else {}
    if name in ("uniform", "uniform_circle"):
        return preset("uniform_circle", K=int(arg), **kw)
    if name in ("arc", "arc_nu_a"):
        a_str, _, k_str = arg.partition(",")
        return preset("arc_nu_a", a=float(a_str), K=int(k_str), **kw)
    if name == "two_point":
        return preset("two_point", theta=float(arg) if arg else 0.0, **kw)
    if name == "mu_n":
        from .arithmetic import mu_n
        return mu_n(int(arg))
    if arg:
        raise NodalError(f"preset {name} takes no argument")
    return preset(name, **kw)


def _resolve_measure(args) -> SpectralMeasure:
    if getattr(args, "measure", None):
        return load_measure(args.measure)
    if getattr(args, "preset", None):
        return parse_measure_spec(args.preset, getattr(args, "kappa", None))
    raise NodalError("need --measure FILE or --preset SPEC")


def _emit(payload: dict, out: str | None) -> None:
    """Write payload as sorted-key JSON to out + ".json", or to stdout."""
    with open(out + ".json", "w") if out else nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_portrait(args) -> int:
    from .stability import section7_field

    h = args.h
    if args.torus_n is not None:
        from .arithmetic import sample_torus_wave, torus_spacing
        s = sample_torus_wave(args.torus_n, args.seed)
        domain = TorusDomain()
        if h is None:
            h = torus_spacing(args.torus_n)
    elif args.section7:
        s = section7_field(args.section7)
        domain = SquareDomain(args.R)
    else:
        rho = _resolve_measure(args)
        s = sample(rho, args.seed)
        domain = SquareDomain(args.R)
    grid = evaluate_grid(s, domain, h)
    render_svg(grid, args.out + ".svg", size=args.size)
    dump_grid_csv(grid, args.out + ".csv")
    if args.ppm:
        render_ppm(grid, args.out + ".ppm")
    return 0


def cmd_cns(args) -> int:
    from .estimators import estimate_cns

    rho = _resolve_measure(args)
    schedule = [float(x) for x in args.schedule.split(",")]
    report = estimate_cns(rho, schedule, args.M, args.seed, args.h)
    _emit(report.to_dict(), args.out)
    if args.out:
        with open(args.out + ".csv", "w") as fh:
            fh.write("R,mean,stderr,M,h\n")
            for R, m, e, h in zip(report.schedule, report.means,
                                  report.stderrs, report.h):
                fh.write(f"{R:.17g},{m:.17g},{e:.17g},{report.M},{h:.17g}\n")
    return 0


def cmd_dns(args) -> int:
    from .estimators import estimate_cns, estimate_dns

    rho = _resolve_measure(args)
    if args.cns is not None:
        c = args.cns
    else:
        schedule = [args.R / 4.0, args.R / 2.0, float(args.R)]
        c = estimate_cns(rho, schedule, args.M, args.seed, args.h).cns_estimate
    d = estimate_dns(rho, args.R, args.M, args.seed, c, args.h)
    _emit({"kind": "dns_report", "R": args.R, "M": args.M, "seed": args.seed,
           "cns_plugin": c, "dns_estimate": d}, args.out)
    return 0


def cmd_torus(args) -> int:
    from .estimators import torus_count_report

    rep = torus_count_report(args.n, args.M, args.h, args.seed,
                             planar_M=args.planar_M)
    _emit(rep.to_dict(), args.out)
    return 0


def cmd_lattice(args) -> int:
    from .arithmetic import lattice_points, mu_n

    lat = lattice_points(args.n)
    payload = {"kind": "lattice_report", "n": args.n, "r2": lat.r2,
               "points": [[int(x), int(y)] for x, y in lat.points]}
    if lat.r2 > 0:
        from .measures import measure_to_dict
        payload["mu_n"] = measure_to_dict(mu_n(args.n))
    _emit(payload, args.out)
    return 0


def cmd_flips(args) -> int:
    from .kacrice import directional_flip_density

    if args.empirical and args.M < 1:
        raise ValueError("--M must be at least 1")
    rho = _resolve_measure(args)
    payload = {"kind": "flips_report", "seed": args.seed}
    if args.diagonal:
        payload["diagonal"] = True
        direction = (1.0, 1.0)
    else:
        axis = payload["axis"] = args.axis or 1
        direction = (1.0, 0.0) if axis == 1 else (0.0, 1.0)
    payload["closed_form"] = directional_flip_density(rho, direction)
    if args.empirical:
        from .fields import sample as draw
        from .topology import count_flips

        R = args.R
        area = 4.0 * R * R
        dom = SquareDomain(R)
        counts = [count_flips(draw(rho, args.seed, i), dom, args.h, direction)
                  for i in range(args.M)]
        M = len(counts)
        mean = sum(counts) / M
        stderr = None  # one draw gives no uncertainty
        if M > 1:
            var = sum((c - mean) ** 2 for c in counts) / (M - 1)
            stderr = math.sqrt(var / M) / area
        payload["empirical"] = {
            "R": R, "M": args.M,
            "density": mean / area,
            "density_stderr": stderr,
        }
    _emit(payload, args.out)
    return 0


def cmd_stability(args) -> int:
    from .fields import sample as draw
    from .stability import sandwich_check, stability_profile

    rho0 = parse_measure_spec(args.preset, args.kappa)
    payload = {"kind": "stability_report_bundle", "seed": args.seed}
    payload["profile"] = stability_profile(
        draw(rho0, args.seed), SquareDomain(args.R), args.h).to_dict()
    if args.preset2:
        rho1 = parse_measure_spec(args.preset2, args.kappa)
        rep = sandwich_check(rho0, rho1, args.R, args.M, args.beta,
                             args.seed, args.h)
        payload["sandwich"] = rep.to_dict()
    _emit(payload, args.out)
    return 0


def cmd_measure(args) -> int:
    rho = parse_measure_spec(args.preset, args.kappa)
    save_measure(rho, args.out)
    return 0


def _add_measure_args(p):
    p.add_argument("--preset", help="preset spec, e.g. uniform:64")
    p.add_argument("--measure", help="measure JSON file")
    p.add_argument("--kappa", choices=["two_pi", "one"],
                   help="override the preset's exponent convention")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nodalfields",
        description="Gaussian random fields from atomic spectral measures: "
                    "portraits, censuses, and nodal-count estimators.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--h", type=float, default=None)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path prefix")

    p = sub.add_parser("portrait", parents=[run],
                       help="render the zero set as SVG (+ grid dump)")
    _add_measure_args(p)
    p.add_argument("--torus-n", type=int, default=None)
    p.add_argument("--section7", choices=["f", "g", "monochromatic_g"])
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--size", type=int, default=800)
    p.add_argument("--ppm", action="store_true")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("cns", parents=[run, out],
                       help="estimate the nodal-count coefficient")
    _add_measure_args(p)
    p.add_argument("--schedule", default="10,20,40")
    p.add_argument("--M", type=int, default=200)
    p.set_defaults(func=cmd_cns)

    p = sub.add_parser("dns", parents=[run, out],
                       help="estimate the absolute discrepancy")
    _add_measure_args(p)
    p.add_argument("--R", type=float, default=20.0)
    p.add_argument("--M", type=int, default=100)
    p.add_argument("--cns", type=float, default=None,
                   help="plug-in coefficient (estimated when omitted)")
    p.set_defaults(func=cmd_dns)

    p = sub.add_parser("torus", parents=[run, out],
                       help="torus wave census batches")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, default=50)
    p.add_argument("--planar-M", type=int, default=None)
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("lattice", parents=[out],
                       help="lattice points on x^2+y^2=n and mu_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("flips", parents=[run, out],
                       help="flip densities, closed form vs empirical")
    _add_measure_args(p)
    flip = p.add_mutually_exclusive_group()
    flip.add_argument("--axis", type=int, choices=[1, 2],
                      help="flips of f and df/dx_axis (default axis 1)")
    flip.add_argument("--diagonal", action="store_true",
                      help="flips of f and df/dx_1 + df/dx_2")
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--M", type=int, default=20)
    p.set_defaults(func=cmd_flips)

    p = sub.add_parser("stability", parents=[run, out],
                       help="stability profile and sandwich check")
    p.add_argument("--preset", required=True)
    p.add_argument("--preset2", default=None)
    p.add_argument("--kappa", choices=["two_pi", "one"])
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--M", type=int, default=50)
    p.add_argument("--beta", type=float, default=0.05)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("measure", help="write a preset measure to a JSON file")
    p.add_argument("--preset", required=True)
    p.add_argument("--kappa", choices=["two_pi", "one"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_measure)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NodalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
