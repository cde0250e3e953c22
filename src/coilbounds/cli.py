"""Command-line front door.

One executable, subcommand style; all invocations are deterministic
(identical inputs give byte-identical outputs).  Exit codes: 0 success,
1 domain error (the error class name goes to stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, bounds, family as family_mod, svg, verify as verify_mod
from .curves import (
    DEFAULT_ORACLE_CAP,
    arc_curve_intersection,
    brute_force_intersection,
    curve_curve_intersection,
)
from .diagrams import emit_pd, parse_pd
from .errors import CoilboundsError
from .generators import (
    CoilSpec,
    gen_augmented,
    gen_clasped_two_bridge,
    gen_double_coil,
    gen_two_bridge,
)
from .slopes import (
    ContinuedFraction,
    Slope,
    canonical_coil_slope,
    cfrac_expand,
    mirror_slope,
)


def _fmt(x, precision):
    if isinstance(x, float):
        return f"{x:.{precision}g}"
    return str(x)


def _round_floats(obj, precision):
    if isinstance(obj, float):
        return float(f"{obj:.{precision}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    return obj


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _UsageError(Exception):
    pass


def _parse_arg(parse, text, what):
    """Parse a slope or continued-fraction argument; bad text is a usage error."""
    try:
        return parse(text)
    except ValueError as e:
        raise _UsageError(f"bad {what} {text!r}: {e}") from None


def _unit_slope(s: Slope) -> Slope:
    """The two-bridge and augmented generators take slopes with 0 < p < q."""
    if s.is_infinite or not 0 < s.p < s.q:
        raise _UsageError(f"need a slope p/q with 0 < p < q, got {s}")
    return s


def _coil_spec(args) -> CoilSpec:
    if args.slope and args.p is None:
        s = canonical_coil_slope(_parse_arg(Slope.parse, args.slope, "slope"))
        args.p, args.q = s.p, s.q
    if None in (args.p, args.q, args.n1, args.n2):
        raise _UsageError("need --p --q --n1 --n2 (or --slope with --n1 --n2)")
    try:
        return CoilSpec(args.p, args.q, args.n1, args.n2)
    except ValueError as e:
        raise _UsageError(str(e)) from None


def _cmd_cfrac(args):
    s = canonical_coil_slope(_parse_arg(Slope.parse, args.slope, "slope"))
    c = cfrac_expand(s)
    print(f"{c} k={c.length}")
    return 0


def _cmd_slope(args):
    s = _parse_arg(Slope.parse, args.slope, "slope")
    canon = canonical_coil_slope(s)
    c = cfrac_expand(canon)
    record = {
        "input": str(s),
        "canonical": str(canon),
        "mirror": str(mirror_slope(canon)),
        "cfrac": str(c),
        "k": c.length,
    }
    if args.format == "json":
        print(json.dumps(record))
    else:
        print(
            f"canonical={record['canonical']} mirror={record['mirror']} "
            f"cfrac={record['cfrac']} k={record['k']}"
        )
    return 0


def _cmd_curve(args):
    s1 = _parse_arg(Slope.parse, args.slope1, "slope")
    s2 = _parse_arg(Slope.parse, args.slope2, "slope")
    if args.oracle:
        cc = brute_force_intersection(s1, s2, "curve-curve", cap=args.oracle_cap)
        ac = brute_force_intersection(s1, s2, "arc-curve", cap=args.oracle_cap)
    else:
        cc = curve_curve_intersection(s1, s2)
        ac = arc_curve_intersection(s1, s2)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg.curve_svg(s1, s2))
    print(f"curve-curve={cc} arc-curve={ac}")
    return 0


def _cmd_gen(args):
    if args.what == "twobridge":
        if args.cfrac:
            c = _parse_arg(ContinuedFraction.parse, args.cfrac, "continued fraction")
            d = gen_two_bridge(c)
        elif args.slope:
            s = _unit_slope(_parse_arg(Slope.parse, args.slope, "slope"))
            d = gen_two_bridge(cfrac_expand(s))
        else:
            raise _UsageError("gen twobridge needs --slope or --cfrac")
    elif args.what == "clasped":
        if not args.slope:
            raise _UsageError("gen clasped needs --slope")
        d = gen_clasped_two_bridge(_unit_slope(_parse_arg(Slope.parse, args.slope, "slope")))
    elif args.what == "coil":
        d = gen_double_coil(_coil_spec(args))
    else:  # augmented
        if args.slope and args.p is None:
            s = _parse_arg(Slope.parse, args.slope, "slope")
        elif args.p is not None and args.q is not None:
            try:
                s = Slope(args.p, args.q)
            except ValueError as e:
                raise _UsageError(str(e)) from None
        else:
            raise _UsageError("gen augmented needs --slope or --p --q")
        d = gen_augmented(_unit_slope(s))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg.render_svg(d, seed_layout=args.seed_layout))
    _emit(emit_pd(d) + "\n", args.out)
    return 0


def _cmd_bounds(args):
    report = bounds.bound_report(_coil_spec(args))
    text = json.dumps(_round_floats(report, args.precision), indent=2) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_family(args):
    with open(args.config) as fh:
        fam = family_mod.load_family_config(fh.read())
    report = family_mod.analyze_family(fam, jobs=args.jobs)
    if args.format == "json":
        data = _round_floats(family_mod.report_to_json(report), args.precision)
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        p = args.precision
        _emit(
            family_mod.report_to_csv(report, fmt_float=lambda x: f"{x:.{p}g}"),
            args.out,
        )
    return 0


def _cmd_verify(args):
    if args.pd:
        with open(args.pd) as fh:
            print(verify_mod.verify_pd_text(fh.read()))
        return 0
    failed = 0
    for result in verify_mod.run_checks(jobs=args.jobs):
        print(result.line)
        if not result.ok:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_render(args):
    with open(args.pdfile) as fh:
        d = parse_pd(fh.read())
    _emit(svg.render_svg(d, seed_layout=args.seed_layout), args.svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="coilbounds",
        description="Double coil knot diagrams and certified volume / lambda_1 bounds.",
    )
    top.add_argument("--version", action="version", version=f"coilbounds {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def precision(p):
        p.add_argument("--precision", type=int, default=6, choices=range(1, 16),
                       metavar="N", help="significant digits for numeric output")

    def out(p):
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    def spec_flags(p):
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--n1", type=int)
        p.add_argument("--n2", type=int)
        p.add_argument("--slope", metavar="P/Q")

    p = sub.add_parser("cfrac", help="continued fraction of a slope")
    p.add_argument("slope")
    p.set_defaults(fn=_cmd_cfrac)

    p = sub.add_parser("slope", help="canonical and mirror forms of a slope")
    p.add_argument("slope")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_slope)

    p = sub.add_parser("curve", help="intersection numbers of two slopes")
    p.add_argument("slope1")
    p.add_argument("slope2")
    p.add_argument("--oracle", action="store_true", help="force the brute-force oracle")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--svg", metavar="PATH", help="draw both curves on the framed sphere")
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("gen", help="generate a diagram as a PD code")
    p.add_argument("what", choices=("twobridge", "clasped", "coil", "augmented"))
    p.add_argument("--cfrac", metavar="[a1,...,ak]")
    p.add_argument("--svg", metavar="PATH", help="also render the diagram")
    p.add_argument("--seed-layout", type=int, default=0)
    out(p)
    spec_flags(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("bounds", aliases=["lambda"],
                       help="certified volume and spectral report (JSON)")
    precision(p)
    out(p)
    spec_flags(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("family", help="analyze a family from a config file")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=1)
    precision(p)
    out(p)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("verify", help="run the acceptance/oracle suite")
    p.add_argument("--pd", metavar="PATH", help="validate a PD-code file instead")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="render a PD-code file to SVG")
    p.add_argument("pdfile")
    p.add_argument("--svg", metavar="PATH", help="output path (default stdout)")
    p.add_argument("--seed-layout", type=int, default=0)
    p.set_defaults(fn=_cmd_render)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as e:
        parser.error(str(e))  # exits 2
    except CoilboundsError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"FileNotFoundError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
