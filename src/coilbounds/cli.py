"""Command-line front door.

One executable, subcommand style; all invocations are deterministic
(identical inputs give byte-identical outputs).  Exit codes: 0 success,
1 domain error (the error class name goes to stderr), 2 usage error.

Only argument parsing and slope arithmetic load up front; each command
imports the layers it runs, so ``cfrac`` or ``bounds`` starts without the
curve, diagram and drawing code.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import chain

from . import __version__
from .errors import CoilboundsError
from .slopes import (
    MAX_DIGITS,
    CoilSpec,
    ContinuedFraction,
    Slope,
    canonical_coil_slope,
    cfrac_expand,
    mirror_slope,
)


def _round_floats(obj, precision):
    from .bounds import _format_float

    if isinstance(obj, float):
        return float(_format_float(obj, precision))
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    return obj


def _emit(pieces, out_path):
    with open(out_path, "w") if out_path else nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)


class _UsageError(Exception):
    pass


def _positive_int(text):
    """argparse type of ``--jobs``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return value


_DIGIT_LIMIT = 10**MAX_DIGITS


def _parse_arg(parse, text, what):
    """Parse a slope or continued-fraction argument; bad text is a usage error,
    and so is an integer of more than ``MAX_DIGITS`` digits."""
    try:
        value = parse(text)
    except ValueError as e:
        raise _UsageError(f"bad {what} {text!r}: {e}") from None
    ints = value.terms if isinstance(value, ContinuedFraction) else value
    if any(abs(x) >= _DIGIT_LIMIT for x in ints):
        raise _UsageError(f"bad {what}: integers are limited to {MAX_DIGITS} digits")
    return value


def _unit_slope(s: Slope) -> Slope:
    """The two-bridge and augmented generators take slopes with 0 < p < q."""
    if s.is_infinite or not 0 < s.p < s.q:
        raise _UsageError(f"need a slope p/q with 0 < p < q, got {s}")
    return s


def _spec_pq(args, canonical: bool) -> tuple[int, int]:
    """(p, q) from exactly one of ``--slope`` and ``--p --q``.

    ``--slope`` is parsed, and brought to its class 0 < p < q when
    ``canonical``; ``--p --q`` are returned as given, for the caller to check.
    """
    if args.slope is not None:
        if args.p is not None or args.q is not None:
            raise _UsageError("--slope and --p --q exclude each other")
        s = _parse_arg(Slope.parse, args.slope, "slope")
        return canonical_coil_slope(s) if canonical else s
    if args.p is None or args.q is None:
        raise _UsageError("need --slope or --p --q")
    return args.p, args.q


def _coil_spec(args) -> CoilSpec:
    p, q = _spec_pq(args, canonical=True)
    if args.n1 is None or args.n2 is None:
        raise _UsageError("need --p --q --n1 --n2 (or --slope with --n1 --n2)")
    try:
        return CoilSpec(p, q, args.n1, args.n2)
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
        import json

        print(json.dumps(record))
    else:
        print(
            f"canonical={record['canonical']} mirror={record['mirror']} "
            f"cfrac={record['cfrac']} k={record['k']}"
        )
    return 0


def _cmd_curve(args):
    from .curves import arc_curve_intersection, brute_force_intersection, curve_curve_intersection

    s1 = _parse_arg(Slope.parse, args.slope1, "slope")
    s2 = _parse_arg(Slope.parse, args.slope2, "slope")
    if args.oracle:
        cc = brute_force_intersection(s1, s2, "curve-curve")
        ac = brute_force_intersection(s1, s2, "arc-curve")
    else:
        cc = curve_curve_intersection(s1, s2)
        ac = arc_curve_intersection(s1, s2)
    if args.svg:
        from .svg import curve_svg

        _emit((curve_svg(s1, s2),), args.svg)  # drawn first: a refusal creates no file
    print(f"curve-curve={cc} arc-curve={ac}")
    return 0


def _cmd_gen(args):
    from .diagrams import pd_pieces
    from .generators import (
        gen_augmented,
        gen_clasped_two_bridge,
        gen_double_coil,
        gen_two_bridge,
    )

    reads = {"twobridge": "cfrac slope", "clasped": "slope", "coil": "slope p q n1 n2",
             "augmented": "slope p q"}[args.what].split()
    unread = [f"--{f}" for f in ("cfrac", "slope", "p", "q", "n1", "n2")
              if getattr(args, f) is not None and f not in reads]
    if unread:
        raise _UsageError(f"gen {args.what} does not read {' '.join(unread)}")
    if args.what == "twobridge":
        if args.cfrac is not None and args.slope is not None:
            raise _UsageError("--cfrac and --slope exclude each other")
        if args.cfrac:
            c = _parse_arg(ContinuedFraction.parse, args.cfrac, "continued fraction")
        elif args.slope:
            c = cfrac_expand(_unit_slope(_parse_arg(Slope.parse, args.slope, "slope")))
        else:
            raise _UsageError("gen twobridge needs --slope or --cfrac")
        d = gen_two_bridge(c)
    elif args.what == "clasped":
        if not args.slope:
            raise _UsageError("gen clasped needs --slope")
        d = gen_clasped_two_bridge(_unit_slope(_parse_arg(Slope.parse, args.slope, "slope")))
    elif args.what == "coil":
        d = gen_double_coil(_coil_spec(args))
    else:  # augmented
        try:
            s = Slope(*_spec_pq(args, canonical=False))
        except ValueError as e:
            raise _UsageError(str(e)) from None
        d = gen_augmented(_unit_slope(s))
    if args.svg:
        from .svg import render_svg

        _emit((render_svg(d),), args.svg)
    _emit(chain(pd_pieces(d), "\n"), args.out)
    return 0


def _cmd_bounds(args):
    import json

    from .bounds import bound_report

    report = bound_report(_coil_spec(args))
    text = json.dumps(_round_floats(report, args.precision), indent=2)
    _emit((text, "\n"), args.out)
    return 0


def _cmd_family(args):
    import json

    from .family import analyze_family, load_family_config, report_to_csv

    with open(args.config) as fh:
        fam = load_family_config(fh.read())
    report = analyze_family(fam)
    if args.format == "json":
        data = _round_floats(report, args.precision)
        _emit((json.dumps(data, indent=2), "\n"), args.out)
    else:
        _emit((report_to_csv(report, args.precision),), args.out)
    return 0


def _cmd_verify(args):
    if args.pd is not None:
        from .diagrams import describe, parse_pd

        if args.jobs is not None or args.timings:
            raise _UsageError("--jobs and --timings belong to the suite; verify --pd reads neither")
        with open(args.pd) as fh:
            print(describe(parse_pd(fh.read())))
        return 0
    from .verify import run_checks

    failed = 0
    for result in run_checks():
        print(result.line)
        if args.timings:
            over = "  OVER BUDGET" if result.elapsed > result.limit else ""
            print(f"{result.elapsed:.3f}s/{result.limit:g}s {result.name}{over}",
                  file=sys.stderr)
        if not result.ok:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_render(args):
    from .diagrams import parse_pd
    from .svg import render_svg

    with open(args.pdfile) as fh:
        d = parse_pd(fh.read())
    _emit((render_svg(d),), args.svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="coilbounds",
        description="Double coil knot diagrams and certified volume / lambda_1 bounds.",
        allow_abbrev=False,  # here and on each subcommand: an option is spelled in full
    )
    top.add_argument("--version", action="version", version=f"coilbounds {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, **kw):
        return sub.add_parser(name, allow_abbrev=False, **kw)

    def precision(p):
        p.add_argument("--precision", type=int, default=6, choices=range(1, 16),
                       metavar="N", help="significant digits for numeric output")

    def out(p):
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    def jobs(p):
        # default None, so that ``verify --pd`` can refuse an explicit --jobs
        p.add_argument("--jobs", type=_positive_int,
                       help="accepted and validated; the command runs in one process")

    def spec_flags(p):
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--n1", type=int)
        p.add_argument("--n2", type=int)
        p.add_argument("--slope", metavar="P/Q")

    p = command("cfrac", help="continued fraction of a slope")
    p.add_argument("slope")
    p.set_defaults(fn=_cmd_cfrac)

    p = command("slope", help="canonical and mirror forms of a slope")
    p.add_argument("slope")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_slope)

    p = command("curve", help="intersection numbers of two slopes")
    p.add_argument("slope1")
    p.add_argument("slope2")
    p.add_argument("--oracle", action="store_true", help="force the brute-force oracle")
    p.add_argument("--svg", metavar="PATH", help="draw both curves on the framed sphere")
    p.set_defaults(fn=_cmd_curve)

    p = command("gen", help="generate a diagram as a PD code")
    p.add_argument("what", choices=("twobridge", "clasped", "coil", "augmented"))
    p.add_argument("--cfrac", metavar="[a1,...,ak]")
    p.add_argument("--svg", metavar="PATH", help="also render the diagram")
    out(p)
    spec_flags(p)
    p.set_defaults(fn=_cmd_gen)

    p = command("bounds", aliases=["lambda"],
                help="certified volume and spectral report (JSON)")
    precision(p)
    out(p)
    spec_flags(p)
    p.set_defaults(fn=_cmd_bounds)

    p = command("family", help="analyze a family from a config file")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    jobs(p)
    precision(p)
    out(p)
    p.set_defaults(fn=_cmd_family)

    p = command("verify", help="run the acceptance/oracle suite")
    p.add_argument("--pd", metavar="PATH", help="validate a PD-code file instead")
    jobs(p)
    p.add_argument("--timings", action="store_true",
                   help="print each check's elapsed time against its budget to stderr")
    p.set_defaults(fn=_cmd_verify)

    p = command("render", help="render a PD-code file to SVG")
    p.add_argument("pdfile")
    p.add_argument("--svg", metavar="PATH", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_render)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as e:
        parser.error(str(e))  # exits 2
    except (CoilboundsError, OSError, UnicodeDecodeError, OverflowError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
