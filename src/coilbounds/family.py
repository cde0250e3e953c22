"""Parametrized families of double coil knots and expanding-family verdicts.

Two family kinds reproduce the headline phenomena:

* ``fixed-slope``: fix (p, q) and n2, sweep n1.  The continued-fraction
  length k never changes, so the volume upper bound 4*v8*k is constant
  while the diagrams grow without bound: unbounded twist number at bounded
  volume, hence lambda_1 uniformly bounded away from 0 -- an expanding
  family.
* ``vary-slope``: sweep slopes of strictly growing k at fixed twists.
  The volume lower bound grows linearly in k, so lambda_1's upper bound
  12650/vol tends to 0: not an expanding family.

Verdicts are decided by the family *kind* (an infinite family's volumes
are bounded or not by construction), never by eyeballing finitely many
numbers; and they concern the certified bound intervals, not the true
spectra.  ``analyze_family`` returns the dict that ``family --format json``
prints; each row is one ``bound_report`` of its member, built once and keyed
in ``CSV_COLUMNS`` order, and the CSV prints the rows.  The
diagram-level columns are exact closed forms of the generated diagram,
with no diagram built: crossings q(q-1)(|n1|+|n2|) and twist regions
``CoilSpec.twist_region_count``, a law checked against generated diagrams
in the tests and in ``verify`` (criterion-09).  Members are
``slopes.CoilSpec`` and the CSV rounds with ``bounds._format_float``, so a
family loads no diagram code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .bounds import _format_float, bound_report
from .errors import CoilboundsError, ConfigError
from .slopes import MAX_DIGITS, CoilSpec, Slope

__all__ = [
    "CoilFamily",
    "fixed_slope_vary_twists",
    "vary_slope_fixed_twists",
    "fibonacci_slopes",
    "odd_denominator_slopes",
    "analyze_family",
    "load_family_config",
    "report_to_csv",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class CoilFamily:
    """A finite window into an infinite family of coil specs."""

    kind: str  # "fixed-slope" | "vary-slope"
    members: tuple[CoilSpec, ...]
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("fixed-slope", "vary-slope"):
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if not self.members:
            raise ConfigError("family range is empty")


def fixed_slope_vary_twists(p: int, q: int, n2: int, n1_range) -> CoilFamily:
    members = _capped(CoilSpec(p, q, n1, n2) for n1 in n1_range if n1 != 0)
    return CoilFamily(
        "fixed-slope", members, f"(p,q)=({p},{q}), n2={n2}, n1 in given range"
    )


def vary_slope_fixed_twists(slopes, n: int) -> CoilFamily:
    return _vary_slope(((s.p, s.q) for s in slopes), n)


def _vary_slope(pairs, n: int) -> CoilFamily:
    """The vary-slope family of the coprime pairs (p, q) with 0 < p < q.
    Each member's ``CoilSpec`` is its one gcd: on the 2000-digit terms of a
    long Fibonacci window Euclid's algorithm is most of the load time."""
    members = _capped(CoilSpec(p, q, n, n) for p, q in pairs)
    return CoilFamily("vary-slope", members, f"n1=n2={n}, slopes as given")


# The crossing column q(q-1)(|n1|+|n2|) is the widest printed integer, so it
# is held to MAX_DIGITS digits, like the CLI's slope integers.
_CROSSING_COLUMN_CAP = 10**MAX_DIGITS


def _capped(specs) -> tuple[CoilSpec, ...]:
    """Collect ``specs`` as members, refusing the first over the crossing
    column cap; a lazy ``specs`` is built no further than that member."""
    members = []
    for i, spec in enumerate(specs):
        if spec.crossing_count >= _CROSSING_COLUMN_CAP:
            raise ConfigError(
                f"member {i}: crossing count q(q-1)(|n1|+|n2|) has more than "
                f"{MAX_DIGITS} digits"
            )
        members.append(spec)
    return tuple(members)


def _fibonacci_pairs():
    a, b = 1, 2
    while True:
        yield a, b
        a, b = b, a + b


def _odd_denominator_pairs():
    q = 3
    while True:
        yield 1, q
        q += 2


def fibonacci_slopes(count: int):
    """Slopes F(i)/F(i+1): continued fraction [1,...,1,2] of length i."""
    return [Slope(p, q) for p, q in islice(_fibonacci_pairs(), count)]


def odd_denominator_slopes(count: int):
    """Slopes 1/3, 1/5, 1/7, ...: every continued fraction has length 1."""
    return [Slope(p, q) for p, q in islice(_odd_denominator_pairs(), count)]


_SEQUENCES = {"fibonacci": _fibonacci_pairs, "odd-denominators": _odd_denominator_pairs}


CSV_COLUMNS = (
    "index",
    "p",
    "q",
    "n1",
    "n2",
    "k",
    "crossings",
    "twist_regions",
    "generalized_twist_regions",
    "ell",
    "certificate",
    "vol_lower",
    "vol_upper",
    "lambda_lower",
    "lambda_upper",
)


def _row(index: int, spec: CoilSpec) -> dict:
    """The member's report row, keyed in ``CSV_COLUMNS`` order."""
    rep = bound_report(spec)
    return {
        "index": index,
        "p": spec.p,
        "q": spec.q,
        "n1": spec.n1,
        "n2": spec.n2,
        "k": rep["k"],
        "crossings": spec.crossing_count,
        "twist_regions": spec.twist_region_count,
        # a double coil's crossings fill two generalized twist regions by construction
        "generalized_twist_regions": 2,
        "ell": rep["ell"],
        "certificate": rep["certificate"]["condition"],
        "vol_lower": rep["volume"]["lower"],
        "vol_upper": rep["volume"]["upper"],
        "lambda_lower": rep["lambda"]["lower"],
        "lambda_upper": rep["lambda"]["upper"],
    }


class _Report(dict):
    """The printed report, a plain dict but for ``rows`` read as an
    attribute: the benchmark tracer (``perfbench/tracing.py``) sizes its
    ``family.analyze_family`` span by ``len(result.rows)``."""

    @property
    def rows(self) -> list[dict]:
        return self["rows"]


def analyze_family(f: CoilFamily) -> dict:
    """The report that ``family --format json`` prints, floats unrounded.

    Keys: ``kind``, ``description``, ``rows``, ``uncertified`` (one
    ``{index, spec, error}`` record per member without a certificate; such
    members are listed, never fatal), ``summary`` and ``verdict``.
    """
    rows, uncertified = [], []
    for i, spec in enumerate(f.members):
        try:
            rows.append(_row(i, spec))
        except CoilboundsError as e:
            uncertified.append({
                "index": i,
                "spec": {"p": spec.p, "q": spec.q, "n1": spec.n1, "n2": spec.n2},
                "error": type(e).__name__,
            })
    return _Report(
        kind=f.kind,
        description=f.description,
        rows=rows,
        uncertified=uncertified,
        summary=_summary(rows, len(uncertified)),
        verdict=_verdict(f.kind, rows),
    )


def _summary(rows: list[dict], n_uncertified: int) -> dict:
    if not rows:
        return {"certified_rows": 0}
    return {
        "certified_rows": len(rows),
        "uncertified_rows": n_uncertified,
        "sup_vol_upper": max(r["vol_upper"] for r in rows),
        "inf_vol_lower": min(r["vol_lower"] for r in rows),
        "max_vol_lower": max(r["vol_lower"] for r in rows),
        "inf_lambda_lower": min(r["lambda_lower"] for r in rows),
        "sup_lambda_upper": max(r["lambda_upper"] for r in rows),
        "min_lambda_upper": min(r["lambda_upper"] for r in rows),
    }


def _verdict(kind: str, rows: list[dict]) -> str:
    """Expanding-family verdict for the infinite family the window samples.

    The volumes of a fixed-slope family are bounded by the constant
    4*v8*k, which pins inf lambda_1 >= A1/(4*v8*k)^2 > 0: expanding.  A
    vary-slope family with strictly increasing k has volume lower bounds
    growing linearly, so sup-type reasoning gives lambda_1 upper bounds
    tending to 0: not expanding.  Constant-k vary-slope windows are
    bounded for the same reason as fixed-slope; anything else, a window
    without certified rows included, is inconclusive from the window alone.
    """
    ks = [row["k"] for row in rows]
    if not ks:
        return "Inconclusive"
    if kind == "fixed-slope" or len(set(ks)) == 1:
        return "ExpandingCertified"
    if all(b > a for a, b in zip(ks, ks[1:])):
        return "NotExpandingCertified"
    return "Inconclusive"


# ---------------------------------------------------------------------------
# Config files and report serialization
# ---------------------------------------------------------------------------
#
# Key-value text, one ``key = value`` per line, '#' comments.  Keys:
#   kind            fixed-slope | vary-slope
#   p, q, n1, n2    integers (fixed-slope: p, q, n2 fixed, n1 swept)
#   range_start, range_end, range_step    the swept window (inclusive end;
#                   vary-slope reads range_start and range_end only for the
#                   fibonacci and odd-denominators sequences)
#   slope_sequence  fibonacci | odd-denominators | custom-list
#   slopes          comma-separated p/q list for custom-list
# Unrecognised keys are ignored.  A window holds at most _MAX_MEMBERS
# members, counted before any is built; the fibonacci and odd-denominators
# sequences are built from their first term, so for them range_end is the
# count.  Members are built lazily and refused at the first over the
# crossing column cap (``_capped``).

_MAX_MEMBERS = 10_000


def _window(start: int, stop: int, step: int = 1) -> range:
    """``range(start, stop, step)``, refused past _MAX_MEMBERS members."""
    r = range(start, stop, step)  # step 0 raises ValueError
    if r and (r[-1] - r[0]) // step >= _MAX_MEMBERS:
        raise ConfigError(f"family window has more than {_MAX_MEMBERS} members")
    return r


def load_family_config(text: str) -> CoilFamily:
    """Parse a family description."""
    kv = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()

    kind = kv.get("kind")
    try:
        if kind == "fixed-slope":
            start = int(kv["range_start"])
            end = int(kv["range_end"])
            step = int(kv.get("range_step", "1"))
            family = fixed_slope_vary_twists(
                int(kv["p"]), int(kv["q"]), int(kv["n2"]), _window(start, end + 1, step)
            )
        elif kind == "vary-slope":
            seq = kv.get("slope_sequence", "fibonacci")
            if seq == "custom-list":
                tokens = kv["slopes"].split(",")
                _window(0, len(tokens))  # the member cap holds for listed slopes too
                pairs = [(s.p, s.q) for s in map(Slope.parse, tokens)]
            elif seq in _SEQUENCES:
                start = int(kv.get("range_start", "1"))
                if start < 1:
                    raise ConfigError(f"range_start must be at least 1, got {start}")
                terms = len(_window(1, int(kv["range_end"]) + 1))  # built from term 1
                # coprime pairs, so no ``Slope`` is needed; lazy, so ``_capped`` may stop early
                pairs = islice(_SEQUENCES[seq](), start - 1, terms)
            else:
                raise ConfigError(f"unknown slope_sequence {seq!r}")
            family = _vary_slope(pairs, int(kv["n1"]))
        else:
            raise ConfigError("config must set kind to fixed-slope or vary-slope")
    except KeyError as e:
        raise ConfigError(f"missing config key {e.args[0]!r}") from None
    except ValueError as e:
        raise ConfigError(f"bad config value: {e}") from None
    return family


def report_to_csv(report: dict, precision: int = 6) -> str:
    """The CSV of ``analyze_family``'s report: the rows, one line each."""
    lines = [",".join(CSV_COLUMNS)]
    for r in report["rows"]:
        lines.append(",".join(
            _format_float(v, precision) if isinstance(v, float) else str(v)
            for v in r.values()
        ))
    return "\n".join(lines) + "\n"
