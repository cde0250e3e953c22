"""Output checks, written without calling the code under test.

``check(cmd, result)`` returns None when the invocation's exit code and
outputs hold the invariants the README states, else a one-line reason.
The checks test invariants (term counts, label pairing, components, the
published bound formulas to the printed precision, row counts, verdicts),
never byte-for-byte copies of one commit's output, so that deliberate
output changes such as outward rounding or a closed-form twist column are
not counted as failures.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from workloads import cfrac_terms

# README constants: the regular ideal tetrahedron and octahedron volumes,
# the parent-volume deficit and the two spectral constants.
V3 = 1.0149416064096536
V8 = 3.6638623767088760
DEFICIT = 1.3536
A1 = math.pi**2 / 2**50
A2 = 12650.0
ELL_COEFFICIENT = 32.0 * math.sqrt(2.0) / 7203.0
CUSP_COEFFICIENT = 4.0 * math.sqrt(6.0 * math.sqrt(2.0)) / 147.0

_PD_TERM = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)\Z")


@dataclass
class Result:
    """One invocation's outcome; ``wall`` and ``maxrss_kb`` only for subprocesses."""

    returncode: int
    stdout: str
    stderr: str
    wall: float = 0.0
    maxrss_kb: int = 0


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def check(cmd, result) -> str | None:
    """Return None if ``result`` (returncode, stdout, stderr) is right for ``cmd``."""
    try:
        _CHECKS[cmd.kind](cmd.expect, result)
    except CheckFailed as e:
        return f"{cmd.kind}: {e}"
    except (ValueError, KeyError, TypeError, IndexError, AttributeError,
            OSError, ET.ParseError) as e:
        return f"{cmd.kind}: unreadable output ({type(e).__name__}: {e})"
    return None


def _exit(result, code=0):
    _require(result.returncode == code,
             f"exit {result.returncode}, expected {code}: {result.stderr.strip()[-200:]}")


# ---------------------------------------------------------------------------
# PD codes
# ---------------------------------------------------------------------------


def pd_terms(text: str) -> list[tuple[int, ...]]:
    terms = []
    for token in text.split():
        m = _PD_TERM.match(token)
        _require(m, f"bad PD term {token[:40]!r}")
        terms.append(tuple(int(g) for g in m.groups()))
    return terms


def pd_components(terms) -> int:
    """Check every label appears exactly twice; return the link component count.

    At a crossing X(a,b,c,d) one strand runs a-c and the other b-d, so the
    components are the classes of labels joined through the crossings.
    """
    seen: dict[int, int] = {}
    for t in terms:
        for label in t:
            seen[label] = seen.get(label, 0) + 1
    bad = [label for label, n in seen.items() if n != 2 or label < 1]
    _require(not bad, f"edge label {bad[:1]} does not appear exactly twice")
    parent = {label: label for label in seen}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, c, d in terms:
        parent[find(a)] = find(c)
        parent[find(b)] = find(d)
    return len({find(label) for label in seen})


def _pd(text, crossings, components=None):
    terms = pd_terms(text)
    _require(len(terms) == crossings, f"{len(terms)} PD terms, expected {crossings}")
    comps = pd_components(terms)
    if components is not None:
        _require(comps == components, f"{comps} components, expected {components}")
    return terms


def _svg(path, crossings=None, curves=False):
    root = ET.parse(path).getroot()
    _require(root.tag.endswith("svg"), f"{path}: root element is {root.tag}")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    if crossings is not None:
        xings = sum(1 for e in polylines if e.get("class") == "xing")
        _require(xings == crossings, f"{xings} crossing glyphs, expected {crossings}")
    if curves:
        _require(any(e.get("class") == "curve" for e in polylines), "no curve drawn")


def _check_coil(e, r):
    _exit(r)
    text = Path(e["out"]).read_text() if e.get("out") else r.stdout
    _pd(text, e["crossings"], components=1)
    if e.get("svg"):
        _svg(e["svg"], crossings=e["crossings"])


def _check_augmented(e, r):
    _exit(r)
    _pd(r.stdout, 4 * e["q"], components=3)


def _check_twobridge(e, r):
    _exit(r)
    terms = cfrac_terms(e["p"], e["q"])
    _pd(r.stdout, sum(terms), components=1 if e["q"] % 2 else 2)


def _check_clasped(e, r):
    _exit(r)
    # the plat's crossings plus four for the clasp
    _pd(r.stdout, sum(cfrac_terms(e["p"], e["q"])) + 4)


def _check_render(e, r):
    _exit(r)
    _svg(e["svg"], crossings=e["crossings"])


def _check_verify_pd(e, r):
    _exit(r)
    m = re.match(r"ok: (\d+) crossings, (\d+) edges, (\d+) faces, (\d+) components", r.stdout)
    _require(m, f"unexpected verify --pd output {r.stdout[:80]!r}")
    v, edges, faces, comps = map(int, m.groups())
    _require(v == e["crossings"], f"{v} crossings, expected {e['crossings']}")
    _require(edges == 2 * v and faces == v + 2, f"E={edges} F={faces} for V={v}")
    _require(comps == e["components"], f"{comps} components, expected {e['components']}")


# ---------------------------------------------------------------------------
# Slopes and curves
# ---------------------------------------------------------------------------


def _canonical(p, q):
    return p % q, q


def _check_cfrac(e, r):
    _exit(r)
    p, q = _canonical(e["p"], e["q"])
    terms = cfrac_terms(p, q)
    want = "[" + ",".join(map(str, terms)) + f"] k={len(terms)}"
    _require(r.stdout.strip() == want, f"{r.stdout.strip()!r}, expected {want!r}")


def _check_slope(e, r):
    _exit(r)
    p, q = _canonical(e["p"], e["q"])
    terms = cfrac_terms(p, q)
    want = {
        "canonical": f"{p}/{q}",
        "mirror": f"{q - p}/{q}",
        "cfrac": "[" + ",".join(map(str, terms)) + "]",
        "k": len(terms),
    }
    if e["format"] == "json":
        got = json.loads(r.stdout)
    else:
        got = dict(tok.split("=", 1) for tok in r.stdout.split())
        got["k"] = int(got["k"])
    for key, value in want.items():
        _require(got.get(key) == value, f"{key}={got.get(key)!r}, expected {value!r}")


def _check_curve(e, r):
    _exit(r)
    (a, b), (c, d) = e["s1"], e["s2"]
    det = abs(a * d - b * c)
    want = f"curve-curve={2 * det} arc-curve={det}"
    _require(r.stdout.strip() == want, f"{r.stdout.strip()!r}, expected {want!r}")
    if e.get("svg"):
        _svg(e["svg"], curves=True)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def _close(printed, exact, precision, what):
    """``printed`` is ``exact`` shown to ``precision`` significant digits.

    Allows one unit in the last printed place, so rounding to nearest and
    outward rounding both pass.
    """
    _require(isinstance(printed, (int, float)), f"{what} is not a number")
    if exact == 0:
        _require(printed == 0, f"{what}={printed}, expected 0")
        return
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - precision + 1)
    _require(abs(printed - exact) <= unit * (1 + 1e-9),
             f"{what}={printed!r}, expected {exact!r} to {precision} digits")


def exact_report(p, q, n1, n2):
    k = len(cfrac_terms(p, q))
    n = min(abs(n1), abs(n2))
    ell = max(0.25 + 4.0 * n * n, ELL_COEFFICIENT * k * k * n * n)
    lower = (1.0 - 4.0 * math.pi**2 / ell) ** 1.5 * (4.0 * k * V3 - DEFICIT)
    upper = 4.0 * k * V8
    twists = abs(n1) >= 4 and abs(n2) >= 4
    cusp = k * abs(n1) >= 80 and k * abs(n2) >= 80
    condition = {(True, True): "Both", (True, False): "TwistsAtLeast4",
                 (False, True): "KTimesNAtLeast80"}[(twists, cusp)]
    return {
        "k": k,
        "ell": ell,
        "condition": condition,
        "slope_length_lower": [math.sqrt(0.25 + 4.0 * m * m) for m in (n1, n2)],
        "cusp_slope_length_lower": [CUSP_COEFFICIENT * k * abs(m) for m in (n1, n2)],
        "volume": (lower, upper),
        "lambda": (A1 / (upper * upper), A2 / lower),
    }


def _check_bounds(e, r):
    _exit(r)
    got = json.loads(r.stdout)
    want = exact_report(e["p"], e["q"], e["n1"], e["n2"])
    prec = e["precision"]
    spec = {"p": e["p"], "q": e["q"], "n1": e["n1"], "n2": e["n2"]}
    _require(got["spec"] == spec, f"spec {got['spec']}, expected {spec}")
    _require(got["k"] == want["k"], f"k={got['k']}, expected {want['k']}")
    _close(got["ell"], want["ell"], prec, "ell")
    cert = got["certificate"]
    _require(cert["condition"] == want["condition"],
             f"certificate {cert['condition']}, expected {want['condition']}")
    for key in ("slope_length_lower", "cusp_slope_length_lower"):
        for g, w in zip(cert["witnesses"][key], want[key], strict=True):
            _close(g, w, prec, key)
    _close(got["volume"]["lower"], want["volume"][0], prec, "volume.lower")
    _close(got["volume"]["upper"], want["volume"][1], prec, "volume.upper")
    _require(got["volume"]["strictUpper"] is True, "strictUpper is not true")
    _close(got["lambda"]["lower"], want["lambda"][0], prec, "lambda.lower")
    _close(got["lambda"]["upper"], want["lambda"][1], prec, "lambda.upper")
    _require(got["methods"] and all(isinstance(m, str) for m in got["methods"]),
             "methods trail is empty")


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def expected_verdict(kind, ks):
    """The documented rule: a fixed slope, or a constant k, bounds the
    volume (expanding); strictly growing k does not; anything else is
    inconclusive from a finite window."""
    if kind == "fixed-slope" or len(set(ks)) == 1:
        return "ExpandingCertified"
    if all(b > a for a, b in zip(ks, ks[1:])):
        return "NotExpandingCertified"
    return "Inconclusive"


def _check_rows(rows, members):
    _require(len(rows) == len(members), f"{len(rows)} rows, expected {len(members)}")
    for i, (row, (p, q, n1, n2)) in enumerate(zip(rows, members)):
        spec = tuple(int(row[c]) for c in ("p", "q", "n1", "n2"))
        _require(spec == (p, q, n1, n2), f"row {i} is {spec}, expected {(p, q, n1, n2)}")
        k = len(cfrac_terms(p, q))
        _require(int(row["k"]) == k, f"row {i}: k={row['k']}, expected {k}")
        want = q * (q - 1) * (abs(n1) + abs(n2))
        _require(int(row["crossings"]) == want,
                 f"row {i}: crossings={row['crossings']}, expected {want}")
        _close(float(row["vol_upper"]), 4.0 * k * V8, 6, f"row {i} vol_upper")


def _check_family_csv(e, r):
    _exit(r)
    lines = r.stdout.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]
    _check_rows(rows, e["members"])


def _check_family_json(e, r):
    _exit(r)
    got = json.loads(r.stdout)
    _check_rows(got["rows"], e["members"])
    _require(not got["uncertified"], f"{len(got['uncertified'])} uncertified rows")
    _require(got["kind"] == e["kind"], f"kind {got['kind']}, expected {e['kind']}")
    ks = [len(cfrac_terms(p, q)) for p, q, _, _ in e["members"]]
    want = expected_verdict(e["kind"], ks)
    _require(got["verdict"] == want, f"verdict {got['verdict']}, expected {want}")


# ---------------------------------------------------------------------------
# The acceptance suite
# ---------------------------------------------------------------------------

VERIFY_IDS = ["criterion-01", "criterion-02", "criterion-03", "criterion-03*",
              "criterion-04", "criterion-05", "criterion-06", "criterion-07",
              "criterion-08", "criterion-09", "criterion-10", "criterion-11"]
# criterion-03 asserts t(D) = k, which is false whenever a1 = 1; it fails by design.
VERIFY_EXPECTED_FAIL = {"criterion-03"}


def _check_verify(e, r):
    _exit(r, 1)
    lines = r.stdout.splitlines()
    _require(len(lines) == len(VERIFY_IDS), f"{len(lines)} lines, expected {len(VERIFY_IDS)}")
    for line, ident in zip(lines, VERIFY_IDS):
        m = re.match(r"(PASS|FAIL) (criterion-\d\d\*?) ", line)
        _require(m and m.group(2) == ident, f"line {line[:60]!r}, expected {ident}")
        want = "FAIL" if ident in VERIFY_EXPECTED_FAIL else "PASS"
        _require(m.group(1) == want, f"{ident} {m.group(1)}, expected {want}")


_CHECKS = {
    "coil": _check_coil,
    "augmented": _check_augmented,
    "twobridge": _check_twobridge,
    "clasped": _check_clasped,
    "render": _check_render,
    "verify-pd": _check_verify_pd,
    "cfrac": _check_cfrac,
    "slope": _check_slope,
    "curve": _check_curve,
    "bounds": _check_bounds,
    "family-csv": _check_family_csv,
    "family-json": _check_family_json,
    "verify": _check_verify,
}
