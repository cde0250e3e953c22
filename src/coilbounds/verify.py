"""Self-verification suite: acceptance checks and oracle properties.

Each check returns ``(ok, detail)``; ``_run_one`` times it and builds the
``CheckResult(name, ok, elapsed, limit, detail)``.  The CLI ``verify``
subcommand prints one line per result, and the pytest acceptance module
asserts them individually with their runtime budgets.

Check 3 asserts the classical identity "the standard alternating diagram
of [a1..ak] has exactly k twist regions" and is expected to FAIL for about
half of all slopes: the identity is false whenever a1 = 1.
The leading single crossing always forms a bigon with the neighboring
twist region through the plat closure, and no correct diagram can avoid
it: the 2-bridge link of slope 2/3 = [1,2] is the trefoil, every
3-crossing trefoil diagram has exactly one twist region, and a 4-crossing
figure-8 diagram (slope 3/5 = [1,1,2]) likewise has exactly two.  The true
law, verified separately, is  t(D) = k - 1 if a1 = 1 else k.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from functools import cache
from math import gcd

from . import bounds, curves, family, generators
from .errors import (
    NoHyperbolicityCertificate,
    NonHyperbolicSlope,
    SlopeTooShort,
)
from .generators import CoilSpec
from .slopes import Slope, cfrac_eval, cfrac_expand, mirror_slope

__all__ = ["CheckResult", "run_checks", "ACCEPTANCE_CHECKS"]


class CheckResult(namedtuple("CheckResult", "name ok elapsed limit detail")):
    __slots__ = ()

    @property
    def line(self) -> str:
        # byte-identical across runs: timing deliberately omitted
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _coprime_pairs(qmax):
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def check_01_constant_reproduction():
    factor = bounds.dehn_filling_factor(64.25)
    coeff_k = factor * 4.0 * bounds.CONSTANTS.v3
    coeff_c = factor * bounds.CONSTANTS.parent_deficit
    err_k = abs(coeff_k - 0.9718)
    err_c = abs(coeff_c - 0.3241)
    ok = err_k < 2e-4 and err_c < 2e-4
    return ok, (
        f"lower bound at ell=64.25 is {coeff_k:.6f}*k - {coeff_c:.6f} "
        f"(errors {err_k:.2e}, {err_c:.2e} vs 0.9718/0.3241)"
    )


def check_02_cfrac_roundtrip():
    count = 0
    for p, q in _coprime_pairs(500):
        s = Slope(p, q)
        if cfrac_eval(cfrac_expand(s)) != s:
            return False, f"roundtrip failed at {s}"
        count += 1
    return True, f"{count} coprime pairs, exact"


# Criteria 03 and 03* read the same survey of the q <= 100 two-bridge
# diagrams, generated once per process.
@cache
def _two_bridge_survey():
    """What criteria 03 and 03* report of the slopes q <= 100: the slope
    count, how many slopes break t = k and the first of them as
    (p, q, terms, t), and the first (p, q, terms) that breaks
    t = k - [a1=1], or None.  Only these verdicts are kept for the rest of
    the run, not a row per slope."""
    count = broken = 0
    first_broken = first_untrue = None
    for p, q in _coprime_pairs(100):
        c = cfrac_expand(Slope(p, q))
        d = generators.gen_two_bridge(c)
        terms = c.terms
        t = d.n_twist_regions
        shape = d.n_crossings == sum(terms) and d.is_alternating()
        count += 1
        if not (t == len(terms) and shape):
            broken += 1
            if first_broken is None:
                first_broken = (p, q, terms, t)
        if first_untrue is None and not (t == len(terms) - (terms[0] == 1) and shape):
            first_untrue = (p, q, terms)
    return count, broken, first_broken, first_untrue


def check_03_two_bridge_cross_check():
    count, broken, first, _ = _two_bridge_survey()
    if broken:
        p, q, terms, got = first
        return False, (
            f"{broken}/{count} slopes violate count=k, first {p}/{q} "
            f"{list(terms)}: t(D)={got}, k={len(terms)} -- unattainable for "
            "a1=1 (e.g. [1,2] is the trefoil; every 3-crossing diagram of it "
            "has one twist region); true law t = k - [a1=1] verified separately"
        )
    return True, f"{count} slopes: t(D)=k, crossings=sum(a_i), alternating"


def check_03adj_two_bridge_true_law():
    count, _, _, untrue = _two_bridge_survey()
    if untrue:
        p, q, terms = untrue
        return False, f"true-law violation at {p}/{q} {list(terms)}"
    return True, f"{count} slopes: t(D) = k - [a1=1], crossings=sum(a_i), alternating"


def check_04_oracle_equivalence():
    slopes = [Slope(1, 0), Slope(0, 1), Slope(1, 1)]
    slopes += [Slope(p, q) for p, q in _coprime_pairs(12)]
    pairs = 0
    for a in slopes:
        for b in slopes:
            cc = curves.brute_force_intersection(a, b, "curve-curve")
            if cc != curves.curve_curve_intersection(a, b):
                return False, f"curve-curve mismatch at ({a}, {b})"
            ac = curves.brute_force_intersection(a, b, "arc-curve")
            if ac != curves.arc_curve_intersection(a, b):
                return False, f"arc-curve mismatch at ({a}, {b})"
            pairs += 1
    inf = Slope(1, 0)
    for p, q in _coprime_pairs(100):
        got = curves.arc_curve_intersection(inf, Slope(p, q))
        if got < q:
            return False, f"arc bound violated at {p}/{q}: {got} < {q}"
    return True, f"{pairs} slope pairs x 2 modes; arc(1/0, p/q) >= q up to q=100"


def check_05_mirror_intervals():
    count = 0
    for p, q in _coprime_pairs(300):
        s = Slope(p, q)
        a_lower, a_upper = bounds.parent_volume_interval(s)
        b_lower, b_upper = bounds.parent_volume_interval(mirror_slope(s))
        if max(a_lower, b_lower) > min(a_upper, b_upper):
            return False, f"disjoint intervals at {s}"
        count += 1
    return True, f"{count} mirror pairs intersect"


def check_06_composition_identity():
    vols = [bounds.CONSTANTS.figure8_volume] + [
        10.0 ** (3.0 * i / 19.0) for i in range(20)
    ]
    for g in range(1, 11):
        for vol in vols:
            a = bounds.lambda_upper(g, vol)
            b = bounds.buser_upper(bounds.cheeger_upper(g, vol))
            if a == b == 0.0:
                continue
            if abs(a - b) / max(abs(a), abs(b)) > 1e-12:
                return False, f"identity off at g={g}, vol={vol}"
    return True, "lambda_upper = buser(cheeger) to 1e-12 relative on the grid"


def check_07_figure8_spectral():
    v = bounds.CONSTANTS.figure8_volume
    lhs = bounds.lambda_upper(3, v)
    rhs = 12650.0 / v
    ok = lhs < rhs
    return ok, f"lambda_upper(3, 2v3) = {lhs:.6g} < 12650/(2v3) = {rhs:.6g}"


def check_08_threshold_sharpness():
    two_pi = 2.0 * math.pi
    for kn in range(1, 201):
        if (bounds.cusp_slope_length_lower(kn, 1) > two_pi) != (kn >= 80):
            return False, f"cusp threshold wrong at k|n|={kn}"
    for n in range(0, 50):
        if (bounds.slope_length_lower(n) > two_pi) != (n >= 4):
            return False, f"slope length threshold wrong at n={n}"
        if bounds.disk_obstruction_check(n) != (n >= 6):
            return False, f"disk obstruction wrong at n={n}"
        if bounds.disk_obstruction_check(-n) != (n >= 6):
            return False, f"disk obstruction wrong at n={-n}"
    return True, "2*pi crossings exactly at |n|=4 and k|n|=80; >12 exactly at |n|=6"


def check_09_generator_consistency():
    twists = [-4, -3, -2, -1, 1, 2, 3, 4]
    checked = 0
    for p, q in _coprime_pairs(8):
        aug = generators.gen_augmented(Slope(p, q))
        for n1 in twists:
            once = generators.fill_crossing_circle(aug, "C1", n1)
            for n2 in twists:
                filled = generators.fill_crossing_circle(once, "C2", n2)
                spec = CoilSpec(p, q, n1, n2)
                direct = generators.gen_double_coil(spec)
                want = q * (q - 1) * (abs(n1) + abs(n2))
                # the same diagram crossing for crossing, and the right one
                if not (
                    filled.mate == direct.mate
                    and direct.n_crossings == want
                    and direct.n_components == 1
                    and direct.n_twist_regions == spec.twist_region_count
                ):
                    return False, f"mismatch at ({p},{q},{n1},{n2})"
                checked += 1
    return True, f"{checked} fill-vs-direct triples agree"


def check_10_family_phenomena():
    rep = family.analyze_family(
        family.fixed_slope_vary_twists(2, 5, 6, range(4, 101))
    )
    v8 = bounds.CONSTANTS.v8
    if not all(abs(r["vol_upper"] - 8 * v8) < 1e-9 for r in rep["rows"]):
        return False, "volume-upper column not constant 8*v8"
    crossings = [r["crossings"] for r in rep["rows"]]
    diffs = {b - a for a, b in zip(crossings, crossings[1:])}
    if diffs != {20}:
        return False, "crossing column not linear"
    if rep["verdict"] != "ExpandingCertified":
        return False, f"fixed-slope verdict {rep['verdict']}"

    rep2 = family.analyze_family(
        family.vary_slope_fixed_twists(family.fibonacci_slopes(20), 4)
    )
    lows = [r["vol_lower"] for r in rep2["rows"]]
    if not all(b > a for a, b in zip(lows, lows[1:])):
        return False, "volume lowers not strictly increasing"
    for r in rep2["rows"]:
        if abs(r["vol_lower"] - (0.9718 * r["k"] - 0.3241)) > 2e-4 * r["k"]:
            return False, f"volume lower off the linear law at k={r['k']}"
    ups = [r["lambda_upper"] for r in rep2["rows"]]
    if not all(b < a for a, b in zip(ups, ups[1:])):
        return False, "lambda uppers not strictly decreasing"
    if rep2["verdict"] != "NotExpandingCertified":
        return False, f"vary-slope verdict {rep2['verdict']}"
    return True, (
        f"fixed-slope: 97 rows, vol upper 8*v8, ExpandingCertified; "
        f"fibonacci k=1..20: NotExpandingCertified, last lambda upper {ups[-1]:.4g}"
    )


def check_11_error_paths():
    try:
        bounds.bound_report(CoilSpec(1, 2, 1, 1))
        return False, "(1,2,1,1) produced a report"
    except NoHyperbolicityCertificate:
        pass
    try:
        bounds.parent_volume_interval(Slope(0, 1))
        return False, "slope 0/1 produced an interval"
    except NonHyperbolicSlope:
        pass
    try:
        bounds.dehn_filling_factor(36.0)
        return False, "ell=36 (slope length 6) accepted"
    except SlopeTooShort:
        pass
    return True, "NoHyperbolicityCertificate, NonHyperbolicSlope, SlopeTooShort raised"


ACCEPTANCE_CHECKS = (
    ("criterion-01 constant reproduction", check_01_constant_reproduction, 1.0),
    ("criterion-02 cfrac roundtrip q<=500", check_02_cfrac_roundtrip, 5.0),
    ("criterion-03 two-bridge cross-check (t=k)", check_03_two_bridge_cross_check, 10.0),
    ("criterion-03* two-bridge true law t=k-[a1=1]", check_03adj_two_bridge_true_law, 10.0),
    ("criterion-04 intersection oracle equivalence", check_04_oracle_equivalence, 30.0),
    ("criterion-05 mirror interval consistency q<=300", check_05_mirror_intervals, 5.0),
    ("criterion-06 buser/cheeger composition", check_06_composition_identity, 1.0),
    ("criterion-07 figure-8 spectral check", check_07_figure8_spectral, 1.0),
    ("criterion-08 threshold sharpness", check_08_threshold_sharpness, 1.0),
    ("criterion-09 generator consistency", check_09_generator_consistency, 30.0),
    ("criterion-10 family phenomena", check_10_family_phenomena, 10.0),
    ("criterion-11 error paths", check_11_error_paths, 1.0),
)


def _run_one(entry) -> CheckResult:
    name, fn, limit = entry
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as e:  # a crashed check is a failed check
        ok, detail = False, f"{type(e).__name__}: {e}"
    return CheckResult(name, ok, time.perf_counter() - start, limit, detail)


def run_checks() -> list[CheckResult]:
    """Run every acceptance check in this process, in declaration order."""
    return [_run_one(entry) for entry in ACCEPTANCE_CHECKS]
