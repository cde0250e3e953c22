import math
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from coilbounds.bounds import (
    CONSTANTS,
    buser_upper,
    cheeger_upper,
    coil_hyperbolicity_certificate,
    cusp_slope_length_lower,
    dehn_filling_factor,
    disk_obstruction_check,
    ell_param,
    lambda_lower,
    lambda_upper,
    bound_report,
    parent_volume_interval,
    slope_length_lower,
)
from coilbounds.errors import (
    NoHyperbolicityCertificate,
    NonHyperbolicSlope,
    SlopeTooShort,
    VolumeBelowFloor,
)
from coilbounds.generators import CoilSpec
from coilbounds.slopes import Slope, cfrac_expand

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi**2


def test_ideal_polyhedron_volumes_against_quadrature():
    """v3 = 2*Lob(pi/6) and v8 = 8*Lob(pi/4), with the Lobachevsky function
    evaluated by independent numerical quadrature."""
    from scipy.integrate import quad

    def lobachevsky(theta):
        val, err = quad(lambda t: -math.log(abs(2.0 * math.sin(t))), 0.0, theta,
                        limit=200)
        assert err < 1e-12
        return val

    assert abs(CONSTANTS.v3 - 2.0 * lobachevsky(math.pi / 6.0)) < 1e-10
    assert abs(CONSTANTS.v8 - 8.0 * lobachevsky(math.pi / 4.0)) < 1e-10
    # v8 also has the closed form 4 * Catalan
    catalan = 0.9159655941772190
    assert abs(CONSTANTS.v8 - 4.0 * catalan) < 1e-12


def test_constants_display_truncations():
    assert repr(CONSTANTS.v3).startswith("1.0149416064")
    assert repr(CONSTANTS.v8).startswith("3.6638623767")
    assert CONSTANTS.lambda_floor_numerator >= 8.76e-15
    assert abs(CONSTANTS.lambda_floor_numerator - 8.765e-15) < 1e-17


def test_parent_volume_examples():
    lower, upper = parent_volume_interval(Slope(1, 2))
    assert abs(lower - 2.70617) < 1e-5
    assert abs(upper - 14.65545) < 1e-5
    lower, upper = parent_volume_interval(Slope(2, 5))
    assert abs(lower - 6.76593) < 1e-5
    assert abs(upper - 29.31090) < 1e-5
    for k in range(1, 50):
        assert 4 * k * CONSTANTS.v3 - CONSTANTS.parent_deficit > 0


def test_parent_volume_canonicalizes():
    assert parent_volume_interval(Slope(7, 5)) == parent_volume_interval(Slope(2, 5))
    with pytest.raises(NonHyperbolicSlope):
        parent_volume_interval(Slope(0, 1))
    with pytest.raises(NonHyperbolicSlope):
        parent_volume_interval(Slope(1, 0))


def test_ell_param():
    assert ell_param(1, 4, 4) == 64.25
    expected = 32.0 * math.sqrt(2.0) * 100**2 * 16 / 7203.0
    assert abs(ell_param(100, 4, 4) - expected) < 1e-9
    # right-hand term takes over at k = 26 for n = 4, at k = 27 for n = 1
    assert ell_param(25, 4, 4) == 64.25 and ell_param(26, 4, 4) > 64.25
    assert ell_param(26, 1, 1) == 4.25 and ell_param(27, 1, 1) > 4.25
    assert ell_param(3, -4, 5) == ell_param(3, 4, 5)
    with pytest.raises(ValueError):
        ell_param(2, 0, 3)


def test_dehn_filling_factor():
    """The factor takes ell, the squared slope length that ell_param returns."""
    assert dehn_filling_factor(8.0 * math.pi**2) == 0.5**1.5
    with pytest.raises(SlopeTooShort):
        dehn_filling_factor(36.0)  # slope length 6 < 2*pi
    with pytest.raises(SlopeTooShort):
        dehn_filling_factor(FOUR_PI_SQ)
    # strictly increasing toward 1
    values = [dehn_filling_factor(FOUR_PI_SQ + 0.1 * 2**i) for i in range(20)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0 and 1.0 - dehn_filling_factor(1e18) < 1e-9


def test_slope_length_lower():
    assert bounds_close(slope_length_lower(4), math.sqrt(64.25))
    assert slope_length_lower(4) > TWO_PI
    assert slope_length_lower(3) < TWO_PI
    assert slope_length_lower(6) == math.sqrt(144.25)
    assert slope_length_lower(6) > 12.0
    assert slope_length_lower(0) == 0.5
    assert slope_length_lower(-5) == slope_length_lower(5)


def bounds_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_cusp_slope_length():
    assert cusp_slope_length_lower(80, 1) > TWO_PI
    assert cusp_slope_length_lower(79, 1) < TWO_PI
    # 4*sqrt(6*sqrt(2))*80/147 = 6.34112 (quoted elsewhere as ~6.3413)
    assert abs(cusp_slope_length_lower(80, 1) - 6.3411) < 1e-3
    assert cusp_slope_length_lower(5, 0) == 0.0
    assert cusp_slope_length_lower(4, -5) == cusp_slope_length_lower(4, 5)


def test_certificates():
    assert coil_hyperbolicity_certificate(3, 4, 4)["condition"] == "TwistsAtLeast4"
    assert coil_hyperbolicity_certificate(40, 2, 2)["condition"] == "KTimesNAtLeast80"
    assert coil_hyperbolicity_certificate(80, 4, 4)["condition"] == "Both"
    cert = coil_hyperbolicity_certificate(1, 1, 1)
    assert cert["condition"] == "None"
    assert "slope_length_lower" in cert["witnesses"]
    assert "cusp_slope_length_lower" in cert["witnesses"]


def test_coil_volume_examples():
    spec = CoilSpec(3, 5, 4, 4)
    v = bound_report(spec)["volume"]
    assert v["strictUpper"]
    assert abs(v["upper"] - 43.96635) < 1e-4
    assert abs(v["lower"] - 2.5916) < 2e-3
    with pytest.raises(NoHyperbolicityCertificate):
        bound_report(CoilSpec(1, 2, 1, 1))


def test_coil_volume_linear_coefficients():
    for spec in [CoilSpec(3, 5, 4, 4), CoilSpec(2, 5, 4, -4), CoilSpec(5, 8, -4, 4)]:
        k = cfrac_expand(spec.slope).length
        lower = bound_report(spec)["volume"]["lower"]
        assert abs(lower - (0.9718 * k - 0.3241)) < 2e-4 * max(k, 1)


def test_coil_lower_monotonicity():
    """Non-decreasing in ell (via larger twists at fixed k), strictly
    increasing in k (via longer continued fractions at fixed twists)."""
    by_twist = [bound_report(CoilSpec(2, 5, n, n))["volume"]["lower"] for n in range(4, 15)]
    assert all(b >= a for a, b in zip(by_twist, by_twist[1:]))
    slopes = [Slope(2, 5), Slope(3, 5), Slope(5, 8), Slope(8, 13)]
    assert [cfrac_expand(s).length for s in slopes] == [2, 3, 4, 5]
    by_k = [bound_report(CoilSpec(s.p, s.q, 4, 4))["volume"]["lower"] for s in slopes]
    assert all(b > a for a, b in zip(by_k, by_k[1:]))


def test_volume_interval_containment():
    """Filling only shrinks volume: coil interval sits inside the parent's
    reach (same upper, weaker lower)."""
    for p, q in [(1, 2), (2, 5), (3, 7), (5, 8)]:
        for n1, n2 in [(4, 4), (5, -4), (-6, 6)]:
            spec = CoilSpec(p, q, n1, n2)
            coil = bound_report(spec)["volume"]
            parent_lower, parent_upper = parent_volume_interval(spec.slope)
            assert coil["upper"] == parent_upper
            assert coil["lower"] <= parent_lower


@st.composite
def coil_specs(draw):
    """Coil specs with small and long continued fractions (Fibonacci slopes
    reach k = 120), small and huge twist counts, certified or not."""
    if draw(st.booleans()):
        q = draw(st.integers(2, 10**6))
        p = draw(st.integers(1, q - 1))
        p, q = p // gcd(p, q), q // gcd(p, q)
    else:
        p, q = 1, 2
        for _ in range(draw(st.integers(0, 119))):
            p, q = q, p + q

    def twist():
        n = draw(st.one_of(st.integers(1, 100), st.integers(1, 10**300)))
        return n if draw(st.booleans()) else -n

    return CoilSpec(p, q, twist(), twist())


@settings(max_examples=300, deadline=None)
@given(coil_specs())
def test_bound_report_composes_public_pieces(spec):
    """bound_report is, bit for bit, the composition of the public formulas:
    no second copy of any of them can drift."""
    k = cfrac_expand(spec.slope).length
    cert = coil_hyperbolicity_certificate(k, spec.n1, spec.n2)
    if cert["condition"] == "None":
        with pytest.raises(NoHyperbolicityCertificate):
            bound_report(spec)
        return
    try:
        ell = ell_param(k, spec.n1, spec.n2)
    except OverflowError:  # both |n_i| past about 1e154: refused, never inf
        with pytest.raises(OverflowError):
            bound_report(spec)
        return
    rep = bound_report(spec)
    parent_lower, upper = parent_volume_interval(spec.slope)
    lower = dehn_filling_factor(ell) * parent_lower
    assert (rep["k"], rep["ell"]) == (k, ell)
    assert rep["certificate"] == coil_hyperbolicity_certificate(k, spec.n1, spec.n2)
    assert rep["certificate"] == {
        "condition": cert["condition"],
        "witnesses": {
            "slope_length_lower": [slope_length_lower(spec.n1), slope_length_lower(spec.n2)],
            "cusp_slope_length_lower": [
                cusp_slope_length_lower(k, spec.n1), cusp_slope_length_lower(k, spec.n2)
            ],
        },
    }
    assert rep["volume"] == {"lower": lower, "upper": upper, "strictUpper": True}
    assert rep["lambda"] == {
        "lower": lambda_lower(upper),
        "upper": CONSTANTS.lambda_ceiling_coefficient / lower,
    }
    assert rep["methods"][:3] == [
        f"parent-volume(k={k})",
        f"dehn-filling-decay(ell={ell:.6g})",
        f"certificate:{cert['condition']}",
    ]


def _big_int():
    """Signed integers of every magnitude up to 10^400, not just the largest."""
    return st.builds(
        lambda m, e, neg: -m * 10**e if neg else m * 10**e,
        st.integers(1, 99), st.integers(0, 398), st.booleans(),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**4), _big_int(), _big_int())
@example(20, 17 * 10**307, 5)
@example(2, 10**155, 10**155)
def test_length_formulas_finite_or_overflow(k, n1, n2):
    """No formula hands a report inf: each is finite or raises OverflowError."""
    for formula in (
        lambda: ell_param(k, n1, n2),
        lambda: slope_length_lower(n1),
        lambda: cusp_slope_length_lower(k, n1),
    ):
        try:
            value = formula()
        except OverflowError:
            continue
        assert math.isfinite(value)


def test_lambda_lower():
    assert abs(lambda_lower(1.0) - math.pi**2 / 2**50) < 1e-25
    assert abs(lambda_lower(1.0) - 8.765e-15) < 1e-17
    v = CONSTANTS.figure8_volume
    assert abs(lambda_lower(v) - math.pi**2 / 2**50 / v**2) < 1e-25
    with pytest.raises(VolumeBelowFloor):
        lambda_lower(1e-9)


def test_cheeger_buser():
    assert cheeger_upper(1, 5.0) == 0.0
    v = CONSTANTS.figure8_volume
    assert abs(cheeger_upper(3, v) - 16 * math.pi / v) < 1e-12
    assert abs(cheeger_upper(3, 2.0) / cheeger_upper(3, 4.0) - 2.0) < 1e-12
    assert buser_upper(0.0) == 0.0
    assert buser_upper(1.0) == 14.0
    assert buser_upper(0.5) == 4.5
    with pytest.raises(ValueError):
        buser_upper(-1.0)
    with pytest.raises(ValueError):
        cheeger_upper(0, 1.0)


def test_lambda_upper_figure8():
    v = CONSTANTS.figure8_volume
    assert lambda_upper(1, v) == 0.0
    lhs = lambda_upper(3, v)
    rhs = 12650.0 / v
    assert lhs < rhs
    assert abs(lhs - (64 * math.pi / v + 2560 * math.pi**2 / v**2)) < 1e-9
    assert f"{lhs:.6g}" == "6230.99"
    assert f"{rhs:.6g}" == "6231.89"


def test_coil_lambda_examples():
    rep = bound_report(CoilSpec(3, 5, 4, 4))
    assert abs(rep["lambda"]["lower"] - 4.53e-18) < 2e-20
    assert abs(rep["lambda"]["upper"] - 4881.1) < 1.0
    assert "heegaard-genus<=3" in rep["methods"]


def test_interval_sanity_sweep():
    """lower <= upper over every certified (k, n1, n2) reachable with
    q <= 50 and |n_i| <= 20 (deduplicated through k)."""
    ks = set()
    for q in range(2, 51):
        for p in range(1, q):
            if gcd(p, q) == 1:
                ks.add(cfrac_expand(Slope(p, q)).length)
    twists = [n for n in range(-20, 21) if n]
    checked = 0
    for k in sorted(ks):
        for n1 in twists:
            for n2 in twists:
                cert = coil_hyperbolicity_certificate(k, n1, n2)
                if cert["condition"] == "None":
                    continue
                factor = dehn_filling_factor(ell_param(k, n1, n2))
                lower = factor * (4 * k * CONSTANTS.v3 - CONSTANTS.parent_deficit)
                upper = 4 * CONSTANTS.v8 * k
                assert 0 < lower <= upper
                lam_low = CONSTANTS.lambda_floor_numerator / upper**2
                lam_up = CONSTANTS.lambda_ceiling_coefficient / lower
                assert 0 < lam_low < lam_up
                checked += 1
    assert checked > 5000


def test_disk_obstruction():
    assert disk_obstruction_check(6)
    assert disk_obstruction_check(-7)
    assert not disk_obstruction_check(5)
    assert not disk_obstruction_check(0)


def test_bound_report_schema():
    import json
    from importlib.resources import files

    import jsonschema

    schema = json.loads(
        files("coilbounds").joinpath("schemas/bounds_report.schema.json").read_text()
    )
    report = bound_report(CoilSpec(3, 5, 4, 4))
    jsonschema.validate(json.loads(json.dumps(report)), schema)
