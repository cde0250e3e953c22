"""Explicit volume and spectral-gap estimates for double coil knots.

Every number produced here is a certified bound, never a computed
geometric quantity.  The chain of estimates:

* the 3-component parent link of slope p/q (continued-fraction length k)
  is hyperbolic with  4*k*v3 - 1.3536 <= vol <= 4*k*v8;
* filling the two crossing circles with 1/n1, 1/n2 keeps hyperbolicity
  whenever each |n_i| >= 4 or each k*|n_i| >= 80, because then each
  filling slope is longer than 2*pi; the volume then drops by at most the
  factor (1 - 4*pi^2/ell)^(3/2) with ell from the two slope-length
  estimates;
* lambda_1 of any finite-volume hyperbolic 3-manifold is at least
  (pi^2/2^50)/vol^2 and, via the Cheeger constant and a Heegaard surface
  of genus g, at most 32*pi*(g-1)/vol + 640*pi^2*(g-1)^2/vol^2; double
  coil complements have Heegaard genus at most 3, and plugging in the
  figure-8 volume floor 2*v3 packages the upper bound as 12650/vol.

Intervals substitute the volume *bound* endpoints for the unknown true
volume (lower uses the volume upper bound, upper uses the volume lower
bound); both substituted functions are decreasing in vol, so the interval
remains valid.  Method tags record the provenance of every number.

Thresholds on integers (|n| >= 4, k|n| >= 80, the >12 disk obstruction)
are decided in exact integer arithmetic; only the bound values themselves
are floating point.  ``_format_float`` is the one rule that turns them into
printed digits, for the CLI's JSON, the family CSV and the method trail
alike.

The module reads ``CoilSpec`` from ``slopes`` and imports nothing of the
diagram layer, so a report costs no diagram code.
"""

from __future__ import annotations

import math

from .errors import (
    NoHyperbolicityCertificate,
    SlopeTooShort,
    VolumeBelowFloor,
)
from .slopes import CoilSpec, Slope, _cfrac_length, canonical_coil_slope

__all__ = [
    "Constants",
    "CONSTANTS",
    "parent_volume_interval",
    "ell_param",
    "dehn_filling_factor",
    "slope_length_lower",
    "cusp_slope_length_lower",
    "coil_hyperbolicity_certificate",
    "lambda_lower",
    "cheeger_upper",
    "buser_upper",
    "lambda_upper",
    "disk_obstruction_check",
    "bound_report",
]


class Constants:
    """Fixed constants of the estimates, stored to full double precision.

    ``v3`` and ``v8`` are the volumes of the regular ideal tetrahedron and
    octahedron (v3 = 2*Lob(pi/6), v8 = 8*Lob(pi/4) = 4*Catalan); the usual
    4-digit renderings 1.0149 and 3.6638 are display truncations.  They are
    class attributes; an instance has no slots, so none can be reassigned.
    """

    __slots__ = ()

    v3 = 1.0149416064096536
    v8 = 3.6638623767088760
    parent_deficit = 1.3536
    cusp_arc_coefficient = 4.0 * math.sqrt(6.0 * math.sqrt(2.0)) / 147.0
    ell_coefficient = 32.0 * math.sqrt(2.0) / 7203.0
    lambda_floor_numerator = math.pi**2 / 2**50  # A1
    lambda_ceiling_coefficient = 12650.0  # A2
    volume_floor = math.pi / 2**25

    @property
    def figure8_volume(self) -> float:
        return 2.0 * self.v3


CONSTANTS = Constants()

_FOUR_PI_SQ = 4.0 * math.pi**2


def _parent_volume(k: int) -> tuple[float, float]:
    """(lower, upper) = (4*k*v3 - 1.3536, 4*k*v8), the volume bounds of the
    parent link of a slope whose continued fraction has length k."""
    c = CONSTANTS
    lower, upper = 4.0 * k * c.v3 - c.parent_deficit, 4.0 * k * c.v8
    if not 0.0 <= lower <= upper:
        raise ValueError(f"bad volume interval [{lower}, {upper}]")
    return lower, upper


def parent_volume_interval(s: Slope) -> tuple[float, float]:
    """Two-sided volume bounds (lower, upper) for the 3-component parent
    link of slope s.

    The slope is brought to its canonical class 0 < p < q first; classes 0
    and infinity raise ``NonHyperbolicSlope``.
    """
    return _parent_volume(_cfrac_length(canonical_coil_slope(s)))


def _finite(x: float, name: str) -> float:
    """``x``, unless it overflowed a float: a report never prints inf."""
    if math.isinf(x):
        raise OverflowError(f"{name} is beyond float range")
    return x


def ell_param(k: int, n1: int, n2: int) -> float:
    """The slope-length-squared parameter: max of the two length estimates.

    With n = min(|n1|, |n2|) this is max(1/4 + 4n^2, 32*sqrt(2)*k^2*n^2/7203).
    The right-hand term generically takes over around k = 26; the maximum
    is always computed directly.  Raises ``OverflowError`` when it leaves
    float range (n past about 1e154).
    """
    if n1 == 0 or n2 == 0:
        raise ValueError("full-twist counts must be non-zero")
    n = min(abs(n1), abs(n2))
    return _finite(max(0.25 + 4.0 * n * n, CONSTANTS.ell_coefficient * k * k * n * n), "ell")


def dehn_filling_factor(ell: float) -> float:
    """Volume decay factor (1 - 4*pi^2/ell)^(3/2) for filling slopes whose
    squared lengths are at least ell > 4*pi^2 (the ``ell_param`` value)."""
    if ell <= _FOUR_PI_SQ:
        raise SlopeTooShort(f"ell={ell} not greater than 4*pi^2")
    return (1.0 - _FOUR_PI_SQ / ell) ** 1.5


def slope_length_lower(n: int) -> float:
    """Length lower bound sqrt(1/4 + 4n^2) for the slope 1/n on a crossing
    circle cusp of the reflection-symmetric parent diagram.  ``hypot`` keeps
    it finite while 2|n| fits a float (squaring would overflow past
    |n| ~ 1e154); beyond that it raises ``OverflowError``."""
    return _finite(math.hypot(0.5, 2.0 * n), "slope_length_lower")


def cusp_slope_length_lower(k: int, n: int) -> float:
    """Length lower bound (4*sqrt(6*sqrt(2))/147) * k * |n|, from the
    maximal-cusp area estimate of 2-bridge knots with k+1 twist regions.
    Raises ``OverflowError`` when the product leaves float range."""
    return _finite(CONSTANTS.cusp_arc_coefficient * k * abs(n), "cusp_slope_length_lower")


# (|n_i| >= 4 for both, k|n_i| >= 80 for both) -> the certificate's condition
_CONDITIONS = {
    (True, True): "Both",
    (True, False): "TwistsAtLeast4",
    (False, True): "KTimesNAtLeast80",
    (False, False): "None",
}


def coil_hyperbolicity_certificate(k: int, n1: int, n2: int) -> dict:
    """Check the two integer conditions guaranteeing filling slopes longer
    than 2*pi: |n_i| >= 4 for both i, or k*|n_i| >= 80 for both i.

    Returns the report's ``certificate`` record: ``condition`` is one of
    "TwistsAtLeast4", "KTimesNAtLeast80", "Both" and "None" (neither holds),
    and ``witnesses`` maps each length estimate to its values at n1 and n2.
    """
    if n1 == 0 or n2 == 0:
        raise ValueError("full-twist counts must be non-zero")
    cond1 = abs(n1) >= 4 and abs(n2) >= 4
    cond2 = k * abs(n1) >= 80 and k * abs(n2) >= 80
    return {
        "condition": _CONDITIONS[(cond1, cond2)],
        "witnesses": {
            "slope_length_lower": [slope_length_lower(n1), slope_length_lower(n2)],
            "cusp_slope_length_lower": [
                cusp_slope_length_lower(k, n1),
                cusp_slope_length_lower(k, n2),
            ],
        },
    }


def lambda_lower(vol: float) -> float:
    """Spectral gap lower bound (pi^2/2^50)/vol^2, valid for any oriented
    finite-volume hyperbolic 3-manifold; such volumes exceed pi/2^25."""
    if vol <= CONSTANTS.volume_floor:
        raise VolumeBelowFloor(
            f"vol={vol} is not above the universal floor pi/2^25"
        )
    return CONSTANTS.lambda_floor_numerator / (vol * vol)


def cheeger_upper(g: int, vol: float) -> float:
    """Cheeger constant bound 8*pi*(g-1)/vol from a genus-g Heegaard surface."""
    if g < 1:
        raise ValueError("Heegaard genus must be at least 1")
    if vol <= 0:
        raise ValueError("volume must be positive")
    return 8.0 * math.pi * (g - 1) / vol

def buser_upper(h: float) -> float:
    """lambda_1 <= 4h + 10h^2 in terms of the Cheeger constant h."""
    if h < 0:
        raise ValueError("Cheeger constant must be non-negative")
    return 4.0 * h + 10.0 * h * h


def lambda_upper(g: int, vol: float) -> float:
    """lambda_1 <= 32*pi*(g-1)/vol + 640*pi^2*(g-1)^2/vol^2.

    Algebraically this is ``buser_upper(cheeger_upper(g, vol))``; it is
    written out so that the composition identity is a real cross-check.
    """
    if g < 1:
        raise ValueError("Heegaard genus must be at least 1")
    if vol <= 0:
        raise ValueError("volume must be positive")
    gm1 = g - 1
    return 32.0 * math.pi * gm1 / vol + 640.0 * math.pi**2 * gm1 * gm1 / (vol * vol)


def disk_obstruction_check(n2: int) -> bool:
    """True when 1/n2 filling forces slope length above 12, defeating the
    punctured-disk case: sqrt(1/4 + 4*n2^2) > 12, i.e. |n2| >= 6.

    Decided in exact integers: 1 + 16*n2^2 > 576.
    """
    return 1 + 16 * n2 * n2 > 576


def bound_report(spec: CoilSpec) -> dict:
    """Complete JSON-ready report: certificate, volume, and lambda_1.

    The single evaluation of a spec: family rows read from it too.  Raises
    ``NoHyperbolicityCertificate`` unless one of the two twist conditions
    holds; the estimates are conditional and no uncertified interval is
    emitted.
    """
    k = _cfrac_length(spec.slope)
    cert = coil_hyperbolicity_certificate(k, spec.n1, spec.n2)
    if cert["condition"] == "None":
        raise NoHyperbolicityCertificate(
            f"(p,q,n1,n2)=({spec.p},{spec.q},{spec.n1},{spec.n2}) with k={k}: "
            "neither |n_i|>=4 nor k|n_i|>=80 holds for both regions"
        )
    ell = ell_param(k, spec.n1, spec.n2)
    parent_lower, upper = _parent_volume(k)
    # a factor in (0, 1) keeps 0 <= lower <= upper
    lower = dehn_filling_factor(ell) * parent_lower
    # The lambda_1 sandwich A1/vol^2 <= lambda_1 <= A2/vol over the volume
    # interval: the lower end is taken at the volume upper bound and vice
    # versa, both sound because both functions decrease in vol.
    lam_lower = lambda_lower(upper)
    lam_upper = CONSTANTS.lambda_ceiling_coefficient / lower
    if not 0.0 < lam_lower <= lam_upper:
        raise ValueError(f"bad spectral interval [{lam_lower}, {lam_upper}]")
    return {
        "spec": spec._asdict(),
        "k": k,
        "ell": ell,
        "certificate": cert,
        "volume": {"lower": lower, "upper": upper, "strictUpper": True},
        "lambda": {"lower": lam_lower, "upper": lam_upper},
        "methods": [
            f"parent-volume(k={k})",
            f"dehn-filling-decay(ell={_format_float(ell, 6)})",
            f"certificate:{cert['condition']}",
            "heegaard-genus<=3",
            "A1=pi^2/2^50",
            "A2=12650",
            "volume-endpoint-substitution",
        ],
    }


def _format_float(x: float, precision: int) -> str:
    """The one rounding rule of printed reports: ``precision`` significant
    digits, to nearest.  The CSV cells, the CLI's JSON numbers and the
    ``ell=`` of the method trail use it."""
    return f"{x:.{precision}g}"
