"""Exact slope arithmetic and canonical continued fractions.

A slope is a reduced rational p/q in Q union {1/0}; it names an isotopy
class of simple closed curve on the framed 4-punctured sphere.  All
arithmetic here is exact integer arithmetic: the continued-fraction length
k feeds the volume and spectral bounds, and a certificate must not inherit
rounding error from combinatorics.

The canonical continued fraction of a slope 0 < p < q is the unique
positive expansion

    p/q = 1 / (a1 + 1 / (a2 + ... + 1 / ak))

with every a_i >= 1 and a_k >= 2 (positive expansions come in pairs
[..., a] and [..., a-1, 1]; requiring a_k >= 2 picks one of them).

``CoilSpec`` adds the two twist counts to a slope: the parameters of a
double coil knot.  It lives here, beside ``Slope``, so that the bounds and
families read it without loading the diagram layer.

The two caps on outside input live here too, where every layer can read
them without loading another: ``MAX_DIGITS`` for integers and
``MAX_CROSSINGS`` (with ``check_crossing_count``) for anything that would
build, draw or read crossings, PD text included.

The value types are named tuples, validated when built: a slope unpacks as
``p, q = s`` and passes wherever a (p, q) pair is read, ``spec._asdict()``
is the ``{p, q, n1, n2}`` record that reports and family rows print, and a
continued fraction's length k is ``c.length``, not ``len(c)`` (a one-field
tuple).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import NonHyperbolicSlope, NotAKnot, TooManyCrossings, ZeroOverZero

__all__ = [
    "Slope",
    "CoilSpec",
    "ContinuedFraction",
    "reduce_slope",
    "canonical_coil_slope",
    "cfrac_expand",
    "cfrac_eval",
    "mirror_slope",
    "MAX_CROSSINGS",
    "check_crossing_count",
]

INFINITY_NUMERATOR = 1

# Integers read from outside (slopes, continued-fraction terms, family
# crossing counts) are capped so that no product of two of them reaches
# Python's 4300-digit int-to-str limit.
MAX_DIGITS = 2000

# No diagram, curve picture or oracle run is started on more crossings than
# this.  The largest diagrams in everyday use have about 2*10^4; the limit
# stops inputs such as a 10^8-crossing coil before memory is spent on them.
MAX_CROSSINGS = 10**6


def check_crossing_count(count: int, what: str) -> None:
    """Raise ``TooManyCrossings`` if ``what`` would have more than
    ``MAX_CROSSINGS`` crossings."""
    if count > MAX_CROSSINGS:
        raise TooManyCrossings(f"{what} would have more than {MAX_CROSSINGS} crossings")


class Slope(namedtuple("Slope", "p q")):
    """A reduced rational p/q with q >= 0; q == 0 encodes the slope 1/0."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if (p, q) == (0, 0):
            raise ZeroOverZero("0/0 is not a slope")
        if q < 0:
            raise ValueError("denominator must be normalized non-negative")
        if q == 0 and p != INFINITY_NUMERATOR:
            raise ValueError("the infinite slope must be written 1/0")
        if gcd(abs(p), q) != 1:
            raise ValueError(f"{p}/{q} is not reduced")
        return super().__new__(cls, p, q)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse 'p/q' (also accepts a bare integer and 'inf')."""
        text = text.strip()
        if text in ("inf", "infinity", "1/0"):
            return cls(1, 0)
        if "/" in text:
            num, _, den = text.partition("/")
            return reduce_slope(int(num), int(den))
        return reduce_slope(int(text), 1)


class CoilSpec(namedtuple("CoilSpec", "p q n1 n2")):
    """Parameters (p, q, n1, n2) of a double coil knot diagram."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, n1: int, n2: int):
        if q < 2 or not 0 < p < q:
            raise ValueError(f"need 0 < p < q with q >= 2, got p={p} q={q}")
        if gcd(p, q) != 1:
            raise NotAKnot(f"gcd({p},{q}) != 1: two coils on shared strands form a link")
        if n1 == 0 or n2 == 0:
            raise ValueError("full-twist counts n1, n2 must be non-zero")
        return super().__new__(cls, p, q, n1, n2)

    @property
    def slope(self) -> Slope:
        return Slope(self.p, self.q)

    @property
    def crossing_count(self) -> int:
        return self.q * (self.q - 1) * (abs(self.n1) + abs(self.n2))

    @property
    def twist_region_count(self) -> int:
        """Twist regions t(D) of ``gen_double_coil(self)``, in closed form:
        q(q-1)(|n1|+|n2|) - 2*[p = 2] for q >= 3, and 2 for q = 2.

        For q = 2 each region is the bigon chain sigma_1^(2n).  For q >= 3 no
        generator of (sigma_1 ... sigma_{q-1})^m repeats without a
        neighbouring generator in between, so no bigon lies inside a region.
        Each region's braid has exactly two crossings carrying two adjacent
        ports: the first sigma_1 (west, positions 0 and 1) and the last
        sigma_{q-1} (east, positions q-2 and q-1).  A bigon must therefore
        join two such crossings through two parallel band edges, and the
        band wiring of ``circle_passages`` does that exactly when p = 2:
        west to west and east to east across the two regions, merging two
        pairs of crossings.  Diagram generation stays the oracle: the law
        is checked against ``PlanarDiagram.n_twist_regions`` of generated
        coils in the tests and in verify (criterion-09).
        """
        if self.q == 2:
            return 2
        return self.crossing_count - 2 * (self.p == 2)


class ContinuedFraction(namedtuple("ContinuedFraction", "terms")):
    """Canonical positive expansion; ``len(terms)`` is the length k."""

    __slots__ = ()

    def __new__(cls, terms: tuple[int, ...]):
        if not terms:
            raise ValueError("continued fraction needs at least one term")
        if min(terms) < 1:
            raise ValueError("terms must be positive")
        if len(terms) > 1 and terms[-1] < 2:
            raise ValueError("canonical form requires final term >= 2")
        return super().__new__(cls, terms)

    @property
    def length(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return "[" + ",".join(str(a) for a in self.terms) + "]"

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        body = text.strip().removeprefix("[").removesuffix("]")
        return cls(tuple(int(a) for a in body.split(",")))


def reduce_slope(numerator: int, denominator: int) -> Slope:
    """Reduce and sign-normalize a rational so the denominator is >= 0."""
    if numerator == 0 and denominator == 0:
        raise ZeroOverZero("0/0 is not a slope")
    if denominator == 0:
        return Slope(INFINITY_NUMERATOR, 0)
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    g = gcd(abs(numerator), denominator)
    return Slope(numerator // g, denominator // g)


def canonical_coil_slope(s: Slope) -> Slope:
    """The representative of s mod 1 with 0 < p < q.

    Adding an integer to a slope moves the curve by full Dehn twists about
    the slope-1/0 curve, which is an isotopy of the associated link that
    preserves the projection plane; so every slope class not equal to 0 or
    infinity has a unique representative with 0 < p < q.  The classes 0 and
    infinity do not give hyperbolic links and are rejected.
    """
    if s.is_infinite or s.q == 1:
        raise NonHyperbolicSlope(f"slope {s} is in the class of 0 or infinity")
    return Slope(s.p % s.q, s.q)


def cfrac_expand(s: Slope) -> ContinuedFraction:
    """Canonical expansion of a slope with 0 < p < q.

    Runs the Euclidean algorithm on q/p; the floor-quotient sequence always
    ends with a term >= 2, which is exactly the canonical form.
    """
    if s.is_infinite or not 0 < s.p < s.q:
        raise ValueError(f"cfrac_expand needs 0 < p < q, got {s}")
    terms = []
    num, den = s.q, s.p
    while den:
        a, r = divmod(num, den)
        terms.append(a)
        num, den = den, r
    return ContinuedFraction(tuple(terms))


def _cfrac_length(s: Slope) -> int:
    """``cfrac_expand(s).length`` for 0 < p < q, which its callers guarantee:
    the same Euclidean walk, counted without keeping its terms."""
    k = 0
    num, den = s.q, s.p
    while den:
        num, den = den, num % den
        k += 1
    return k


def cfrac_eval(c: ContinuedFraction) -> Slope:
    """Exact value of 1/(a1 + 1/(a2 + ... + 1/ak)), a slope in (0, 1)."""
    num, den = c.terms[-1], 1
    for a in reversed(c.terms[:-1]):
        num, den = a * num + den, num
    return Slope(den, num)


def mirror_slope(s: Slope) -> Slope:
    """(q-p)/q, the canonical representative of -p/q.

    Viewing the projection plane from the other side carries the curve of
    slope p/q to the curve of slope -p/q, whose canonical class is 1 - p/q.
    """
    if s.is_infinite or not 0 < s.p < s.q:
        raise ValueError(f"mirror_slope needs 0 < p < q, got {s}")
    return Slope(s.q - s.p, s.q)
