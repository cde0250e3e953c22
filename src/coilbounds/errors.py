"""Exception hierarchy.

Every domain error raised by this package derives from ``CoilboundsError``,
so callers (and the CLI) can distinguish domain failures from bugs.  The
class *name* is the stable identifier printed on the diagnostic stream.
"""


class CoilboundsError(Exception):
    """Base class for all domain errors."""


# --- slopes ---------------------------------------------------------------

class ZeroOverZero(CoilboundsError):
    """0/0 does not name a slope."""


class NonHyperbolicSlope(CoilboundsError):
    """Slope class 0 or infinity; the associated links are not hyperbolic."""


# --- curves ---------------------------------------------------------------

class TooManyCrossings(CoilboundsError):
    """A diagram, drawing or oracle run would exceed the crossing limit;
    refused before anything is built."""


# --- diagrams -------------------------------------------------------------

class DiagramError(CoilboundsError):
    """Base class for planar-diagram construction and parsing errors."""


class PDSyntaxError(DiagramError):
    """PD-code text does not match the grammar."""


class NonQuadrivalent(DiagramError):
    """A crossing's under diagonal is not 0 or 1 (``DiagramBuilder.crossings``)."""


class EdgePairingError(DiagramError):
    """Edge labels do not pair up, or strand orientations are inconsistent."""


class NonPlanarRotation(DiagramError):
    """The rotation system does not define a (connected) sphere embedding."""


class NotAKnot(DiagramError):
    """Double coil parameters with gcd(p, q) != 1 describe a link, not a knot."""


class NotACrossingCircle(DiagramError):
    """The name is not a role in the diagram's ``circles``; only role names
    ("C1", "C2", "clasp") name a crossing circle to fill."""


class BuilderSpent(DiagramError):
    """A ``DiagramBuilder`` was finished again; ``finish`` released its wiring."""


# --- bounds ---------------------------------------------------------------

class NoHyperbolicityCertificate(CoilboundsError):
    """Neither twist condition holds; the volume estimates are silent."""


class SlopeTooShort(CoilboundsError):
    """Dehn filling estimate needs slope length greater than 2*pi."""


class VolumeBelowFloor(CoilboundsError):
    """Volume at or below pi/2**25, outside the spectral lower bound's range."""


# --- family ---------------------------------------------------------------

class ConfigError(CoilboundsError):
    """Malformed family configuration file."""
