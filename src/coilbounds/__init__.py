"""coilbounds: double coil knot diagrams and certified volume / lambda_1 bounds.

The package models the diagram families surrounding double coil knots
(knots whose crossings fit into two generalized twist regions on q
strands): standard alternating 2-bridge diagrams, clasped 2-bridge links,
the 3-component augmented parent links, and the coils themselves obtained
by filling the crossing circles.  On top of the combinatorics it evaluates
the explicit two-sided volume estimates and the lambda_1 sandwich that the
continued-fraction length k of the slope p/q controls.

``import coilbounds`` loads no submodule: ``coilbounds.X`` imports the
module that defines ``X`` on first use (PEP 562), so a caller pays only for
the layers it touches.
"""

import importlib

__version__ = "0.1.0"

# Each module and the names the package exports from it.
_EXPORTS = {
    "errors": (
        "CoilboundsError",
        "ZeroOverZero",
        "NonHyperbolicSlope",
        "OracleCapExceeded",
        "TooManyCrossings",
        "DiagramError",
        "PDSyntaxError",
        "NonQuadrivalent",
        "EdgePairingError",
        "NonPlanarRotation",
        "NotAKnot",
        "NotACrossingCircle",
        "NoHyperbolicityCertificate",
        "SlopeTooShort",
        "VolumeBelowFloor",
        "ConfigError",
    ),
    "slopes": (
        "Slope",
        "CoilSpec",
        "ContinuedFraction",
        "reduce_slope",
        "canonical_coil_slope",
        "cfrac_expand",
        "cfrac_eval",
        "mirror_slope",
    ),
    "curves": (
        "LatticeTrace",
        "curve_coordinates",
        "curve_curve_intersection",
        "arc_curve_intersection",
        "brute_force_intersection",
        "lattice_trace",
        "dehn_twist",
    ),
    "diagrams": ("PlanarDiagram", "parse_pd", "emit_pd"),
    "generators": (
        "gen_two_bridge",
        "gen_clasped_two_bridge",
        "gen_double_coil",
        "gen_augmented",
        "fill_crossing_circle",
    ),
    "svg": ("render_svg", "curve_svg"),
    "bounds": (
        "CONSTANTS",
        "Constants",
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
    ),
    "family": (
        "CoilFamily",
        "fixed_slope_vary_twists",
        "vary_slope_fixed_twists",
        "analyze_family",
        "load_family_config",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, imported on first use
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
