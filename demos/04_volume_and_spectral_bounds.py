#!/usr/bin/env python3
"""The certified estimates, end to end for one knot.

For a (p, q) double coil with n1, n2 full twists and k the length of the
continued fraction of p/q:

  parent:      4 k v3 - 1.3536  <=  vol(parent)  <=  4 k v8
  certificate: |n_i| >= 4 for both i, or k |n_i| >= 80 for both i
  coil:        (1 - 4 pi^2 / ell)^(3/2) (4 k v3 - 1.3536) <= vol < 4 v8 k
  lambda_1:    A1 / vol^2 <= lambda_1 <= A2 / vol,
               A1 = pi^2 / 2^50, A2 = 12650 (Heegaard genus <= 3).

When both |n_i| >= 4, ell >= 64.25 and the lower bound collapses to the
linear law 0.9718 k - 0.3241.
"""

import json
import math

from coilbounds import (
    CONSTANTS,
    CoilSpec,
    Slope,
    bound_report,
    cfrac_expand,
    coil_hyperbolicity_certificate,
    dehn_filling_factor,
    disk_obstruction_check,
    ell_param,
    parent_volume_interval,
    slope_length_lower,
)
from coilbounds.errors import NoHyperbolicityCertificate

spec = CoilSpec(3, 5, 4, 4)
k = cfrac_expand(spec.slope).length
print(f"Knot: ({spec.p},{spec.q}) double coil, n1={spec.n1}, n2={spec.n2}, k={k}")
print()

parent = parent_volume_interval(spec.slope)
print(f"Parent link volume in [{parent.lower:.5f}, {parent.upper:.5f}]")

cert = coil_hyperbolicity_certificate(k, spec.n1, spec.n2)
print(f"Certificate: {cert['condition']}")
print(f"  slope length >= {slope_length_lower(spec.n1):.5f} (needs > 2*pi = {2*math.pi:.5f})")

ell = ell_param(k, spec.n1, spec.n2)
print(f"ell = {ell}; filling keeps a fraction {dehn_filling_factor(ell):.5f} of the volume")

report = bound_report(spec)
vol = report["volume"]
print(f"Coil volume in [{vol['lower']:.5f}, {vol['upper']:.5f})")
print(f"  linear law 0.9718*k - 0.3241 = {0.9718*k - 0.3241:.5f}")

lam = report["lambda"]
print(f"lambda_1 in [{lam['lower']:.4g}, {lam['upper']:.4g}]")
print()

print("The same data as the machine-readable report:")
print(json.dumps(report, indent=2)[:320], "...")
print()

print("Conditional means conditional: (1,2,1,1) is the figure-8 knot,")
print("certainly hyperbolic, but no certificate applies and no interval")
print("is emitted:")
try:
    bound_report(CoilSpec(1, 2, 1, 1))
except NoHyperbolicityCertificate as e:
    print(f"  NoHyperbolicityCertificate: {e}")
print()

print("Dehn filling decay factor as the slope length grows:")
for length in (6.5, 8.0, 12.0, 100.0):
    print(f"  length {length:>6}: factor {dehn_filling_factor(length**2):.6f}")  # ell = length^2
print()

print("The 1/6 filling is the smallest defeating the punctured-disk case:")
for n in range(4, 8):
    mark = "defeats it" if disk_obstruction_check(n) else "too short"
    print(f"  n2 = {n}: sqrt(1/4 + 4n^2) = {slope_length_lower(n):.4f} vs 12 -> {mark}")
print()

v = CONSTANTS.figure8_volume
print("Spectral ceiling calibration at the smallest knot volume 2*v3:")
print(f"  explicit upper bound {64*math.pi/v + 2560*math.pi**2/v**2:.6f}")
print(f"  packaged as 12650/vol = {12650/v:.6f}")
