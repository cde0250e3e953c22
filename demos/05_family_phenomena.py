#!/usr/bin/env python3
"""Why no twist statistic controls the geometry, in two sweeps.

Sweep A fixes the slope 2/5 (k = 2) and n2 = 6, letting n1 grow: diagrams
gain 20 crossings per step and the twist number grows with them, yet the
volume stays below the constant 8*v8 and lambda_1 stays pinned away from
zero.  An expanding family with unbounded twisting.

Sweep B walks the Fibonacci slopes with n1 = n2 = 4: every member keeps
generalized twist number 2, yet k grows, the volume lower bound grows
linearly, and lambda_1's ceiling 12650/vol collapses to zero.  Not an
expanding family, at constant generalized twisting.
"""

from coilbounds import (
    analyze_family,
    disk_obstruction_check,
    fixed_slope_vary_twists,
    vary_slope_fixed_twists,
)
from coilbounds.family import fibonacci_slopes

print("Sweep A: (2,5) coils, n2 = 6, n1 = 4..40")
report = analyze_family(fixed_slope_vary_twists(2, 5, 6, range(4, 41)))
print(f"  verdict: {report['verdict']}")
print(f"  volume upper, every row: {report['rows'][0]['vol_upper']:.5f}")
print(f"  lambda_1 lower, every row: {report['rows'][0]['lambda_lower']:.4g}")
print("  n1  crossings  t(D)   gen-t")
for row in report['rows'][:6]:
    print(
        f"  {row['n1']:>3} {row['crossings']:>8} {row['twist_regions']:>6}"
        f" {row['generalized_twist_regions']:>6}"
    )
print("  ...")
print()

print("The experiment table records the disk obstruction that keeps the")
print("construction honest (1/6 filling has slope length sqrt(144.25) > 12):")
obstruction = disk_obstruction_check(6)
for row in report['rows'][:4]:
    print(
        f"  n1={row['n1']}: {row['crossings']} crossings, t(D)={row['twist_regions']},"
        f" vol < {row['vol_upper']:.4f}, obstruction={obstruction}"
    )
print()

print("Sweep B: Fibonacci slopes, n1 = n2 = 4, k = 1..14")
report = analyze_family(vary_slope_fixed_twists(fibonacci_slopes(14), 4))
print(f"  verdict: {report['verdict']}")
print("  slope        k  vol in [lo, hi)            lambda_1 <=")
for row in report['rows']:
    s = f"{row['p']}/{row['q']}"
    print(
        f"  {s:>10} {row['k']:>3}  [{row['vol_lower']:8.4f}, {row['vol_upper']:9.4f})"
        f"  {row['lambda_upper']:10.2f}"
    )
print()
print("Same generalized twist number 2 everywhere; volumes unbounded, so")
print("the spectral gap dies. Together the sweeps show neither the twist")
print("number nor the generalized twist number can give two-sided control.")
