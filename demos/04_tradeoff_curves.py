"""Trade provider profit against customer satisfaction width.

For qualities on a uniform ladder with margins proportional to quality
and a bilinear tariff, the achievable (satisfaction m, profit b) pairs
sit under a straight boundary: more satisfaction width costs profit.
The script prints boundaries for several demand/quality ranges and then
evaluates the profile solver's own achievability predicate on an
empirical (b, m) grid to show the closed form is a conservative envelope.
"""

import numpy as np

from contractpricing import (
    BilinearTariff,
    DomainBox,
    LinearFunction,
    MarginSpec,
    ProfileScenario,
    empirical_region,
    homogeneous_region,
)

N_TYPES, D_P = 3, 3.0

print("== analytic boundaries (three types, d_p = 3) ==")
for quality_range, demand_range, label in [
        (2.0, 2 / 3, "baseline"),
        (2.0, 1.0, "wider demand range"),
        (3.0, 2 / 3, "wider quality range")]:
    curve = homogeneous_region(quality_range, demand_range, N_TYPES, D_P, 5)
    print(f"  {label}: m0 = {curve.m0:.6f}, b0 = {curve.b0:.4f}")
    for m, b in curve.points:
        print(f"    m = {m:.6f}  normalized {curve.normalized_m(m):.3f}  "
              f"b = {b:.4f}")

print("\na wider demand range lifts the profit cap; a wider quality")
print("ladder spends demand budget on separation and lowers it\n")

template = ProfileScenario(
    qualities=(1.0, 2.0, 3.0),
    tariff=BilinearTariff(4.0),
    cost=LinearFunction(1.0),
    box=DomainBox(1 / 3, 1.0, 1.0, 3.0),
    margins=MarginSpec(b=(0.1, 0.2, 0.3), m=(0.01, 0.02, 0.03)),
    grid_n=64,
)
b_grid = np.linspace(0.05, 0.5, 10)
m_grid = np.linspace(0.002, 0.02, 10)
matrix = empirical_region(template, b_grid, m_grid)

print("== empirical achievability grid (rows: b; columns: m) ==")
print("      " + " ".join(f"{m:7.4f}" for m in m_grid))
for b, row in zip(b_grid, matrix):
    print(f"  b={b:4.2f} " + "  ".join(" +" if ok else " ." for ok in row))
print("\nthe pass-set is downward closed: shrinking either target keeps")
print("a scenario achievable")
