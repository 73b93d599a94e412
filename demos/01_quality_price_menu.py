"""Design a quality-price menu for three user types.

A provider faces three buyer types whose willingness to pay grows
logarithmically with service quality and proportionally with the type
number.  Cost is linear in quality and the provider wants a flat 10%
profit on top.  The solver picks, for every type, the quality that
maximizes the type's net saving over the set of qualities it can afford
at cost-plus-profit, then prices it at exactly cost-plus-profit.
"""

from contractpricing import (
    LinearFunction,
    LogFunction,
    MenuScenario,
    ScaledFunction,
    check_menu_regularity,
    feasible_interval,
    solve_menu,
    verify_menu,
)

D_B, D_C = 2.2, 1.0

cost = LinearFunction(D_C)
profit = ScaledFunction(cost, 0.1)          # 10% of cost
budgets = tuple(ScaledFunction(LogFunction(D_B), float(i)) for i in (1, 2, 3))
scenario = MenuScenario(budgets, cost, profit)

print("== regularity conditions ==")
report = check_menu_regularity(scenario)
for check in report.checks:
    print(f"  {check.cid:<35} {'ok' if check.passed else 'FAIL':<5} "
          f"margin {check.margin:+.3e}")

print("\n== feasible quality intervals ==")
for i in (1, 2, 3):
    lo, hi = feasible_interval(i, scenario)
    print(f"  type {i}: qualities in [{lo:g}, {hi:.6f}] earn a nonnegative saving")

menu = solve_menu(scenario)
print("\n== certified menu ==")
print(f"  {'type':>4} {'quality':>10} {'price':>10} {'net saving':>12}")
for k, (s, p, net) in enumerate(zip(menu.qualities, menu.prices,
                                    menu.net_values), start=1):
    print(f"  {k:>4} {s:>10.6f} {p:>10.6f} {net:>12.6f}")

# with these parameters the optimal quality is linear in the type number:
# s_i = (10 D_B / (11 D_C)) i - 1, so (1, 3, 5) at D_B = 2.2, D_C = 1
print("\n  closed form s_i = (10*D_B/(11*D_C))*i - 1:",
      [10 * D_B / (11 * D_C) * i - 1 for i in (1, 2, 3)])

certificate = verify_menu(menu, scenario)
print(f"\nindependent verification: passed={certificate.passed}, "
      f"worst margin {certificate.worst_margin:+.2e}")
