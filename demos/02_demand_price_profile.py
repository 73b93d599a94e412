"""Price a fixed quality ladder against a continuum of user demands.

The provider already offers qualities 1, 2, 3 and wants every user whose
demand sits within a small band around a nominal value to (a) save most
at the intended quality and (b) generate a per-quality profit floor.
The construction walks up the ladder: each nominal demand advances by a
step large enough that a price window opens between the profit
constraint and the incentive constraint.
"""

from contractpricing import (
    BilinearTariff,
    DomainBox,
    LinearFunction,
    MarginSpec,
    ProfileScenario,
    build_profile,
    check_achievability,
    step_sizes,
    verify_profile,
)

scenario = ProfileScenario(
    qualities=(1.0, 2.0, 3.0),
    tariff=BilinearTariff(4.0),             # willingness to pay 4 * theta * s
    cost=LinearFunction(1.0),
    box=DomainBox(theta_low=1 / 3, theta_up=1.0, s_low=1.0, s_up=3.0),
    margins=MarginSpec(b=(0.1, 0.2, 0.3),   # per-quality profit floors
                       m=(0.01, 0.02, 0.03)),  # demand half-widths
    price_lambda=0.5,                       # midpoint of each price window
)

print("== achievability ==")
for check in check_achievability(scenario).checks:
    print(f"  {check.cid:<16} {'ok' if check.passed else 'FAIL':<5} "
          f"margin {check.margin:+.6f}")

print("\n== demand increments ==")
for j, delta in enumerate(step_sizes(scenario), start=1):
    print(f"  Delta_{j} = {delta:.6f}")

profile = build_profile(scenario)
print("\n== certified profile ==")
print(f"  {'k':>2} {'theta_k':>10} {'price':>10} {'window':>24}")
for k, (theta, p, (a, b)) in enumerate(zip(profile.demands, profile.prices,
                                           profile.windows), start=1):
    print(f"  {k:>2} {theta:>10.6f} {p:>10.6f}   [{a:.6f}, {b:.6f}]")
print("\n  (for a bilinear tariff every window collapses to a point:")
print("   the incentive bound is exactly as tight as the profit bound)")

certificate = verify_profile(profile, scenario)
print(f"\nindependent verification: passed={certificate.passed}, "
      f"worst margin {certificate.worst_margin:+.2e}")
