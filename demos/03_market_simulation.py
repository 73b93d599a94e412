"""Stress a certified profile with simulated utility-maximizing users.

Users are drawn uniformly inside each satisfaction band and pick the
quality with the largest saving.  For a certified profile every in-band
user picks the intended quality; lowering one price by hand breaks the
incentives of the neighboring bands, which the simulation exposes
immediately.  Out-of-band users can still afford their assigned quality
but get no savings guarantee.
"""

import dataclasses
import pathlib

from contractpricing import build_profile, load_config, simulate_market

# the scenario of demo 02: qualities 1, 2, 3 under a bilinear tariff
scenario = load_config(pathlib.Path(__file__).parent / "scenarios"
                       / "profile_bilinear.json").profile

profile = build_profile(scenario)


def show(report, title):
    print(f"== {title} ==")
    print(f"  {'band':>4} {'intended':>9} {'min saving':>11} "
          f"{'profit':>8} {'target':>7}")
    for band in report.bands:
        print(f"  {band.k:>4} {band.fraction_intended:>9.3f} "
              f"{band.min_saving:>11.4f} {band.provider_profit:>8.4f} "
              f"{band.profit_target:>7.2f}"
              + ("" if band.meets_profit_target else "  <- below target"))
    oob = report.out_of_band
    if oob is not None:
        print(f"  out-of-band: {oob.samples} draws, "
              f"{oob.fraction_affordable:.3f} affordable "
              f"(no savings guarantee, min saving {oob.min_saving:+.4f})")
    print()


show(simulate_market(profile, scenario, samples_per_band=1000, rng_seed=42),
     "certified profile, 1000 users per band, seed 42")

# sabotage: make the middle quality half a unit cheaper
prices = list(profile.prices)
prices[1] -= 0.5
tampered = dataclasses.replace(profile, prices=tuple(prices))
show(simulate_market(tampered, scenario, samples_per_band=1000, rng_seed=42),
     "tampered profile (p_2 lowered by 0.5)")

print("the cheap middle quality now poaches band 1 entirely and part of")
print("band 3: exactly the failure the incentive constraints rule out")
