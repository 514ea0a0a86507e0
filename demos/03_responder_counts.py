"""How many responders does the recovery need?

A rider block is pinned with certainty once differences to all 2^l block
values have been observed. With uniformly distributed driver blocks that
is the coupon-collector process, whose expectation 2^l * H(2^l) is checked
here by Monte Carlo, followed by an empirical sweep of the full-recovery
rate as the responder count grows.

Run:  python3 demos/03_responder_counts.py
"""

import math

from ridecrypt import expected_coverage_draws, run_synthetic_sessions, run_table1

print("expected responders until a block is pinned (strict criterion)")
print("  l   2^l   simulated     analytic   ceiling")
for bits in (1, 2, 3, 4):
    row = run_table1(bits, trials=100_000, seed=1)
    print(
        f"  {bits}   {1 << bits:>3}   {row.mean:>9.4f}   {row.analytic:>10.4f}"
        f"   {row.analytic_ceiling:>7}"
    )

print("\nfull-recovery rate vs responder count (l=2, 4 coordinates x 2 blocks,")
print("uniform blocks, strict criterion, 150 sessions per point)")
expectation = expected_coverage_draws(2)
print(f"analytic per-block expectation: {float(expectation):.3f} responders\n")
print("  drivers   fully recovered    note")
all_exact = True
for factor in (0.5, 1.0, 2.0, 3.0, 4.0):
    drivers = max(1, math.ceil(factor * expectation))
    _, aggregate = run_synthetic_sessions(
        block_bits=2,
        num_blocks=2,
        dim=4,
        num_drivers=drivers,
        sessions=150,
        seed=5,
        strict=True,
    )
    recovered = aggregate["sessions_fully_recovered"]
    rate = recovered / aggregate["sessions"]
    note = f"{factor:g}x expectation"
    # A fully recovered session must reproduce the rider and every driver.
    if aggregate["sessions_all_exact"] != recovered:
        all_exact = False
        note += f"; WRONG: {aggregate['sessions_all_exact']} exact of {recovered}"
    print(f"  {drivers:>7}   {rate:>14.1%}    {note}")

if all_exact:
    print("\nevery fully recovered session reproduced all vectors bit-exactly.")
else:
    print("\nWRONG: a fully recovered session did not reproduce all vectors.")
