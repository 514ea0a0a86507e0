"""Recover everyone's location from the matching party's own transcript.

The matching step necessarily hands the service provider one signed block
difference per (coordinate, block) position per responding driver. This
demo replays a busy session and shows how those differences confine each
rider block to an ever-narrower interval until the whole vector is pinned,
after which every driver's vector (and everyone's map node) falls out.

Run:  python3 demos/02_location_recovery.py
"""

from random import Random

from ridecrypt import (
    BlockParams,
    DifferenceLedger,
    RideContext,
    ServiceProvider,
    driver_encrypt,
    embedding_index,
    generate_grid_network,
    issue_system_keys,
    rider_encrypt,
    run_attack,
)
from ridecrypt.harness import blocks_needed

SEED = 42
NUM_DRIVERS = 24

net = generate_grid_network(6, 6, weight_range=(1, 9), seed=SEED, landmarks=8)
table = net.embedding_table()
# Width-1 blocks: any driver whose bit differs from the rider's pins that
# position immediately, so recovery converges fast on embedded locations.
params = BlockParams(1, blocks_needed(net.diameter(), 1))
ctx = RideContext(zone_id=3, time_slot=0, params=params, dim=net.dim)
keys = issue_system_keys(SEED)

rng = Random(SEED)
rider_node = rng.randrange(net.num_nodes)
driver_nodes = [rng.randrange(net.num_nodes) for _ in range(NUM_DRIVERS)]

request = rider_encrypt(table[rider_node], keys, ctx, rng)
sp = ServiceProvider(ctx)
matched = []
for k, node in enumerate(driver_nodes):
    response = driver_encrypt(k, table[node], keys, ctx)
    matched.append((k, sp.match_response(request, response)))

print(f"{NUM_DRIVERS} drivers responded; the matching party now holds "
      f"{NUM_DRIVERS * len(ctx.labels)} signed block differences.\n")

# One ledger, built with its uniqueness rule (here the default: the
# interval closed to a point), files each response as it arrives. Watch
# one position's candidate interval shrink.
probe = (0, 0)
print(f"candidate interval for position {probe} after each response:")
ledger = DifferenceLedger(params, net.dim)
for upto, (k, matches) in enumerate(matched, start=1):
    ledger.record_matches(k, matches)
    lo, hi = ledger.interval(*probe)
    print(f"  {upto:>2} responses: [{lo}, {hi}]"
          + ("  <- unique" if lo == hi else ""))
    if lo == hi:
        break

report = run_attack(params, net.dim, matched, index=embedding_index(table))
pinned = [at for at in report.unique_at.values() if at is not None]
print(f"\nblocks pinned: {len(pinned)}/{len(report.unique_at)}")
slowest = max(pinned, default=None)
if slowest is not None and report.rider_vector is not None:
    print(f"every position was unique after {slowest} responses")

if report.rider_vector is None:
    print("not every block is unique yet; add more responders and retry")
else:
    ok = report.rider_vector == table[rider_node]
    print(f"rider vector recovered: {report.rider_vector} "
          f"({'exact' if ok else 'WRONG'})")
    print(f"rider node: {report.rider_node} (truth {rider_node}, "
          f"ambiguity {report.rider_ambiguity})")
    exact = sum(
        1 for k, vec in report.driver_vectors.items() if vec == table[driver_nodes[k]]
    )
    print(f"driver vectors recovered exactly: {exact}/{NUM_DRIVERS}")
    nodes_ok = sum(
        1 for k, (node, _) in report.driver_nodes.items() if node == driver_nodes[k]
    )
    print(f"driver nodes identified: {nodes_ok}/{NUM_DRIVERS}")
