"""Walk through one honest matching round, end to end.

A rider and a handful of drivers embed their road-network positions into
integer vectors, encrypt them block by block, and the matching party pairs
the ciphertexts to compute every rider-driver distance without seeing a
single coordinate. The punchline: the encrypted pipeline reproduces the
plaintext distances exactly, so the closest driver wins either way.

Run:  python3 demos/01_encrypted_matching.py
"""

from random import Random

from ridecrypt import (
    BlockParams,
    RideContext,
    ServiceProvider,
    driver_encrypt,
    generate_grid_network,
    issue_system_keys,
    rider_encrypt,
    rne_distance,
    sp_compute_distance,
)
from ridecrypt.harness import blocks_needed

SEED = 7

# A 5x5 grid city with random street lengths and 8 landmark nodes.
net = generate_grid_network(5, 5, weight_range=(1, 9), seed=SEED, landmarks=8)
table = net.embedding_table()
print(f"network: {net.num_nodes} nodes, {len(net.edges)} streets, "
      f"diameter {net.diameter()}m, embedding dimension {net.dim}")

# Block parameters sized so every coordinate fits.
params = BlockParams(block_bits=2, num_blocks=blocks_needed(net.diameter(), 2))
ctx = RideContext(zone_id=12, time_slot=1, params=params, dim=net.dim)
print(f"blocks: {params.num_blocks} x {params.block_bits} bits per coordinate\n")

# The trusted dealer hands the shared keys to riders and drivers only.
keys = issue_system_keys(SEED)

rider_node = 12
print(f"rider at node {rider_node}, embedding {table[rider_node]}")
request = rider_encrypt(table[rider_node], keys, ctx, Random(SEED))
entries = sum(len(g.entries) for g in request.groups)
print(f"request: {len(request.groups)} block groups, {entries} ciphertexts\n")

driver_nodes = {0: 3, 1: 18, 2: 24, 3: 12}
responses = {
    k: driver_encrypt(k, table[node], keys, ctx)
    for k, node in driver_nodes.items()
}

# The matching party holds no keys, only the session context.
sp = ServiceProvider(ctx)
print("driver  node  encrypted-distance  plaintext-distance")
for k, node in driver_nodes.items():
    encrypted = sp_compute_distance(sp.match_response(request, responses[k]), ctx)
    plaintext = rne_distance(table[rider_node], table[node])
    marker = "" if encrypted == plaintext else "  <-- MISMATCH"
    print(f"{k:>6}  {node:>4}  {encrypted:>18}  {plaintext:>18}{marker}")

winner = sp.select_driver(request, list(responses.values()))
print(f"\nselected driver: {winner} (at node {driver_nodes[winner]}, "
      f"the rider's own position)")
