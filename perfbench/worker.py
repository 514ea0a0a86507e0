"""One repetition of one benchmark workload, in a fresh interpreter.

``perfbench/run.py`` runs this as ``python3 perfbench/worker.py SPEC_JSON``
from the root of a checkout. It imports ridecrypt from the checkout's
``src`` directory, times the workload's set-up calls and its public entry
point, checks every output record, and prints one JSON object. With
``"traced": true`` it wraps the library's public functions first (see
``tracer.py``) and adds per-span times and work counts.

A fresh interpreter per repetition means the process-wide PRF watchdog,
the road-network caches and the peak RSS belong to this repetition alone.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import resource
import statistics
import sys
import time

#: Weight range of the generated grids, the harness default.
WEIGHTS = (1, 9)

#: Session-mode workloads: keyword arguments of ``ExperimentConfig``.
#: ``sessions_grid`` fixes m = 4 because the diameter of a 10x10 grid
#: straddles 63 across seeds; m sized to it would change the PRF work per
#: session by a third from one seed to the next.
CONFIGS = {
    "sessions_grid": dict(rows=10, cols=10, dim=8, block_bits=2, num_blocks=4, trials=60),
    "city_merge": dict(rows=32, cols=32, dim=8, block_bits=1, trials=30, merge_requests=True),
}

#: ``fleet_synthetic``: arguments of ``run_synthetic_sessions``.
FLEET = dict(block_bits=4, num_blocks=4, dim=8, num_drivers=1000, sessions=1)

#: Sessions one repetition runs, per workload.
SESSIONS = {name: config["trials"] for name, config in CONFIGS.items()}
SESSIONS["fleet_synthetic"] = FLEET["sessions"]

#: Workloads whose sessions ``run_sessions`` can spread over workers; a
#: run of one also checks the report written at two workers.
PARALLEL = ("sessions_grid",)

#: Set-up calls timed per repetition; their median counts. One city set-up
#: takes about a second, a grid one milliseconds, the fleet's key issuance
#: microseconds.
SETUP_REPS = {"sessions_grid": 7, "city_merge": 1, "fleet_synthetic": 51}


def hmac_reference_us(loops: int = 20_000) -> float:
    """Microseconds per stdlib HMAC-SHA256 call on a 13-byte message: a
    yardstick for machine drift, reported but never used to normalise."""
    key, message = bytes(range(32)), bytes(13)
    start = time.perf_counter()
    for _ in range(loops):
        hmac.new(key, message, hashlib.sha256).digest()
    return (time.perf_counter() - start) / loops * 1e6


def setup(workload: str, seed: int) -> None:
    """The public set-up calls for the workload's network and keys, with
    the seeds the harness derives for them."""
    from ridecrypt import crypto, harness, roadnet

    if workload == "fleet_synthetic":
        crypto.issue_system_keys(harness.derive_seed(seed, "keys"))
        return
    config = CONFIGS[workload]
    net = roadnet.generate_grid_network(
        config["rows"],
        config["cols"],
        WEIGHTS,
        seed=harness.derive_seed(seed, "network"),
        landmarks=config["dim"],
    )
    net.embedding_table()
    net.diameter()
    crypto.issue_system_keys(harness.derive_seed(seed, "keys"))


def run_workload(workload: str, seed: int, workers: int) -> list[dict]:
    """Every report record the workload's public entry point returns."""
    from ridecrypt import harness

    if workload == "fleet_synthetic":
        records, aggregate = harness.run_synthetic_sessions(seed=seed, strict=True, **FLEET)
        return records + [aggregate]
    return harness.run_experiment(
        harness.ExperimentConfig(
            mode="end_to_end", weight_range=WEIGHTS, seed=seed, workers=workers, **CONFIGS[workload]
        )
    )


def check_records(workload: str, records: list[dict]) -> tuple[int, list[str]]:
    """Return (failed sessions, problems) for one repetition's records."""
    expected = SESSIONS[workload]
    fleet = workload == "fleet_synthetic"
    sessions = [r for r in records if r["record"] in ("session", "synthetic_session")]
    aggregates = [r for r in records if r["record"] == "aggregate"]
    required = ("intervals_sound", "all_drivers_exact") if fleet else (
        "intervals_sound", "distances_match", "selection_matches"
    )
    failed, problems = 0, []
    for r in sessions:
        bad = [key for key in required if r[key] is not True]
        if r["rider_vector_recovered"] and r["rider_vector_exact"] is not True:
            bad.append("rider_vector_exact")
        if bad:
            failed += 1
            problems.append(f"session {r['index']}: {', '.join(bad)} not true")
    if len(sessions) != expected or sum(a["sessions"] for a in aggregates) != expected:
        problems.append(f"expected {expected} sessions, got {len(sessions)}")
        failed = expected
    if fleet:
        exact = sum(a["sessions_all_exact"] for a in aggregates)
        if exact != expected:
            problems.append(f"sessions_all_exact is {exact} of {expected}")
            failed = max(failed, expected - exact)
    return failed, problems


def prf_floor(records: list[dict]) -> int:
    """PRF evaluations the protocol cannot do without: 4*n*m*2^l per
    request, 2*n*m per driver response and 2*n*m per match."""
    total = 0
    for a in records:
        if a["record"] == "aggregate":
            n, m, base = a["n"], a["m"], 1 << a["l"]
            total += a["sessions"] * (4 * n * m * base + a["num_drivers"] * 4 * n * m)
    return total


def main(spec: dict) -> dict:
    workload, seed, workers = spec["workload"], spec["seed"], spec["workers"]
    src = os.path.join(os.getcwd(), "src")

    sys.path.insert(0, src)
    import ridecrypt

    if not os.path.abspath(ridecrypt.__file__).startswith(src + os.sep):
        raise RuntimeError(f"ridecrypt was imported from {ridecrypt.__file__}, not {src}")
    from ridecrypt import crypto, harness

    out = {"hmac_ref_us": hmac_reference_us()}
    tracer = None
    if spec["traced"]:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    else:
        times = []
        for _ in range(SETUP_REPS[workload]):
            t0 = time.perf_counter()
            setup(workload, seed)
            times.append(time.perf_counter() - t0)
        out["setup_s"] = statistics.median(times)

    watchdog = crypto.watchdog
    evaluations = watchdog.evaluations
    t0 = time.perf_counter()
    records = run_workload(workload, seed, workers)
    wall = time.perf_counter() - t0
    prf_evals = watchdog.evaluations - evaluations

    failed, problems = check_records(workload, records)
    if watchdog.collisions != 0 or not watchdog.enabled:
        problems.append(f"watchdog: {watchdog.collisions} collisions, enabled={watchdog.enabled}")
        failed = SESSIONS[workload]
    aggregate = next(r for r in records if r["record"] == "aggregate")
    out.update(
        wall_s=wall,
        sessions=SESSIONS[workload],
        responses=SESSIONS[workload] * aggregate["num_drivers"],
        failed=failed,
        problems=problems[:5],
        report_sha256=hashlib.sha256(harness.dump_records(records).encode("ascii")).hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        prf_evals=prf_evals,
        prf_floor=prf_floor(records),
        watchdog_tracked=watchdog.tracked,
    )
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
        tracer.save(os.path.join(os.getcwd(), ".perfbench", f"spans_{workload}.npz"))
    return out


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(json.loads(sys.argv[1]))) + "\n")
