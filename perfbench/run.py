"""ridecrypt benchmark: one command per workload, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sessions_grid --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``perfbench/worker.py``), one
at a time, until ``--seconds`` is used up. Throughput and set-up time are
those of the slowest repetition; every other metric is the median over
the repetitions. ``--trace 0`` runs the workload at one worker and reports the
end-to-end metrics; on a workload that can use workers, one untimed
repetition at two workers must write the same report first. ``--trace 1``
alternates untraced and traced repetitions at one worker and reports the
per-layer metrics. Every repetition's records are checked, and all
repetitions of a run must write byte-identical reports. The last line
printed is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the same numbers for people.
Sessions are the operations that ``attempted`` and ``failed`` count.

The workloads, why each exists and which metric each layer should move
are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

from worker import PARALLEL, SESSIONS  # imports no ridecrypt

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = tuple(SESSIONS)

#: Repetitions of each kind a run makes even when they overrun --seconds.
MIN_REPS = 2

#: A repetition that takes longer than this has hung.
REP_TIMEOUT_S = 120

#: No repetition starts after this much of a run, so runs end within 180 s.
HARD_STOP_S = 150

#: Metrics reported from the slowest repetition instead of the median, and
#: how to pick it. On a shared host whose speed swings by up to 2x within
#: seconds, the median of 1-2 s repetitions depends on how much of a run
#: fell in fast phases; the slowest repetition varied about half as much
#: across runs.
SLOWEST = {"sessions_per_s": min, "responses_per_s": min, "setup_s": max}


def run_rep(spec: dict) -> tuple[dict | None, str]:
    """Run one repetition; return (its result, or None, and an error)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        return None, f"repetition {spec} timed out after {REP_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"repetition {spec} exited {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), ""


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(reps: list[dict]) -> dict[str, tuple[list, str]]:
    """End-to-end samples, one per repetition, with their unit."""
    return {
        "sessions_per_s": ([r["sessions"] / r["wall_s"] for r in reps], "1/s"),
        "responses_per_s": ([r["responses"] / r["wall_s"] for r in reps], "1/s"),
        "setup_s": ([r["setup_s"] for r in reps], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in reps], "MB"),
    }


def layer_metrics(r: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition."""
    spans, counters = r["spans"], r["counters"]

    def total(*names):
        return sum(spans[n]["s"] for n in names)

    def calls(*names):
        return sum(spans[n]["calls"] for n in names)

    def layer(prefix):
        return [n for n in spans if n.startswith(prefix + ".")]

    def self_s(prefix):
        return sum(spans[n]["self_s"] for n in layer(prefix))

    prf = ("crypto.prf_h", "crypto.prf_f")
    return {
        "roadnet.diameter_s": (total("roadnet.diameter"), "s"),
        "roadnet.embedding_s": (total("roadnet.embedding_table"), "s"),
        "roadnet.dijkstra_calls": (calls("roadnet.distances_from"), "count"),
        "roadnet.self_s": (self_s("roadnet"), "s"),
        "crypto.prf_evals": (r["prf_evals"], "count"),
        "crypto.prf_evals.rider": (counters.get("crypto.prf_evals.rider", 0), "count"),
        "crypto.prf_evals.driver": (counters.get("crypto.prf_evals.driver", 0), "count"),
        "crypto.prf_evals.sp": (counters.get("crypto.prf_evals.sp", 0), "count"),
        "crypto.prf_floor_ratio": (r["prf_evals"] / r["prf_floor"], "ratio"),
        "crypto.prf_s": (total(*prf), "s"),
        "crypto.prf_us": (total(*prf) / max(calls(*prf), 1) * 1e6, "us"),
        "crypto.watchdog_s": (total("crypto.observe"), "s"),
        "crypto.watchdog_tracked": (r["watchdog_tracked"], "count"),
        "crypto.self_s": (self_s("crypto"), "s"),
        "codec.calls": (calls(*layer("codec")), "count"),
        "codec.s": (total(*layer("codec")), "s"),
        "protocol.rider_encrypt_s": (total("protocol.rider_encrypt"), "s"),
        "protocol.driver_encrypt_s": (total("protocol.driver_encrypt"), "s"),
        "protocol.match_s": (total("protocol.match_response"), "s"),
        "protocol.distance_s": (total("protocol.sp_compute_distance"), "s"),
        "protocol.self_s": (self_s("protocol"), "s"),
        "protocol.request_bytes": (
            counters.get("protocol.request_bytes", 0) / max(counters.get("protocol.requests", 0), 1),
            "bytes",
        ),
        "protocol.response_bytes": (
            counters.get("protocol.response_bytes", 0) / max(counters.get("protocol.responses", 0), 1),
            "bytes",
        ),
        "attack.run_s": (total("attack.run_attack"), "s"),
        "attack.record_s": (total("attack.record_matches"), "s"),
        "attack.ledger_entries": (counters.get("attack.ledger_entries", 0), "count"),
        "attack.unique_checks": (calls("attack.is_unique"), "count"),
        "attack.recover_drivers_s": (total("attack.recover_driver_vectors"), "s"),
        "attack.deanonymize_s": (total("attack.deanonymize"), "s"),
        "attack.deanonymize_calls": (calls("attack.deanonymize"), "count"),
        "attack.self_s": (self_s("attack"), "s"),
        "harness.self_s": (self_s("harness"), "s"),
        "harness.derive_seed_calls": (calls("harness.derive_seed"), "count"),
    }


def per_layer(reps: dict[str, list[dict]]) -> dict[str, tuple[list, str]]:
    """Per-layer samples, one per traced repetition, with their unit."""
    traced, plain = reps["traced"], reps["plain"]
    each = [layer_metrics(r) for r in traced]
    metrics = {name: ([m[name][0] for m in each], unit) for name, (_, unit) in each[0].items()}
    untraced_wall = median(r["wall_s"] for r in plain)
    metrics["trace.overhead_frac"] = ([r["wall_s"] / untraced_wall - 1 for r in traced], "ratio")
    metrics["env.hmac_ref_us"] = ([r["hmac_ref_us"] for r in traced + plain], "us")
    return metrics


def self_time_shares(reps: list[dict]) -> str:
    """Share of traced wall time per layer and the largest single span,
    from the median traced repetition."""
    r = sorted(reps, key=lambda r: r["wall_s"])[len(reps) // 2]
    by_layer: dict[str, float] = {}
    for name, span in r["spans"].items():
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + span["self_s"]
    shares = ", ".join(
        f"{layer} {s / r['wall_s']:.0%}" for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1])
    )
    top, span = max(r["spans"].items(), key=lambda kv: kv[1]["self_s"])
    return f"self time by layer: {shares}; largest span: {top} {span['self_s'] / r['wall_s']:.0%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ridecrypt", "__init__.py")):
        print("perfbench: run from the root of a ridecrypt checkout (no src/ridecrypt here)",
              file=sys.stderr)
        return 2

    # Compile bytecode and warm the file cache, so no timed import pays for it.
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import ridecrypt"],
        capture_output=True, text=True, timeout=REP_TIMEOUT_S, check=False,
    )
    if warm.returncode != 0:
        print(f"perfbench: cannot import ridecrypt: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    if args.trace:
        kinds = {"plain": (1, False), "traced": (1, True)}
    else:
        kinds = {"untraced": (1, False)}
    reps: dict[str, list[dict]] = {kind: [] for kind in kinds}
    last: dict[str, float] = {kind: 0.0 for kind in kinds}
    attempted = failed = 0
    problems: list[str] = []
    shas: set[str] = set()

    def run_one(workers: int, traced: bool) -> dict | None:
        nonlocal attempted, failed
        spec = {"workload": args.workload, "seed": args.seed, "workers": workers, "traced": traced}
        result, error = run_rep(spec)
        attempted += SESSIONS[args.workload]
        if result is None:
            failed += SESSIONS[args.workload]
            problems.append(error)
            return None
        failed += result["failed"]
        problems.extend(result["problems"])
        shas.add(result["report_sha256"])
        return result

    start = time.perf_counter()
    if not args.trace and args.workload in PARALLEL:
        run_one(2, False)  # the report must not depend on the worker count
    order = list(kinds)
    for index in itertools.count():
        kind = order[index % len(order)]
        elapsed = time.perf_counter() - start
        enough = all(len(v) >= MIN_REPS for v in reps.values())
        if elapsed + last[kind] > (args.seconds if enough else HARD_STOP_S):
            break
        t0 = time.perf_counter()
        result = run_one(*kinds[kind])
        last[kind] = time.perf_counter() - t0
        if result is not None:
            reps[kind].append(result)

    complete = all(reps.values())
    if len(shas) > 1:
        problems.append(f"repetitions wrote {len(shas)} different reports")
    correct = complete and failed == 0 and len(shas) == 1 and not problems
    samples = {}
    if complete:
        samples = per_layer(reps) if args.trace else end_to_end(reps["untraced"])
    metrics = {}
    for name, (values, unit) in samples.items():
        value = SLOWEST.get(name, median)(values)
        if unit in ("count", "bytes") and value == int(value):
            value = int(value)
        metrics[name] = (value, unit)

    counts = ", ".join(f"{len(v)} {k}" for k, v in reps.items())
    print(f"workload {args.workload}, seed {args.seed}: {counts} repetitions, "
          f"{time.perf_counter() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        values = samples[name][0]
        print(f"  {name:28s} {value:14.6g} {unit:6s} "
              f"{'slowest' if name in SLOWEST else 'median'} of {len(values)}, "
              f"median {median(values):.6g}, range {min(values):.6g}..{max(values):.6g}")
    print(f"  failure_rate {failed}/{attempted} sessions = {failed / max(attempted, 1):.6g}")
    hmac_us = [r["hmac_ref_us"] for rs in reps.values() for r in rs]
    if hmac_us and not args.trace:
        print(f"  env.hmac_ref_us median {median(hmac_us):.4f}, "
              f"range {min(hmac_us):.4f}..{max(hmac_us):.4f} over {len(hmac_us)} repetitions")
    if args.trace and complete:
        print("  " + self_time_shares(reps["traced"]))
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
