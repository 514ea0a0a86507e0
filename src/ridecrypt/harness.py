"""Experiment driver: responder-count statistics, end-to-end sessions,
deterministic seeding, and report records.

Every run is reproducible from (config, seed). Randomness is derived
per purpose through a keyed hash of the master seed, so a session's
outcome does not depend on how many sessions ran before it or on how
work is split across workers; serial and parallel execution emit
byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

import numpy as np

from .attack import IncrementalAttack, RecoveryReport, run_attack
from .codec import BlockParams, decompose
from .crypto import PRF_CONSTRUCTION, SystemKeys, issue_system_keys
from .errors import CapacityError, LedgerFault, ProtocolFault
from .protocol import (
    RideContext,
    ServiceProvider,
    driver_encrypt,
    rider_encrypt,
    sp_compute_distance,
)
from .roadnet import (
    RneVector,
    RoadNetwork,
    generate_grid_network,
    load_network,
    rne_distance,
)

SCHEMA_VERSION = 1

MODES = ("table1", "end_to_end", "protocol_only")

#: Responders needed for guaranteed per-block recovery at each block width:
#: the ceiling of the coupon-collector expectation 2**l * H(2**l).
EXPECTED_DRIVERS = {1: 3, 2: 9, 3: 22, 4: 55}

_TRIALS_CHUNK = 1 << 14

#: Zone id of every synthetic session's ride context.
SYNTHETIC_ZONE = 7


def derive_seed(master: int, *path) -> int:
    """Stable 64-bit child seed for a (master seed, purpose path) pair."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((int(master),) + tuple(path)).encode("ascii"))
    return int.from_bytes(h.digest(), "big")


def harmonic(k: int) -> Fraction:
    if k < 1:
        raise ValueError("harmonic number needs k >= 1")
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))


def expected_coverage_draws(block_bits: int) -> Fraction:
    """Expected uniform draws from ``2**bits`` values until all appear."""
    k = 1 << block_bits
    return k * harmonic(k)


def blocks_needed(max_value: int, block_bits: int) -> int:
    """Smallest block count whose capacity covers ``max_value``."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    return max(1, -(-max(max_value, 1).bit_length() // block_bits))


def _coverage_chunk(block_bits: int, count: int, seed: int) -> np.ndarray:
    """Draws-to-full-coverage for ``count`` independent trials.

    Trials run in lockstep: each slab draws a block of uniform values per
    active trial, a cumulative bitwise OR tracks which block values have
    appeared, and a trial finishes at the first column where its mask is
    full. Unfinished trials carry their mask into the next slab.
    """
    k = 1 << block_bits
    full = (1 << k) - 1
    slab = 4 * k + 16
    rng = np.random.default_rng(seed)
    counts = np.zeros(count, dtype=np.int64)
    masks = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    while active.size:
        draws = rng.integers(0, k, size=(active.size, slab))
        cum = np.bitwise_or.accumulate(np.left_shift(1, draws), axis=1)
        cum |= masks[active, None]
        done = cum[:, -1] == full
        first = (cum == full).argmax(axis=1)
        counts[active] += np.where(done, first + 1, slab)
        masks[active] = cum[:, -1]
        active = active[~done]
    return counts


def simulate_coverage_draws(
    block_bits: int, trials: int, seed: int, workers: int = 1
) -> np.ndarray:
    """Monte Carlo sample of draws-to-full-coverage, one entry per trial.

    Trials are split into fixed-size chunks, each chunk seeded from
    (seed, block width, chunk index); chunk boundaries, not worker count,
    determine the random streams.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = [
        min(_TRIALS_CHUNK, trials - start)
        for start in range(0, trials, _TRIALS_CHUNK)
    ]
    seeds = [
        derive_seed(seed, "coverage", block_bits, index)
        for index in range(len(sizes))
    ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunks = list(
            pool.map(lambda args: _coverage_chunk(block_bits, *args), zip(sizes, seeds))
        )
    return np.concatenate(chunks)


@dataclass
class Table1Row:
    """One block-width row of the expected-responders experiment."""

    block_bits: int
    trials: int
    mean: float
    stderr: float
    analytic: float
    analytic_ceiling: int
    expected_drivers: int

    def to_record(self) -> dict:
        return {
            "record": "table1_row",
            "schema": SCHEMA_VERSION,
            "l": self.block_bits,
            "trials": self.trials,
            "mean": self.mean,
            "stderr": self.stderr,
            "analytic": self.analytic,
            "analytic_ceiling": self.analytic_ceiling,
            "expected_drivers": self.expected_drivers,
        }


def run_table1(
    block_bits: int, trials: int = 100_000, seed: int = 1, workers: int = 1
) -> Table1Row:
    """Estimate the mean responder count needed for full per-block coverage
    and put it next to the analytic value and its ceiling."""
    if block_bits not in EXPECTED_DRIVERS:
        raise ValueError(f"supported block widths are 1..4, got {block_bits}")
    counts = simulate_coverage_draws(block_bits, trials, seed, workers)
    analytic = expected_coverage_draws(block_bits)
    stderr = float(np.std(counts, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return Table1Row(
        block_bits=block_bits,
        trials=trials,
        mean=float(np.mean(counts)),
        stderr=stderr,
        analytic=float(analytic),
        analytic_ceiling=math.ceil(analytic),
        expected_drivers=EXPECTED_DRIVERS[block_bits],
    )


@dataclass
class ExperimentConfig:
    """Everything a run needs; validation happens in :meth:`validate`."""

    mode: str
    block_bits: int | None = None  # None: table1 runs all widths, sessions use 2
    num_blocks: int | None = None  # None: sized to the network diameter
    dim: int = 8
    rows: int = 6
    cols: int = 6
    weight_range: tuple[int, int] = (1, 9)
    network_file: str | None = None
    num_drivers: int | None = None
    trials: int | None = None
    seed: int = 1
    strict_lemma: bool = False
    merge_requests: bool = False
    workers: int = 1

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.block_bits is not None and self.block_bits not in (1, 2, 3, 4):
            raise ValueError("supported block widths are 1..4")
        if self.num_blocks is not None:
            BlockParams(self.resolved_block_bits, self.num_blocks)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")
        if self.weight_range[0] > self.weight_range[1]:
            raise ValueError("empty weight range")
        if self.weight_range[0] < 0:
            raise ValueError("edge weights must be non-negative")
        if self.num_drivers is not None and self.num_drivers < 1:
            raise ValueError("num_drivers must be >= 1")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def resolved_block_bits(self) -> int:
        return 2 if self.block_bits is None else self.block_bits

    @property
    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return 100_000 if self.mode == "table1" else 25

    @property
    def resolved_drivers(self) -> int:
        if self.num_drivers is not None:
            return self.num_drivers
        if self.mode == "end_to_end":
            # Four times the expectation makes full recovery the norm.
            return math.ceil(4 * expected_coverage_draws(self.resolved_block_bits))
        return 4


def _build_network(config: ExperimentConfig) -> RoadNetwork:
    if config.network_file:
        return load_network(config.network_file)
    return generate_grid_network(
        config.rows,
        config.cols,
        config.weight_range,
        seed=derive_seed(config.seed, "network"),
        landmarks=config.dim,
    )


def _session_params(config: ExperimentConfig, net: RoadNetwork) -> BlockParams:
    diameter = net.diameter()
    bits = config.resolved_block_bits
    if config.num_blocks is None:
        count = blocks_needed(diameter, bits)
    else:
        count = config.num_blocks
    params = BlockParams(bits, count)
    if params.capacity - 1 < diameter:
        raise CapacityError(
            f"{count} blocks of {bits} bits cap coordinates at "
            f"{params.capacity - 1}, but the network diameter is {diameter}"
        )
    return params


def _naming_session(build):
    """Wrap a per-session record builder: a runtime fault keeps its type and
    gains the session it came from, which with the mode and seed is enough
    to reproduce it."""

    def one_session(s: int) -> dict:
        try:
            return build(s)
        except (LedgerFault, ProtocolFault) as exc:
            raise type(exc)(f"session {s}: {exc}") from exc

    return one_session


def _session_matches(
    ctx: RideContext,
    keys: SystemKeys,
    rider_vector: RneVector,
    driver_vectors: Sequence[RneVector],
    seed: int,
    path: tuple,
) -> list[tuple[int, dict[tuple[int, int], int]]]:
    """One honest matching round: the rider's request, then each driver's
    response matched by one service provider, in driver-id order.

    Returns the ``(driver_id, matches)`` pairs: the provider's transcript,
    which is all the attack gets. ``path`` names the session within the
    run's seeds, e.g. ``("session", s)``.
    """
    sp = ServiceProvider(ctx)
    request = rider_encrypt(
        rider_vector, keys, ctx, Random(derive_seed(seed, *path, "rider-rng"))
    )
    matched = []
    for k, vector in enumerate(driver_vectors):
        rng = Random(derive_seed(seed, *path, "driver-rng", k))
        response = driver_encrypt(k, vector, keys, ctx, rng)
        matched.append((k, sp.match_response(request, response)))
    return matched


def _recovery_fields(
    report: RecoveryReport,
    rider_vector: RneVector,
    driver_vectors: Sequence[RneVector] | None,
    params: BlockParams,
) -> dict:
    """Record fields that score a recovery against the true vectors.
    ``driver_vectors`` is ``None`` when the report's driver ids do not
    index it (merged requests)."""
    true_blocks = [decompose(coordinate, params) for coordinate in rider_vector]
    return {
        "blocks_total": report.blocks_total,
        "blocks_recovered": report.blocks_recovered,
        "rider_vector_recovered": report.rider_vector is not None,
        "rider_vector_exact": (
            None
            if report.rider_vector is None
            else report.rider_vector == rider_vector
        ),
        "driver_vectors_exact": (
            None
            if driver_vectors is None
            else sum(
                1
                for k, vec in report.driver_vectors.items()
                if vec == driver_vectors[k]
            )
        ),
        # Ground truth: every candidate interval contains the true block.
        "intervals_sound": all(
            lo <= true_blocks[i][j] <= hi
            for (i, j), (lo, hi) in report.candidates.items()
        ),
    }


def _count(records: Sequence[dict], key: str) -> int:
    """How many records hold a true ``key``."""
    return sum(1 for r in records if r[key])


def run_sessions(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Run the session modes: full protocol per session, plus the recovery
    phase in ``end_to_end`` mode. Returns (session records, aggregate)."""
    config.validate()
    if config.mode not in ("end_to_end", "protocol_only"):
        raise ValueError(f"run_sessions does not handle mode {config.mode!r}")
    net = _build_network(config)
    dim = net.dim
    params = _session_params(config, net)
    table = net.embedding_table()
    keys = issue_system_keys(derive_seed(config.seed, "keys"))
    zone = derive_seed(config.seed, "zone") % 2**32
    sessions = config.resolved_trials
    drivers = config.resolved_drivers
    attack_phase = config.mode == "end_to_end"
    seed = config.seed

    def random_node(*path) -> int:
        return Random(derive_seed(seed, *path)).randrange(net.num_nodes)

    def new_attack() -> IncrementalAttack:
        return IncrementalAttack(
            params, dim, strict=config.strict_lemma, embedding_table=table
        )

    # With merged requests the rider is fixed and one attack is fed every
    # session's responses, reporting after each session. Driver ids are
    # offset per session, so the per-driver ground truth is skipped.
    merged = new_attack() if config.merge_requests else None
    fixed_rider = random_node("rider-node") if config.merge_requests else None

    @_naming_session
    def session_record(s: int) -> dict:
        ctx = RideContext(zone, s % 2**32, params, dim)
        rider_node = fixed_rider if merged else random_node("session", s, "rider-node")
        driver_nodes = [
            random_node("session", s, "driver-node", k) for k in range(drivers)
        ]
        rider_vector = table[rider_node]
        driver_vectors = [table[node] for node in driver_nodes]
        matched = _session_matches(
            ctx, keys, rider_vector, driver_vectors, seed, ("session", s)
        )
        encrypted = [sp_compute_distance(matches, ctx) for _, matches in matched]
        plaintext = [rne_distance(rider_vector, vec) for vec in driver_vectors]
        # min keeps the first minimum: the lowest id wins a tie.
        selected = min(range(drivers), key=encrypted.__getitem__)
        plain_best = min(range(drivers), key=plaintext.__getitem__)
        record = {
            "record": "session",
            "schema": SCHEMA_VERSION,
            "index": s,
            "rider_node": rider_node,
            "driver_nodes": driver_nodes,
            "encrypted_distances": encrypted,
            "plaintext_distances": plaintext,
            "distances_match": encrypted == plaintext,
            "selected_driver": selected,
            "plaintext_best": plain_best,
            "selection_matches": selected == plain_best,
        }
        if not attack_phase:
            return record

        attack = merged or new_attack()
        offset = s * drivers if merged else 0
        for k, matches in matched:
            attack.feed(k + offset, matches)
        report = attack.report()
        record.update(
            _recovery_fields(
                report, rider_vector, None if merged else driver_vectors, params
            )
        )
        record.update(
            {
                "recovered_rider_node": report.rider_node,
                "rider_node_exact": (
                    None
                    if report.rider_node is None
                    else report.rider_node == rider_node
                ),
                "rider_node_ambiguity": report.rider_ambiguity,
                "driver_nodes_exact": (
                    None
                    if merged or report.rider_vector is None
                    else sum(
                        1
                        for k, (node, _amb) in report.driver_nodes.items()
                        if node == driver_nodes[k]
                    )
                ),
                "interval_widths": {
                    f"{i},{j}": hi - lo + 1
                    for (i, j), (lo, hi) in sorted(report.candidates.items())
                },
                "unique_at": {
                    f"{i},{j}": at
                    for (i, j), at in sorted(report.unique_at.items())
                },
            }
        )
        return record

    if config.workers > 1 and not config.merge_requests:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(session_record, range(sessions)))
    else:
        records = [session_record(s) for s in range(sessions)]

    aggregate = {
        "record": "aggregate",
        "schema": SCHEMA_VERSION,
        "mode": config.mode,
        "sessions": sessions,
        "num_drivers": drivers,
        "network_nodes": net.num_nodes,
        "network_diameter": net.diameter(),
        "l": params.block_bits,
        "m": params.num_blocks,
        "n": dim,
        "selection_matches": _count(records, "selection_matches"),
        "distances_match": _count(records, "distances_match"),
        "prf": PRF_CONSTRUCTION,
    }
    if attack_phase:
        aggregate.update(
            {
                "sessions_fully_recovered": _count(records, "rider_vector_recovered"),
                "sessions_rider_exact": _count(records, "rider_vector_exact"),
                "sessions_sound": _count(records, "intervals_sound"),
                "strict_lemma": config.strict_lemma,
                "merge_requests": config.merge_requests,
            }
        )
    return records, aggregate


def run_synthetic_sessions(
    block_bits: int,
    num_blocks: int,
    dim: int,
    num_drivers: int,
    sessions: int,
    seed: int = 1,
    strict: bool = True,
) -> tuple[list[dict], dict]:
    """Full protocol + recovery on synthetic locations whose blocks are
    i.i.d. uniform, the regime the expected-responder counts assume.

    Rider and driver vectors are drawn coordinate-wise uniform (equivalently:
    every block uniform), encrypted, matched, and attacked; each record
    compares the recovery against ground truth.
    """
    params = BlockParams(block_bits, num_blocks)
    keys = issue_system_keys(derive_seed(seed, "keys"))

    @_naming_session
    def session_record(s: int) -> dict:
        ctx = RideContext(SYNTHETIC_ZONE, s % 2**32, params, dim)
        rng_locations = Random(derive_seed(seed, "synthetic", s, "locations"))
        rider_vector, *driver_vectors = (
            tuple(rng_locations.randrange(params.capacity) for _ in range(dim))
            for _ in range(num_drivers + 1)
        )
        matched = _session_matches(
            ctx, keys, rider_vector, driver_vectors, seed, ("synthetic", s)
        )
        report = run_attack(params, dim, matched, strict=strict)
        return {
            "record": "synthetic_session",
            "schema": SCHEMA_VERSION,
            "index": s,
            **_recovery_fields(report, rider_vector, driver_vectors, params),
            "all_drivers_exact": (
                report.rider_vector is not None
                and all(
                    report.driver_vectors.get(k) == vec
                    for k, vec in enumerate(driver_vectors)
                )
            ),
        }

    records = [session_record(s) for s in range(sessions)]
    aggregate = {
        "record": "aggregate",
        "schema": SCHEMA_VERSION,
        "mode": "synthetic",
        "sessions": sessions,
        "num_drivers": num_drivers,
        "l": block_bits,
        "m": num_blocks,
        "n": dim,
        "strict_lemma": strict,
        "sessions_fully_recovered": _count(records, "rider_vector_recovered"),
        "sessions_all_exact": sum(
            1 for r in records if r["rider_vector_exact"] and r["all_drivers_exact"]
        ),
        "sessions_sound": _count(records, "intervals_sound"),
        "prf": PRF_CONSTRUCTION,
    }
    return records, aggregate


def config_record(config: ExperimentConfig) -> dict:
    return {
        "record": "config",
        "schema": SCHEMA_VERSION,
        "mode": config.mode,
        "l": config.block_bits,
        "m": config.num_blocks,
        "n": config.dim,
        "rows": config.rows,
        "cols": config.cols,
        "weight_range": list(config.weight_range),
        "network_file": config.network_file,
        "num_drivers": config.num_drivers,
        "trials": config.trials,
        "seed": config.seed,
        "strict_lemma": config.strict_lemma,
        "merge_requests": config.merge_requests,
        # Worker count is an execution detail: it must not change the
        # report, so it is not part of it.
        "prf": PRF_CONSTRUCTION,
    }


def dump_records(records: Sequence[dict]) -> str:
    """Line-delimited JSON, sorted keys, no whitespace: diff-able and
    byte-stable for identical inputs."""
    return (
        "\n".join(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in records
        )
        + "\n"
    )


def default_report_path(mode: str) -> str:
    directory = os.environ.get("RIDECRYPT_REPORT_DIR", ".")
    return os.path.join(directory, f"{mode}_report.jsonl")


def write_report(path: str, records: Sequence[dict]) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_records(records))


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Dispatch a config to its runner and return all report records."""
    config.validate()
    records = [config_record(config)]
    if config.mode == "table1":
        widths = [1, 2, 3, 4] if config.block_bits is None else [config.block_bits]
        for width in widths:
            row = run_table1(
                width, config.resolved_trials, config.seed, config.workers
            )
            records.append(row.to_record())
    else:
        session_records, aggregate = run_sessions(config)
        records.extend(session_records)
        records.append(aggregate)
    return records
