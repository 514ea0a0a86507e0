"""Experiment driver: responder-count statistics, end-to-end sessions,
deterministic seeding, and report records.

Every run is reproducible from (config, seed). Randomness is derived
per purpose through a keyed hash of the master seed, so a session's
outcome does not depend on how many sessions ran before it, and each
fixed-size chunk of table1 trials draws from its own seed. Every run is
serial: table1 chunk by chunk, and sessions in index order through one
loop that matches each session and runs the attack step chosen once per
run (``run_attack`` per session, one ``DifferenceLedger`` across merged
requests, or none). ``workers`` is range-checked and otherwise unused, so
reports are byte-identical at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable, Iterator, Sequence

from .attack import DifferenceLedger, RecoveryReport, embedding_index, run_attack
from .codec import BlockParams
from .crypto import (
    MAX_DIM,
    PRF_CONSTRUCTION,
    SystemKeys,
    issue_system_keys,
    session_memo,
)
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
    check_grid,
    generate_grid_network,
    load_network,
    randrange_batch,
    rne_distance,
)

SCHEMA_VERSION = 1

MODES = ("table1", "end_to_end", "protocol_only")

#: Responders needed for guaranteed per-block recovery at each block width:
#: the ceiling of the coupon-collector expectation 2**l * H(2**l). Its keys
#: are the only block widths the harness runs.
EXPECTED_DRIVERS = {1: 3, 2: 9, 3: 22, 4: 55}

_TRIALS_CHUNK = 1 << 14

#: Bits per random word of the coverage simulation, a multiple of every width.
_WORD_BITS = 12

#: Largest ``workers`` a run accepts. Fixed rather than tied to the machine,
#: so the same flags are a usage error everywhere.
MAX_WORKERS = 64

#: Zone id of every synthetic session's ride context.
SYNTHETIC_ZONE = 7

#: Grid options a session mode without a network file takes when unset.
GRID_DEFAULTS = {"dim": 8, "rows": 6, "cols": 6, "weight_range": (1, 9)}

#: Config fields only the session modes read; table1 rejects them.
SESSION_ONLY = ("num_drivers", "num_blocks", "network_file", *GRID_DEFAULTS)

#: Report keys of the fields that reports name by the paper's symbols;
#: every other field keeps its own name.
REPORT_KEYS = {"block_bits": "l", "num_blocks": "m", "dim": "n"}


def _report_fields(instance) -> dict:
    """A dataclass's fields as record entries, under their report keys."""
    return {REPORT_KEYS.get(name, name): value for name, value in asdict(instance).items()}


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
    if block_bits < 1:
        raise ValueError(f"block_bits must be >= 1, got {block_bits}")
    return max(1, -(-max(max_value, 1).bit_length() // block_bits))


def _check_block_bits(bits: int) -> None:
    if bits not in EXPECTED_DRIVERS:
        widths = f"{min(EXPECTED_DRIVERS)}..{max(EXPECTED_DRIVERS)}"
        raise ValueError(f"supported block widths are {widths}, got {bits}")


def _coverage_chunk(block_bits: int, count: int, seed: int) -> list[int]:
    """Draws-to-full-coverage for ``count`` independent trials.

    A trial ORs its draws, ``block_bits`` at a time from fresh random words,
    into a bitmask of the block values seen, and stops at the draw that
    fills it; the draws left in that word are dropped.
    """
    low, full = (1 << block_bits) - 1, (1 << (1 << block_bits)) - 1
    getrandbits = Random(seed).getrandbits
    counts = []
    for _ in range(count):
        mask = draws = 0
        while mask != full:
            word = getrandbits(_WORD_BITS)
            for _ in range(_WORD_BITS // block_bits):
                mask |= 1 << (word & low)
                word >>= block_bits
                draws += 1
                if mask == full:
                    break
        counts.append(draws)
    return counts


def simulate_coverage_draws(block_bits: int, trials: int, seed: int) -> list[int]:
    """Monte Carlo sample of draws-to-full-coverage, one entry per trial.

    Trials are split into fixed-size chunks, each chunk seeded from
    (seed, block width, chunk index), so the chunk boundaries determine
    the random streams.
    """
    _check_block_bits(block_bits)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = []
    for index, start in enumerate(range(0, trials, _TRIALS_CHUNK)):
        chunk_seed = derive_seed(seed, "coverage", block_bits, index)
        counts += _coverage_chunk(block_bits, min(_TRIALS_CHUNK, trials - start), chunk_seed)
    return counts


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
        return {"record": "table1_row", "schema": SCHEMA_VERSION, **_report_fields(self)}


def run_table1(block_bits: int, trials: int = 100_000, seed: int = 1) -> Table1Row:
    """Estimate the mean responder count needed for full per-block coverage
    and put it next to the analytic value and its ceiling."""
    counts = simulate_coverage_draws(block_bits, trials, seed)
    # Exact integer sums: the mean and the standard error round once each.
    total, squares = sum(counts), sum(draws * draws for draws in counts)
    spread = trials * squares - total * total  # n * (n - 1) * sample variance
    analytic = expected_coverage_draws(block_bits)
    return Table1Row(
        block_bits=block_bits,
        trials=trials,
        mean=total / trials,
        stderr=math.sqrt(spread / (trials * trials * (trials - 1))) if trials > 1 else 0.0,
        analytic=float(analytic),
        analytic_ceiling=math.ceil(analytic),
        expected_drivers=EXPECTED_DRIVERS[block_bits],
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, and the one declaration of a run's options:
    the CLI flags fill its fields by name and the ``config`` record is
    derived from them. Frozen and checked when built, so a config that
    exists is valid; construction raises ``ValueError`` otherwise."""

    mode: str
    block_bits: int | None = None  # None: table1 runs all widths, sessions use 2
    num_blocks: int | None = None  # None: sized to the network diameter
    # Grid options; unset, they take GRID_DEFAULTS unless table1 or a network file.
    dim: int | None = None
    rows: int | None = None
    cols: int | None = None
    weight_range: tuple[int, int] | None = None
    network_file: str | None = None
    num_drivers: int | None = None
    trials: int | None = None
    seed: int = 1
    strict_lemma: bool = False
    merge_requests: bool = False
    workers: int = 1  # range-checked and unused: every run is serial

    def __post_init__(self) -> None:
        if self.mode != "table1" and self.network_file is None:
            for name, default in GRID_DEFAULTS.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
        self.validate()

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.block_bits is not None:
            _check_block_bits(self.block_bits)
        if self.num_blocks is not None:
            BlockParams(self.resolved_block_bits, self.num_blocks)
        if self.num_drivers is not None and self.num_drivers < 1:
            raise ValueError("num_drivers must be >= 1")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be in 1..{MAX_WORKERS}")
        if self.mode != "end_to_end" and (self.strict_lemma or self.merge_requests):
            raise ValueError("strict_lemma and merge_requests need mode end_to_end")
        if self.mode == "table1":
            given = [name for name in SESSION_ONLY if getattr(self, name) is not None]
            if given:
                raise ValueError(f"table1 does not take {', '.join(given)}")
            return
        if self.network_file is not None:
            given = [name for name in GRID_DEFAULTS if getattr(self, name) is not None]
            if given:
                raise ValueError(f"network_file does not take {', '.join(given)}")
            return
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in 1..{MAX_DIM}")
        check_grid(self.rows, self.cols, self.weight_range)

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
            # Four times the coupon-collector expectation. With uniform
            # blocks that makes full recovery the norm; on a road network's
            # embedded coordinates it does not (README "Parameters and limits").
            return math.ceil(4 * expected_coverage_draws(self.resolved_block_bits))
        return 4


def _build_network(config: ExperimentConfig) -> RoadNetwork:
    if config.network_file is not None:
        net = load_network(config.network_file)
        if net.dim > MAX_DIM:
            raise ValueError(
                f"network file defines {net.dim} landmark subsets; a message "
                f"names at most {MAX_DIM} coordinates"
            )
        return net
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
    run's seeds, e.g. ``("session", s)``; only the rider draws from them.

    Every PRF input a driver or the provider evaluates, the rider evaluated
    already, so the round runs in one ``session_memo`` scope and computes
    4*n*m*2^l HMACs whatever the number of drivers. The scope's driver
    codebook builds each distinct driver pair once; every other driver
    position is one lookup.
    """
    sp = ServiceProvider(ctx)
    with session_memo():
        request = rider_encrypt(
            rider_vector, keys, ctx, Random(derive_seed(seed, *path, "rider-rng"))
        )
        return [
            (k, sp.match_response(request, driver_encrypt(k, vector, keys, ctx)))
            for k, vector in enumerate(driver_vectors)
        ]


def _rounds(
    sessions: int,
    seed: int,
    tag: str,
    locate: Callable[[int], tuple],
    attack: Callable[[list], RecoveryReport] | None,
) -> Iterator[tuple]:
    """Yield a run's sessions, in index order, as ``(s, located, matched,
    report)``. ``locate(s)`` places session ``s``: its tuple starts with
    the ``RideContext``, the rider's vector and the drivers' vectors.
    ``matched`` comes from :func:`_session_matches` under the seed path
    ``(tag, s)`` and is emptied when the next session starts, so a run
    holds one session's matches. ``report`` is ``attack(matched)``, or
    ``None`` without an attack step. A runtime fault keeps its type and
    gains the session it came from, which with the mode and seed is
    enough to reproduce it."""
    keys = issue_system_keys(derive_seed(seed, "keys"))
    for s in range(sessions):
        try:
            located = locate(s)
            ctx, rider_vector, driver_vectors = located[:3]
            matched = _session_matches(ctx, keys, rider_vector, driver_vectors, seed, (tag, s))
            report = None if attack is None else attack(matched)
        except (LedgerFault, ProtocolFault) as exc:
            raise type(exc)(f"session {s}: {exc}") from exc
        yield s, located, matched, report
        matched.clear()


def _recovery_fields(
    report: RecoveryReport,
    rider_vector: RneVector,
    driver_vectors: Sequence[RneVector] | None,
    params: BlockParams,
) -> dict:
    """Record fields that score a recovery against the true vectors.
    ``driver_vectors`` is ``None`` when the report recovers no driver
    (merged requests). Drivers are recovered only through the rider, so
    with no rider vector no driver was attempted and the driver score is
    ``None`` too, as ``driver_nodes_exact`` is."""
    positions = params.positions(len(rider_vector))
    true_blocks = dict(zip(positions, params.split(rider_vector)))
    return {
        "blocks_total": len(report.unique_at),
        "blocks_recovered": sum(at is not None for at in report.unique_at.values()),
        "rider_vector_recovered": report.rider_vector is not None,
        "rider_vector_exact": (
            None
            if report.rider_vector is None
            else report.rider_vector == rider_vector
        ),
        "driver_vectors_exact": (
            None
            if driver_vectors is None or report.rider_vector is None
            else sum(
                1
                for k, vec in report.driver_vectors.items()
                if vec == driver_vectors[k]
            )
        ),
        # Ground truth: every candidate interval contains the true block.
        "intervals_sound": all(
            lo <= true_blocks[pos] <= hi
            for pos, (lo, hi) in report.candidates.items()
        ),
    }


def _count(records: Sequence[dict], key: str) -> int:
    """How many records hold a true ``key``."""
    return sum(1 for r in records if r[key])


def _aggregate(
    mode: str, records: Sequence[dict], num_drivers: int, params: BlockParams, dim: int
) -> dict:
    """The aggregate fields every session run reports."""
    return {
        "record": "aggregate",
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "sessions": len(records),
        "num_drivers": num_drivers,
        **_report_fields(params),
        "n": dim,
        "prf": PRF_CONSTRUCTION,
    }


def run_sessions(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Run the session modes: full protocol per session, plus the recovery
    phase in ``end_to_end`` mode. Returns (session records, aggregate)."""
    if config.mode not in ("end_to_end", "protocol_only"):
        raise ValueError(f"run_sessions does not handle mode {config.mode!r}")
    net = _build_network(config)
    dim = net.dim
    # The embedding first: its landmark sweeps also bound the diameter.
    table = net.embedding_table()
    params = _session_params(config, net)
    drivers = config.resolved_drivers
    merged = config.merge_requests
    seed = config.seed
    zone = derive_seed(seed, "zone") % 2**32

    def random_node(*path) -> int:
        return Random(derive_seed(seed, *path)).randrange(net.num_nodes)

    # The run's attack step, chosen once: none in protocol_only, else
    # run_attack on each session, or with merged requests one ledger that
    # files every session's responses and reports on the rider after each.
    attack = fixed_rider = None
    index = embedding_index(table) if config.mode == "end_to_end" else None
    if merged:
        fixed_rider = random_node("rider-node")
        ledger = DifferenceLedger(params, dim, config.strict_lemma)

        def attack(matched):
            for k, matches in matched:
                ledger.record_matches(k, matches)
            return ledger.report(index)

    elif index is not None:
        attack = partial(run_attack, params, dim, strict=config.strict_lemma, index=index)

    def locate(s: int) -> tuple:
        ctx = RideContext(zone, s % 2**32, params, dim)
        rider = fixed_rider if merged else random_node("session", s, "rider-node")
        nodes = [random_node("session", s, "driver-node", k) for k in range(drivers)]
        return ctx, table[rider], [table[node] for node in nodes], rider, nodes

    records = []
    for s, located, matched, report in _rounds(
        config.resolved_trials, seed, "session", locate, attack
    ):
        ctx, rider_vector, driver_vectors, rider_node, driver_nodes = located
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
        records.append(record)
        if report is None:
            continue
        # A merged report recovers no driver, so it scores none; a report
        # names driver nodes only once it recovered the rider.
        record.update(
            _recovery_fields(
                report, rider_vector, None if merged else driver_vectors, params
            ),
            recovered_rider_node=report.rider_node,
            rider_node_exact=(
                None if report.rider_node is None else report.rider_node == rider_node
            ),
            rider_node_ambiguity=report.rider_ambiguity,
            driver_nodes_exact=(
                None
                if not report.driver_nodes
                else sum(
                    1
                    for k, (node, _amb) in report.driver_nodes.items()
                    if node == driver_nodes[k]
                )
            ),
            interval_widths={
                f"{i},{j}": hi - lo + 1 for (i, j), (lo, hi) in report.candidates.items()
            },
            unique_at={f"{i},{j}": at for (i, j), at in report.unique_at.items()},
        )

    aggregate = _aggregate(config.mode, records, drivers, params, dim)
    aggregate.update(
        network_nodes=net.num_nodes,
        network_diameter=net.diameter(),
        selection_matches=_count(records, "selection_matches"),
        distances_match=_count(records, "distances_match"),
    )
    if attack is not None:
        aggregate.update(
            sessions_fully_recovered=_count(records, "rider_vector_recovered"),
            sessions_rider_exact=_count(records, "rider_vector_exact"),
            sessions_sound=_count(records, "intervals_sound"),
            strict_lemma=config.strict_lemma,
            merge_requests=merged,
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

    def locate(s: int) -> tuple:
        ctx = RideContext(SYNTHETIC_ZONE, s % 2**32, params, dim)
        rng_locations = Random(derive_seed(seed, "synthetic", s, "locations"))
        # The rider's coordinates, then each driver's, one randrange apiece.
        coordinates = randrange_batch(rng_locations, params.capacity, dim * (num_drivers + 1))
        rider_vector, *driver_vectors = zip(*[iter(coordinates)] * dim)
        return ctx, rider_vector, driver_vectors

    attack = partial(run_attack, params, dim, strict=strict)
    records = []
    for s, (_ctx, rider_vector, driver_vectors), _matched, report in _rounds(
        sessions, seed, "synthetic", locate, attack
    ):
        record = {"record": "synthetic_session", "schema": SCHEMA_VERSION, "index": s}
        record.update(_recovery_fields(report, rider_vector, driver_vectors, params))
        # Every driver is recovered with the rider, or none is.
        record["all_drivers_exact"] = (
            record["rider_vector_recovered"] and record["driver_vectors_exact"] == num_drivers
        )
        records.append(record)
    aggregate = _aggregate("synthetic", records, num_drivers, params, dim)
    aggregate.update(
        strict_lemma=strict,
        sessions_fully_recovered=_count(records, "rider_vector_recovered"),
        sessions_all_exact=sum(
            1 for r in records if r["rider_vector_exact"] and r["all_drivers_exact"]
        ),
        sessions_sound=_count(records, "intervals_sound"),
    )
    return records, aggregate


def config_record(config: ExperimentConfig) -> dict:
    record = {"record": "config", "schema": SCHEMA_VERSION, **_report_fields(config)}
    # Worker count is an execution detail: it must not change the
    # report, so it is not part of it.
    del record["workers"]
    record["prf"] = PRF_CONSTRUCTION
    return record


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
    records = [config_record(config)]
    if config.mode == "table1":
        widths = list(EXPECTED_DRIVERS) if config.block_bits is None else [config.block_bits]
        for width in widths:
            records.append(run_table1(width, config.resolved_trials, config.seed).to_record())
    else:
        session_records, aggregate = run_sessions(config)
        records.extend(session_records)
        records.append(aggregate)
    return records
