"""Golden report hashes: refactors and optimisations must leave the report
bytes of these small runs unchanged.

The first four hashes were taken before the attack layer moved to
per-driver ledger rows and an incremental merge mode; ``zero_weight_grid``
was taken before the network diameter moved from all-pairs Dijkstra to
bounding sweeps. The benchmark workloads' hashes were taken before driver
recovery moved from per-driver ledger rows to each driver's own matched
response. ``table1``'s hash was taken when the coverage simulation moved
from numpy to integer-exact Python. If a change alters a report on purpose,
say why where the hash is updated.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from ridecrypt import attack
from ridecrypt.crypto import watchdog
from ridecrypt.harness import (
    ExperimentConfig,
    dump_records,
    run_experiment,
    run_synthetic_sessions,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 4x4 grid, n=4, l=1: at seed 6 every end_to_end session and all but the
# first merged session recover the rider, so driver recovery and node
# identification both run.
SMALL = dict(rows=4, cols=4, dim=4, block_bits=1, seed=6)


def end_to_end():
    return run_experiment(
        ExperimentConfig(mode="end_to_end", trials=4, num_drivers=12, **SMALL)
    )


def protocol_only():
    return run_experiment(
        ExperimentConfig(mode="protocol_only", trials=4, num_drivers=12, **SMALL)
    )


def merged_end_to_end():
    return run_experiment(
        ExperimentConfig(
            mode="end_to_end", trials=6, num_drivers=6, merge_requests=True, **SMALL
        )
    )


def zero_weight_grid():
    # The aggregate records network_diameter, and m is sized from it; the
    # 0-weight edges put distinct nodes at distance 0.
    return run_experiment(
        ExperimentConfig(
            mode="protocol_only",
            rows=24,
            cols=24,
            weight_range=(0, 9),
            trials=1,
            num_drivers=2,
            seed=6,
        )
    )


def strict_synthetic():
    records, aggregate = run_synthetic_sessions(2, 2, 3, 40, 3, seed=1, strict=True)
    return records + [aggregate]


def table1(workers=1):
    # Two chunks per width. The bytes changed when the chunks' draws moved
    # from numpy's generator to ``random.Random`` words and the statistics
    # to exact integer sums.
    return run_experiment(
        ExperimentConfig(mode="table1", trials=20_000, seed=9, workers=workers)
    )


GOLDEN = [
    (end_to_end, "359d3e0f482ec636b98a5390012eb45db2ce5c7d29f8f74664aa17158b6320ee"),
    (protocol_only, "c22dc806d29f4cbdb38b34798ef6be31b75b2db1973556e682cdb915eedf183c"),
    (merged_end_to_end, "f29e83581118901548d01a4943d5cc216ea79984ab0c9f176b5344ffb987ff5d"),
    (zero_weight_grid, "8cc4dc3487780e62d4d78e067a631094c4c83b1f9cfa99b541c44fb28c920c0a"),
    (strict_synthetic, "743c4981dd93be75c7c973625fe2c7eef9266238e73807857788e9ec78b8d805"),
    (table1, "54c113241437237bd620f40ca2b4061daf01d6e243b7e81ad1d65f889f9f5f5d"),
]


def digest_of(records):
    return hashlib.sha256(dump_records(records).encode("ascii")).hexdigest()


@pytest.mark.parametrize("run, digest", GOLDEN, ids=[run.__name__ for run, _ in GOLDEN])
def test_report_hash_unchanged(run, digest):
    assert digest_of(run()) == digest


def test_golden_runs_exercise_recovery():
    # The hashes only guard the attack if the runs reach it.
    assert end_to_end()[-1]["sessions_rider_exact"] == 4
    assert merged_end_to_end()[-1]["sessions_rider_exact"] == 5
    assert strict_synthetic()[-1]["sessions_all_exact"] == 3


def test_sessions_compute_the_prf_floor_only():
    # Each session computes only the rider's 4*n*m*2^l distinct HMACs; the
    # drivers' and the provider's inputs repeat them. Counted, not timed.
    before = watchdog.evaluations
    records = end_to_end()
    computed = watchdog.evaluations - before
    aggregate = records[-1]
    floor = 4 * aggregate["n"] * aggregate["m"] * 2 ** aggregate["l"]
    assert computed == aggregate["sessions"] * floor
    assert digest_of(records) == GOLDEN[0][1]


def test_merged_reports_look_up_each_node_once(monkeypatch):
    # A merged report recovers the rider only: one lookup per rider report,
    # and no driver is recovered.
    calls = []
    lookup = attack.deanonymize

    def counted(vector, index):
        calls.append(vector)
        return lookup(vector, index)

    def unreachable(*args):
        raise AssertionError("a merged run recovered drivers")

    monkeypatch.setattr(attack, "deanonymize", counted)
    monkeypatch.setattr(attack, "recover_driver_vectors", unreachable)
    monkeypatch.setattr(attack, "_driver_rows", unreachable)
    records = merged_end_to_end()
    sessions = [r for r in records if r["record"] == "session"]
    rider_reports = sum(r["rider_vector_recovered"] for r in sessions)
    assert rider_reports == 5 and sessions[-1]["rider_vector_recovered"]
    assert len(calls) == rider_reports
    assert digest_of(records) == GOLDEN[2][1]


#: Report SHA-256 of each benchmark workload at seed 505, where city_merge
#: recovers the rider in 14 sessions.
WORKLOADS = [
    ("sessions_grid", "60e28f7c9812f2bfb155bb355b0908ce7bb76954aa44f81a0c0e2e62bb3dcc6e"),
    ("fleet_synthetic", "91f08f0e8a489b242d1075f99da33fc06ee29b0bf01e9b385eef24d8b8f53949"),
    ("city_merge", "6714380d200004a52be053a85fa09bbe47d3c1a63ee78d552c16e5db8cd048f5"),
]


@pytest.mark.parametrize("workload, digest", WORKLOADS, ids=[w for w, _ in WORKLOADS])
def test_benchmark_workload_hash_unchanged(workload, digest, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import worker

    records = worker.run_workload(workload, 505, 1)
    assert digest_of(records) == digest
    if workload == "city_merge":
        assert records[-1]["sessions_rider_exact"] == 14


def test_session_runs_do_not_import_numpy():
    # The package has no runtime dependency. A fresh interpreter, since the
    # suite itself imports numpy, with every numpy import made to fail: the
    # strict synthetic run recovers every driver, the merged run recovers
    # the rider and names the nodes, table1 gives the pinned bytes at
    # workers 1 and 2, and none of them loads multiprocessing.
    tests = os.path.join(ROOT, "tests")
    src = os.path.join(ROOT, "src")
    script = (
        "import sys\n"
        "blocked = []\n"
        "class NoNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            blocked.append(name)\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoNumpy())\n"
        "import test_golden\n"
        "assert test_golden.strict_synthetic()[-1]['sessions_all_exact'] == 3\n"
        "assert test_golden.merged_end_to_end()[-1]['sessions_rider_exact'] == 5\n"
        "digest = dict((run.__name__, d) for run, d in test_golden.GOLDEN)['table1']\n"
        "for workers in (1, 2):\n"
        "    assert test_golden.digest_of(test_golden.table1(workers)) == digest\n"
        "loaded = {name.split('.')[0] for name in sys.modules}\n"
        "assert not loaded & {'numpy', 'multiprocessing'}, loaded\n"
        "assert not blocked, blocked\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
