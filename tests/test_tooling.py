"""The benchmark and the demos drive the library from outside the package.

``perfbench/tracer.py`` rebinds functions and methods by name and
``perfbench/worker.py`` builds its runs from harness keywords, so a rename
here would crash ``perfbench/run.py --trace 1``. The worker also reads the
PRF watchdog's counters, ``harness.dump_records`` and the record keys, so
each workload runs through it untraced and must check clean. The demos
exercise the public API end to end and must print no failure marker.
The README's quick start runs as written and prints what its comment says.
"""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

from ridecrypt.cli import build_parser
from ridecrypt.harness import ExperimentConfig, run_synthetic_sessions
from test_golden import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))


def test_traced_names_resolve(perfbench):
    import tracer

    for layer, name in tracer.FUNCTIONS:
        module = importlib.import_module(f"ridecrypt.{layer}")
        assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for layer, cls_name, name in tracer.METHODS:
        cls = getattr(importlib.import_module(f"ridecrypt.{layer}"), cls_name)
        assert callable(getattr(cls, name, None)), f"{layer}.{cls_name}.{name}"


def test_record_matches_binds_as_the_tracer_calls_it():
    # tracer.py's with_entries wraps the method as (self, driver_id, matches)
    # and counts attack.ledger_entries by len(matches).
    from ridecrypt.attack import DifferenceLedger
    from ridecrypt.codec import BlockParams

    ledger = DifferenceLedger(BlockParams(1, 1), 1)
    matches = {(0, 0): 1}
    bound = inspect.signature(DifferenceLedger.record_matches).bind(ledger, 3, matches)
    assert bound.arguments == {"self": ledger, "driver_id": 3, "matches": matches}


def test_worker_arguments_fit_the_harness(perfbench):
    import worker

    inspect.signature(run_synthetic_sessions).bind(seed=1, strict=True, **worker.FLEET)
    for config in worker.CONFIGS.values():
        ExperimentConfig(
            mode="end_to_end", weight_range=worker.WEIGHTS, seed=1, workers=2, **config
        ).validate()


def run_worker(workload, traced):
    """One ``perfbench/worker.py`` run at seed 505, checked clean; its JSON."""
    spec = {"workload": workload, "seed": 505, "workers": 1, "traced": traced}
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["failed"] == 0
    assert out["problems"] == []
    return out


@pytest.mark.parametrize("workload", ["sessions_grid", "fleet_synthetic", "city_merge"])
def test_benchmark_worker_checks_its_run(workload):
    run_worker(workload, traced=False)


def test_traced_worker_keeps_the_report_and_counts_unique_checks():
    # Tracing wraps the library from outside: the report must not change,
    # and the ledger's re-checks must reach the traced is_unique.
    out = run_worker("sessions_grid", traced=True)
    assert out["report_sha256"] == dict(WORKLOADS)["sessions_grid"]
    assert out["spans"]["attack.is_unique"]["calls"] > 0


FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # Under the repo's pytest settings a falsified @given test is reported
    # as one failure; the session goes on to run the next test.
    (tmp_path / "test_pair.py").write_text(FAILING_AND_PASSING)
    config = ["-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path)]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *config, "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout
    assert "1 failed, 1 passed" in result.stdout


DEMOS = ["01_encrypted_matching.py", "02_location_recovery.py", "03_responder_counts.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # Demo 01 marks a distance that differs from plaintext, demo 02 a node
    # it located wrongly, demo 03 a recovered session with a wrong vector.
    assert "MISMATCH" not in result.stdout
    assert "WRONG" not in result.stdout


def test_readme_quick_start_prints_its_promise():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1, "the README holds one python example"
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["7", "30"]


def test_readme_flags_list_every_option():
    with open(os.path.join(ROOT, "README.md")) as fh:
        listed = re.search(r"^Flags: `(.*?)`", fh.read(), re.DOTALL | re.MULTILINE)
    assert listed, "the README lists the CLI flags"
    options = [
        option
        for action in build_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]
    assert re.findall(r"--[\w-]+", listed.group(1)) == options
