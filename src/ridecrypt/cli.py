"""Command-line entry point.

Writes a machine-readable JSONL report (identical bytes for identical
arguments) and prints a human summary to stdout; after a session mode, the
summary says over how many PRF outputs the run was certified collision-free
and how many it left unchecked. Usage errors exit with status 2, runtime
failures with 1.
"""

from __future__ import annotations

import argparse
import sys

from . import crypto
from .crypto import MAX_DIM
from .errors import LedgerFault, ProtocolFault
from .harness import (
    MAX_WORKERS,
    MODES,
    ExperimentConfig,
    default_report_path,
    run_experiment,
    write_report,
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's flags. They declare no defaults: a flag left out leaves
    its ``ExperimentConfig`` field at the config's own default."""
    parser = argparse.ArgumentParser(
        prog="ridecrypt",
        argument_default=argparse.SUPPRESS,
        description=(
            "Simulate the block-masked ride-matching protocol, measure how "
            "many responders pin down a rider block, and run the full "
            "location-recovery pipeline on generated road networks."
        ),
    )
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument(
        "--l",
        dest="block_bits",
        metavar="L",
        type=int,
        help="bits per block (1..4); table1 runs all four widths when omitted",
    )
    parser.add_argument(
        "--m",
        dest="num_blocks",
        metavar="M",
        type=int,
        help="blocks per coordinate (default: sized to the network diameter)",
    )
    parser.add_argument(
        "--n", dest="dim", metavar="N", type=int, help=f"embedding dimension, <= {MAX_DIM}"
    )
    parser.add_argument(
        "--trials", type=int, help="trials (table1) or sessions (session modes)"
    )
    parser.add_argument(
        "--drivers",
        dest="num_drivers",
        metavar="DRIVERS",
        type=int,
        help="responding drivers per session",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--out",
        help="report path (default: $RIDECRYPT_REPORT_DIR/<mode>_report.jsonl)",
    )
    parser.add_argument(
        "--network-file",
        help="road-network file to use instead of a generated grid",
    )
    parser.add_argument(
        "--strict-lemma",
        action="store_true",
        help="end_to_end: recover a block only once all 2^l differences appeared",
    )
    parser.add_argument("--rows", type=int, help="grid rows")
    parser.add_argument("--cols", type=int, help="grid columns")
    parser.add_argument(
        "--weights",
        dest="weight_range",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        help="inclusive edge-weight range for generated grids",
    )
    parser.add_argument(
        "--merge-requests",
        action="store_true",
        help="end_to_end: one ledger accumulates all sessions of a fixed rider",
    )
    parser.add_argument(
        "--workers",
        type=int,
        help=f"accepted, 1..{MAX_WORKERS}, and unused: every run is serial",
    )
    return parser


def _summarize(records: list[dict]) -> str:
    lines = []
    for record in records:
        kind = record.get("record")
        if kind == "table1_row":
            lines.append(
                "l={l}: mean {mean:.4f} +/- {stderr:.4f} over {trials} trials "
                "(analytic {analytic:.4f}, ceiling {analytic_ceiling}, "
                "expected {expected_drivers})".format(**record)
            )
        elif kind == "aggregate":
            lines.append(
                "{sessions} sessions, {num_drivers} drivers: "
                "selection matched plaintext in {selection_matches}, "
                "distances matched in {distances_match}".format(**record)
            )
            if "sessions_fully_recovered" in record:
                lines.append(
                    "recovery: {sessions_fully_recovered} sessions fully "
                    "recovered, {sessions_rider_exact} rider-exact, "
                    "{sessions_sound} sound".format(**record)
                )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    out = options.pop("out", None)
    try:
        config = ExperimentConfig(**options)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    path = out or default_report_path(config.mode)
    watchdog = crypto.watchdog
    tracked, untracked = watchdog.tracked, watchdog.untracked
    try:
        records = run_experiment(config)
        write_report(path, records)
    except (LedgerFault, OSError, ProtocolFault, ValueError) as exc:
        print(
            f"error: {exc} (mode {config.mode}, seed {config.seed})", file=sys.stderr
        )
        return 1

    summary = _summarize(records)
    if summary:
        print(summary)
    if config.mode != "table1":
        print(
            f"PRF certificate: {watchdog.tracked - tracked} outputs certified, "
            f"{watchdog.untracked - untracked} unchecked"
        )
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
