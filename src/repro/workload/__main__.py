"""Command-line driver: ``python -m repro.workload [options]``.

Generates TPC-H data, builds the physical schemes, then sweeps ``N``
seeded random plans through every scheme x ablation variant against the
naive reference evaluator.  Exits non-zero on any result divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import List

from ..observe import SCHEMA_VERSION, ObservabilitySink, add_run_flags
from ..tpch.datagen import generate
from ..tpch.environment import make_environment
from ..tpch.harness import build_schemes
from .differential import ablation_variants, run_differential, worker_count_variants

__all__ = ["main"]


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description=(
            "Randomized differential testing: seeded random plans executed "
            "under Plain/PK/BDCC x the ablation grid, checked against a "
            "scheme-independent reference evaluator."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--queries", type=int, default=100, help="number of plans (default 100)")
    parser.add_argument("--sf", type=float, default=0.005, help="TPC-H scale factor (default 0.005)")
    parser.add_argument("--datagen-seed", type=int, default=7, help="data generator seed")
    parser.add_argument(
        "--schemes", default="plain,pk,bdcc", help="comma-separated subset of plain,pk,bdcc"
    )
    parser.add_argument(
        "--variants", choices=("all", "default"), default="all",
        help="'all' sweeps the ablation grid, 'default' runs only default options",
    )
    parser.add_argument(
        "--updates", type=int, default=0, metavar="ROUNDS",
        help=(
            "run the update-aware sweep instead: ROUNDS seeded insert/delete "
            "batches committed through an UpdateSession, each followed by "
            "generated queries checked against the reference (which reads "
            "the shared logical database, so it sees every commit)"
        ),
    )
    parser.add_argument("--fail-fast", action="store_true", help="stop at the first divergence")
    parser.add_argument("--verbose", action="store_true", help="per-query progress")
    add_run_flags(
        parser,
        workers=dict(
            default="",
            help=(
                "comma-separated worker counts to sweep (e.g. 1,2,4); parallel "
                "runs are additionally checked bit-for-bit against the serial "
                "default run (the full ablation grid already includes 2 and 4)"
            ),
        ),
        backend_help=(
            "execution backend for the --workers sweep variants: 'simulated' "
            "(in-process deterministic scheduler) or 'process' (a real "
            "multiprocessing pool over shared-memory column exports); the "
            "oracle holds both to the same result contracts"
        ),
        streams_help=(
            "run the concurrent-serving differential instead: serve N "
            "generated closed-loop query streams (plus --updates refresh "
            "rounds) through the multi-query serving layer, then replay "
            "the recorded event log solo against a pristine identical "
            "database — every served result must match its pinned-epoch "
            "solo run bit-for-bit (and the naive reference)"
        ),
        json_help=(
            "print a machine-readable JSON document (report summary plus "
            "default-variant query-log records) instead of the text report"
        ),
    )
    return parser.parse_args(argv)


def _run_serving_mode(args, names: List[str], sink, repro_flags: str):
    """``--streams N``: the concurrent-serving differential."""
    from ..planner.executor import ExecutionOptions
    from ..serving import run_serving_differential, serving_trace

    env = make_environment(args.sf)
    counts = [int(n) for n in args.workers.split(",") if n.strip()]
    workers = counts[0] if counts else 4
    options = ExecutionOptions(
        workers=workers, backend=args.backend, profile=args.profile
    )

    def build():
        db = generate(scale_factor=args.sf, seed=args.datagen_seed)
        return build_schemes(db, env, include=names)

    def progress(scheme: str, divergences: int) -> None:
        print(
            f"  {scheme}: served + replayed "
            f"({divergences} divergence(s) so far)",
            file=sys.stderr,
        )

    report = run_serving_differential(
        build,
        seed=args.seed,
        num_streams=args.streams,
        queries_per_stream=max(args.queries // args.streams, 1),
        refresh_rounds=args.updates,
        policy=args.policy,
        options=options,
        max_concurrent=args.max_concurrent,
        disk=env.disk,
        costs=env.cost_model,
        schemes=names,
        check_reference=True,
        fail_fast=args.fail_fast,
        progress=progress if args.verbose else None,
        repro_flags=repro_flags,
        observer=sink.observe if sink.enabled else None,
    )
    if sink.builder is not None:
        for serving_report in report.serving_reports.values():
            serving_trace(serving_report, builder=sink.builder)
    return report


def _run_sweep(args, names: List[str], sink, repro_flags: str):
    """The static or (``--updates``) update-aware differential sweep."""
    print(
        f"generating TPC-H SF={args.sf} (seed {args.datagen_seed}) and "
        f"building {','.join(names)} ...",
        file=sys.stderr,
    )
    db = generate(scale_factor=args.sf, seed=args.datagen_seed)
    env = make_environment(args.sf)
    pdbs = build_schemes(db, env, include=names)

    def progress(done: int, total: int) -> None:
        if args.verbose or done % 25 == 0 or done == total:
            print(f"  {done}/{total} queries checked", file=sys.stderr)

    variants = ablation_variants(full=args.variants == "all")
    if args.workers:
        counts = [int(n) for n in args.workers.split(",") if n.strip()]
        variants.update(
            worker_count_variants(
                [n for n in counts if n > 1], backend=args.backend
            )
        )

    if args.profile:
        variants = {
            name: dataclasses.replace(options, profile=True)
            for name, options in variants.items()
        }

    # an update sweep splits its queries evenly over the commit rounds
    num_queries = args.queries
    if args.updates > 0:
        num_queries = args.updates * max(args.queries // args.updates, 1)
    return run_differential(
        pdbs,
        seed=args.seed,
        num_queries=num_queries,
        variants=variants,
        disk=env.disk,
        costs=env.cost_model,
        fail_fast=args.fail_fast,
        progress=progress,
        repro_flags=repro_flags,
        observer=sink.observe if sink.enabled else None,
        rounds=args.updates,
    )


def main(argv: List[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    sink = ObservabilitySink(args.trace, args.query_log, collect=args.json)
    repro_flags = f"--sf {args.sf} --datagen-seed {args.datagen_seed}"
    started = time.time()
    if args.streams > 0:
        kind = "serving_differential"
        report = _run_serving_mode(args, names, sink, repro_flags)
    else:
        kind = "workload_differential"
        report = _run_sweep(args, names, sink, repro_flags)
    sink.finish()
    if args.json:
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "report": report.to_dict(),
            "records": sink.records or [],
        }
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        print(report.render())
    print(f"({time.time() - started:.1f}s)", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
