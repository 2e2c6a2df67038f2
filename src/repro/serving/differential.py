"""The serving oracle: concurrent execution vs solo replay.

The snapshot-isolation claim is falsifiable: every query served
concurrently must produce **exactly** the rows it would produce running
*alone* against the epoch state it pinned at admission.  This module
checks it by replay:

1. serve N generated query streams (plus optional refresh streams)
   through a :class:`~repro.serving.engine.ServingEngine` over a fresh
   database, keeping every result and the engine's ordered event log —
   each instant the database was touched (``generate`` / ``commit`` /
   ``execute``);
2. rebuild an *identical* database (same datagen parameters), then walk
   the event log: regenerate each item at its logged position (generated
   plans and batches sample literals from the current data, so order is
   identity), apply each commit, and execute each query **solo** through
   a plain executor at exactly the state the serving run pinned;
3. compare through the workload oracle's one comparison
   (:func:`~repro.workload.differential.result_mismatch`): bit-for-bit,
   or — for plans whose contracts allow reordering (co-partition gather)
   or re-aggregation (merge agg) — as normalized multisets with
   per-dtype tolerances.  Optionally every served result is also checked
   against the naive reference evaluator.

Epochs are cross-checked too: at each replayed execution the rebuilt
database must sit at the very epochs the serving query pinned, or the
replay (and hence the MVCC bookkeeping) is broken.  Divergences and
counts land in the same :class:`~repro.workload.differential.WorkloadReport`
the sweeps produce.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..execution.cost import CostModel
from ..planner.executor import ExecutionOptions, Executor
from ..schemes.base import PhysicalDatabase
from ..storage.io_model import DiskModel
from ..workload.differential import Divergence, WorkloadReport, result_mismatch
from ..workload.reference import evaluate_reference
from .engine import ServingEngine
from .metrics import QueryRecord, ServingReport
from .snapshot import EpochSnapshot
from .streams import GeneratedQueryStream, GeneratedRefreshStream
from ..updates.session import UpdateSession

__all__ = ["run_serving_differential"]


def _stream_seed(seed: int, position: int) -> int:
    return (seed + 1009 * (position + 1)) & 0x7FFFFFFF


def run_serving_differential(
    build: Callable[[], Dict[str, PhysicalDatabase]],
    seed: int = 0,
    num_streams: int = 2,
    queries_per_stream: int = 4,
    refresh_rounds: int = 0,
    policy: str = "fifo",
    options: Optional[ExecutionOptions] = None,
    max_concurrent: Optional[int] = None,
    disk: Optional[DiskModel] = None,
    costs: Optional[CostModel] = None,
    schemes: Optional[Sequence[str]] = None,
    check_reference: bool = False,
    fail_fast: bool = False,
    progress: Optional[Callable[[str, int], None]] = None,
    repro_flags: str = "",
    observer: Optional[Callable] = None,
) -> WorkloadReport:
    """Serve, replay solo, compare.  ``build`` must return a *fresh*
    identical ``{scheme: PhysicalDatabase}`` mapping on every call (the
    serving run mutates its copy; the replay needs a pristine one).

    ``repro_flags`` names the CLI flags that rebuild the same database
    (``--sf``, ``--datagen-seed``).  ``observer`` is called once per
    served query with the arguments of
    :meth:`repro.observe.ObservabilitySink.observe`; the serving
    timelines themselves are in the report's ``serving_reports``."""
    options = options or ExecutionOptions()
    report = WorkloadReport(seed=seed, queries=num_streams * queries_per_stream)
    reproduce = (
        f"--seed {seed} --streams {num_streams} "
        f"--queries {num_streams * queries_per_stream}"
        + (f" --updates {refresh_rounds}" if refresh_rounds else "")
        + f" --workers {max(int(options.workers), 1)} --backend {options.backend}"
        f" --policy {policy}"
        + (f" --max-concurrent {max_concurrent}" if max_concurrent else "")
        + (f" {repro_flags}" if repro_flags else "")
    )

    streams = partial(
        _build_streams, seed=seed, num_streams=num_streams,
        queries_per_stream=queries_per_stream, refresh_rounds=refresh_rounds,
    )
    first = build()
    wanted = list(schemes) if schemes is not None else list(first)
    for scheme in wanted:
        pdbs = first if first is not None else build()
        first = None
        serving_report = _serve_once(
            pdbs[scheme], streams, policy, options, max_concurrent, disk,
            costs, observer,
        )
        report.serving_reports[scheme] = serving_report
        _replay_and_compare(
            report, serving_report, build()[scheme], streams, options, disk,
            costs, check_reference=check_reference, fail_fast=fail_fast,
            reproduce=f"{reproduce} --schemes {scheme}",
        )
        if progress is not None:
            progress(scheme, len(report.divergences))
        if report.divergences and fail_fast:
            break
    return report


def _build_streams(
    db, seed: int, num_streams: int, queries_per_stream: int,
    refresh_rounds: int,
) -> Tuple[List[GeneratedQueryStream], List[GeneratedRefreshStream]]:
    """The generated query streams (and the refresh stream, if any) —
    built identically for the serving run and for its replay."""
    query_streams = [
        GeneratedQueryStream(
            f"s{i}", db, _stream_seed(seed, i), queries_per_stream
        )
        for i in range(num_streams)
    ]
    refresh_streams = []
    if refresh_rounds > 0:
        refresh_streams.append(
            GeneratedRefreshStream(
                "rf", db, _stream_seed(seed, -1), refresh_rounds
            )
        )
    return query_streams, refresh_streams


def _serve_once(
    pdb, streams, policy, options, max_concurrent, disk, costs, observer,
) -> ServingReport:
    query_streams, refresh_streams = streams(pdb.database)
    with ServingEngine(
        pdb, disk=disk, costs=costs, options=options, policy=policy,
        max_concurrent=max_concurrent, keep_results=True,
    ) as engine:
        return engine.serve(query_streams, refresh_streams, observer=observer)


def _replay_and_compare(
    report: WorkloadReport,
    serving_report: ServingReport,
    pdb,
    streams,
    options: ExecutionOptions,
    disk,
    costs,
    check_reference: bool,
    fail_fast: bool,
    reproduce: str,
) -> None:
    """Walk the serving run's event log against a pristine database."""
    db = pdb.database
    query_list, refresh_list = streams(db)
    query_streams = {s.name: s for s in query_list}
    refresh_streams = {s.name: s for s in refresh_list}
    records: Dict[tuple, QueryRecord] = {
        (r.stream, r.seq): r for r in serving_report.queries
    }
    items: Dict[tuple, object] = {}

    with Executor(pdb, disk=disk, costs=costs, options=options) as executor:
        for event in serving_report.events:
            kind = event["kind"]
            stream_name = event["stream"]
            index = event["index"]
            if kind == "generate":
                items[(stream_name, index)] = query_streams[stream_name].item(index)
            elif kind == "commit":
                session = UpdateSession(pdb, disk=disk, costs=costs)
                description = refresh_streams[stream_name].apply(index, session)
                report.count_commit(
                    session.commit() if description is not None else None
                )
            elif kind == "execute":
                item = items.pop((stream_name, index))
                record = records[(stream_name, index)]
                _check_one(
                    report, serving_report, executor, db, item, record,
                    reproduce, check_reference=check_reference,
                )
                if report.divergences and fail_fast:
                    return


def _check_one(
    report: WorkloadReport,
    serving_report: ServingReport,
    executor: Executor,
    db,
    item,
    record: QueryRecord,
    reproduce: str,
    check_reference: bool,
) -> None:
    def diverge(check: str, detail: str) -> None:
        report.divergences.append(
            Divergence(
                seed=report.seed,
                index=record.seq,
                scheme=serving_report.scheme,
                variant=f"{serving_report.policy}/{record.stream}/{record.seq}",
                check=check,
                description=record.description,
                detail=detail,
                reproduce=reproduce,
            )
        )

    # the rebuilt database must sit exactly at the pinned epochs — if
    # not, the replay order (or the engine's snapshot log) is wrong
    pinned = record.snapshot
    current = EpochSnapshot.pin(executor.pdb)
    if current != pinned:
        diverge(
            "epoch",
            f"replay epochs {current.as_dict()} != pinned {pinned.as_dict()}",
        )
        return
    if record.relation is None:
        diverge("solo", "serving run kept no result (keep_results=False)")
        return

    solo = executor.execute(item.plan).relation
    report.executions += 1
    # plans whose contracts allow reordering or re-aggregation match
    # their solo run as a multiset; everything else bit-for-bit
    detail = result_mismatch(
        solo, record.relation,
        exact=not (record.reorders or record.reaggregates), report=report,
    )
    if detail is not None:
        diverge("solo", detail)
    if check_reference:
        report.reference_checks += 1
        detail = result_mismatch(
            evaluate_reference(db, item.plan), record.relation, report=report
        )
        if detail is not None:
            diverge("reference", detail)
