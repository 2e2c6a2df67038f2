"""The CLIs' observability sink and the flag group that drives it.

Both command lines (``python -m repro.tpch`` and ``python -m
repro.workload``) fan every finished execution out to the same three
artifacts: a Perfetto trace (``--trace``), a JSONL query log
(``--query-log``) and an in-memory record list for the ``--json``
document.  :class:`ObservabilitySink` is that fan-out, with one
:meth:`~ObservabilitySink.observe` entry point for suite queries, sweep
executions and served queries alike; :func:`add_run_flags` defines the
execution, serving and observability flags both CLIs share.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from .query_log import QueryLog, build_record
from .trace_events import TraceBuilder

__all__ = ["ObservabilitySink", "add_run_flags"]


class ObservabilitySink:
    """Fans finished executions out to the enabled sinks: the trace
    builder (``trace_path``), the JSONL query log (``query_log_path``)
    and, with ``collect``, an in-memory record list."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        query_log_path: Optional[str] = None,
        collect: bool = False,
    ):
        self.trace_path = trace_path
        self.builder = TraceBuilder() if trace_path else None
        self.query_log = QueryLog(query_log_path) if query_log_path else None
        self.records: Optional[List[dict]] = [] if collect else None

    @property
    def enabled(self) -> bool:
        return bool(self.builder or self.query_log or self.records is not None)

    def observe(
        self,
        label: str,
        metrics,
        pdb,
        scheme: str,
        options,
        plans: Optional[Sequence] = None,
        relation=None,
        *,
        timelines: Optional[Sequence] = None,
        collect: bool = True,
    ) -> None:
        """Record one finished execution.  The trace gets one slice set
        per entry of ``timelines`` (default: ``metrics`` itself; a
        multi-stage query passes its per-stage metrics, a served query
        none — its slices live on the serving timeline).  ``collect``
        says whether the ``--json`` record list keeps this one: sweeps
        keep only the default variant, so the document stays bounded."""
        if self.builder is not None:
            stages = [metrics] if timelines is None else list(timelines)
            for position, stage in enumerate(stages):
                stage_label = (
                    label if len(stages) == 1 else f"{label} stage {position + 1}"
                )
                self.builder.add_execution(stage_label, stage)
        keep = collect and self.records is not None
        if self.query_log is None and not keep:
            return
        record = build_record(
            label, metrics, pdb=pdb, scheme=scheme, options=options,
            plans=plans, relation=relation,
        )
        if self.query_log is not None:
            self.query_log.write(record)
        if keep:
            self.records.append(record)

    def finish(self) -> None:
        if self.builder is not None:
            self.builder.write(self.trace_path)
        if self.query_log is not None:
            self.query_log.close()


def add_run_flags(
    parser: argparse.ArgumentParser,
    *,
    workers: dict,
    backend_help: str,
    streams_help: str,
    json_help: str,
) -> None:
    """Add the execution, serving and observability flags both CLIs
    share.  The keyword arguments carry what differs in meaning between
    them: ``--workers`` (one count vs a comma-separated sweep, given as
    ``add_argument`` keywords) and the help of ``--backend``,
    ``--streams`` and ``--json``."""
    group = parser.add_argument_group("execution, serving and observability")
    group.add_argument("--workers", **workers)
    group.add_argument(
        "--backend", choices=("simulated", "process"), default="simulated",
        help=backend_help,
    )
    group.add_argument(
        "--streams", type=int, default=0, metavar="N", help=streams_help
    )
    group.add_argument(
        "--policy", choices=("fifo", "round-robin", "shortest"),
        default="fifo",
        help="admission (fairness) policy for --streams (default fifo)",
    )
    group.add_argument(
        "--max-concurrent", type=int, default=None, metavar="M",
        help=(
            "multiprogramming limit for --streams: at most M queries in "
            "flight at once (default: the worker count)"
        ),
    )
    group.add_argument(
        "--trace", metavar="FILE", default=None,
        help=(
            "write a Chrome trace-event JSON timeline of every execution "
            "(workers as lanes, fragments as slices, exchanges as flow "
            "arrows; open in https://ui.perfetto.dev)"
        ),
    )
    group.add_argument(
        "--query-log", metavar="FILE", default=None,
        help=(
            "append one schema-validated JSONL record per execution "
            "(plan fingerprint, options, epochs, actuals, timeline)"
        ),
    )
    group.add_argument("--json", action="store_true", help=json_help)
    group.add_argument(
        "--profile", action="store_true",
        help=(
            "run every fragment under cProfile and attach the top "
            "functions to query-log records and trace slices (passive: "
            "simulated charges and results are unchanged)"
        ),
    )
