"""The benchmark's three workloads and the loop that times them.

Each workload is closed-loop with a single client: the next operation
is issued only after the previous one returned.  A workload is made of
*units* — one pass over the 22 TPC-H queries, or one write followed by
a few reads — and a run executes whole units, so every run of a
workload times the same mix of operations.  Inputs (data, refresh rows,
the read sequence) derive from the seed alone.

Every operation's result is checked outside the timed operation with
the repository's tolerant comparison helpers; an exception or a
mismatch counts as a failed operation.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import tpch
from repro.execution.expressions import Col, InList
from repro.observe.registry import REGISTRY
from repro.observe.spans import SpanTracer
from repro.planner.executor import ExecutionOptions, Executor
from repro.serving import capture_tpch_items
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import QUERIES
from repro.tpch.refresh import generate_rf1, refresh_pair_size, rf2_order_keys
from repro.tpch.runner import run_query
from repro.updates import CompactionPolicy, UpdateSession
from repro.workload.differential import column_tolerances, normalized_rows, rows_match

from .measure import (
    PER_LAYER,
    children_peak_rss_mb,
    layer_metrics,
    peak_rss_mb,
    percentile,
    span,
)

__all__ = ["WORKLOADS", "END_TO_END", "RunResult", "run_workload", "result_rows"]

#: timed operations a run needs so its p90 has ten samples beyond it.
QUERY_SAMPLES = 100
#: a run sets up at least ``SETUPS`` times and until the set-ups took
#: ``SETUP_SECONDS``; ``setup_s`` reports their median, so a short
#: set-up is sampled often enough to be steady.
SETUPS = 3
SETUP_SECONDS = 6.0
#: units a traced run executes at least, so each copy goes first once
TRACED_UNITS = 2

#: end-to-end metric name -> unit; every workload reports all of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_query_s": "sim_s",
}


def result_rows(relation) -> List[tuple]:
    """A query result as a canonically ordered row multiset."""
    return normalized_rows(relation.columns, relation.column_names)


@dataclass
class Expected:
    """A reference result: its visible columns (for dtype tolerances)
    and its rows."""

    names: List[str]
    columns: Dict[str, np.ndarray]
    rows: List[tuple]

    @classmethod
    def of(cls, relation) -> "Expected":
        return cls(sorted(relation.column_names), relation.columns, result_rows(relation))


def _suite_call(pdb, fn, env, tracer, options=None):
    """One TPC-H query function through ``run_query`` (a fresh executor,
    closed when the query ends), as the CLI and ``run_suite`` run it."""
    result, metrics = run_query(
        pdb, fn, disk=env.disk, costs=env.cost_model, options=options, tracer=tracer
    )
    return result.relation, metrics


def _plan_call(executor: Executor, plan):
    """One logical plan through a long-lived executor."""
    result = executor.execute(plan)
    return result.relation, result.metrics


@dataclass
class Recorder:
    """What one side (traced or untraced) of a run measured."""

    tracer: Optional[SpanTracer] = None
    query_ms: List[float] = field(default_factory=list)
    commit_ms: List[float] = field(default_factory=list)
    #: (unit index, scheme, simulated wall seconds, simulated total seconds)
    sim: List[Tuple[int, str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: summed latency of the timed operations
    busy_s: float = 0.0
    #: client-side time inside the loop: result checks, row generation
    client_s: float = 0.0

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {reason}")

    def query(self, unit: int, label: str, scheme: str, call: Callable):
        """Time one query call (``call()`` returns ``(relation, metrics)``);
        returns its relation, or None if it raised."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            with span(self.tracer, "bench.query", query=label, scheme=scheme) as node:
                relation, metrics = call()
        except Exception as exc:  # a failing query is counted, not fatal
            self.fail(f"{label}/{scheme}", f"{type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - started
        self.busy_s += seconds
        self.query_ms.append(seconds * 1e3)
        self.sim.append((unit, scheme, metrics.wall_seconds, metrics.total_seconds))
        if node is not None:
            node.attributes.update(
                rows_out=metrics.rows_produced,
                rows_scanned=metrics.rows_scanned,
                delta_rows_scanned=metrics.delta_rows_scanned,
                io_bytes=metrics.io_bytes,
                sim_seconds=metrics.wall_seconds,
                workers=metrics.workers,
                measured_fragment_seconds=sum(
                    f.measured_seconds for f in metrics.fragments
                ),
            )
        return relation

    def check(self, label: str, expected: Optional[Expected], relation) -> None:
        """Compare a result with its reference (client-side, untimed)."""
        if relation is None:
            return  # the failed call is already counted
        started = time.perf_counter()
        if expected is None:
            self.fail(label, "no reference result to check against")
        elif sorted(relation.column_names) != expected.names or not rows_match(
            expected.rows,
            result_rows(relation),
            column_tolerances(relation.column_names, expected.columns, relation.columns),
        ):
            self.fail(label, "result differs from the reference")
        self.client_s += time.perf_counter() - started

    def check_against_plain(self, label: str, results: Dict[str, object]) -> None:
        """Check every other scheme's result of one query against plain's."""
        started = time.perf_counter()
        reference = results["plain"]
        expected = Expected.of(reference) if reference is not None else None
        self.client_s += time.perf_counter() - started
        for scheme, relation in results.items():
            if scheme != "plain":
                self.check(f"{label}/{scheme}", expected, relation)


@dataclass
class State:
    """One set-up: the generated database and its physical schemes."""

    db: object
    env: object
    pdbs: Dict[str, object]
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    scale_factor = 0.0
    schemes: Tuple[str, ...] = ()
    #: units every run executes, whatever ``--seconds`` says
    min_units = 1
    #: leading units whose simulated seconds ``sim_query_s`` sums: a
    #: fixed set of operations, so the figure repeats exactly per seed
    fixed_units = 1
    #: whether a unit changes the database (a traced replay then needs
    #: its own set-up)
    mutates = False

    def setup(self, seed: int, tracer: Optional[SpanTracer]) -> State:
        """``tpch.generate`` plus every scheme build of the workload."""
        builds = []
        with span(tracer, "bench.setup"):
            with span(tracer, "bench.datagen") as datagen:
                db = tpch.generate(scale_factor=self.scale_factor, seed=seed)
            env = make_environment(self.scale_factor)
            pdbs = {}
            for scheme in self.schemes:
                with span(tracer, "bench.build", scheme=scheme) as node:
                    pdbs[scheme] = build_schemes(db, env, include=[scheme])[scheme]
                builds.append((node, pdbs[scheme]))
        if tracer is not None:  # byte counts, outside the timed spans
            datagen.attributes["user_bytes"] = sum(
                array.nbytes
                for table in db.loaded_tables
                for array in db.table_data(table).values()
            )
            for node, pdb in builds:
                node.attributes["stored_bytes"] = sum(
                    array.nbytes
                    for name in pdb.stored
                    for copy in pdb.stored_copies(name)
                    for array in copy.columns.values()
                )
        return State(db, env, pdbs)

    def prepare(self, state: State, seed: int) -> None:
        """Untimed per-run preparation (references, plan pools)."""

    def unit(self, state: State, rec: Recorder, index: int) -> None:
        raise NotImplementedError

    def close(self, state: State) -> None:
        """Release what ``prepare`` opened."""


# ------------------------------------------------------------- TPC-H suite
class TpchSerial(Workload):
    name = "tpch-sf0.1-serial"
    scale_factor = 0.1
    schemes = ("plain", "pk", "bdcc")
    min_units = math.ceil(QUERY_SAMPLES / (len(QUERIES) * 3))

    def unit(self, state: State, rec: Recorder, index: int) -> None:
        env = state.env
        for qname, fn in QUERIES.items():
            results = {}
            for scheme in self.schemes:
                results[scheme] = rec.query(
                    index, qname, scheme,
                    lambda pdb=state.pdbs[scheme], fn=fn: _suite_call(
                        pdb, fn, env, rec.tracer
                    ),
                )
            rec.check_against_plain(qname, results)


class TpchProcess(Workload):
    name = "tpch-sf0.02-process2"
    scale_factor = 0.02
    schemes = ("bdcc",)
    min_units = math.ceil(QUERY_SAMPLES / len(QUERIES))
    options = ExecutionOptions(workers=2, backend="process")

    def prepare(self, state: State, seed: int) -> None:
        # the reference: the same query run serially in-process
        pdb, env = state.pdbs["bdcc"], state.env
        state.extra["expected"] = {
            qname: Expected.of(_suite_call(pdb, fn, env, None)[0])
            for qname, fn in QUERIES.items()
        }

    def unit(self, state: State, rec: Recorder, index: int) -> None:
        pdb, env = state.pdbs["bdcc"], state.env
        for qname, fn in QUERIES.items():
            relation = rec.query(
                index, qname, "bdcc",
                lambda fn=fn: _suite_call(pdb, fn, env, rec.tracer, self.options),
            )
            rec.check(f"{qname}/bdcc", state.extra["expected"][qname], relation)


# ------------------------------------------------------------ refresh mix
class RefreshMix(Workload):
    """Writes beside reads.  A unit is one *deck*: a fixed multiset of
    reads with Zipf-skewed plan frequencies, shuffled per unit from the
    seed, served three reads after every write.  Whole decks keep the
    read mix identical across seeds and run lengths."""

    name = "refresh-mix-sf0.01"
    scale_factor = 0.01
    schemes = ("plain", "pk", "bdcc")
    reads_per_write = 3
    #: cards per deck before rounding (the rarest plan keeps one card)
    deck_scale = 104
    #: decks per run: 3 x 35 writes, so the commit p90 has ten samples
    #: beyond it
    min_units = 3
    fixed_units = 3
    mutates = True
    #: low enough that every table compacts every few refresh pairs
    policy = CompactionPolicy(max_delta_fraction=0.01, min_delta_rows=64)

    def deck(self, plans: int) -> np.ndarray:
        """Plan indices with Zipf(1) multiplicities by pool position,
        padded on the hottest plan to whole write cycles."""
        weights = 1.0 / np.arange(1, plans + 1)
        counts = np.maximum(1, np.round(self.deck_scale * weights / weights.sum()))
        counts = counts.astype(np.int64)
        counts[0] += -counts.sum() % self.reads_per_write
        return np.repeat(np.arange(plans), counts)

    def prepare(self, state: State, seed: int) -> None:
        env = state.env
        pool = capture_tpch_items(
            state.pdbs["plain"], QUERIES, disk=env.disk, costs=env.cost_model
        )
        state.extra.update(
            pool=pool,
            deck=self.deck(len(pool)),
            read_rng=np.random.default_rng([seed, 1]),
            refresh_rng=np.random.default_rng([seed, 2]),
            batch=refresh_pair_size(self.scale_factor),
            session=UpdateSession(
                *state.pdbs.values(), policy=self.policy,
                disk=env.disk, costs=env.cost_model,
            ),
            executors={},
        )

    def _executor(self, state: State, rec: Recorder, scheme: str) -> Executor:
        executors = state.extra["executors"]
        if scheme not in executors:
            executors[scheme] = Executor(
                state.pdbs[scheme], disk=state.env.disk,
                costs=state.env.cost_model, tracer=rec.tracer,
            )
        return executors[scheme]

    def unit(self, state: State, rec: Recorder, index: int) -> None:
        extra = state.extra
        order = extra["read_rng"].permutation(extra["deck"])
        cycles = len(order) // self.reads_per_write
        for cycle in range(cycles):
            self._write(state, rec, index * cycles + cycle)
            start = cycle * self.reads_per_write
            for pick in order[start:start + self.reads_per_write]:
                self._read(state, rec, index, extra["pool"][int(pick)])

    def _write(self, state: State, rec: Recorder, number: int) -> None:
        """One refresh function: RF1 on even writes, RF2 on odd ones.
        Row generation is client work; only the commit is timed."""
        extra = state.extra
        session, rng, batch = extra["session"], extra["refresh_rng"], extra["batch"]
        kind = "rf1" if number % 2 == 0 else "rf2"
        started = time.perf_counter()
        with span(rec.tracer, "bench.refresh_gen", kind=kind):
            if kind == "rf1":
                orders, lineitems = generate_rf1(state.db, rng, batch)
                session.insert_rows("orders", orders)
                session.insert_rows("lineitem", lineitems)
            else:
                doomed = rf2_order_keys(state.db, rng, batch).tolist()
                session.delete_where("lineitem", InList(Col("l_orderkey"), doomed))
                session.delete_where("orders", InList(Col("o_orderkey"), doomed))
        rec.client_s += time.perf_counter() - started

        rec.attempted += 1
        started = time.perf_counter()
        try:
            with span(rec.tracer, "bench.commit", kind=kind) as node:
                commit = session.commit()
        except Exception as exc:  # a failing commit is counted, not fatal
            rec.fail(f"commit {number} ({kind})", f"{type(exc).__name__}: {exc}")
            return
        seconds = time.perf_counter() - started
        rec.busy_s += seconds
        rec.commit_ms.append(seconds * 1e3)
        if node is not None:
            node.attributes["compactions"] = sum(c.compacted for c in commit.changes)

    def _read(self, state: State, rec: Recorder, index: int, item) -> None:
        """One pooled plan on every scheme, checked against plain."""
        results = {
            scheme: rec.query(
                index, item.description, scheme,
                lambda ex=self._executor(state, rec, scheme): _plan_call(ex, item.plan),
            )
            for scheme in self.schemes
        }
        rec.check_against_plain(item.description, results)

    def close(self, state: State) -> None:
        for executor in state.extra.get("executors", {}).values():
            executor.close()


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (TpchSerial, TpchProcess, RefreshMix)
}


# ------------------------------------------------------------------ runs
@dataclass
class RunResult:
    """One run's outcome: the metrics it reports and what backs them."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    failures: List[str]
    #: workload-specific figures reported beside the metrics
    extras: Dict[str, float] = field(default_factory=dict)
    #: the traced run's artifact (spans, registry counts, process facts)
    artifact: Optional[dict] = None


def _setups(workload: Workload, seed: int, tracer) -> Tuple[State, List[float]]:
    """Set up at least ``SETUPS`` times and for ``SETUP_SECONDS`` (dropping
    each earlier copy first, so peak memory holds one); returns the last
    state and every duration."""
    state, durations = None, []
    while len(durations) < SETUPS or sum(durations) < SETUP_SECONDS:
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed, tracer)
        durations.append(time.perf_counter() - started)
    workload.prepare(state, seed)
    return state, durations


def _keep_going(done: int, min_units: int, elapsed: float, seconds: float) -> bool:
    """Whole units only: start another while the minimum is unmet or the
    mean unit so far still fits before the deadline."""
    if done < min_units:
        return True
    return elapsed + elapsed / done <= seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run one workload: set up, then time whole units for ``seconds``.

    Untraced, the result carries the end-to-end metrics.  Traced, each
    unit runs twice, untraced and traced on an identical state, so the
    per-layer metrics come from the traced copies and the tracing
    overhead from the pair."""
    workload = WORKLOADS[name]()
    floor = workload.min_units
    if trace:
        return _run_traced(workload, seed, seconds)

    state, setup_s = _setups(workload, seed, None)
    rec = Recorder()
    REGISTRY.reset()
    started = time.perf_counter()
    units = 0
    try:
        while _keep_going(units, floor, time.perf_counter() - started, seconds):
            workload.unit(state, rec, units)
            units += 1
    finally:
        workload.close(state)
    wall = time.perf_counter() - started - rec.client_s

    fixed = min(workload.fixed_units, floor)
    metrics = {
        "setup_s": percentile(setup_s, 50),
        "query_ms_p50": percentile(rec.query_ms, 50),
        "query_ms_p90": percentile(rec.query_ms, 90),
        "queries_per_s": (len(rec.query_ms) + len(rec.commit_ms)) / wall,
        "peak_rss_mb": peak_rss_mb(),
        "sim_query_s": sum(s[2] for s in rec.sim if s[0] < fixed),
    }
    extras = {
        "units": float(units),
        "query_samples": float(len(rec.query_ms)),
        "failed_ratio": rec.failed / max(rec.attempted, 1),
        "children_peak_rss_mb": children_peak_rss_mb(),
    }
    if rec.commit_ms:
        extras.update(
            commit_ms_p50=percentile(rec.commit_ms, 50),
            commit_ms_p90=percentile(rec.commit_ms, 90),
            commit_samples=float(len(rec.commit_ms)),
        )
    if {"plain", "bdcc"} <= set(workload.schemes):
        extras["sim_bdcc_speedup"] = sim_speedup(rec, fixed)
    return RunResult(metrics, dict(END_TO_END), rec.attempted, rec.failed, rec.failures, extras)


def sim_speedup(rec: Recorder, units: int) -> float:
    """Summed simulated seconds on plain over those on bdcc across the
    first ``units`` units; each scheme's sum runs in query order, as
    ``SuiteResult.speedup`` sums it."""
    totals = {
        scheme: sum(s[3] for s in rec.sim if s[0] < units and s[1] == scheme)
        for scheme in ("plain", "bdcc")
    }
    return totals["plain"] / totals["bdcc"] if totals["bdcc"] else 0.0


def _run_traced(workload: Workload, seed: int, seconds: float) -> RunResult:
    tracer = SpanTracer()
    state, _ = _setups(workload, seed, tracer)
    if workload.mutates:
        replay = workload.setup(seed, None)
        workload.prepare(replay, seed)
    else:
        replay = state
    plain, traced = Recorder(), Recorder(tracer=tracer)
    counts: Dict[str, float] = {}
    REGISTRY.reset()
    started = time.perf_counter()
    units = 0
    try:
        while _keep_going(units, TRACED_UNITS, time.perf_counter() - started, seconds):
            # alternate which copy goes first, so neither side always
            # finds the state (caches, allocator) warmed by the other
            sides = [(state, plain), (replay, traced)]
            for target, rec in sides if units % 2 == 0 else sides[::-1]:
                before = dict(REGISTRY.counters)
                workload.unit(target, rec, units)
                if rec is traced:
                    for key, value in REGISTRY.counters.items():
                        counts[key] = counts.get(key, 0.0) + value - before.get(key, 0.0)
            units += 1
    finally:
        workload.close(state)
        if replay is not state:
            workload.close(replay)
    artifact = {
        "spans": [root.to_dict() for root in tracer.roots],
        "registry": counts,
        "process": {
            "children_peak_rss_mb": children_peak_rss_mb(),
            "traced_wall_s": traced.busy_s,
            "untraced_wall_s": plain.busy_s,
            "units": units,
        },
    }
    return RunResult(
        layer_metrics(artifact),
        dict(PER_LAYER),
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        (plain.failures + traced.failures)[:20],
        {"units": float(units)},
        artifact,
    )
