"""Deterministic multi-worker scheduling of plan fragments.

Execution is split from timing, mirroring the engine's simulation
philosophy (results are exact, time is modelled):

1. **Run** every fragment once, in topological order, each with its own
   :class:`~repro.execution.metrics.ExecutionMetrics` — producing exact
   results and the fragment's *charged* (uncontended) IO/CPU seconds.
   Results flow between fragments through the context's
   ``fragment_results`` map, never recomputed.
2. **Schedule** the fragments onto *k* simulated workers with
   dependency-aware list dispatch (longest fragment first, index as the
   deterministic tie-break).  The event-driven timeline models each
   fragment as an IO phase followed by a CPU phase; concurrent IO
   phases share the disk according to
   :meth:`~repro.storage.io_model.DiskModel.stream_rate`, so a device
   with 4 parallel streams serves 4 scans at full speed and stretches 8.
   Wall clock is the **makespan** over worker timelines.
3. **Merge**: query totals are the *sums* over fragments (so exclusive
   per-operator actuals still sum to totals), the makespan becomes
   ``metrics.makespan_seconds``, and peak memory is recomputed as the
   peak of *concurrently live* footprints: overlapping fragments'
   reservation peaks plus exchanged result buffers held from a
   producer's finish until its last consumer finishes.

Shuffle accounting (co-partitioned joins): a producer feeding rebinning
:class:`~repro.parallel.exchange.Repartition` consumers has its whole
output buffered like any exchange — the buffer lives from the producer's
finish until the *last* bin-range consumer is done, so the concurrent
peak sees the full shuffled volume — and every consumer charges the
modelled transfer inside its own fragment: per-received-row re-binning
CPU plus :class:`~repro.storage.io_model.DiskModel` IO for the bucket it
keeps (one access per producer).  Those charges land in the consumer's
IO/CPU phases, so the shuffle competes for disk streams and shows up in
the makespan exactly like scan IO does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..execution.cost import CostModel
from ..execution.metrics import (
    ExecutionMetrics,
    FragmentActuals,
    merge_operator_actuals,
)
from ..execution.operators import ExecutionContext
from ..execution.relation import Relation
from ..observe.profiling import profile_call
from ..storage.io_model import DiskModel
from .fragments import ParallelPlan

__all__ = [
    "FragmentWork",
    "ScheduledFragment",
    "TimelineSimulator",
    "simulate_schedule",
    "concurrent_peak",
    "execute_fragments",
    "merge_parallel_metrics",
    "run_fragment",
]

_EPS = 1e-15


@dataclass
class FragmentWork:
    """Scheduling input: one fragment's charged resource demands."""

    index: int
    io_seconds: float
    cpu_seconds: float
    depends_on: Tuple[int, ...] = ()


@dataclass
class ScheduledFragment:
    """Scheduling output: one fragment's place on the timeline."""

    index: int
    worker: int = -1
    ready_seconds: float = 0.0
    start_seconds: float = 0.0
    io_end_seconds: float = 0.0
    end_seconds: float = 0.0


class TimelineSimulator:
    """Online form of the deterministic list scheduler.

    The batch :func:`simulate_schedule` places a *closed* set of works;
    the serving layer (``repro.serving``) needs the same timeline rules
    while work keeps arriving — fragments of newly admitted queries,
    refresh-commit work, background compaction.  This class keeps the
    identical semantics — among ready works the one with the highest
    priority first (default: most total work, ties by index) onto the
    lowest-numbered free worker; concurrent IO phases share the disk
    through ``stream_rate``; phase finishes processed in index order —
    but exposes an incremental interface: :meth:`add_works` registers
    work at the current instant, :meth:`run_until` advances the clock to
    the next completion (or a caller-supplied horizon), and the caller
    reacts to completions by adding more work.  ``simulate_schedule`` is
    a thin wrapper, so the single-query timing model and the multi-query
    serving timeline can never drift apart.
    """

    def __init__(
        self,
        workers: int,
        streams: int = 1,
        stream_rate: Optional[Callable[[int], float]] = None,
        priority: Optional[Callable[[FragmentWork], Tuple]] = None,
    ):
        self.workers = max(int(workers), 1)
        if stream_rate is None:
            stream_rate = DiskModel(
                parallel_streams=max(int(streams), 1)
            ).stream_rate
        self._stream_rate = stream_rate
        self._priority_of = priority or (
            lambda w: (-(w.io_seconds + w.cpu_seconds), w.index)
        )
        self.now = 0.0
        self.works: Dict[int, FragmentWork] = {}
        self.slots: Dict[int, ScheduledFragment] = {}
        self._remaining_deps: Dict[int, set] = {}
        self._dependents: Dict[int, List[int]] = {}
        self._ready: List[int] = []
        self._free: List[int] = list(range(self.workers))
        #: index -> [phase ("io"|"cpu"), remaining seconds, worker]
        self._running: Dict[int, list] = {}
        self._completed: set = set()
        self.makespan = 0.0

    # ------------------------------------------------------------ state
    @property
    def pending(self) -> int:
        """Registered works not yet completed."""
        return len(self.works) - len(self._completed)

    @property
    def idle(self) -> bool:
        return not self._running and not self._ready

    def _priority(self, index: int) -> Tuple:
        return self._priority_of(self.works[index])

    # ------------------------------------------------------------ input
    def add_works(self, works: List[FragmentWork]) -> None:
        """Register works at the current instant.  ``depends_on`` may
        reference works in the same batch, earlier batches, or already
        completed ones; indices must be unique across the timeline's
        whole life."""
        for w in works:
            if w.index in self.works:
                raise ValueError(f"duplicate work index {w.index}")
            self.works[w.index] = w
            self.slots[w.index] = ScheduledFragment(
                index=w.index, ready_seconds=self.now
            )
            deps = {d for d in w.depends_on if d not in self._completed}
            self._remaining_deps[w.index] = deps
            for dep in deps:
                self._dependents.setdefault(dep, []).append(w.index)
            if not deps:
                self._ready.append(w.index)
        self._ready.sort(key=self._priority)

    # --------------------------------------------------------- stepping
    def _dispatch(self) -> None:
        while self._free and self._ready:
            index = self._ready.pop(0)
            worker = self._free.pop(0)
            w = self.works[index]
            slot = self.slots[index]
            slot.worker = worker
            slot.start_seconds = self.now
            if w.io_seconds > _EPS:
                self._running[index] = ["io", w.io_seconds, worker]
            else:
                slot.io_end_seconds = self.now
                self._running[index] = ["cpu", w.cpu_seconds, worker]

    def _next_step(self) -> Tuple[float, float]:
        """The ``(step, io rate)`` to the next phase finish among the
        currently running works (dispatch must already have happened)."""
        active_io = sum(1 for state in self._running.values() if state[0] == "io")
        rate = max(self._stream_rate(active_io), 1e-12) if active_io else 1.0
        step = min(
            state[1] / rate if state[0] == "io" else state[1]
            for state in self._running.values()
        )
        return max(step, 0.0), rate

    def next_event_time(self) -> Optional[float]:
        """The instant of the next phase finish, or ``None`` if nothing
        is running (after dispatching anything ready).  Exact: the
        active set — hence the shared-disk rate — cannot change before
        it."""
        self._dispatch()
        if not self._running:
            return None
        step, _ = self._next_step()
        return self.now + step

    def run_until(self, until: Optional[float] = None) -> List[int]:
        """Advance the clock to the first instant at which one or more
        works *complete* (internal IO->CPU phase transitions do not
        stop the run), or to ``until``, whichever comes first; ``None``
        means run until idle.  Returns the indices completed at the
        stopping instant in index order (empty when ``until`` or
        idleness was reached first).  The clock never exceeds
        ``until``."""
        while True:
            self._dispatch()
            if not self._running:
                if until is not None and self.now < until:
                    self.now = until
                return []
            step, rate = self._next_step()
            target = self.now + step
            if until is not None and target > until:
                partial = until - self.now
                if partial > 0.0:
                    for state in self._running.values():
                        state[1] -= partial * (
                            rate if state[0] == "io" else 1.0
                        )
                    self.now = until
                return []
            self.now = target
            finished_phase = []
            for index, state in self._running.items():
                state[1] -= step * (rate if state[0] == "io" else 1.0)
                if state[1] <= _EPS:
                    finished_phase.append(index)
            completed: List[int] = []
            for index in sorted(finished_phase):
                phase, _, worker = self._running[index]
                slot = self.slots[index]
                if phase == "io":
                    slot.io_end_seconds = self.now
                    cpu = self.works[index].cpu_seconds
                    if cpu > _EPS:
                        self._running[index] = ["cpu", cpu, worker]
                        continue
                slot.end_seconds = self.now
                del self._running[index]
                self._completed.add(index)
                completed.append(index)
                self._free.append(worker)
                self._free.sort()
                for dependent in self._dependents.get(index, ()):
                    deps = self._remaining_deps[dependent]
                    deps.discard(index)
                    if not deps and dependent not in self._running:
                        self.slots[dependent].ready_seconds = self.now
                        self._ready.append(dependent)
                self._ready.sort(key=self._priority)
            if completed:
                self.makespan = max(self.makespan, self.now)
                return completed

    def run_to_idle(self) -> List[int]:
        """Run until nothing is runnable, returning every completion in
        completion order.  Raises if registered works can never run
        (dependency cycle)."""
        completed: List[int] = []
        while True:
            batch = self.run_until(None)
            if not batch:
                break
            completed.extend(batch)
        if self.pending and self.idle:
            raise RuntimeError(
                "fragment dependency cycle: nothing runnable"
            )
        return completed


def simulate_schedule(
    works: List[FragmentWork],
    workers: int,
    streams: int = 1,
    stream_rate: Optional[Callable[[int], float]] = None,
) -> Tuple[List[ScheduledFragment], float]:
    """Deterministically place fragments on worker timelines.

    Dispatch is list scheduling: among ready fragments, the one with the
    most remaining work first (ties by index), onto the lowest-numbered
    free worker.  IO phases of concurrently running fragments share the
    disk through ``stream_rate`` — the per-stream rate as a function of
    the number of active streams, defaulting to
    :meth:`~repro.storage.io_model.DiskModel.stream_rate` of a device
    with ``streams`` parallel streams.  Returns the per-fragment slots
    and the makespan.  (A thin wrapper over :class:`TimelineSimulator`,
    which serves the same timeline rules incrementally.)"""
    sim = TimelineSimulator(workers, streams=streams, stream_rate=stream_rate)
    sim.add_works(works)
    sim.run_to_idle()
    return [sim.slots[w.index] for w in works], sim.makespan


# --------------------------------------------------------------- memory
def concurrent_peak(intervals: List[Tuple[float, float, float]]) -> float:
    """Peak of overlapping ``(start, end, bytes)`` intervals.  At equal
    timestamps allocations apply before releases, so a handoff (producer
    buffer still live while the consumer starts) counts as overlap."""
    events = []
    for order, (start, end, num_bytes) in enumerate(intervals):
        if num_bytes <= 0.0:
            continue
        events.append((start, 0, order, num_bytes))
        events.append((end, 1, order, -num_bytes))
    events.sort()
    live = peak = 0.0
    for _, _, _, delta in events:
        live += delta
        peak = max(peak, live)
    return peak


# -------------------------------------------------------------- running
def run_fragment(
    root,
    disk: DiskModel,
    costs: CostModel,
    fragment_results: Optional[Dict[int, Relation]] = None,
    profile: bool = False,
) -> Tuple[Relation, ExecutionMetrics]:
    """Run one plan tree to completion with its own
    :class:`~repro.execution.metrics.ExecutionMetrics` — the single
    place a plan is executed, whether it is a whole serial plan, a
    fragment in this process, a fragment in a pool worker or the
    process backend's serial tail.  ``fragment_results`` feeds the
    tree's Exchange/Repartition leaves; with ``profile`` the run is
    wrapped in ``cProfile`` and its top functions land on
    ``metrics.profile`` (passive: charges and results are
    unaffected)."""
    metrics = ExecutionMetrics()
    ctx = ExecutionContext(disk, costs, metrics, fragment_results=fragment_results)
    relation, metrics.profile = profile_call(root.run, ctx, enabled=profile)
    ctx.release_all()
    metrics.rows_produced = relation.num_rows
    return relation, metrics


def execute_fragments(
    plan: ParallelPlan,
    disk: DiskModel,
    costs: CostModel,
    profile: bool = False,
) -> Tuple[Dict[int, Relation], Dict[int, ExecutionMetrics]]:
    """The *run* stage: execute every fragment once, in topological
    order, in the current process — producing exact results and each
    fragment's charged (uncontended) metrics.  A serial plan is the
    one-fragment case.  Backends that run fragments elsewhere
    (``repro.parallel.backends.ProcessBackend``) replace exactly this
    function; the *time* stage (:func:`merge_parallel_metrics`) is
    shared so the simulated charges are identical whichever backend
    produced the results."""
    results: Dict[int, Relation] = {}
    fragment_metrics: Dict[int, ExecutionMetrics] = {}
    for fragment in plan.fragments:  # topological by construction
        results[fragment.index], fragment_metrics[fragment.index] = run_fragment(
            fragment.root, disk, costs, results, profile
        )
    return results, fragment_metrics


def merge_parallel_metrics(
    plan: ParallelPlan,
    results: Dict[int, Relation],
    fragment_metrics: Dict[int, ExecutionMetrics],
    disk: DiskModel,
    measured: Optional[Dict[int, Tuple[float, float]]] = None,
) -> Tuple[Relation, ExecutionMetrics]:
    """The *time* stage: place the executed fragments on the simulated
    worker timelines (:func:`simulate_schedule`) and merge their metrics
    into the query's.  Totals are sums over fragments; per-operator
    actuals *accumulate* across fragments (fragmenting clones only the
    spine, so a shared leaf/broadcast operator may have run several
    times under the same identity — see
    :func:`~repro.execution.metrics.merge_operator_actuals`); peak
    memory is the concurrent peak over fragment reservations plus every
    exchanged producer buffer held until its last consumer finishes.
    ``measured`` maps fragment indices to the wall-clock windows a
    measuring backend recorded.  A one-fragment (serial) plan folds to
    the serial metrics: one worker, makespan == total, notes
    unprefixed."""
    measured = measured or {}
    works = [
        FragmentWork(
            index=f.index,
            io_seconds=fragment_metrics[f.index].io_seconds,
            cpu_seconds=fragment_metrics[f.index].cpu_seconds,
            depends_on=f.depends_on,
        )
        for f in plan.fragments
    ]
    slots, makespan = simulate_schedule(
        works, plan.workers, stream_rate=disk.stream_rate
    )
    slot_of = {s.index: s for s in slots}

    merged = ExecutionMetrics()
    merged.workers = plan.workers if plan.is_parallel else 1
    merged.makespan_seconds = makespan
    consumers: Dict[int, List[int]] = {}
    for fragment in plan.fragments:
        for dep in fragment.depends_on:
            consumers.setdefault(dep, []).append(fragment.index)

    memory_intervals: List[Tuple[float, float, float]] = []
    #: per-tag live intervals, merged with the same concurrent-peak rule
    #: as the overall footprint (exchange buffers under "exchange").
    tag_intervals: Dict[str, List[Tuple[float, float, float]]] = {}
    for fragment in plan.fragments:
        metrics = fragment_metrics[fragment.index]
        slot = slot_of[fragment.index]
        relation = results[fragment.index]
        merged.add_charges(metrics)
        for key, value in metrics.counters.items():
            merged.counters[key] = merged.counters.get(key, 0.0) + value
        prefix = f"[f{fragment.index}] " if plan.is_parallel else ""
        merged.notes.extend(prefix + note for note in metrics.notes)
        merge_operator_actuals(merged.operators, metrics.operators)
        output_bytes = 0.0
        if consumers.get(fragment.index):
            output_bytes = relation.data_bytes()
            reads_end = max(slot_of[c].end_seconds for c in consumers[fragment.index])
            memory_intervals.append((slot.end_seconds, reads_end, output_bytes))
            tag_intervals.setdefault("exchange", []).append(
                (slot.end_seconds, reads_end, output_bytes)
            )
        memory_intervals.append(
            (slot.start_seconds, slot.end_seconds, metrics.memory.peak_bytes)
        )
        for tag, tag_peak in metrics.memory.tag_peaks.items():
            tag_intervals.setdefault(tag, []).append(
                (slot.start_seconds, slot.end_seconds, tag_peak)
            )
        measured_start, measured_end = measured.get(fragment.index, (0.0, 0.0))
        merged.fragments.append(
            FragmentActuals(
                index=fragment.index,
                role=fragment.role,
                description=fragment.note,
                worker=slot.worker,
                depends_on=fragment.depends_on,
                ready_seconds=slot.ready_seconds,
                start_seconds=slot.start_seconds,
                io_end_seconds=slot.io_end_seconds,
                end_seconds=slot.end_seconds,
                io_seconds=metrics.io_seconds,
                cpu_seconds=metrics.cpu_seconds,
                rows_out=relation.num_rows,
                output_bytes=output_bytes,
                peak_memory_bytes=metrics.memory.peak_bytes,
                measured_seconds=measured_end - measured_start,
                measured_start_seconds=measured_start,
                measured_end_seconds=measured_end,
                profile=list(metrics.profile),
            )
        )
    merged.memory.peak_bytes = concurrent_peak(memory_intervals)
    merged.memory.tag_peaks = {
        tag: concurrent_peak(intervals)
        for tag, intervals in tag_intervals.items()
    }
    final = results[plan.final.index]
    merged.rows_produced = final.num_rows
    return final, merged
