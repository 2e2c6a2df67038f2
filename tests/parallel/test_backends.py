"""Execution backends: the process backend must be a drop-in for the
simulated one — bit-identical results, identical simulated charges —
plus the parallel-metrics correctness fixes that ride along (operator
actuals accumulate instead of last-fragment-wins; ``Executor.metrics``
exists before the first run).

The fast tests here stay in tier-1 (one small process-backend smoke
included); the full scheme × query × worker matrix, the delta-store
round and the seeded workload sweep carry the ``backend`` marker and
run in their own CI job.
"""

import multiprocessing

import numpy as np
import pytest

from repro.execution.metrics import (
    ExecutionMetrics,
    OperatorActuals,
    merge_operator_actuals,
)
from repro.parallel.backends import (
    BACKEND_NAMES,
    ProcessBackend,
    SimulatedBackend,
    create_backend,
)
from repro.planner.executor import ExecutionOptions, Executor
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner


def _run(pdb, environment, qname, workers=1, backend="simulated"):
    executor = Executor(
        pdb,
        disk=environment.disk,
        costs=environment.cost_model,
        options=ExecutionOptions(
            workers=workers, min_partition_rows=256, backend=backend
        ),
    )
    try:
        runner = QueryRunner(executor)
        result = QUERIES[qname](runner)
        return result.relation, runner.metrics
    finally:
        executor.close()


def _identical(a, b) -> bool:
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        x, y = a.column(name), b.column(name)
        equal = (
            np.array_equal(x, y, equal_nan=True)
            if x.dtype.kind == "f" and y.dtype.kind == "f"
            else np.array_equal(x, y)
        )
        if not equal:
            return False
    return True


# ------------------------------------------------------------- fast tier


class TestMetricsBugfixes:
    def test_executor_metrics_exists_before_first_run(self, bdcc_db, environment):
        """Regression: ``Executor.metrics`` used to appear only inside
        ``run()``, so touching it before the first execution raised
        AttributeError."""
        executor = Executor(
            bdcc_db, disk=environment.disk, costs=environment.cost_model
        )
        assert isinstance(executor.metrics, ExecutionMetrics)
        assert executor.metrics.total_seconds == 0.0
        assert executor.metrics.rows_produced == 0
        assert not executor.metrics.operators

    def test_merge_accumulates_shared_operator_keys(self):
        """Regression: merging fragment metrics used ``dict.update`` —
        last fragment wins — so an operator object shared by several
        fragments (leaves, broadcast subtrees) lost all but one
        execution's charges.  The merge must accumulate."""
        merged = {}
        first = OperatorActuals(
            "scan", "lineitem", rows_in=10, rows_out=10,
            io_bytes=100.0, io_accesses=2, io_seconds=0.5, cpu_seconds=0.25,
            reserved_bytes=64.0,
        )
        second = OperatorActuals(
            "scan", "lineitem", rows_in=6, rows_out=6,
            io_bytes=60.0, io_accesses=1, io_seconds=0.3, cpu_seconds=0.15,
            reserved_bytes=32.0,
        )
        merge_operator_actuals(merged, {7: first})
        merge_operator_actuals(merged, {7: second, 8: OperatorActuals("agg", "")})
        assert set(merged) == {7, 8}
        got = merged[7]
        assert got.executions == 2
        assert got.rows_out == 16
        assert got.io_bytes == pytest.approx(160.0)
        assert got.io_accesses == 3
        assert got.io_seconds == pytest.approx(0.8)
        assert got.cpu_seconds == pytest.approx(0.4)
        assert got.reserved_bytes == pytest.approx(96.0)
        # the merge copies: the per-fragment record must stay untouched
        assert first.executions == 1 and first.rows_out == 10
        assert "execs=2" in got.summary()

    def test_parallel_operator_actuals_sum_to_merged_totals(
        self, bdcc_db, environment
    ):
        """ISSUE acceptance: in a parallel run the per-operator exclusive
        charges must sum exactly to the merged query totals — the old
        last-fragment-wins merge silently dropped fragments' charges."""
        for qname in ("Q01", "Q06", "Q03"):
            _, metrics = _run(bdcc_db, environment, qname, workers=4)
            assert metrics.workers == 4 and metrics.operators
            op_io = sum(a.io_seconds for a in metrics.operators.values())
            op_cpu = sum(a.cpu_seconds for a in metrics.operators.values())
            assert op_io == pytest.approx(metrics.io_seconds, abs=1e-12), qname
            assert op_cpu == pytest.approx(metrics.cpu_seconds, abs=1e-12), qname
            assert all(a.executions >= 1 for a in metrics.operators.values())


class TestBackendBasics:
    def test_create_backend_names(self):
        assert BACKEND_NAMES == ("simulated", "process")
        assert isinstance(create_backend("simulated"), SimulatedBackend)
        process = create_backend("process")
        assert isinstance(process, ProcessBackend)
        process.close()
        with pytest.raises(ValueError):
            create_backend("quantum")

    def test_simulated_runs_carry_no_measured_fields(self, bdcc_db, environment):
        _, metrics = _run(bdcc_db, environment, "Q06", workers=2)
        assert metrics.backend == "simulated"
        assert metrics.measured_wall_seconds == 0.0
        assert metrics.fragments
        assert all(f.measured_seconds == 0.0 for f in metrics.fragments)

    def test_process_backend_smoke_q06(self, bdcc_db, environment):
        """Small tier-1 smoke: the real pool produces bit-identical rows
        and identical simulated charges, plus measured wall clocks."""
        sim_rel, sim_metrics = _run(bdcc_db, environment, "Q06", workers=2)
        proc_rel, proc_metrics = _run(
            bdcc_db, environment, "Q06", workers=2, backend="process"
        )
        assert _identical(sim_rel, proc_rel)
        # the simulated cost model is charged identically on both backends
        assert proc_metrics.makespan_seconds == pytest.approx(
            sim_metrics.makespan_seconds
        )
        assert proc_metrics.io_seconds == pytest.approx(sim_metrics.io_seconds)
        assert proc_metrics.backend == "process"
        assert proc_metrics.measured_wall_seconds > 0.0
        assert proc_metrics.fragments
        assert any(f.measured_seconds > 0.0 for f in proc_metrics.fragments)
        assert all(f.measured_seconds >= 0.0 for f in proc_metrics.fragments)


def _comparable(metrics):
    """Every deterministic field of an execution's metrics."""
    return (
        metrics.io_bytes, metrics.io_accesses, metrics.io_seconds,
        metrics.cpu_seconds, metrics.rows_scanned, metrics.rows_produced,
        metrics.delta_rows_scanned, metrics.workers, metrics.makespan_seconds,
        metrics.backend, metrics.measured_wall_seconds,
        metrics.peak_memory_bytes, metrics.memory.tag_peaks,
        metrics.counters, metrics.notes,
        sorted(metrics.operators.values(), key=repr), metrics.fragments,
    )


class TestOneFragmentPlans:
    """A plan with nothing to split runs as one ``serial`` fragment
    through the same run and time stages at every worker count and on
    every backend, and folds to exactly the serial metrics."""

    @staticmethod
    def _plan():
        from repro.execution import AggSpec, col
        from repro.planner.logical import scan

        # 25 nations x 5 regions: far below min_partition_rows
        return scan("nation").join(
            scan("region"), on=[("n_regionkey", "r_regionkey")]
        ).groupby(["r_name"], [AggSpec("nations", "count", col("n_nationkey"))])

    def _run(self, pdb, environment, **options):
        children = multiprocessing.active_children()
        with Executor(
            pdb, disk=environment.disk, costs=environment.cost_model,
            options=ExecutionOptions(**options),
        ) as executor:
            plan = self._plan()
            parallel = executor.parallel_plan(executor.lower(plan))
            assert not parallel.is_parallel
            result = executor.execute(plan)
            # nothing to dispatch: no backend started a pool
            assert multiprocessing.active_children() == children
            return result

    def test_workers_two_equals_workers_one(self, bdcc_db, environment):
        serial = self._run(bdcc_db, environment, workers=1)
        two = self._run(bdcc_db, environment, workers=2)
        assert _identical(serial.relation, two.relation)
        assert _comparable(two.metrics) == _comparable(serial.metrics)
        (fragment,) = two.metrics.fragments
        assert fragment.role == "serial"
        assert two.metrics.workers == 1
        assert two.metrics.makespan_seconds == two.metrics.total_seconds
        assert two.metrics.operators and two.metrics.peak_memory_bytes > 0.0

    def test_process_backend_runs_it_in_process(self, bdcc_db, environment):
        serial = self._run(bdcc_db, environment, workers=1)
        process = self._run(bdcc_db, environment, workers=2, backend="process")
        assert multiprocessing.active_children() == []
        assert process.metrics.backend == "simulated"
        assert process.metrics.measured_wall_seconds == 0.0
        assert _identical(serial.relation, process.relation)
        assert _comparable(process.metrics) == _comparable(serial.metrics)
        (fragment,) = process.metrics.fragments
        assert fragment.role == "serial"


# -------------------------------------------------- backend matrix (CI job)


@pytest.mark.backend
class TestProcessBackendMatrix:
    @pytest.mark.parametrize("scheme", ["plain", "pk", "bdcc"])
    @pytest.mark.parametrize("qname", ["Q01", "Q06", "Q03"])
    def test_bit_identical_across_backends(
        self, physical_dbs, environment, scheme, qname
    ):
        pdb = physical_dbs[scheme]
        for workers in (2, 4):
            sim_rel, sim_metrics = _run(pdb, environment, qname, workers=workers)
            proc_rel, proc_metrics = _run(
                pdb, environment, qname, workers=workers, backend="process"
            )
            # the ISSUE's acceptance bar: the very same ParallelPlan must
            # produce bit-identical rows whichever backend executes it
            # (serial contracts are the workload oracle's job — partial
            # aggregation legitimately reorders float accumulation)
            assert _identical(sim_rel, proc_rel), (scheme, qname, workers)
            assert proc_metrics.makespan_seconds == pytest.approx(
                sim_metrics.makespan_seconds
            ), (scheme, qname, workers)

    def test_delta_store_round_survives_epoch_changes(self):
        """Commit through the update subsystem between process-backend
        runs: compaction/epoch bumps create new base arrays, so a stale
        shared-memory export keyed to a dead array would surface here."""
        import numpy as np

        from repro import tpch
        from repro.execution.expressions import col
        from repro.tpch.environment import make_environment
        from repro.tpch.harness import build_schemes
        from repro.updates import CompactionPolicy, UpdateSession

        db = tpch.generate(scale_factor=0.002, seed=1234)
        env = make_environment(0.002)
        pdbs = build_schemes(db, env, include=["bdcc"])
        pdb = pdbs["bdcc"]
        executor = Executor(
            pdb, disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(
                workers=2, min_partition_rows=256, backend="process"
            ),
        )
        baseline = Executor(
            pdb, disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(workers=2, min_partition_rows=256),
        )
        session = UpdateSession(
            pdb, policy=CompactionPolicy(max_delta_fraction=None)
        )
        try:
            for round_index in range(2):
                ld = db.table_data("lineitem")
                rng = np.random.default_rng(round_index)
                pick = rng.integers(0, db.num_rows("lineitem"), 30)
                rows = {c: v[pick] for c, v in ld.items()}
                rows["l_linenumber"] = (
                    ld["l_linenumber"].max() + 1 + np.arange(30)
                ).astype(ld["l_linenumber"].dtype)
                session.insert_rows("lineitem", rows)
                session.delete_where(
                    "lineitem", col("l_quantity").ge(49.0 - round_index)
                )
                session.commit()
                for qname in ("Q06", "Q01"):
                    sim = QueryRunner(baseline)
                    sim_result = QUERIES[qname](sim)
                    proc = QueryRunner(executor)
                    proc_result = QUERIES[qname](proc)
                    assert _identical(
                        sim_result.relation, proc_result.relation
                    ), (round_index, qname)
                    assert proc.metrics.backend == "process"
        finally:
            executor.close()
            baseline.close()

    def test_seeded_workload_property(self, physical_dbs, environment):
        """Differential oracle over generated plans with process-backend
        variants: normalized multisets vs the reference, bit-for-bit vs
        serial for non-reordering plans."""
        from repro.workload.differential import (
            run_differential,
            worker_count_variants,
        )

        variants = {"default": ExecutionOptions()}
        variants.update(worker_count_variants([2, 4], backend="process"))
        report = run_differential(
            physical_dbs,
            seed=5,
            num_queries=8,
            variants=variants,
            disk=environment.disk,
            costs=environment.cost_model,
        )
        assert report.executions == 8 * len(physical_dbs) * len(variants)
        assert report.ok, report.render()
