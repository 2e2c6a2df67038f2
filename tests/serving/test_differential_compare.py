"""The serving oracle's comparison: a served result whose columns differ
from its solo replay is a recorded ``solo`` divergence — under a
reordering contract too, where the comparison is order-insensitive."""

from repro.execution.relation import Relation
from repro.planner.executor import Executor
from repro.serving import ServingEngine
from repro.serving.differential import _check_one
from repro.serving.streams import GeneratedQueryStream
from repro.workload.differential import WorkloadReport


def test_reordering_result_with_a_missing_column_diverges(bdcc_pdb, serving_env):
    def stream():
        return GeneratedQueryStream("s0", bdcc_pdb.database, 3, 1)

    with ServingEngine(
        bdcc_pdb, disk=serving_env.disk, costs=serving_env.cost_model,
        keep_results=True,
    ) as engine:
        serving_report = engine.serve([stream()])
    record = serving_report.queries[0]
    names = record.relation.column_names
    assert len(names) > 1
    record.relation = Relation(
        {name: record.relation.column(name) for name in names[1:]}
    )
    record.reorders = True

    report = WorkloadReport(seed=3, queries=1)
    with Executor(
        bdcc_pdb, disk=serving_env.disk, costs=serving_env.cost_model
    ) as executor:
        _check_one(
            report, serving_report, executor, bdcc_pdb.database,
            stream().item(0), record, "--seed 3", check_reference=False,
        )
    assert [d.check for d in report.divergences] == ["solo"]
    assert "column mismatch" in report.divergences[0].detail
    assert report.executions == 1
