"""The naive reference evaluator, checked against hand-computed answers
and against the engine on handwritten plans (including the NULL paths)."""

import numpy as np
import pytest

from repro.catalog import DECIMAL, INT32, Schema, string_type
from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.planner.executor import Executor
from repro.planner.logical import scan
from repro.schemes.plain import PlainScheme
from repro.storage.database import Database
from repro.workload.differential import normalized_rows, rows_match
from repro.workload.reference import evaluate_reference


@pytest.fixture(scope="module")
def db():
    schema = Schema()
    schema.add_table(
        "dept", [("d_id", INT32), ("d_name", string_type(10))], primary_key=["d_id"]
    )
    schema.add_table(
        "emp",
        [("e_id", INT32), ("e_dept", INT32), ("e_sal", DECIMAL)],
        primary_key=["e_id"],
    )
    schema.add_foreign_key("FK_E_D", "emp", ["e_dept"], "dept")
    database = Database(schema)
    database.add_table_data("dept", {
        "d_id": np.array([1, 2, 3], dtype=np.int32),
        "d_name": np.array(["eng", "ops", "hr"]),
    })
    database.add_table_data("emp", {
        "e_id": np.arange(8, dtype=np.int32),
        "e_dept": np.array([1, 1, 2, 2, 2, 3, 1, 2], dtype=np.int32),
        "e_sal": np.array([10.0, 20, 30, 40, 50, 60, 70, 80]),
    })
    return database


class TestAgainstHandComputedAnswers:
    def test_scan_filter(self, db):
        rel = evaluate_reference(db, scan("emp", predicate=col("e_sal").gt(45)))
        assert sorted(rel.columns["e_id"].tolist()) == [4, 5, 6, 7]

    def test_groupby_sum(self, db):
        rel = evaluate_reference(
            db, scan("emp").groupby(["e_dept"], [AggSpec("t", "sum", col("e_sal"))])
        )
        totals = dict(zip(rel.columns["e_dept"].tolist(), rel.columns["t"].tolist()))
        assert totals == {1: 100.0, 2: 200.0, 3: 60.0}

    def test_inner_join(self, db):
        rel = evaluate_reference(
            db, scan("emp").join(scan("dept"), on=[("e_dept", "d_id")])
        )
        lookup = dict(zip(rel.columns["e_id"].tolist(), rel.columns["d_name"].tolist()))
        assert lookup[0] == "eng" and lookup[5] == "hr"

    def test_left_join_count_nulls(self, db):
        plan = (
            scan("dept")
            .join(scan("emp", predicate=col("e_sal").gt(1000)),
                  on=[("d_id", "e_dept")], how="left")
            .groupby(["d_name"], [AggSpec("n", "count", col("e_id"))])
        )
        rel = evaluate_reference(db, plan)
        counts = dict(zip(rel.columns["d_name"].tolist(), rel.columns["n"].tolist()))
        assert counts == {"eng": 0, "ops": 0, "hr": 0}

    def test_semi_with_residual(self, db):
        plan = scan("emp").join(
            scan("dept"), on=[("e_dept", "d_id")], how="semi",
            residual=col("e_sal").gt(60),
        )
        rel = evaluate_reference(db, plan)
        assert sorted(rel.columns["e_id"].tolist()) == [6, 7]

    def test_sort_limit(self, db):
        plan = scan("emp").project(i=col("e_id"), s=col("e_sal")).sort(
            [("s", False)]
        ).limit(3)
        rel = evaluate_reference(db, plan)
        assert rel.columns["i"].tolist() == [7, 6, 5]

    def test_scalar_agg_on_empty_input_yields_no_rows(self, db):
        plan = scan("emp", predicate=col("e_sal").gt(10_000)).groupby(
            [], [AggSpec("n", "count")]
        )
        rel = evaluate_reference(db, plan)
        assert rel.num_rows == 0


class TestAgainstEngine:
    """The two implementations must agree on handwritten plans."""

    @pytest.fixture(scope="class")
    def executor(self, db):
        return Executor(PlainScheme().build(db))

    @pytest.mark.parametrize("make_plan", [
        lambda: scan("emp").project(i=col("e_id"), d=col("e_sal") * 2),
        lambda: scan("emp").join(scan("dept"), on=[("e_dept", "d_id")], how="anti"),
        lambda: scan("emp").join(
            scan("dept", predicate=col("d_name").ne("hr")),
            on=[("e_dept", "d_id")], how="left",
        ).groupby(["e_dept"], [AggSpec("n", "count", col("d_name")),
                               AggSpec("m", "max", col("e_sal"))]),
        lambda: scan("emp").groupby(
            ["e_dept"], [AggSpec("u", "count_distinct", col("e_sal")),
                         AggSpec("a", "avg", col("e_sal"))]
        ),
        lambda: scan("dept").join(scan("emp"), on=[("d_id", "e_dept")], how="semi",
                                  residual=col("e_sal").ge(60)),
    ])
    def test_agree(self, db, executor, make_plan):
        plan = make_plan()
        reference = evaluate_reference(db, plan)
        result = executor.execute(plan)
        names = sorted(result.relation.column_names)
        assert sorted(reference.column_names) == names
        assert rows_match(
            normalized_rows(reference.columns, names),
            normalized_rows(result.relation.columns, names),
        )
