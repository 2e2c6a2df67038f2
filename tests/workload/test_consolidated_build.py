"""The differential oracle over a *consolidated* BDCC build.

Default TPC-H builds consolidate no count-table groups, so the ordinary
sweeps never see logical rows stored twice or count-table entries that
are not valid for every stored row.  This sweep builds SF 0.01 with the
consolidating build configuration the update tests share and runs
update rounds over it (``workload``-marked: its own CI job)."""

import pytest

from repro import tpch
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.workload.differential import run_differential

from ..updates.conftest import CONSOLIDATING

SF = 0.01


@pytest.mark.workload
def test_consolidated_build_sweep_with_updates():
    db = tpch.generate(scale_factor=SF, seed=7)
    env = make_environment(SF)
    # consolidation only changes the BDCC layout; the oracle's naive
    # reference evaluator is the comparison, not the other schemes
    pdbs = build_schemes(
        db, env, include=["bdcc"],
        advisor_config=env.advisor_config(build=CONSOLIDATING),
    )
    bdcc = pdbs["bdcc"]
    for table in ("lineitem", "orders"):
        stored = bdcc.table(table)
        assert stored.stored_rows > stored.logical_rows, (
            f"{table} must consolidate, or this sweep covers nothing new"
        )
    report = run_differential(
        pdbs, seed=0, num_queries=30, rounds=3,
        disk=env.disk, costs=env.cost_model,
    )
    assert report.ok, report.render()
