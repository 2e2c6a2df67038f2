"""Fixtures for the update subsystem: *fresh* (mutable) databases.

The session-scoped fixtures in the top-level conftest are shared by the
whole suite and must never be mutated — update tests build their own
small TPC-H instance per test so commits cannot leak across tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import tpch
from repro.core.bdcc_table import BDCCBuildConfig
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes

UPDATE_SF = 0.002
UPDATE_SEED = 1234

#: a BDCC build that consolidates small groups at UPDATE_SF: ORDERS,
#: LINEITEM and PARTSUPP then store some logical rows twice.
CONSOLIDATING = BDCCBuildConfig(efficient_access_bytes=2048, consolidate_max_fraction=0.9)


def build_fresh(bdcc_config=None):
    """(db, env, pdbs) built fresh — safe to mutate; ``bdcc_config``
    replaces the environment's BDCC build configuration."""
    db = tpch.generate(scale_factor=UPDATE_SF, seed=UPDATE_SEED)
    env = make_environment(UPDATE_SF)
    advisor_config = None if bdcc_config is None else env.advisor_config(build=bdcc_config)
    pdbs = build_schemes(db, env, advisor_config=advisor_config)
    return db, env, pdbs


@pytest.fixture()
def fresh():
    """(db, env, pdbs) built fresh for one test — safe to mutate."""
    return build_fresh()


@pytest.fixture(params=["default", "consolidated"])
def fresh_builds(request):
    """``fresh``, once with the default BDCC build and once with a build
    whose small groups are consolidated (stored twice)."""
    if request.param == "default":
        return build_fresh()
    db, env, pdbs = build_fresh(CONSOLIDATING)
    orders = pdbs["bdcc"].table("orders")
    assert orders.stored_rows > orders.logical_rows, "the build must consolidate"
    return db, env, pdbs


def sample_orders_insert(db, rng, k):
    """k new ORDERS rows cloned from existing ones with fresh keys."""
    od = db.table_data("orders")
    pick = rng.integers(0, db.num_rows("orders"), k)
    rows = {c: v[pick] for c, v in od.items()}
    rows["o_orderkey"] = (od["o_orderkey"].max() + 1 + np.arange(k)).astype(
        od["o_orderkey"].dtype
    )
    return rows


def sample_lineitem_insert(db, rng, order_keys, per_order=3):
    """New LINEITEM rows for the given order keys, cloned from existing
    lineitems ((partkey, suppkey) pairs resampled from PARTSUPP so the
    composite foreign key holds)."""
    ld = db.table_data("lineitem")
    ps = db.table_data("partsupp")
    k = len(order_keys) * per_order
    pick = rng.integers(0, db.num_rows("lineitem"), k)
    rows = {c: v[pick] for c, v in ld.items()}
    ps_pick = rng.integers(0, len(ps["ps_partkey"]), k)
    rows["l_partkey"] = ps["ps_partkey"][ps_pick]
    rows["l_suppkey"] = ps["ps_suppkey"][ps_pick]
    rows["l_orderkey"] = np.repeat(np.asarray(order_keys), per_order).astype(
        ld["l_orderkey"].dtype
    )
    rows["l_linenumber"] = (
        ld["l_linenumber"].max() + 1 + np.arange(k)
    ).astype(ld["l_linenumber"].dtype)
    return rows
