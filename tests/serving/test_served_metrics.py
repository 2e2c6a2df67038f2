"""Served-query metrics are the solo run's metrics.

A served query runs through the executor's own run stage and metrics
fold; only its makespan comes from the shared serving timeline.  So
every other field of ``QueryRecord.metrics`` — charges, counters,
notes, per-operator actuals, peak memory and per-tag peaks — must equal
what the same executor reports for the query run alone, at one worker
and at several.  Fast and unmarked (tier-1)."""

import hashlib

import numpy as np
import pytest

from repro.planner.executor import ExecutionOptions
from repro.serving import ServingEngine
from repro.serving.streams import PlanListStream, capture_tpch_items
from repro.tpch.queries import QUERIES

from .conftest import fresh_schemes
from .test_admission import _serve

QUERY_NAMES = ("Q01", "Q06", "Q03")


def _charges(metrics):
    return (
        metrics.io_bytes, metrics.io_accesses, metrics.io_seconds,
        metrics.cpu_seconds, metrics.rows_scanned, metrics.rows_produced,
        metrics.delta_rows_scanned,
    )


@pytest.mark.parametrize("workers", [1, 4])
def test_served_metrics_equal_the_solo_run(serving_env, workers):
    pdb = fresh_schemes(["bdcc"])["bdcc"]
    items = capture_tpch_items(
        pdb, {q: QUERIES[q] for q in QUERY_NAMES},
        disk=serving_env.disk, costs=serving_env.cost_model,
    )
    assert [item.description for item in items] == list(QUERY_NAMES)
    # one stream per query: the three run concurrently on the timeline
    streams = [
        PlanListStream(item.description, [item.plan], [item.description])
        for item in items
    ]
    with ServingEngine(
        pdb, disk=serving_env.disk, costs=serving_env.cost_model,
        options=ExecutionOptions(workers=workers),
    ) as engine:
        report = engine.serve(streams)
        assert len(report.queries) == len(items)
        for item in items:
            (record,) = [
                r for r in report.queries if r.description == item.description
            ]
            served = record.metrics
            # the same executor, so the cached lowering (and with it the
            # operator identities keying the actuals) is shared
            solo = engine.executor.execute(item.plan).metrics
            label = f"{item.description} workers={workers}"
            assert _charges(served) == _charges(solo), label
            assert served.counters == solo.counters, label
            assert served.notes == solo.notes, label
            assert served.operators == solo.operators, label
            assert served.peak_memory_bytes == solo.peak_memory_bytes, label
            assert served.memory.tag_peaks == solo.memory.tag_peaks, label
            assert served.fragments == solo.fragments, label
            assert record.fragment_count == len(solo.fragments), label
            # the served metrics are no longer bare charges
            assert served.operators and served.peak_memory_bytes > 0.0, label
            # the makespan is the query's span on the shared timeline
            assert served.makespan_seconds == pytest.approx(
                record.finish_seconds - record.admit_seconds
            ), label
        q03 = next(r for r in report.queries if r.description == "Q03")
        assert q03.metrics.notes


def _canonical(value) -> str:
    """A numpy-version-independent text form of a fingerprint."""
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return repr(value)


#: sha256 of the canonical fingerprints of the determinism runs in
#: ``test_admission.TestDeterminism``.  They move only when the
#: simulated clock or the serving interleaving does; a change that
#: means to move them regenerates these digests with ``_canonical``.
FINGERPRINTS = {
    "fifo": "cd4e339c981acf3de9e73410afc0ebb44f69a90225e16a6d355259e8e038abca",
    "round-robin": "dd192b4e11b73693cf20a7d6d1bf2a7028afdce37c46ed0c1afaabdc88eff9cc",
    "shortest": "41cec72fb040c87a4b6d64671de655682dbd9f2422d69498583ecc2ed76f8a3e",
}


@pytest.mark.parametrize("policy", sorted(FINGERPRINTS))
def test_determinism_fingerprints_are_pinned(policy):
    report = _serve(fresh_schemes(["bdcc"])["bdcc"], policy=policy,
                    max_concurrent=2)
    digest = hashlib.sha256(_canonical(report.fingerprint()).encode()).hexdigest()
    assert digest == FINGERPRINTS[policy]
