"""Measuring helpers: percentiles, memory, provenance and span-derived
per-layer metrics.

Everything here reads either the running process (``getrusage``) or a
finished run's artifact: the JSON span trees a traced run writes, plus
the counters stored on the benchmark's own spans.  :func:`layer_metrics`
re-derives every per-layer metric from that artifact alone, so the
layer shares of a run can be re-read long after it finished.
"""

from __future__ import annotations

import hashlib
import platform
import resource
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

__all__ = [
    "PER_LAYER",
    "percentile",
    "peak_rss_mb",
    "children_peak_rss_mb",
    "provenance",
    "span",
    "walk",
    "self_seconds",
    "layer_metrics",
]

#: per-layer metric name -> unit, in report order.  Layers a workload
#: does not load read 0 (no span, no count).
PER_LAYER: Dict[str, str] = {
    "tpch.datagen_s": "s",
    "schemes.plain.build_s": "s",
    "schemes.pk.build_s": "s",
    "schemes.bdcc.build_s": "s",
    "tpch.user_mb": "MB",
    "storage.stored_mb": "MB",
    "storage.bytes_per_user_byte": "ratio",
    "tpch.refresh_gen_ms_total": "ms",
    "planner.lower_ms_total": "ms",
    "planner.lower_ms_p50": "ms",
    "planner.lower_share": "ratio",
    "planner.plan_cache_lookups": "count",
    "planner.plan_cache_hit_ratio": "ratio",
    "parallel.fragment_ms_total": "ms",
    "execution.execute_ms_total": "ms",
    "execution.execute_ms_p50": "ms",
    "execution.execute_ms_p90": "ms",
    "execution.execute_share": "ratio",
    "execution.rows_scanned_per_row_out": "ratio",
    "execution.sim_io_mb_per_query": "MB",
    "backend.execute_ms_p50": "ms",
    "backend.teardown_ms_p50": "ms",
    "backend.worker_busy_ratio": "ratio",
    "backend.worker_peak_rss_mb": "MB",
    "updates.commit_ms_p50": "ms",
    "updates.commit_ms_p90": "ms",
    "updates.rf1_commit_ms_p50": "ms",
    "updates.rf2_commit_ms_p50": "ms",
    "updates.compactions": "count",
    "updates.compacting_commit_ms_p50": "ms",
    "updates.delta_rows_scanned_per_query": "rows",
    "observe.trace_overhead_ratio": "ratio",
}


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` (``q`` in 0..100), or 0.0 for a layer that
    recorded nothing."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ------------------------------------------------------------ provenance
def _git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    """SHA-256 over the engine's and the benchmark's Python sources, so
    a result names its code even where no git metadata exists."""
    digest = hashlib.sha256()
    for directory in ("src", "perfbench"):
        for path in sorted((root / directory).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, workload: str, seed: int, scale_factor: float) -> dict:
    """Where and from what a result came.  Results whose ``host`` differs
    are never compared."""
    from repro.observe.history import host_fingerprint

    host = dict(host_fingerprint())
    host["cpu_model"] = _cpu_model()
    host["numpy"] = np.__version__
    return {
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "workload": workload,
        "seed": seed,
        "scale_factor": scale_factor,
        "host": host,
    }


# ----------------------------------------------------------------- spans
def span(tracer, name: str, **attributes):
    """A tracer span, or a no-op when the run is untraced."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, category="bench", **attributes)


def walk(spans: Iterable[dict]) -> Iterator[dict]:
    """Every span of a list of serialised span trees, depth first."""
    for node in spans:
        yield node
        yield from walk(node["children"])


def _duration(node: dict) -> float:
    return max(node["end_seconds"] - node["start_seconds"], 0.0)


def self_seconds(node: dict) -> float:
    """A span's duration minus the part of it its children cover."""
    covered = 0.0
    reach = node["start_seconds"]
    intervals = sorted(
        (c["start_seconds"], c["end_seconds"])
        for c in node["children"]
        if c["clock"] == "wall"
    )
    for start, end in intervals:
        start = max(start, reach)
        end = min(end, node["end_seconds"])
        if end > start:
            covered += end - start
            reach = end
    return max(_duration(node) - covered, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: List[float]) -> float:
    return percentile(values, 50)


def layer_metrics(artifact: dict) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, from a traced run's artifact.

    ``artifact["spans"]`` holds the serialised wall-clock span trees;
    ``artifact["registry"]`` the registry counter increments of the
    traced units; ``artifact["process"]`` what only the process knows
    (children's peak RSS, the traced/untraced wall clocks)."""
    nodes = list(walk(artifact["spans"]))

    def named(name: str) -> List[dict]:
        return [n for n in nodes if n["name"] == name]

    out: Dict[str, float] = {}
    # ---- set-up: datagen and scheme builds (median over the set-ups)
    datagen = named("bench.datagen")
    out["tpch.datagen_s"] = _median([_duration(n) for n in datagen])
    builds = named("bench.build")
    for scheme in ("plain", "pk", "bdcc"):
        out[f"schemes.{scheme}.build_s"] = _median(
            [_duration(n) for n in builds if n["attributes"]["scheme"] == scheme]
        )
    user_bytes = datagen[-1]["attributes"]["user_bytes"] if datagen else 0
    last_setup = named("bench.setup")[-1:] if builds else []
    stored = [
        c["attributes"]["stored_bytes"]
        for s in last_setup for c in s["children"] if c["name"] == "bench.build"
    ]
    out["tpch.user_mb"] = user_bytes / 1e6
    out["storage.stored_mb"] = sum(stored) / 1e6
    out["storage.bytes_per_user_byte"] = _ratio(sum(stored), user_bytes * len(stored))
    out["tpch.refresh_gen_ms_total"] = 1e3 * sum(
        _duration(n) for n in named("bench.refresh_gen")
    )

    # ---- queries: planner, fragmenting, execution, backend
    queries = named("bench.query")
    query_wall = sum(_duration(n) for n in queries)
    lowers = [self_seconds(n) for n in named("lower")]
    out["planner.lower_ms_total"] = 1e3 * sum(lowers)
    out["planner.lower_ms_p50"] = 1e3 * _median(lowers)
    out["planner.lower_share"] = _ratio(sum(lowers), query_wall)
    counters = artifact["registry"]
    hits = counters.get("plan_cache.hits", 0.0)
    lookups = hits + counters.get("plan_cache.misses", 0.0)
    out["planner.plan_cache_lookups"] = lookups
    out["planner.plan_cache_hit_ratio"] = _ratio(hits, lookups)
    out["parallel.fragment_ms_total"] = 1e3 * sum(
        self_seconds(n) for n in named("fragment")
    )
    executes = named("execute")
    execute_s = [self_seconds(n) for n in executes]
    out["execution.execute_ms_total"] = 1e3 * sum(execute_s)
    out["execution.execute_ms_p50"] = 1e3 * _median(execute_s)
    out["execution.execute_ms_p90"] = 1e3 * percentile(execute_s, 90)
    out["execution.execute_share"] = _ratio(sum(execute_s), query_wall)
    attrs = [n["attributes"] for n in queries]
    rows_out = sum(a["rows_out"] for a in attrs)
    out["execution.rows_scanned_per_row_out"] = _ratio(
        sum(a["rows_scanned"] for a in attrs), rows_out
    )
    out["execution.sim_io_mb_per_query"] = _ratio(
        sum(a["io_bytes"] for a in attrs) / 1e6, len(attrs)
    )
    pooled = [n for n in executes if n["attributes"].get("backend") != "serial"]
    out["backend.execute_ms_p50"] = 1e3 * _median([_duration(n) for n in pooled])
    out["backend.teardown_ms_p50"] = 1e3 * _median([self_seconds(n) for n in queries])
    capacity = sum(_duration(n) * n["attributes"]["workers"] for n in pooled)
    out["backend.worker_busy_ratio"] = _ratio(
        sum(a["measured_fragment_seconds"] for a in attrs), capacity
    )
    out["backend.worker_peak_rss_mb"] = artifact["process"]["children_peak_rss_mb"]

    # ---- updates
    commits = named("bench.commit")
    commit_ms = [1e3 * _duration(n) for n in commits]
    out["updates.commit_ms_p50"] = _median(commit_ms)
    out["updates.commit_ms_p90"] = percentile(commit_ms, 90)
    for kind in ("rf1", "rf2"):
        out[f"updates.{kind}_commit_ms_p50"] = _median(
            [ms for ms, n in zip(commit_ms, commits) if n["attributes"]["kind"] == kind]
        )
    out["updates.compactions"] = float(
        sum(n["attributes"]["compactions"] for n in commits)
    )
    out["updates.compacting_commit_ms_p50"] = _median(
        [ms for ms, n in zip(commit_ms, commits) if n["attributes"]["compactions"]]
    )
    out["updates.delta_rows_scanned_per_query"] = _ratio(
        sum(a["delta_rows_scanned"] for a in attrs), len(attrs)
    )

    # ---- the tracer itself
    process = artifact["process"]
    out["observe.trace_overhead_ratio"] = (
        _ratio(process["traced_wall_s"], process["untraced_wall_s"]) - 1.0
    )
    return {name: float(out[name]) for name in PER_LAYER}
