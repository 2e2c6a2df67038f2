"""Real-clock benchmark of the BDCC reproduction engine.

Run from the repository root::

    python3 perfbench/run.py --workload tpch-sf0.1-serial --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (and writes its spans).  Each
workload runs in its own Python process; ``--workload all`` starts one
child per workload and waits for it.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
operations failed (an exception or a result that differs from its
reference) exits with status 1; a tree without the engine's sources
exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
NAMES = ("tpch-sf0.1-serial", "tpch-sf0.02-process2", "refresh-mix-sf0.01")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _summary(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def _run_one(args) -> int:
    from perfbench.measure import provenance
    from perfbench.workloads import WORKLOADS, run_workload

    scale_factor = WORKLOADS[args.workload].scale_factor
    stamp = provenance(ROOT, args.workload, args.seed, scale_factor)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {k: {"value": v, "unit": result.units[k]} for k, v in result.metrics.items()}
    record = dict(stamp)
    record.update(
        trace=args.trace,
        attempted=result.attempted,
        failed=result.failed,
        failures=result.failures,
        metrics=metrics,
        extras=result.extras,
    )
    if result.artifact is not None:
        record.update(result.artifact)
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    print(
        f"# {args.workload} seed={args.seed} sf={scale_factor} "
        f"git={stamp['git_sha'][:12]} src={stamp['source_digest']} "
        f"host={json.dumps(stamp['host'], sort_keys=True)}"
    )
    for name, value in result.metrics.items():
        print(f"{name:40s} {value:14.6g} {result.units[name]}")
    for name, value in result.extras.items():
        print(f"{name:40s} {value:14.6g} (extra)")
    for line in result.failures:
        print(f"FAILED {line}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(_summary(result.failed == 0, result.attempted, result.failed, metrics))
    return 0 if result.failed == 0 else 1


def _run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak RSS and the
    process-wide registry stay per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    status = 0
    shared = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *shared],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            summary = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"# {name}: no result (exit status {proc.returncode})")
            correct = False
            continue
        correct = correct and summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        for metric, value in summary["metrics"].items():
            metrics[f"{name}/{metric}"] = value
    print(_summary(correct, attempted, failed, metrics))
    return status


def stop_helper_processes() -> None:
    """Stop and reap every process ``multiprocessing`` started here.

    Pools are joined when their executor closes, but the shared-memory
    resource tracker is a detached helper that outlives the run by
    design; left alone it lingers (or stays a zombie) after the
    benchmark exits.  Closing its pipe makes it clean up and exit, and
    waiting on it reaps it."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        if args.workload == "all":
            return _run_all(args)
        return _run_one(args)
    finally:
        stop_helper_processes()


if __name__ == "__main__":
    sys.exit(main())
