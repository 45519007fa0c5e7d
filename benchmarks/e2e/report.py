"""Result files, the printed report, the driver's JSON line and
``--compare``.

``BENCHMARK.json`` at the repo root is the single list of metric names,
units, directions and regression bounds; everything here reads it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import REPO, RESULTS, machine_block, median

_SPEC_PATH = REPO / "BENCHMARK.json"


def benchmark_spec() -> Dict[str, Any]:
    return json.loads(_SPEC_PATH.read_text())


def build_result(args, dataset, outcome) -> Dict[str, Any]:
    manifest = dataset.manifest
    return {
        "workload": args.workload,
        "trace": int(args.trace),
        "seconds": args.seconds,
        "machine": machine_block(args.seed, args.points),
        "dataset": {
            "key": manifest["key"],
            "xyz_sha256": manifest["xyz_sha256"],
            "formats": manifest["formats"],
            "prepare_s": manifest["prepare_seconds"]["total"],
        },
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "correct": outcome.failed == 0,
        "metrics": outcome.metrics,
        "counters": outcome.counters,
        "notes": outcome.notes,
    }


def hardware_threads_note(result: Dict[str, Any], name: str) -> str:
    """Thread-scaling numbers are not data on a one-thread machine."""
    if name.startswith("engine.parallel.") and result["machine"]["hardware_threads"] < 2:
        return "n/a"
    return ""


def print_result(result: Dict[str, Any]) -> None:
    machine = result["machine"]
    print(
        f"== {result['workload']} (trace={result['trace']}, seed={machine['seed']}, "
        f"points={machine['points']}, seconds={result['seconds']:g}) =="
    )
    print(
        f"machine: nproc={machine['nproc']} hardware_threads="
        f"{machine['hardware_threads']} load_1min={machine['load_1min']:.2f} "
        f"python={machine['python']} numpy={machine['numpy']} "
        f"commit={machine['git_commit'][:12]}"
    )
    print(f"prepare_s (cached, not part of the run): {result['dataset']['prepare_s']:.1f}")
    for name, record in result["metrics"].items():
        shown = hardware_threads_note(result, name) or f"{record['value']:.6g}"
        print(f"  {name:44s} {shown:>14s} {record['unit']:6s} n={record['samples']}")
    print(
        f"  {'failed_share':44s} {result['failed_share']:>14.6g} {'ratio':6s} "
        f"n={result['attempted']}"
    )
    for name, value in result["counters"].items():
        print(f"  counter {name:36s} {value:>14d}")


def save_result(result: Dict[str, Any]) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / (
        f"{result['workload']}-trace{result['trace']}-seed{result['machine']['seed']}"
        f"-{stamp}-{time.time_ns() % 1_000_000:06d}.json"
    )
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


def driver_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The one JSON object the driver reads from the last stdout line."""
    spec = benchmark_spec()
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        record = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": record["value"], "unit": entry["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


# -- several runs ---------------------------------------------------------------


def load_runs(path: Path) -> List[Dict[str, Any]]:
    """A result file holds one run; a summary file holds many."""
    loaded = json.loads(Path(path).read_text())
    return loaded["runs"] if "runs" in loaded else [loaded]


def medians(runs: List[Dict[str, Any]]) -> Dict[Tuple[str, int], Dict[str, float]]:
    """Median of every metric per (workload, trace) group."""
    groups: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for run in runs:
        group = groups.setdefault((run["workload"], run["trace"]), {})
        for name, record in run["metrics"].items():
            group.setdefault(name, []).append(record["value"])
    return {
        key: {name: median(values) for name, values in group.items()}
        for key, group in groups.items()
    }


def print_summary(paths: List[Path]) -> None:
    runs = [run for path in paths for run in load_runs(path)]
    if not runs:
        return
    for (workload, trace), values in medians(runs).items():
        n = sum(1 for r in runs if (r["workload"], r["trace"]) == (workload, trace))
        print(f"== {workload} (trace={trace}): medians of {n} run(s) ==")
        units = next(
            r["metrics"] for r in runs if (r["workload"], r["trace"]) == (workload, trace)
        )
        for name, value in values.items():
            print(f"  {name:44s} {value:>14.6g} {units[name]['unit']}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"summary-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    print(f"summary: {path}")


def compare(path_a: Path, path_b: Path) -> int:
    """Counters must be identical, end-to-end medians within the bounds
    of ``BENCHMARK.json`` (B may not be worse than A by more)."""
    spec = {entry["name"]: entry for entry in benchmark_spec()["end_to_end"]}
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    bad = 0

    def counters(runs: List[Dict[str, Any]]) -> Dict[Tuple[str, int, int], Any]:
        out: Dict[Tuple[str, int, int], Any] = {}
        for run in runs:
            key = (run["workload"], run["trace"], run["machine"]["seed"])
            if key in out and out[key] != run["counters"]:
                print(f"COUNTERS differ between runs of one file: {key}")
                nonlocal bad
                bad += 1
            out[key] = run["counters"]
        return out

    counters_a, counters_b = counters(runs_a), counters(runs_b)
    for key in sorted(set(counters_a) & set(counters_b)):
        if counters_a[key] != counters_b[key]:
            bad += 1
            for name in sorted(set(counters_a[key]) | set(counters_b[key])):
                a, b = counters_a[key].get(name), counters_b[key].get(name)
                if a != b:
                    print(f"COUNTER {key} {name}: {a} != {b}")
    medians_a, medians_b = medians(runs_a), medians(runs_b)
    for key in sorted(set(medians_a) & set(medians_b)):
        if key[1]:
            continue  # traced runs carry no bounded metrics
        for name, entry in spec.items():
            a, b = medians_a[key].get(name), medians_b[key].get(name)
            if a is None or b is None:
                continue
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= entry["bound"] else "WORSE"
            bad += verdict != "ok"
            print(
                f"{key[0]:16s} {name:16s} A={a:<12.6g} B={b:<12.6g} "
                f"{worse:+7.1%} (bound {entry['bound']:.0%}) {verdict}"
            )
    if not set(medians_a) & set(medians_b):
        print("nothing to compare: no (workload, trace) in both files")
        return 1
    return 1 if bad else 0
