"""Smoke test of the end-to-end benchmark at 20 000 points.

Every workload runs twice untraced (the counters must repeat) and once
traced, each in its own process exactly as the driver starts them; the
JSON line must carry every metric ``BENCHMARK.json`` names and report no
failed operation.  Two command lists run side by side to stay under
half a minute; every run that starts a daemon (``http_viewport`` and all
traced runs) is in one list, because a daemon journals heat into the
store directory it serves.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
POINTS = "20000"
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_benchmark(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--points", POINTS, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(Path(lines[-2].split("results: ", 1)[1]).read_text())
    return json.loads(lines[-1]), result


@pytest.fixture(scope="module")
def runs():
    """{(workload, kind): (driver line, result file)} for every run."""
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--points", POINTS, "--prepare"],
        check=True,
        capture_output=True,
        timeout=120,
    )
    jobs = [
        (name, kind)
        for name in WORKLOADS
        for kind in ("plain", "again", "traced")
    ]
    daemons = [job for job in jobs if job[0] == "http_viewport" or job[1] == "traced"]
    lanes = [daemons, [job for job in jobs if job not in daemons]]

    def run_lane(lane):
        out = {}
        for name, kind in lane:
            trace = "1" if kind == "traced" else "0"
            out[name, kind] = run_benchmark(
                "--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace
            )
        return out

    merged = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for lane_result in pool.map(run_lane, lanes):
            merged.update(lane_result)
    return merged


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(runs, workload):
    line, result = runs[workload, "plain"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 120
    assert result["failed_share"] == 0
    assert set(line["metrics"]) == {entry["name"] for entry in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        record = line["metrics"][entry["name"]]
        assert record["unit"] == entry["unit"]
        assert record["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat(runs, workload):
    first, again = runs[workload, "plain"][1], runs[workload, "again"][1]
    assert first["counters"] and first["counters"] == again["counters"]
    assert first["dataset"]["xyz_sha256"] == again["dataset"]["xyz_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(runs, workload):
    line, result = runs[workload, "traced"]
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    for entry in SPEC["per_layer"]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert (HERE / "results" / f"trace-{workload}.json").is_file()
    assert {"nproc", "hardware_threads", "git_commit", "load_1min"} <= set(
        result["machine"]
    )
