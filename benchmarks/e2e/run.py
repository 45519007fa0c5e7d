"""One command for the repo's end-to-end benchmark.

    python3 benchmarks/e2e/run.py --prepare                 # build the cached datasets
    python3 benchmarks/e2e/run.py                           # every workload, plain + traced
    python3 benchmarks/e2e/run.py --workload rect_shuffled  # one workload, plain run
    python3 benchmarks/e2e/run.py --workload sql_thematic --trace
    python3 benchmarks/e2e/run.py --repeats 5               # medians over 5 runs each
    python3 benchmarks/e2e/run.py --points 20000            # smoke scale
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                            # as the driver runs it
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` the process itself is the fresh process of that
workload and its last stdout line is the driver's JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Without it, this
process only orchestrates: one child per workload and repeat.  See
README.md for the workloads, metrics and how they interact.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, as far as Python can see it

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.steady_process()  # before numpy is imported
common.require_source_tree()

import data  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Everything a workload imports, so `setup_s` counts imports once.
import repro  # noqa: E402,F401
import repro.serve  # noqa: E402,F401
import repro.sql.executor  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _T0
RUN_SECONDS = float(report.benchmark_spec()["run_seconds"])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=RUN_SECONDS,
        help="the driver's timed window; scales the fixed op counts, "
        f"which are sized for {RUN_SECONDS:g} s",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const=1,
        default=0,
        type=int,
        choices=(0, 1),
        help="per-layer run: spans, layer replays, per-layer metrics",
    )
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--points", type=int, default=common.DEFAULT_POINTS)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--reopen", help=argparse.SUPPRESS)
    parser.add_argument("--write-probe", nargs=2, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    """This process *is* the workload's fresh process."""
    if data.cached(args.points) is None:
        # Built in a child: this process's peak memory, and the heap it
        # has freed, must be the workload's own.
        subprocess.run(
            [sys.executable, __file__, "--prepare", "--points", str(args.points)],
            check=True,
            stdout=sys.stderr,
        )
    dataset = data.ensure(args.points)
    if args.trace:
        import probes

        outcome = probes.run(args.workload, dataset, args.seed, IMPORT_S)
    else:
        outcome = workloads.run(
            args.workload, dataset, args.seed, args.seconds / RUN_SECONDS, IMPORT_S
        )
    result = report.build_result(args, dataset, outcome)
    report.print_result(result)
    path = report.save_result(result)
    print(f"results: {path}")
    print(json.dumps(report.driver_line(result)))
    return 0 if result["failed"] == 0 and result["correct"] else 1


def orchestrate(args: argparse.Namespace) -> int:
    """No ``--workload``, or ``--repeats``: run each (workload, mode) in
    its own child process and summarise the medians."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.workload else [0, 1]
    data.ensure(args.points)
    status = 0
    paths = []
    for name in names:
        for trace in modes:
            for _ in range(args.repeats):
                command = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--points", str(args.points),
                ]  # fmt: skip
                done = subprocess.run(command, capture_output=True, text=True)
                sys.stderr.write(done.stderr)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or len(lines) < 2:
                    print(f"{name} (trace={trace}) FAILED\n{done.stdout}")
                    status = 1
                    continue
                paths.append(Path(lines[-2].split("results: ", 1)[1]))
    report.print_summary(paths)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.reopen:
        workloads.reopen_main(args.reopen)
        return 0
    if args.write_probe:
        workloads.write_probe_main(*args.write_probe)
        return 0
    if args.compare:
        return report.compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.prepare:
        t0 = time.perf_counter()
        dataset = data.ensure(args.points, force=True)
        print(f"prepare_s {time.perf_counter() - t0:.1f} s")
        print(json.dumps(dataset.manifest["prepare_seconds"], indent=2))
        return 0
    if args.workload and args.repeats == 1:
        return run_one(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
