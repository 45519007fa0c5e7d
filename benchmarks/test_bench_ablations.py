"""E7 — Ablations over the design choices DESIGN.md calls out.

Not a paper table; these sweeps justify the defaults the reproduction
uses where the paper (or [16]) fixes a constant:

* **cacheline size** — the imprint granularity (the paper's 64-byte
  lines; larger "lines" trade filter precision for index size);
* **bin budget** — 64 bins vs coarser histograms;
* **blockstore patch size** — the pcpatch scale knob, showing the
  block-storage trade-off the flat table avoids.
"""

import numpy as np
import pytest

from repro.bench.harness import Report, best_of
from repro.blockstore.store import BlockStore
from repro.core.imprints import SegmentedImprints
from repro.engine.column import Column
from repro.gis.envelope import Box


class TestAblationReport:
    def test_report_e7_cacheline(self, benchmark, cloud):
        def build_report():
            report = Report(
                "E7a",
                "imprint cacheline-size ablation (x column)",
                headers=[
                    "cacheline B",
                    "values/line",
                    "overhead %",
                    "scanned %",
                    "query ms",
                ],
            )
            col = Column.from_array("x", cloud["x"])
            lo = float(np.quantile(cloud["x"], 0.45))
            hi = float(np.quantile(cloud["x"], 0.55))
            overheads = {}
            for cacheline in (64, 128, 256, 512, 1024):
                imp = SegmentedImprints(
                    col, segment_rows=len(col), cacheline_bytes=cacheline
                )
                t = best_of(lambda: imp.query(lo, hi))
                overheads[cacheline] = imp.stats().overhead
                report.add_row(
                    cacheline,
                    imp.vpc,
                    f"{imp.stats().overhead * 100:.2f}",
                    f"{imp.scanned_fraction(lo, hi) * 100:.2f}",
                    t * 1e3,
                )
            report.note(
                "bigger lines shrink the index but admit more false "
                "positives; 64 B (8 doubles) is the paper's sweet spot"
            )
            report.emit()
            assert overheads[1024] < overheads[64]

        benchmark.pedantic(build_report, rounds=1, iterations=1)

    def test_report_e7_bins(self, benchmark, cloud):
        def build_report():
            report = Report(
                "E7b",
                "imprint bin-budget ablation (x column)",
                headers=["bins", "overhead %", "scanned %", "fp rate %"],
            )
            col = Column.from_array("x", cloud["x"])
            lo = float(np.quantile(cloud["x"], 0.45))
            hi = float(np.quantile(cloud["x"], 0.55))
            scanned = {}
            for bins in (4, 8, 16, 32, 64):
                imp = SegmentedImprints(col, segment_rows=len(col), max_bins=bins)
                scanned[bins] = imp.scanned_fraction(lo, hi)
                report.add_row(
                    imp.stats().n_bins,
                    f"{imp.stats().overhead * 100:.2f}",
                    f"{scanned[bins] * 100:.2f}",
                    f"{imp.false_positive_rate(lo, hi) * 100:.2f}",
                )
            report.note("finer histograms prune more for the same 64-bit vector")
            report.emit()
            assert scanned[64] <= scanned[4]

        benchmark.pedantic(build_report, rounds=1, iterations=1)

    def test_report_e7_patch_size(self, benchmark, cloud, extent):
        def build_report():
            report = Report(
                "E7c",
                "blockstore patch-size ablation",
                headers=[
                    "patch points",
                    "load ms",
                    "bytes/point",
                    "small-query ms",
                    "large-query ms",
                ],
            )
            batch = {k: cloud[k] for k in ("x", "y", "z")}
            cx, cy = extent.center
            small = Box(cx, cy, cx + 0.02 * extent.width, cy + 0.02 * extent.height)
            large = Box(
                extent.xmin + 0.1 * extent.width,
                extent.ymin + 0.1 * extent.height,
                extent.xmax - 0.1 * extent.width,
                extent.ymax - 0.1 * extent.height,
            )
            n = cloud["x"].shape[0]
            for patch_size in (256, 1024, 4096, 16384, 65536):
                store = BlockStore(patch_size=patch_size, sort="morton")
                t_load = best_of(lambda: store.load(batch), repeats=1)
                t_small = best_of(lambda: store.query(small))
                t_large = best_of(lambda: store.query(large))
                report.add_row(
                    patch_size,
                    t_load * 1e3,
                    store.nbytes / n,
                    t_small * 1e3,
                    t_large * 1e3,
                )
            report.note(
                "small patches help selective queries but bloat the index "
                "and slow loading — the tension the flat table sidesteps"
            )
            report.emit()

        benchmark.pedantic(build_report, rounds=1, iterations=1)
