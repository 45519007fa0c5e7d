"""E2 — Storage footprint (paper Sections 3.1-3.2, [18]).

Claims reproduced:

* column imprints cost only a few percent of the indexed columns
  ("Imprints storage comes with a 5-12% storage overhead");
* the flat table plus imprints is storage-competitive: less total space
  than uncompressed blocks, in the same league as compressed blocks;
* LAZ-style archives are the smallest at-rest format (but must be
  decompressed to query);
* columnar compression (RLE/dict/FOR) shrinks the low-cardinality LAS
  property columns dramatically (Section 3.1's flexibility argument).
"""

import numpy as np
import pytest

from repro.bench.harness import Report
from repro.blockstore.store import BlockStore
from repro.core.imprints import SegmentedImprints
from repro.engine.column import Column
from repro.engine.compression import best_scheme
from repro.las.laz import write_laz
from repro.las.writer import write_las


class TestImprintOverheadBench:
    def test_imprint_build(self, benchmark, cloud):
        col = Column.from_array("x", cloud["x"])
        benchmark(lambda: SegmentedImprints(col, segment_rows=len(col)))


class TestStorageReport:
    def test_report_e2(self, benchmark, cloud, flat_db, tmp_path):
        def build_report():
            n = cloud["x"].shape[0]
            report = Report(
                "E2",
                "storage footprint & imprint overhead",
                headers=["representation", "bytes", "bytes/point", "notes"],
            )

            table = flat_db.table("ahn2")
            flat_bytes = table.nbytes
            imprint_bytes = flat_db.storage_report()["ahn2"]["imprint_bytes"]
            report.add_row(
                "flat table (26 columns)",
                flat_bytes,
                flat_bytes / n,
                "uncompressed columns",
            )
            report.add_row(
                "  + imprints (x, y)",
                imprint_bytes,
                imprint_bytes / n,
                "secondary index",
            )

            # Per-column imprint overhead: the paper's 5-12% claim.
            overheads = {}
            for name in ("x", "y", "z", "gps_time"):
                col = Column.from_array(name, cloud[name])
                imp = SegmentedImprints(col, segment_rows=len(col))
                overheads[name] = imp.stats().overhead
            for name, overhead in overheads.items():
                report.add_row(
                    f"imprint overhead on {name!r}",
                    "",
                    "",
                    f"{overhead * 100:.1f}% of column",
                )

            # Block stores (sorted and unsorted).
            batch = {k: cloud[k] for k in ("x", "y", "z", "intensity")}
            raw_subset = sum(np.asarray(v).nbytes for v in batch.values())
            sorted_store = BlockStore(patch_size=4096, sort="hilbert")
            sorted_store.load(batch)
            unsorted_store = BlockStore(patch_size=4096, sort=None)
            unsorted_store.load(batch)
            # Unclustered input: what the sort is for (load order is already
            # flightline-clustered, so shuffle to isolate the effect).
            rng = np.random.default_rng(0)
            perm = rng.permutation(n)
            shuffled_store = BlockStore(patch_size=4096, sort=None)
            shuffled_store.load({k: np.asarray(v)[perm] for k, v in batch.items()})
            report.add_row(
                "blockstore compressed (hilbert)",
                sorted_store.nbytes,
                sorted_store.nbytes / n,
                f"vs {raw_subset} raw bytes of same 4 dims",
            )
            report.add_row(
                "blockstore compressed (load order)",
                unsorted_store.nbytes,
                unsorted_store.nbytes / n,
                "flightline-clustered input",
            )
            report.add_row(
                "blockstore compressed (shuffled)",
                shuffled_store.nbytes,
                shuffled_store.nbytes / n,
                "unclustered input, no sort",
            )

            # File formats.
            las_path = tmp_path / "e2.las"
            laz_path = tmp_path / "e2.laz"
            write_las(las_path, cloud)
            write_laz(laz_path, cloud)
            las_bytes = las_path.stat().st_size
            laz_bytes = laz_path.stat().st_size
            report.add_row("LAS file (format 3)", las_bytes, las_bytes / n, "")
            report.add_row("LAZ-like file", laz_bytes, laz_bytes / n, "")

            # Columnar compression on flat columns (Section 3.1).
            for name in ("classification", "return_number", "intensity"):
                block = best_scheme(np.asarray(cloud[name]))
                raw = np.asarray(cloud[name]).nbytes
                report.add_row(
                    f"column {name!r} via {block.scheme}",
                    block.nbytes,
                    block.nbytes / n,
                    f"{raw / block.nbytes:.1f}x smaller",
                )

            total_overhead = imprint_bytes / (2 * n * 8)
            report.note(
                f"imprints on x+y cost {total_overhead * 100:.1f}% of the "
                f"indexed column bytes (paper claims 5-12%)"
            )
            report.emit()

            # Assertions for the claims.
            for name, overhead in overheads.items():
                assert overhead < 0.15, f"imprint overhead on {name} too big"
            assert laz_bytes < las_bytes
            # Spatial sorting pays off on unclustered input (Section 2.3).
            assert sorted_store.nbytes < shuffled_store.nbytes

        benchmark.pedantic(build_report, rounds=1, iterations=1)
