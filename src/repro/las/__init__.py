"""LAS/LAZ substrate: the ASPRS file formats and the paper's loaders.

* :mod:`repro.las.spec` — point record layouts + the 26-column flat schema.
* :mod:`repro.las.header` / :mod:`~.reader` / :mod:`~.writer` — LAS 1.2 I/O.
* :mod:`repro.las.laz` — the compressed (LAZ-like) container.
* :mod:`repro.las.binloader` — the paper's binary bulk loader (Section 3.2).
* :mod:`repro.las.csvloader` — the slow CSV path it replaces.
"""

from .binloader import (
    LoadStats,
    create_flat_table,
    load_arrays,
    load_file,
    load_files,
)
from .header import HEADER_SIZE, LasFormatError, LasHeader
from .laz import read_laz, write_laz
from .reader import read_header, read_las
from .spec import ASPRS_CLASSES, FLAT_COLUMN_NAMES, FLAT_SCHEMA, POINT_FORMATS
from .writer import write_las

__all__ = [
    "ASPRS_CLASSES",
    "FLAT_COLUMN_NAMES",
    "FLAT_SCHEMA",
    "HEADER_SIZE",
    "LasFormatError",
    "LasHeader",
    "LoadStats",
    "POINT_FORMATS",
    "create_flat_table",
    "load_arrays",
    "load_file",
    "load_files",
    "read_header",
    "read_las",
    "read_laz",
    "write_las",
    "write_laz",
]
