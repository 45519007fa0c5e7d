"""The database catalog: named tables plus optional on-disk persistence.

A :class:`Database` is the session object of the engine — the analogue of a
MonetDB database farm.  Tables live in memory; :meth:`Database.save` /
:meth:`Database.load` persist them as per-column binary files under a
directory (one subdirectory per table).

Durability contract (see ``docs/durability.md``):

* :meth:`Database.save` writes every table's column files first, then the
  per-table ``schema.json``, then — last of all, atomically — the root
  ``_catalog.json`` naming the live tables.  A crash at any instant
  leaves the previous catalog intact, and a table dropped in memory can
  no longer resurrect from a stale directory: load trusts the catalog.
* :meth:`Database.load` degrades gracefully: a table with a torn tail is
  rolled back to its last committed rows, an unreadable table is skipped,
  and either way per-table health lands in :attr:`Database.health`
  instead of the whole load dying on the first bad column.
* :meth:`Database.verify` re-checks every on-disk artifact (metadata,
  checksums, row counts) and :meth:`Database.recover` rewrites whatever a
  tolerant load had to repair, so ``verify`` passes again after a crash.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from . import durable, storage
from .table import Schema, Table

PathLike = Union[str, Path]

#: Root-level catalog metadata file, written last on every save.
CATALOG_FILE = "_catalog.json"


class CatalogError(KeyError):
    """Raised on unknown or duplicate table names."""


class Database:
    """A collection of named flat tables.

    Parameters
    ----------
    directory:
        Optional persistence root.  When given, :meth:`save` writes every
        table beneath it and ``Database.load(directory)`` restores the lot.
    """

    def __init__(self, directory: Optional[PathLike] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._tables: Dict[str, Table] = {}
        #: Per-table load/recovery health, populated by :meth:`load`:
        #: ``{name: {"ok": bool, "issues": [str, ...]}}``.
        self.health: Dict[str, Dict[str, Any]] = {}
        #: Catalog generation: bumped on every :meth:`save` and recorded
        #: in ``_catalog.json``.  Concurrent readers pin the generation
        #: they loaded; a writer publishing generation N+1 via the
        #: atomic catalog replace never perturbs a reader still scanning
        #: generation N (see ``repro.serve.snapshot``).
        self.generation: int = 0

    # -- table lifecycle ----------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create an empty table; fails on duplicate names."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def register(self, table: Table) -> Table:
        """Adopt an existing table object under its own name."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog (in-memory only)."""
        if name not in self._tables:
            raise CatalogError(f"no table {name!r}")
        del self._tables[name]

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables.keys())

    # -- persistence ----------------------------------------------------------

    def save(self, directory: Optional[PathLike] = None) -> int:
        """Persist all tables; returns total bytes written.

        Tables are written first (columns, then their ``schema.json``);
        the root ``_catalog.json`` listing the live tables goes last,
        atomically.  Dropped tables therefore disappear from the catalog
        on the next save even though their directories linger on disk —
        :meth:`load` trusts the catalog, not the directory scan.
        """
        root = Path(directory) if directory is not None else self.directory
        if root is None:
            raise ValueError("no persistence directory configured")
        root.mkdir(parents=True, exist_ok=True)
        generation = self.generation + 1
        total = 0
        for name in sorted(self._tables):
            total += storage.save_table(
                self._tables[name], root / name, generation=generation
            )
            durable.crash_point("catalog.table_saved", table=name)
        meta = {
            "version": 1,
            "tables": sorted(self._tables),
            "generation": generation,
        }
        durable.atomic_write_text(
            root / CATALOG_FILE, json.dumps(meta, indent=2), label="catalog"
        )
        # The generation becomes current only once the catalog naming it
        # is durable — a crash before the replace leaves both the on-disk
        # store and this object at the previous generation.
        self.generation = generation
        return total

    @staticmethod
    def _catalog_meta(root: Path) -> Optional[Dict[str, Any]]:
        """Parsed ``_catalog.json``, or ``None`` for legacy farms."""
        path = root / CATALOG_FILE
        try:
            meta = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise storage.StorageError(
                f"{path}: corrupt catalog metadata ({exc})"
            ) from None
        if not isinstance(meta, dict):
            raise storage.StorageError(f"{path}: corrupt catalog metadata")
        return meta

    @classmethod
    def _catalog_table_names(cls, root: Path) -> Optional[List[str]]:
        """Table names from ``_catalog.json``, or None for legacy farms."""
        meta = cls._catalog_meta(root)
        if meta is None:
            return None
        return list(meta.get("tables", []))

    @classmethod
    def read_generation(cls, directory: PathLike) -> int:
        """The published catalog generation of an on-disk store.

        Reads only ``_catalog.json`` — cheap enough to poll from a
        serving process deciding whether a writer has published a newer
        snapshot.  Legacy farms without a catalog (or catalogs written
        before generations existed) report generation 0.
        """
        meta = cls._catalog_meta(Path(directory))
        if meta is None:
            return 0
        return int(meta.get("generation", 0))

    @classmethod
    def load(cls, directory: PathLike) -> "Database":
        """Restore a database persisted with :meth:`save`.

        Never dies on the first bad table: a torn tail append is rolled
        back to the last committed rows, an unreadable table is skipped,
        and every table's outcome is recorded in :attr:`health`.  Raises
        only when the directory itself (or its catalog file) is unusable.
        """
        root = Path(directory)
        if not root.is_dir():
            raise storage.StorageError(f"no database directory at {root}")
        db = cls(directory=root)
        db.generation = cls.read_generation(root)
        names = cls._catalog_table_names(root)
        if names is None:
            # Legacy farm without a catalog file: directory scan.
            names = sorted(
                entry.name
                for entry in root.iterdir()
                if entry.is_dir() and (entry / "schema.json").exists()
            )
        for name in sorted(names):
            try:
                table, issues = storage.recover_table(root / name)
            except storage.StorageError as exc:
                db.health[name] = {"ok": False, "issues": [str(exc)]}
                continue
            db.register(table)
            # Rolled-back tails are listed as issues; quarantined sidecars
            # are repaired in memory (re-encoded from the plain column), so
            # they are notes, not failures.
            db.health[name] = {"ok": True, "issues": issues}
        return db

    def verify(self, directory: Optional[PathLike] = None) -> Dict[str, Any]:
        """Check every on-disk artifact; returns a health report.

        ``{"ok": bool, "tables": {name: {"ok": bool, "issues": [...]}}}``
        — metadata must parse, every column file must load with a valid
        checksum, and all row counts must agree.  Read-only: nothing is
        repaired (that is :meth:`recover`'s job).
        """
        root = Path(directory) if directory is not None else self.directory
        if root is None:
            raise ValueError("no persistence directory configured")
        report: Dict[str, Any] = {"ok": True, "tables": {}}
        if not root.is_dir():
            return {"ok": False, "tables": {}, "error": f"no database at {root}"}
        try:
            names = self._catalog_table_names(root)
        except storage.StorageError as exc:
            return {"ok": False, "tables": {}, "error": str(exc)}
        if names is None:
            names = sorted(
                entry.name
                for entry in root.iterdir()
                if entry.is_dir() and (entry / "schema.json").exists()
            )
        for name in sorted(names):
            issues = storage.verify_table(root / name)
            report["tables"][name] = {"ok": not issues, "issues": issues}
            if issues:
                report["ok"] = False
        return report

    @classmethod
    def recover(cls, directory: PathLike) -> "Database":
        """Tolerant load + rewrite of everything the load had to repair.

        After a crash anywhere in the save path, ``recover`` rolls torn
        tails back, re-saves the repaired tables, and rewrites the
        catalog so a subsequent :meth:`verify` passes.  Tables that are
        genuinely unreadable (e.g. checksum corruption) stay on disk,
        flagged in :attr:`health` — recovery never destroys data.
        """
        db = cls.load(directory)
        root = db.directory
        assert root is not None  # load() always sets it
        generation = db.generation + 1
        for name in db.table_names:
            storage.save_table(db.table(name), root / name, generation=generation)
        # Unreadable tables stay listed so they keep surfacing in health
        # reports instead of being silently forgotten.
        keep = sorted(
            set(db.table_names)
            | {n for n, h in db.health.items() if not h["ok"]}
        )
        meta = {"version": 1, "tables": keep, "generation": generation}
        durable.atomic_write_text(
            root / CATALOG_FILE, json.dumps(meta, indent=2), label="catalog"
        )
        db.generation = generation
        return db
