"""Database catalog: tables, columns, indexes, tablespaces, statistics.

The catalog is the bridge between the two layers of the APG: every table
belongs to a tablespace, and every tablespace is mapped to a SAN volume
(System Managed Storage in the paper's testbed — Ext3 file systems on V1 and
V2).  Given a plan operator that touches a table, the catalog resolves the
volume its I/O lands on, which seeds the dependency-path computation.

Statistics (row counts, column NDVs) feed the cost-based optimizer, and
*changes* to them are one of the plan-change causes Module PD looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = ["Column", "Table", "Index", "Tablespace", "Catalog", "CatalogError", "PAGE_SIZE"]

#: Bytes per page; used to derive page counts from row counts and widths.
PAGE_SIZE = 8192


class CatalogError(ValueError):
    """Raised for unknown or conflicting catalog objects."""


@dataclass(frozen=True)
class Column:
    """A table column with the statistics the optimizer consumes."""

    name: str
    ndv: int = 1
    avg_width: int = 8
    null_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.ndv < 1:
            raise ValueError("ndv must be >= 1")
        if not 0.0 <= self.null_fraction <= 1.0:
            raise ValueError("null_fraction must be in [0, 1]")


@dataclass
class Table:
    """A base table: rows, width, columns and its tablespace."""

    name: str
    row_count: int
    row_width: int
    tablespace: str
    columns: dict[str, Column] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise ValueError("row_count must be non-negative")
        if self.row_width <= 0:
            raise ValueError("row_width must be positive")

    @property
    def pages(self) -> int:
        """Heap pages, derived from rows and width."""
        rows_per_page = max(PAGE_SIZE // self.row_width, 1)
        return max(math.ceil(self.row_count / rows_per_page), 1)

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from None


@dataclass
class Index:
    """A (single-column) B-tree index."""

    name: str
    table: str
    column: str
    unique: bool = False

    def height(self, table_rows: int) -> int:
        """Approximate B-tree height for descent cost."""
        if table_rows <= 1:
            return 1
        return max(1, math.ceil(math.log(max(table_rows, 2), 300)))

    def leaf_pages(self, table_rows: int) -> int:
        return max(1, table_rows // 300)


@dataclass(frozen=True)
class Tablespace:
    """Named storage container mapped onto one SAN volume."""

    name: str
    volume_id: str


class Catalog:
    """Mutable schema + statistics container.

    Mutations that matter to diagnosis (index drops/creates, row-count
    updates) are the raw material of Module PD's plan-change analysis, so the
    catalog supports structural snapshots for the config store to diff.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, Index] = {}
        self._tablespaces: dict[str, Tablespace] = {}

    # -- tablespaces -----------------------------------------------------
    def add_tablespace(self, tablespace: Tablespace) -> Tablespace:
        if tablespace.name in self._tablespaces:
            raise CatalogError(f"duplicate tablespace {tablespace.name!r}")
        self._tablespaces[tablespace.name] = tablespace
        return tablespace

    def tablespace(self, name: str) -> Tablespace:
        try:
            return self._tablespaces[name]
        except KeyError:
            raise CatalogError(f"unknown tablespace {name!r}") from None

    @property
    def tablespaces(self) -> list[Tablespace]:
        return list(self._tablespaces.values())

    # -- tables ----------------------------------------------------------
    def add_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise CatalogError(f"duplicate table {table.name!r}")
        if table.tablespace not in self._tablespaces:
            raise CatalogError(
                f"table {table.name!r} references unknown tablespace {table.tablespace!r}"
            )
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    @property
    def tables(self) -> list[Table]:
        return list(self._tables.values())

    def volume_of_table(self, name: str) -> str:
        """The SAN volume holding a table's tablespace — the DB→SAN link."""
        return self.tablespace(self.table(name).tablespace).volume_id

    def tables_on_volume(self, volume_id: str) -> list[Table]:
        return [
            t
            for t in self._tables.values()
            if self.tablespace(t.tablespace).volume_id == volume_id
        ]

    def update_row_count(self, table_name: str, row_count: int) -> None:
        """ANALYZE-style statistics refresh (a plan-change trigger)."""
        table = self.table(table_name)
        if row_count < 0:
            raise CatalogError("row_count must be non-negative")
        table.row_count = row_count

    # -- indexes ---------------------------------------------------------
    def create_index(self, index: Index) -> Index:
        if index.name in self._indexes:
            raise CatalogError(f"duplicate index {index.name!r}")
        table = self.table(index.table)
        table.column(index.column)  # validates the column exists
        self._indexes[index.name] = index
        return index

    def drop_index(self, name: str) -> Index:
        try:
            return self._indexes.pop(name)
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    @property
    def indexes(self) -> list[Index]:
        return list(self._indexes.values())

    def indexes_on(self, table_name: str, column: str | None = None) -> list[Index]:
        return [
            idx
            for idx in self._indexes.values()
            if idx.table == table_name and (column is None or idx.column == column)
        ]

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> dict:
        """Structural + statistical snapshot for configuration diffing."""
        return {
            "tables": {
                t.name: {
                    "row_count": t.row_count,
                    "tablespace": t.tablespace,
                    "columns": sorted(t.columns),
                }
                for t in sorted(self._tables.values(), key=lambda t: t.name)
            },
            "indexes": {
                i.name: {"table": i.table, "column": i.column, "unique": i.unique}
                for i in sorted(self._indexes.values(), key=lambda i: i.name)
            },
            "tablespaces": {
                ts.name: ts.volume_id for ts in sorted(self._tablespaces.values(), key=lambda s: s.name)
            },
        }

    def clone(self) -> "Catalog":
        """Deep-enough copy for what-if replans (shares immutable columns)."""
        other = Catalog()
        for ts in self._tablespaces.values():
            other.add_tablespace(ts)
        for t in self._tables.values():
            other.add_table(
                Table(
                    name=t.name,
                    row_count=t.row_count,
                    row_width=t.row_width,
                    tablespace=t.tablespace,
                    columns=dict(t.columns),
                )
            )
        for i in self._indexes.values():
            other.create_index(replace(i))
        return other
