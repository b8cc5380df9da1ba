"""Heap tables and rowids.

A heap table is a segment of slotted pages; rows are addressed by a
:class:`RowId` (segment, page, slot) that stays valid across updates —
which is what lets domain indexes store rowids as index entries and
stream them back from ``ODCIIndexFetch`` (§2.2.3).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import InvalidRowIdError, StorageError
from repro.storage.buffer import BufferCache
from repro.storage.page import Page, PAGE_SIZE, estimate_row_size
from repro.txn.mvcc import Snapshot, VersionStore


class RowId:
    """Physical row address: (segment, page, slot).  Ordered and hashable.

    Hand-rolled rather than a dataclass: rowids are created, hashed, and
    compared millions of times on index-build and sort paths, so the
    comparison methods work on one precomputed key tuple instead of the
    generated per-call tuple packing (and construction skips the frozen
    dataclass ``object.__setattr__`` detour).
    """

    __slots__ = ("segment_id", "page_no", "slot", "sort_key", "_hash")

    def __init__(self, segment_id: int, page_no: int, slot: int):
        self.segment_id = segment_id
        self.page_no = page_no
        self.slot = slot
        #: plain-int tuple mirror of the address; sort paths decorate
        #: with it so comparisons stay C-level tuple compares
        self.sort_key = key = (segment_id, page_no, slot)
        # rowids key every version store, seen-set and postings dict,
        # so the tuple hash is computed once, not per lookup
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor so the cached hash is derived,
        # never carried in WAL records or wire frames
        return RowId, self.sort_key

    def __setstate__(self, state):
        # rowids pickled before the hash was cached (older WAL records
        # and durable dumps) carry their slots as state
        slots = state[1]
        self.__init__(slots["segment_id"], slots["page_no"], slots["slot"])

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key == other.sort_key
        return NotImplemented

    def __lt__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key < other.sort_key
        return NotImplemented

    def __le__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key <= other.sort_key
        return NotImplemented

    def __gt__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key > other.sort_key
        return NotImplemented

    def __ge__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key >= other.sort_key
        return NotImplemented

    def __repr__(self) -> str:
        return f"RID({self.segment_id}.{self.page_no}.{self.slot})"


class HeapTable:
    """An unordered table of rows stored on slotted pages.

    The table does not know its schema; the catalog layer owns column
    names/types and validates values before they reach here.
    """

    def __init__(self, buffer_cache: BufferCache, name: str = "?",
                 segment_id: Optional[int] = None):
        self.buffer = buffer_cache
        self.name = name
        # Recovery re-creates tables with their original segment ids so
        # logged rowids keep addressing the same pages.
        self.segment_id = (segment_id if segment_id is not None
                           else buffer_cache.allocate_segment())
        self._page_count = 0
        self._row_count = 0
        # Pages that most recently had room, checked before allocating.
        self._last_insert_page: Optional[int] = None
        #: MVCC version chains keyed by rowid (see repro.txn.mvcc)
        self.versions = VersionStore()

    # -- DML ------------------------------------------------------------

    def insert(self, row: List[Any], on_rowid=None) -> RowId:
        """Store ``row`` and return its new rowid.

        ``on_rowid`` closes the MVCC insert-visibility race: the slot is
        first filled with a ``None`` placeholder (invisible to scans),
        the callback registers the rowid's version chain, and only then
        is the real row written — so no snapshot reader can observe the
        uncommitted row through the untracked-rowid fast path.
        """
        size = min(estimate_row_size(row), PAGE_SIZE)
        page = self._page_for_insert(size)
        if on_rowid is None:
            slot = page.insert(list(row), size)
            self._row_count += 1
            return RowId(self.segment_id, page.page_no, slot)
        slot = page.insert(None, size)
        rowid = RowId(self.segment_id, page.page_no, slot)
        on_rowid(rowid)
        page.update(slot, list(row), size, size)
        self._row_count += 1
        return rowid

    def insert_bulk(self, rows: List[List[Any]],
                    with_rowids: bool = True,
                    presorted: bool = False) -> List[RowId]:
        """Store ``rows`` and return their rowids in input order.

        Pages fill append-only: each is latched for write once per run
        of rows it absorbs rather than once per row.  Heap rowids are
        byproducts of page placement, so ``with_rowids=False`` still
        returns them, and ``presorted`` is irrelevant to an unordered
        heap (both flags only matter for key-organized storage).
        """
        rowids: List[RowId] = []
        page: Optional[Page] = None
        for row in rows:
            size = min(estimate_row_size(row), PAGE_SIZE)
            if page is None or not page.has_room(size):
                page = self._page_for_insert(size)
            slot = page.insert(list(row), size)
            rowids.append(RowId(self.segment_id, page.page_no, slot))
        self._row_count += len(rows)
        return rowids

    def fetch(self, rowid: RowId) -> List[Any]:
        """Return the row at ``rowid``; raises for dead or foreign rowids."""
        page = self._page_at(rowid)
        row = page.read_slot(rowid.slot)
        if row is None:
            raise InvalidRowIdError(f"{rowid} does not identify a live row")
        return row

    def fetch_or_none(self, rowid: RowId,
                      snapshot: Optional[Snapshot] = None
                      ) -> Optional[List[Any]]:
        """Like :meth:`fetch` but returns None for a deleted slot.

        With a ``snapshot``, the slot value is resolved through the
        row's version chain (consistent read); index-returned rowids go
        through here, so the index may say "maybe" but the table says
        the truth for this snapshot.
        """
        try:
            page = self._page_at(rowid)
        except InvalidRowIdError:
            return None
        current = page.read_slot(rowid.slot)
        if snapshot is None:
            return current
        return self.versions.resolve(rowid, current, snapshot)

    def update(self, rowid: RowId, row: List[Any]) -> List[Any]:
        """Replace the row at ``rowid`` in place; returns the old row."""
        page = self._page_at(rowid, for_write=True)
        old = page.read_slot(rowid.slot)
        if old is None:
            raise InvalidRowIdError(f"{rowid} does not identify a live row")
        old_size = min(estimate_row_size(old), PAGE_SIZE)
        new_size = min(estimate_row_size(row), PAGE_SIZE)
        page.update(rowid.slot, list(row), old_size, new_size)
        return old

    def delete(self, rowid: RowId) -> List[Any]:
        """Delete the row at ``rowid``; returns the old row."""
        page = self._page_at(rowid, for_write=True)
        old = page.read_slot(rowid.slot)
        if old is None:
            raise InvalidRowIdError(f"{rowid} does not identify a live row")
        page.delete(rowid.slot, min(estimate_row_size(old), PAGE_SIZE))
        self._row_count -= 1
        return old

    def undelete(self, rowid: RowId, row: List[Any]) -> None:
        """Restore a deleted slot (used by transaction rollback)."""
        page = self._page_at(rowid, for_write=True)
        if page.read_slot(rowid.slot) is not None:
            raise StorageError(f"{rowid} is live; cannot undelete")
        size = min(estimate_row_size(row), PAGE_SIZE)
        page.update(rowid.slot, list(row), 0, size)
        self._row_count += 1

    def truncate(self) -> None:
        """Discard every row and page (DDL: fast, not undoable)."""
        self.buffer.drop_segment(self.segment_id)
        self._page_count = 0
        self._row_count = 0
        self._last_insert_page = None
        self.versions.clear()

    # -- scans ----------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RowId, List[Any]]]:
        """Full table scan: yield (rowid, row) for every live row."""
        for page_no in range(self._page_count):
            page = self.buffer.get_page(self.segment_id, page_no)
            for slot, row in enumerate(page.slots):
                if row is not None:
                    yield RowId(self.segment_id, page_no, slot), row

    def scan_batches(self, snapshot: Optional[Snapshot] = None
                     ) -> Iterator[List[Tuple[RowId, List[Any]]]]:
        """Full scan, one page per batch.

        The batched executor pipeline consumes pages whole, so the
        buffer cache is latched once per page instead of once per row;
        empty pages produce no batch.  With a ``snapshot``, every slot —
        live or tombstoned — is resolved through its version chain, so
        the scan sees exactly the rows committed as of the snapshot's
        SCN plus the owning transaction's own writes.
        """
        segment_id = self.segment_id
        if snapshot is None:
            for page_no in range(self._page_count):
                page = self.buffer.get_page(segment_id, page_no)
                batch = [(RowId(segment_id, page_no, slot), row)
                         for slot, row in enumerate(page.slots)
                         if row is not None]
                if batch:
                    yield batch
            return
        resolve = self.versions.resolve
        for page_no in range(self._page_count):
            page = self.buffer.get_page(segment_id, page_no)
            batch = []
            for slot, row in enumerate(list(page.slots)):
                rowid = RowId(segment_id, page_no, slot)
                value = resolve(rowid, row, snapshot)
                if value is not None:
                    batch.append((rowid, value))
            if batch:
                yield batch

    def scan_batches_columnar(
            self, width: int, snapshot: Optional[Snapshot] = None
            ) -> Iterator[Tuple[List[RowId], List[List[Any]]]]:
        """Full scan, one page per batch, transposed into columns.

        Yields ``(rowids, columns)`` where ``columns[c][i]`` is column
        ``c`` of the batch's row ``i`` — the layer above wraps these in
        a ``ColumnBatch``.  ``width`` is the table's column count (the
        heap does not know its schema); it sizes the columns when a page
        is empty after filtering.  Same snapshot semantics as
        :meth:`scan_batches`: version-chain resolution fills the columns
        directly, no intermediate row-tuple batch is built.
        """
        yield from self.scan_page_range_columnar(
            0, self._page_count, width, snapshot)

    def scan_page_range_columnar(
            self, start: int, stop: int, width: int,
            snapshot: Optional[Snapshot] = None
            ) -> Iterator[Tuple[List[RowId], List[List[Any]]]]:
        """:meth:`scan_batches_columnar` restricted to ``[start, stop)``
        — the columnar morsel unit for parallel scans."""
        segment_id = self.segment_id
        stop = min(stop, self._page_count)
        resolve = self.versions.resolve if snapshot is not None else None
        for page_no in range(max(0, start), stop):
            page = self.buffer.get_page(segment_id, page_no)
            rowids: List[RowId] = []
            rows: List[List[Any]] = []
            if resolve is None:
                for slot, row in enumerate(page.slots):
                    if row is not None:
                        rowids.append(RowId(segment_id, page_no, slot))
                        rows.append(row)
            else:
                for slot, row in enumerate(list(page.slots)):
                    rowid = RowId(segment_id, page_no, slot)
                    value = resolve(rowid, row, snapshot)
                    if value is not None:
                        rowids.append(rowid)
                        rows.append(value)
            if rowids:
                columns = [list(col) for col in zip(*rows)]
                yield rowids, columns

    def scan_page_range(self, start: int, stop: int,
                        snapshot: Optional[Snapshot] = None
                        ) -> Iterator[List[Tuple[RowId, List[Any]]]]:
        """:meth:`scan_batches` restricted to pages ``[start, stop)``.

        The unit a parallel morsel covers: each worker scans a disjoint
        contiguous page range, so concurrent morsels of one statement
        never touch the same page.  Same snapshot semantics as
        :meth:`scan_batches` (version-chain resolution per slot).
        """
        segment_id = self.segment_id
        stop = min(stop, self._page_count)
        if snapshot is None:
            for page_no in range(max(0, start), stop):
                page = self.buffer.get_page(segment_id, page_no)
                batch = [(RowId(segment_id, page_no, slot), row)
                         for slot, row in enumerate(page.slots)
                         if row is not None]
                if batch:
                    yield batch
            return
        resolve = self.versions.resolve
        for page_no in range(max(0, start), stop):
            page = self.buffer.get_page(segment_id, page_no)
            batch = []
            for slot, row in enumerate(list(page.slots)):
                rowid = RowId(segment_id, page_no, slot)
                value = resolve(rowid, row, snapshot)
                if value is not None:
                    batch.append((rowid, value))
            if batch:
                yield batch

    # -- durability support ----------------------------------------------

    def stamp_lsn(self, rowid: RowId, lsn: int) -> None:
        """Record the WAL LSN of the last change to ``rowid``'s page.

        Only called when durability is on; the extra ``get_page`` does
        not disturb the exact-I/O benchmark assertions, which run with
        durability off.
        """
        page = self.buffer.get_page(self.segment_id, rowid.page_no)
        if lsn > page.page_lsn:
            page.page_lsn = lsn

    def rebuild_from_pages(self) -> None:
        """Recompute counters from recovered page images (restart)."""
        pages = self.buffer.segment_pages(self.segment_id)
        self._page_count = (max(pages) + 1) if pages else 0
        self._row_count = sum(p.live_count() for p in pages.values())
        self._last_insert_page = None
        for page in pages.values():
            page.recompute_used()

    # -- statistics -------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Live row count (maintained incrementally)."""
        return self._row_count

    @property
    def page_count(self) -> int:
        """Allocated page count; proportional to full-scan cost."""
        return self._page_count

    # -- internals --------------------------------------------------------

    def _page_for_insert(self, size: int) -> Page:
        if self._last_insert_page is not None:
            page = self.buffer.get_page(
                self.segment_id, self._last_insert_page, for_write=True)
            if page.has_room(size):
                return page
        page = self.buffer.new_page(self.segment_id, self._page_count)
        self._page_count += 1
        self._last_insert_page = page.page_no
        return page

    def _page_at(self, rowid: RowId, for_write: bool = False) -> Page:
        if rowid.segment_id != self.segment_id:
            raise InvalidRowIdError(
                f"{rowid} belongs to another table (segment "
                f"{rowid.segment_id} != {self.segment_id})")
        if not 0 <= rowid.page_no < self._page_count:
            raise InvalidRowIdError(f"{rowid}: page out of range")
        return self.buffer.get_page(self.segment_id, rowid.page_no,
                                    for_write=for_write)
