"""The fingerprint index *file format* — one code path, two stores.

This is the heart of the §3.2.4 migration story: the index management
software is written against a file-like handle (``read``/``write``/
``seek``/``truncate``/``length``), so the *same* class operates on an
external :class:`~repro.storage.filestore.ExternalFile` (the pre-8i
deployment) or a database :class:`~repro.storage.lob.LobLocator` (the
cartridge deployment) — "minimal changes were required to the index
management software".

Format (big-endian)::

    header:  magic 'CFP1' | record_count u32
    record:  seg u32 | page u32 | slot u32 | flags u8 |
             cert_hash u64 | taut_hash u64 | fingerprint FP_BITS/8 bytes

Deletes append a tombstone record (flags=1) — the file is append-only
between compactions, which is what makes the *write* pattern comparable
across stores while the I/O accounting differs (file writes are eager,
LOB writes are buffered).  A tombstone cancels one live record of its
rowid written *before* it; a tombstone with no such record (the row's
old value was NULL, so nothing was indexed) does nothing.

Reads fetch the whole record area with one ``read`` (after the header)
and decode it in a single pass over the buffer, so a scan costs the
same two store reads however many records the index holds.
"""

from __future__ import annotations

import struct
from typing import Dict, List, NamedTuple, Optional

from repro.cartridges.chemistry.fingerprint import FP_BITS
from repro.errors import StorageError
from repro.storage.heap import RowId

_MAGIC = b"CFP1"
_HEADER = struct.Struct(">4sI")
_FP_BYTES = FP_BITS // 8
# fingerprint as raw bytes; ints are decoded after unpacking
_RECORD = struct.Struct(f">IIIBQQ{_FP_BYTES}s")
_RECORD_SIZE = _RECORD.size

FLAG_TOMBSTONE = 1


class Record(NamedTuple):
    """One index entry: rowid + hashes + fingerprint.

    A named tuple rather than a frozen dataclass: a scan decodes every
    record of the index, and tuple construction skips the dataclass
    ``__init__``.
    """

    rowid: RowId
    cert_hash: int
    taut_hash: int
    fingerprint: int
    tombstone: bool = False

    def pack(self) -> bytes:
        return _RECORD.pack(
            self.rowid.segment_id, self.rowid.page_no, self.rowid.slot,
            FLAG_TOMBSTONE if self.tombstone else 0,
            self.cert_hash, self.taut_hash,
            self.fingerprint.to_bytes(_FP_BYTES, "big"))

    @classmethod
    def unpack(cls, data: bytes) -> "Record":
        return _decode(data[:_RECORD_SIZE], 1)[0]


def _decode(data: bytes, count: int) -> List[Record]:
    """Decode ``count`` packed records from the front of ``data``."""
    if len(data) < count * _RECORD_SIZE:
        raise StorageError("truncated fingerprint index record")
    from_bytes = int.from_bytes
    return [Record(RowId(seg, page, slot), cert_hash, taut_hash,
                   from_bytes(fp, "big"), bool(flags & FLAG_TOMBSTONE))
            for seg, page, slot, flags, cert_hash, taut_hash, fp
            in _RECORD.iter_unpack(memoryview(data)[:count * _RECORD_SIZE])]


class FingerprintIndexFile:
    """Reader/writer for the fingerprint index format over any handle.

    ``handle_factory`` returns a fresh positioned handle on each call —
    a LOB locator or an external file object.  All methods reopen via
    the factory, mirroring file-based index code that opens per
    operation.
    """

    def __init__(self, handle_factory):
        self._open = handle_factory

    # -- lifecycle ---------------------------------------------------------

    def initialize(self) -> None:
        """Write an empty index (header only)."""
        handle = self._open()
        handle.seek(0)
        handle.write(_HEADER.pack(_MAGIC, 0))
        handle.truncate(_HEADER.size)

    def record_count(self) -> int:
        """Number of physical records (including tombstones)."""
        handle = self._open()
        handle.seek(0)
        raw = handle.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise StorageError("fingerprint index is not initialized")
        magic, count = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise StorageError(f"bad fingerprint index magic {magic!r}")
        return count

    # -- mutation ------------------------------------------------------------

    def append(self, record: Record) -> None:
        """Append one record and bump the header count."""
        count = self.record_count()
        handle = self._open()
        handle.seek(_HEADER.size + count * _RECORD_SIZE)
        handle.write(record.pack())
        handle.seek(0)
        handle.write(_HEADER.pack(_MAGIC, count + 1))

    def append_many(self, records: List[Record]) -> None:
        """Batch append (one header update for the whole batch)."""
        if not records:
            return
        count = self.record_count()
        handle = self._open()
        handle.seek(_HEADER.size + count * _RECORD_SIZE)
        handle.write(b"".join(r.pack() for r in records))
        handle.seek(0)
        handle.write(_HEADER.pack(_MAGIC, count + len(records)))

    def tombstone(self, rowid: RowId) -> None:
        """Append a deletion marker for ``rowid``."""
        self.append(tombstone_record(rowid))

    def compact(self) -> int:
        """Rewrite the file without dead records; returns the live count."""
        live = list(self.records())
        handle = self._open()
        handle.seek(0)
        handle.write(_HEADER.pack(_MAGIC, len(live)))
        handle.write(b"".join(r.pack() for r in live))
        handle.truncate(_HEADER.size + len(live) * _RECORD_SIZE)
        return len(live)

    # -- reading ----------------------------------------------------------------

    def raw_records(self) -> List[Record]:
        """Every physical record in file order (tombstones included).

        One ``read`` fetches the whole record area; LOB and FILE stores
        share this decode path.
        """
        count = self.record_count()
        handle = self._open()
        handle.seek(_HEADER.size)
        return _decode(handle.read(count * _RECORD_SIZE), count)

    def records(self) -> List[Record]:
        """Live records in file order.

        A tombstone cancels the earliest still-live record of its rowid
        written before it; one with no such record is ignored, so a row
        whose old value was NULL keeps the record written after it.
        """
        raw = self.raw_records()
        if not any(record.tombstone for record in raw):
            return raw
        entries: List[Optional[Record]] = []
        live: Dict[RowId, List[int]] = {}   # rowid -> its live positions
        for record in raw:
            if record.tombstone:
                earlier = live.get(record.rowid)
                if earlier:
                    entries[earlier.pop(0)] = None
            else:
                live.setdefault(record.rowid, []).append(len(entries))
                entries.append(record)
        return [record for record in entries if record is not None]

    def find_by_cert(self, cert_hash: int) -> List[Record]:
        """Live records whose full-structure hash matches."""
        return [r for r in self.records() if r.cert_hash == cert_hash]

    def find_by_tautomer(self, taut_hash: int) -> List[Record]:
        """Live records whose tautomer hash matches."""
        return [r for r in self.records() if r.taut_hash == taut_hash]


def tombstone_record(rowid: RowId) -> Record:
    """The deletion marker for ``rowid``.

    See :meth:`FingerprintIndexFile.records` for which record it cancels.
    """
    return Record(rowid, 0, 0, 0, True)
