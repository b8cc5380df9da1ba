"""Durable page store: checkpointed page images and IOT dumps.

``pages.db`` is an append-only file of checksummed records — heap page
images, whole-tree IOT dumps, and segment tombstones.  Startup scans the
file once to build an in-memory directory (last record wins, tombstones
erase a segment's earlier images) and stops cleanly at a torn tail, the
same discipline as the WAL.  Fuzzy checkpoints append the dirty page set
and may compact the file (rewrite live records to a temp file, fsync,
atomic rename) once dead records dominate.

A page image written here is *fuzzy*: DML may race the checkpoint.  That
is safe because rows are stored as fresh list copies (never mutated in
place) and recovery redo re-applies any record with ``lsn > page_lsn``,
repeating history over whatever image the checkpoint caught.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import WALError

__all__ = ["PageStore", "REC_PAGE", "REC_IOT", "REC_TOMB"]

#: record header: little-endian (record type, body length, crc32 of body)
_HEADER = struct.Struct("<BII")

REC_PAGE = 1  # {"seg", "page": Page.state() dict}
REC_IOT = 2   # {"seg", "rows": [...], "snap_lsn": int}
REC_TOMB = 3  # {"seg"}

#: where a live record sits: (file offset, record length, lsn)
_Loc = Tuple[int, int, int]


class PageStore:
    """Append-only durable store for page images and IOT dumps.

    The in-memory directory holds only where each live record sits —
    ``(offset, length, lsn)`` — never its payload: images are read back
    (``pread``) at recovery, and compaction copies raw record bytes, so
    a checkpointed table is not kept in memory a second time.
    """

    #: compact when dead records exceed live ones by this factor
    COMPACT_RATIO = 3

    def __init__(self, path: str,
                 fault_check: Optional[Callable[[str], Any]] = None,
                 event_hook: Optional[Callable[[str], None]] = None):
        self.path = path
        self.fault_check = fault_check
        self.event_hook = event_hook
        self._latch = threading.RLock()
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self._size = os.fstat(self._fd).st_size
        #: (seg, page_no) -> (offset, length, lsn) of the latest image
        self.pages: Dict[Tuple[int, int], _Loc] = {}
        #: seg -> (offset, length, snap_lsn) of the latest IOT dump
        self.iot_dumps: Dict[int, _Loc] = {}
        self.records_written = 0
        self._live_records = 0

    # -- startup scan ---------------------------------------------------

    def load(self) -> None:
        """Build the in-memory directory from the file; truncate a torn
        tail so later appends start on a record boundary."""
        offset = 0
        size = self._size
        header_len = _HEADER.size
        with self._latch:
            self.pages.clear()
            self.iot_dumps.clear()
            while offset + header_len <= size:
                rec_type, body_len, crc = _HEADER.unpack(
                    os.pread(self._fd, header_len, offset))
                body_off = offset + header_len
                if body_off + body_len > size:
                    break  # torn tail
                body = os.pread(self._fd, body_len, body_off)
                if len(body) != body_len or zlib.crc32(body) != crc:
                    break  # torn tail
                try:
                    payload = pickle.loads(body)
                except Exception:
                    break
                self._index_record(rec_type, payload, offset,
                                   header_len + body_len)
                offset = body_off + body_len
            if offset < size:
                os.ftruncate(self._fd, offset)
                self._size = offset
            self._live_records = len(self.pages) + len(self.iot_dumps)

    def _index_record(self, rec_type: int, payload: Dict[str, Any],
                      offset: int, length: int) -> None:
        if rec_type == REC_PAGE:
            page = payload["page"]
            self.pages[(payload["seg"], page["page_no"])] = (
                offset, length, page["lsn"])
        elif rec_type == REC_IOT:
            self.iot_dumps[payload["seg"]] = (offset, length,
                                              payload["snap_lsn"])
        elif rec_type == REC_TOMB:
            seg = payload["seg"]
            for key in [k for k in self.pages if k[0] == seg]:
                del self.pages[key]
            self.iot_dumps.pop(seg, None)

    def _read_payload(self, loc: _Loc) -> Dict[str, Any]:
        offset, length, __ = loc
        data = os.pread(self._fd, length, offset)
        return pickle.loads(data[_HEADER.size:])

    # -- appends --------------------------------------------------------

    def _append(self, rec_type: int, payload: Dict[str, Any]) -> None:
        if self.fault_check is not None:
            rule = self.fault_check("page.flush")
            if rule is not None and rule.kind == "io_error":
                raise WALError(f"injected I/O error on {self.path}")
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data = _HEADER.pack(rec_type, len(body), zlib.crc32(body)) + body
        with self._latch:
            offset = self._size
            os.pwrite(self._fd, data, offset)
            self._size += len(data)
            self.records_written += 1
            self._index_record(rec_type, payload, offset, len(data))
        if self.event_hook is not None:
            self.event_hook("page.flush")

    def write_page(self, seg: int, page_state: Dict[str, Any]) -> None:
        self._append(REC_PAGE, {"seg": seg, "page": page_state})

    def write_iot(self, seg: int, rows: List[List[Any]],
                  snap_lsn: int) -> None:
        self._append(REC_IOT, {"seg": seg, "rows": rows,
                               "snap_lsn": snap_lsn})

    def tombstone(self, seg: int) -> None:
        self._append(REC_TOMB, {"seg": seg})

    def fsync(self) -> None:
        os.fsync(self._fd)

    # -- directory reads ------------------------------------------------

    def segments(self) -> List[int]:
        with self._latch:
            segs = {seg for seg, __ in self.pages}
            segs.update(self.iot_dumps)
            return sorted(segs)

    def max_segment(self) -> int:
        segs = self.segments()
        return max(segs) if segs else 0

    def max_page_lsn(self) -> int:
        """Highest LSN stamped on any stored image (epoch recovery aid)."""
        with self._latch:
            lsns = [loc[2] for loc in self.pages.values()]
            lsns.extend(loc[2] for loc in self.iot_dumps.values())
            return max(lsns) if lsns else 0

    def pages_of(self, seg: int) -> List[Dict[str, Any]]:
        with self._latch:
            return [self._read_payload(loc)["page"]
                    for (s, __), loc in sorted(self.pages.items())
                    if s == seg]

    def iot_dump_of(self, seg: int) -> Optional[Dict[str, Any]]:
        with self._latch:
            loc = self.iot_dumps.get(seg)
            return None if loc is None else self._read_payload(loc)

    # -- compaction -----------------------------------------------------

    def should_compact(self) -> bool:
        with self._latch:
            dead = self.records_written - self._live_records
            return dead > max(16, self._live_records * self.COMPACT_RATIO)

    def compact(self) -> None:
        """Rewrite only the live records to a fresh file, atomically.

        Records are copied as raw bytes (header and checksum included);
        nothing is unpickled or re-encoded.
        """
        with self._latch:
            tmp = self.path + ".tmp"
            fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
            pages: Dict[Tuple[int, int], _Loc] = {}
            iot_dumps: Dict[int, _Loc] = {}
            try:
                size = 0
                for directory, moved in ((self.pages, pages),
                                         (self.iot_dumps, iot_dumps)):
                    for key, (offset, length, lsn) in directory.items():
                        data = os.pread(self._fd, length, offset)
                        os.pwrite(fd, data, size)
                        moved[key] = (size, length, lsn)
                        size += length
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, self.path)
            os.close(self._fd)
            self._fd = os.open(self.path, os.O_RDWR, 0o644)
            self._size = size
            self.pages, self.iot_dumps = pages, iot_dumps
            self.records_written = len(pages) + len(iot_dumps)
            self._live_records = self.records_written

    def close(self) -> None:
        with self._latch:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1
