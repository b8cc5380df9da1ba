"""Multi-version concurrency control: SCNs, snapshots, version chains.

Oracle's consistent-read model, scaled down.  Every committed change to
a row is stamped with the System Change Number (SCN) current at commit;
readers take a :class:`Snapshot` pinning an SCN and resolve each row
against its version chain, so SELECT never touches the
:class:`~repro.txn.locks.LockManager`.  The paper's §2.5 claim — index
data stored in database tables inherits the server's concurrency control
— extends naturally: cartridge callback SQL runs against the same
snapshot as the opening statement, so an ``ODCIIndexFetch`` stream sees
the index tables and the base table at one consistent point in time.

Version chains hang off a per-table :class:`VersionStore` keyed by
rowid.  The chain head is the *newest* version; ``prev`` links walk back
in time.  A version with ``scn=None`` is uncommitted — visible only to
its own transaction.  Commit stamps all of a transaction's versions with
one fresh SCN under the same latch that hands out snapshots, so a
snapshot can never observe half a transaction.

A low-water-mark pass (opportunistic at commit, or a background thread)
prunes chain tails no live snapshot can still need.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: chain-length histogram bucket upper bounds → label
_CHAIN_BUCKETS: Tuple[Tuple[int, str], ...] = (
    (1, "1"),
    (2, "2"),
    (4, "<=4"),
    (8, "<=8"),
    (1 << 62, ">8"),
)

#: commits between opportunistic prune passes
PRUNE_INTERVAL = 64


class RowVersion:
    """One link in a row's version chain.

    ``scn`` is None while the writing transaction is in flight; commit
    stamps it.  ``value`` is the full row (None for a delete tombstone).
    ``prev`` points at the next-older version.
    """

    __slots__ = ("scn", "txn_id", "value", "prev")

    def __init__(self, scn: Optional[int], txn_id: int,
                 value: Optional[list], prev: "Optional[RowVersion]" = None):
        self.scn = scn
        self.txn_id = txn_id
        self.value = value
        self.prev = prev

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"RowVersion(scn={self.scn}, txn={self.txn_id}, "
                f"value={'∅' if self.value is None else '…'})")


class Snapshot:
    """A fixed point in time: sees commits with ``scn <= self.scn``.

    ``kind`` is ``"statement"`` (read committed: a fresh snapshot per
    statement) or ``"transaction"`` (serializable / read only: one
    snapshot for the whole transaction).  The owning transaction also
    sees its *own* uncommitted versions (read-your-writes).
    """

    __slots__ = ("scn", "txn_id", "kind", "__weakref__")

    def __init__(self, scn: int, txn_id: Optional[int],
                 kind: str = "statement"):
        self.scn = scn
        self.txn_id = txn_id
        self.kind = kind

    def visible(self, version: RowVersion) -> bool:
        """Oracle visibility rule: own uncommitted, or committed <= scn."""
        if self.txn_id is not None and version.txn_id == self.txn_id:
            return True
        return version.scn is not None and version.scn <= self.scn

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Snapshot(scn={self.scn}, txn={self.txn_id}, {self.kind})"


class SnapshotStats:
    """Counters behind the ``user_snapshot_stats`` dictionary view."""

    def __init__(self):
        self.snapshots_taken = 0
        self.statement_snapshots = 0
        self.transaction_snapshots = 0
        self.commits = 0
        self.versions_created = 0
        self.versions_stamped = 0
        self.versions_pruned = 0
        self.prune_passes = 0
        self.chain_histogram: Dict[str, int] = {
            label: 0 for __, label in _CHAIN_BUCKETS}

    def record_chain(self, length: int) -> None:
        for bound, label in _CHAIN_BUCKETS:
            if length <= bound:
                self.chain_histogram[label] += 1
                return

    def snapshot(self) -> Dict[str, object]:
        return {
            "snapshots_taken": self.snapshots_taken,
            "statement_snapshots": self.statement_snapshots,
            "transaction_snapshots": self.transaction_snapshots,
            "commits": self.commits,
            "versions_created": self.versions_created,
            "versions_stamped": self.versions_stamped,
            "versions_pruned": self.versions_pruned,
            "prune_passes": self.prune_passes,
            "chain_histogram": dict(self.chain_histogram),
        }


class VersionStore:
    """Version chains for one table (heap or IOT), keyed by rowid.

    Rowids are whatever the storage layer uses as stable row identity
    (:class:`~repro.storage.heap.RowId` or an IOT surrogate).  A rowid
    absent from the store has never been written since the last bulk
    load / truncate — its current slot value is valid for *any*
    snapshot, modulo the *fence* version: ``insert_bulk`` registers one
    fence version covering every bulk-loaded row, so old snapshots don't
    see a load that committed after them.
    """

    def __init__(self, track_changes: bool = False):
        self.latch = threading.Lock()
        self._heads: Dict[Any, RowVersion] = {}
        self._fence: Optional[RowVersion] = None
        #: with ``track_changes``, :meth:`changed_since` can name the
        #: rowids a snapshot may resolve differently from the current
        #: value: versions pushed since the last sweep (uncommitted or
        #: not yet filed), and committed heads filed by commit SCN
        #: until a prune proves every live snapshot sees them
        self._track = track_changes
        self._pending: Dict[RowVersion, Any] = {}
        self._recent: Dict[int, List[Any]] = {}
        self._recent_scns: List[int] = []

    # -- write side ---------------------------------------------------------

    def push(self, rowid: Any, new_value: Optional[list],
             old_value: Optional[list], txn: Any) -> RowVersion:
        """Chain a new uncommitted version for ``rowid``; returns it.

        Called *before* the slot mutates so a concurrent snapshot reader
        can never observe the new slot value through the untracked-row
        fast path.  When the row was untracked and had a previous value,
        a committed base version is synthesised below the new head so
        old snapshots keep resolving to ``old_value``.
        """
        with self.latch:
            prev = self._heads.get(rowid)
            if prev is None and old_value is not None:
                # first versioned write to a pre-existing row: anchor the
                # old value so older snapshots still see it
                fence = self._fence
                if fence is not None:
                    base = RowVersion(fence.scn, fence.txn_id, old_value)
                    if fence.scn is None and txn is not None \
                            and fence.txn_id == txn.txn_id:
                        # fence not yet stamped: stamp the base with it
                        txn.track_version(base)
                else:
                    base = RowVersion(0, 0, old_value)
                prev = base
            version = RowVersion(None, txn.txn_id if txn else 0,
                                 new_value, prev)
            self._heads[rowid] = version
            if self._track:
                self._pending[version] = rowid
            return version

    def pop(self, rowid: Any, version: RowVersion) -> None:
        """Undo ``push``: unlink ``version`` from ``rowid``'s chain."""
        with self.latch:
            self._pending.pop(version, None)
            head = self._heads.get(rowid)
            if head is version:
                if version.prev is None:
                    del self._heads[rowid]
                else:
                    self._heads[rowid] = version.prev
                return
            while head is not None and head.prev is not version:
                head = head.prev
            if head is not None:
                head.prev = version.prev

    def set_fence(self, txn: Any) -> RowVersion:
        """Register a bulk-load fence: rows loaded now are invisible to
        snapshots older than the loading transaction's commit."""
        fence = RowVersion(None, txn.txn_id if txn else 0, None)
        with self.latch:
            self._fence = fence
        return fence

    def drop_fence(self, fence: RowVersion) -> None:
        """Undo ``set_fence`` (bulk-load rollback)."""
        with self.latch:
            if self._fence is fence:
                self._fence = None

    def clear(self) -> None:
        """Forget all chains (truncate / table drop)."""
        with self.latch:
            self._heads.clear()
            self._fence = None
            self._pending.clear()
            self._recent.clear()
            self._recent_scns.clear()

    @property
    def clean(self) -> bool:
        """True when no chains or fence exist (bulk-load fast path ok)."""
        with self.latch:
            return not self._heads and self._fence is None

    # -- read side ----------------------------------------------------------

    def resolve(self, rowid: Any, current: Optional[list],
                snapshot: Snapshot) -> Optional[list]:
        """The row value ``snapshot`` should see for ``rowid``.

        ``current`` is the live slot value (None when the slot is a
        tombstone).  Untracked rowids fall back to ``current`` unless a
        bulk-load fence hides them.  Returns None when the row is
        invisible to the snapshot.
        """
        head = self._heads.get(rowid)
        if head is None:
            fence = self._fence
            if fence is None or snapshot.visible(fence):
                return current
            return None
        version = head
        while version is not None:
            if snapshot.visible(version):
                return version.value
            version = version.prev
        return None

    def tracked_rowids(self) -> List[Any]:
        """Rowids with version chains (scan overlays)."""
        with self.latch:
            return list(self._heads)

    def changed_since(self, snapshot: Snapshot) -> Optional[set]:
        """Rowids whose ``snapshot`` value may differ from the current one.

        A rowid outside the returned set resolves to its current value
        for ``snapshot``: its chain head (if any) is visible to it, and
        a head's value is by construction what the table holds now.
        Returns None when a bulk-load fence the snapshot cannot see
        hides every untracked row — no rowid is settled then.  Needs
        ``track_changes``; the caller must hold the table's structure
        latch, so no write lands between this check and its read of the
        current rows (every write pushes its version first).
        """
        with self.latch:
            fence = self._fence
            if fence is not None and not snapshot.visible(fence):
                return None
            changed = set()
            pending = self._pending
            if pending:
                for version, rowid in list(pending.items()):
                    if version.scn is not None:
                        del pending[version]
                        self._file(version.scn, rowid)
                    elif not snapshot.visible(version):
                        changed.add(rowid)
            scns = self._recent_scns
            if scns and scns[-1] > snapshot.scn:
                recent = self._recent
                for scn in scns[bisect.bisect_right(scns, snapshot.scn):]:
                    changed.update(recent[scn])
            return changed

    def _file(self, scn: int, rowid: Any) -> None:
        """File a committed head under its SCN (latch held)."""
        rowids = self._recent.get(scn)
        if rowids is None:
            rowids = self._recent[scn] = []
            bisect.insort(self._recent_scns, scn)
        rowids.append(rowid)

    def _forget_settled(self, lwm: int) -> None:
        """Drop change records every live snapshot sees (latch held)."""
        pending = self._pending
        for version, rowid in list(pending.items()):
            scn = version.scn
            if scn is not None:
                del pending[version]
                if scn > lwm:
                    self._file(scn, rowid)
        scns = self._recent_scns
        cut = bisect.bisect_right(scns, lwm)
        for scn in scns[:cut]:
            del self._recent[scn]
        del scns[:cut]

    def chain_length(self, rowid: Any) -> int:
        n, v = 0, self._heads.get(rowid)
        while v is not None:
            n, v = n + 1, v.prev
        return n

    # -- maintenance --------------------------------------------------------

    def prune(self, lwm: int, stats: Optional[SnapshotStats] = None) -> int:
        """Cut chain tails below the newest committed version <= ``lwm``.

        Head mappings are never removed: a mapped rowid must *stay*
        mapped, otherwise a concurrent reader could race a writer's
        re-push and read an uncommitted slot value through the untracked
        fast path.  Only links strictly older than the keeper are freed.
        Returns the number of versions cut loose.
        """
        removed = 0
        with self.latch:
            fence = self._fence
            if (fence is not None and fence.scn is not None
                    and fence.scn <= lwm):
                # every live snapshot sees the bulk load: fence is moot
                self._fence = None
            self._forget_settled(lwm)
            for rowid, head in self._heads.items():
                if stats is not None:
                    stats.record_chain(self.chain_length(rowid))
                keeper = head
                while keeper is not None:
                    if keeper.scn is not None and keeper.scn <= lwm:
                        break
                    keeper = keeper.prev
                if keeper is None:
                    continue
                tail = keeper.prev
                keeper.prev = None
                while tail is not None:
                    removed += 1
                    tail = tail.prev
        return removed


class MVCCManager:
    """Engine-wide SCN clock, snapshot registry, and prune driver.

    ``commit_transaction`` and ``take_snapshot`` share one latch: a
    commit stamps *all* of its versions and bumps the SCN atomically
    with respect to snapshot handout, so no snapshot can see a
    transaction half-committed.  Live snapshots are held in a
    ``WeakSet`` — cursors and executors keep strong references while a
    result set is open; once they drop it, the snapshot stops holding
    back the low-water mark.
    """

    def __init__(self):
        self._latch = threading.Lock()
        self._scn = 0
        self._snapshots: "weakref.WeakSet[Snapshot]" = weakref.WeakSet()
        self.stats = SnapshotStats()
        self._commits_since_prune = 0
        self._pruner: Optional[threading.Thread] = None
        self._pruner_stop = threading.Event()

    @property
    def current_scn(self) -> int:
        return self._scn

    def take_snapshot(self, txn_id: Optional[int],
                      kind: str = "statement") -> Snapshot:
        """Hand out a snapshot at the current SCN and register it."""
        with self._latch:
            snap = Snapshot(self._scn, txn_id, kind)
            self._snapshots.add(snap)
            self.stats.snapshots_taken += 1
            if kind == "transaction":
                self.stats.transaction_snapshots += 1
            else:
                self.stats.statement_snapshots += 1
            return snap

    def commit_transaction(self, txn: Any) -> bool:
        """Stamp the txn's versions with a fresh SCN; True → prune due."""
        versions = getattr(txn, "versions", None)
        with self._latch:
            self._scn += 1
            scn = self._scn
            txn.commit_scn = scn  # logged in the WAL commit record
            if versions:
                for version in versions:
                    version.scn = scn
                self.stats.versions_stamped += len(versions)
            self.stats.commits += 1
            self._commits_since_prune += 1
            if self._commits_since_prune >= PRUNE_INTERVAL:
                self._commits_since_prune = 0
                return True
            return False

    def restore_scn(self, scn: int) -> None:
        """Advance the SCN clock past the highest recovered commit SCN,
        so post-restart commits never reuse a pre-crash SCN."""
        with self._latch:
            self._scn = max(self._scn, scn)

    def low_water_mark(self) -> int:
        """Oldest SCN any live snapshot still needs."""
        with self._latch:
            live = [s.scn for s in self._snapshots]
            return min(live) if live else self._scn

    def oldest_active_scn(self) -> Optional[int]:
        """Oldest live snapshot SCN, or None when no snapshot is open."""
        with self._latch:
            live = [s.scn for s in self._snapshots]
            return min(live) if live else None

    def prune(self, stores: Iterable[VersionStore]) -> int:
        """One low-water-mark pass over ``stores``; returns versions cut."""
        lwm = self.low_water_mark()
        removed = 0
        for store in stores:
            removed += store.prune(lwm, self.stats)
        self.stats.versions_pruned += removed
        self.stats.prune_passes += 1
        return removed

    # -- background pruner --------------------------------------------------

    def start_pruner(self, stores_fn: Callable[[], Iterable[VersionStore]],
                     interval: float = 1.0) -> None:
        """Start a daemon thread pruning every ``interval`` seconds."""
        if self._pruner is not None and self._pruner.is_alive():
            return
        self._pruner_stop.clear()

        def loop():
            while not self._pruner_stop.wait(interval):
                self.prune(stores_fn())

        self._pruner = threading.Thread(
            target=loop, name="mvcc-pruner", daemon=True)
        self._pruner.start()

    def stop_pruner(self) -> None:
        if self._pruner is None:
            return
        self._pruner_stop.set()
        self._pruner.join(timeout=5.0)
        self._pruner = None
