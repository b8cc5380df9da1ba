"""PageStore: the directory keeps record locations, not payloads."""

import os

from repro.storage.pagestore import PageStore


def _page(page_no, lsn, rows):
    return {"page_no": page_no, "lsn": lsn, "rows": rows}


def _store(tmp_path):
    return PageStore(os.path.join(tmp_path, "pages.db"))


class TestPageStore:
    def test_reads_come_back_from_the_file(self, tmp_path):
        store = _store(tmp_path)
        store.write_page(1, _page(0, 10, [["a"]]))
        store.write_page(1, _page(1, 11, [["b"]]))
        store.write_page(1, _page(0, 12, [["a2"]]))   # newer image wins
        store.write_iot(2, [[1, "x"], [2, "y"]], snap_lsn=13)
        assert store.pages_of(1) == [_page(0, 12, [["a2"]]),
                                     _page(1, 11, [["b"]])]
        assert store.iot_dump_of(2) == {"seg": 2, "rows": [[1, "x"],
                                                           [2, "y"]],
                                        "snap_lsn": 13}
        assert store.iot_dump_of(3) is None
        assert store.max_page_lsn() == 13
        # the directory holds (offset, length, lsn) only
        for loc in list(store.pages.values()) + list(
                store.iot_dumps.values()):
            assert len(loc) == 3 and all(isinstance(v, int) for v in loc)
        store.close()

    def test_reload_and_tombstone(self, tmp_path):
        store = _store(tmp_path)
        store.write_page(1, _page(0, 5, [["keep"]]))
        store.write_page(4, _page(0, 6, [["gone"]]))
        store.write_iot(4, [[1]], snap_lsn=7)
        store.tombstone(4)
        store.close()
        reopened = _store(tmp_path)
        reopened.load()
        assert reopened.segments() == [1]
        assert reopened.pages_of(1) == [_page(0, 5, [["keep"]])]
        assert reopened.iot_dump_of(4) is None
        reopened.close()

    def test_compaction_copies_live_records(self, tmp_path):
        store = _store(tmp_path)
        for lsn in range(1, 40):
            store.write_page(1, _page(lsn % 3, lsn, [[lsn]]))
            store.write_iot(2, [[lsn, "v"]], snap_lsn=lsn)
        assert store.should_compact()
        before = (store.pages_of(1), store.iot_dump_of(2))
        size_before = os.path.getsize(store.path)
        store.compact()
        assert os.path.getsize(store.path) < size_before
        assert store.records_written == 4
        assert (store.pages_of(1), store.iot_dump_of(2)) == before
        store.write_page(1, _page(0, 99, [["after"]]))
        store.close()
        reopened = _store(tmp_path)
        reopened.load()
        assert reopened.pages_of(1)[0] == _page(0, 99, [["after"]])
        assert reopened.iot_dump_of(2) == before[1]
        assert reopened.max_page_lsn() == 99
        reopened.close()
