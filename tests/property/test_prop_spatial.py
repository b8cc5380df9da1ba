"""Property tests: spatial primary-filter soundness and R-tree vs brute force.

The key invariant of the tile index (and any primary filter) is *no
false negatives*: if two geometries interact, their tile covers must
interact — otherwise the exact filter never sees the pair.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cartridges.spatial.geometry import (
    GEOMETRY_TYPE_NAME, Relation, bounding_box, relate)
from repro.cartridges.spatial.rtree import RTree, Rect
from repro.cartridges.spatial.tiling import (
    WORLD_SIZE, ranges_interact, tessellate)
from repro.types.datatypes import ANY, INTEGER
from repro.types.objects import ObjectType

GT = ObjectType(GEOMETRY_TYPE_NAME, [("gtype", INTEGER), ("coords", ANY)])

coord = st.floats(min_value=0, max_value=WORLD_SIZE - 1, allow_nan=False)
size = st.floats(min_value=0.5, max_value=300, allow_nan=False)


@st.composite
def rects(draw):
    from repro.cartridges.spatial.geometry import make_rect
    x = draw(coord)
    y = draw(coord)
    w = min(draw(size), WORLD_SIZE - x - 0.001)
    h = min(draw(size), WORLD_SIZE - y - 0.001)
    return make_rect(GT, x, y, x + max(w, 0.1), y + max(h, 0.1))


class TestTilingSoundness:
    @given(rects(), rects())
    @settings(max_examples=120, deadline=None)
    def test_no_false_negatives(self, a, b):
        """Interacting geometries always share interacting tile ranges."""
        if relate(a, b) is not Relation.DISJOINT:
            assert ranges_interact(tessellate(a), tessellate(b))

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_cover_contains_own_bbox_center(self, geom):
        """A geometry's cover always interacts with its own cover."""
        cover = tessellate(geom)
        assert cover
        assert ranges_interact(cover, cover)

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_ranges_well_formed(self, geom):
        for tile in tessellate(geom):
            assert 0 <= tile.code <= tile.maxcode
            assert tile.grpcode >= 0


class TestRelationProperties:
    @given(rects(), rects())
    @settings(max_examples=120, deadline=None)
    def test_symmetry_of_relate(self, a, b):
        forward = relate(a, b)
        backward = relate(b, a)
        flip = {Relation.INSIDE: Relation.CONTAINS,
                Relation.CONTAINS: Relation.INSIDE}
        assert backward == flip.get(forward, forward)

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_self_relation_is_equal(self, a):
        assert relate(a, a) is Relation.EQUAL

    @given(rects(), rects())
    @settings(max_examples=120, deadline=None)
    def test_disjoint_iff_bbox_or_geometry_separation(self, a, b):
        from repro.cartridges.spatial.geometry import boxes_interact
        if not boxes_interact(bounding_box(a), bounding_box(b)):
            assert relate(a, b) is Relation.DISJOINT


class TestRTreeVsBruteForce:
    @given(st.lists(rects(), min_size=0, max_size=60), rects())
    @settings(max_examples=40, deadline=None)
    def test_search_equals_linear_scan(self, geoms, query):
        tree = RTree(max_entries=4)
        entries = []
        for i, geom in enumerate(geoms):
            rect = Rect.from_box(bounding_box(geom))
            entries.append((rect, i))
            tree.insert(rect, i)
        window = Rect.from_box(bounding_box(query))
        expected = {i for rect, i in entries if rect.intersects(window)}
        assert set(tree.search(window)) == expected

    @given(st.lists(rects(), min_size=1, max_size=40), st.data())
    @settings(max_examples=30, deadline=None)
    def test_delete_then_search_consistent(self, geoms, data):
        tree = RTree(max_entries=4)
        entries = []
        for i, geom in enumerate(geoms):
            rect = Rect.from_box(bounding_box(geom))
            entries.append((rect, i))
            tree.insert(rect, i)
        to_delete = data.draw(st.lists(
            st.sampled_from(entries), unique_by=lambda e: e[1]))
        for rect, i in to_delete:
            assert tree.delete(rect, i)
        removed = {i for __, i in to_delete}
        everything = Rect(0, 0, WORLD_SIZE, WORLD_SIZE)
        assert set(tree.search(everything)) == {
            i for __, i in entries} - removed


@pytest.mark.vectorized
class TestGroupedPrimaryFilter:
    """The tile index probes each query group code once and tests every
    probed tile against all query tiles of that group; it must find
    exactly what one range statement per query tile found."""

    @given(st.lists(rects(), min_size=0, max_size=25), rects())
    @settings(max_examples=25, deadline=None)
    def test_grouped_probe_matches_per_tile_filter(self, geoms, query):
        from repro import Database
        from repro.cartridges.spatial import install, make_rect
        from repro.cartridges.spatial.indextype import sdo_relate_functional
        from repro.core.callbacks import CallbackPhase
        db = Database()
        install(db)
        gt = db.catalog.get_object_type(GEOMETRY_TYPE_NAME)

        def rebuilt(geom):
            return make_rect(gt, *bounding_box(geom))

        shapes = [rebuilt(g) for g in geoms]
        window = rebuilt(query)
        db.execute("CREATE TABLE parcels (gid INTEGER,"
                   " geometry SDO_GEOMETRY)")
        for gid, shape in enumerate(shapes):
            db.insert_row("parcels", [gid, shape])
        db.execute("CREATE INDEX parcels_sidx ON parcels(geometry)"
                   " INDEXTYPE IS SpatialIndexType")

        per_tile = set()
        for tile in tessellate(window):
            per_tile.update(rid for rid, in db.execute(
                "SELECT rid FROM parcels_sidx_tiles WHERE grpcode = :1"
                " AND code <= :2 AND maxcode >= :3",
                [tile.grpcode, tile.maxcode, tile.code]).fetchall())
        domain = db.catalog.get_index("parcels_sidx").domain
        env = db.make_env(CallbackPhase.SCAN, domain)
        grouped = domain.methods._primary_filter(
            domain.index_info(), env, window)
        assert grouped == sorted(per_tile)

        answer = sorted(gid for gid, in db.execute(
            "SELECT gid FROM parcels WHERE Sdo_Relate(geometry, :1,"
            " 'mask=ANYINTERACT')", [window]).fetchall())
        assert answer == [
            gid for gid, shape in enumerate(shapes)
            if sdo_relate_functional(shape, window, "mask=ANYINTERACT")]
