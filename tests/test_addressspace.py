"""Tests for address spaces and reservation areas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oskernel.addressspace import AddressSpace, Area, pages_in
from repro.oskernel.layout import PAGE_SIZE
from repro.oskernel.vma import VmaError


class TestPagesIn:
    def test_exact_pages(self):
        assert pages_in(PAGE_SIZE) == 1
        assert pages_in(4 * PAGE_SIZE) == 4

    def test_rounds_up(self):
        assert pages_in(1) == 1
        assert pages_in(PAGE_SIZE + 1) == 2

    def test_zero(self):
        assert pages_in(0) == 0


class TestArea:
    def make(self, pages=16):
        return Area(start=0x1000_0000, length=pages * PAGE_SIZE, name="test")

    def test_populate_counts_new_pages_only(self):
        area = self.make()
        assert area.populate(0, 4 * PAGE_SIZE) == 4
        assert area.populate(0, 4 * PAGE_SIZE) == 0
        assert area.populate(2 * PAGE_SIZE, 4 * PAGE_SIZE) == 2
        assert area.populated_bytes == 6 * PAGE_SIZE

    def test_populate_partial_page_rounds_up(self):
        area = self.make()
        assert area.populate(0, 100) == 1

    def test_zap_range(self):
        area = self.make()
        area.populate(0, 8 * PAGE_SIZE)
        assert area.zap(2 * PAGE_SIZE, 2 * PAGE_SIZE) == 2
        assert area.populated_bytes == 6 * PAGE_SIZE
        assert area.zap(2 * PAGE_SIZE, 2 * PAGE_SIZE) == 0

    def test_empty_range_leaves_runs_alone(self):
        area = self.make()
        area.populate(0, 8 * PAGE_SIZE)
        assert area.zap(4 * PAGE_SIZE, 0) == 0
        assert area.populate(4 * PAGE_SIZE, 0) == 0
        assert (area.run_starts, area.run_ends) == ([0], [8])

    def test_zap_all(self):
        area = self.make()
        area.populate(0, 5 * PAGE_SIZE)
        assert area.zap_all() == 5
        assert area.populated_bytes == 0

    def test_out_of_range_rejected(self):
        area = self.make(pages=4)
        with pytest.raises(VmaError):
            area.populate(0, 5 * PAGE_SIZE)
        with pytest.raises(VmaError):
            area.zap(4 * PAGE_SIZE, PAGE_SIZE)


AREA_PAGES = 24
AREA_BYTES = AREA_PAGES * PAGE_SIZE

#: Byte offsets and lengths: page-aligned ones (runs that abut exactly)
#: and arbitrary ones (partial pages round outwards), some out of range,
#: plus empty ranges, which must not split a run.
_bytes = st.one_of(
    st.integers(-2, AREA_PAGES + 2).map(lambda page: page * PAGE_SIZE),
    st.integers(-PAGE_SIZE, AREA_BYTES + PAGE_SIZE),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("populate", "zap")), _bytes,
                  st.one_of(st.just(0), _bytes)),
        st.just(("zap_all", 0, 0)),
    ),
    max_size=40,
)


def _reference_pages(offset, length):
    """The page set a range covers, or None when the area rejects it."""
    if not 0 <= offset <= offset + length <= AREA_BYTES:
        return None
    return set(range(offset // PAGE_SIZE, pages_in(offset + length)))


class TestAreaRuns:
    """The run-based ``Area`` against a set-of-pages reference model."""

    @settings(max_examples=300, deadline=None)
    @given(_ops)
    def test_matches_set_model(self, ops):
        area = Area(start=0x1000_0000, length=AREA_BYTES, name="prop")
        model = set()
        for op, offset, length in ops:
            if op == "zap_all":
                assert area.zap_all() == len(model)
                model.clear()
            else:
                pages = _reference_pages(offset, length)
                if pages is None:
                    with pytest.raises(VmaError):
                        getattr(area, op)(offset, length)
                elif op == "populate":
                    assert area.populate(offset, length) == len(pages - model)
                    model |= pages
                else:
                    assert area.zap(offset, length) == len(pages & model)
                    model -= pages
            runs = list(zip(area.run_starts, area.run_ends))
            assert all(start < end for start, end in runs)
            # Sorted, disjoint and non-adjacent in one comparison.
            assert all(a_end < b_start for (_, a_end), (b_start, _)
                       in zip(runs, runs[1:]))
            assert {p for start, end in runs for p in range(start, end)} == model
            assert area.populated_pages == len(model)
            assert area.populated_bytes == len(model) * PAGE_SIZE


class TestAddressSpace:
    def test_map_areas_do_not_overlap(self):
        aspace = AddressSpace()
        a = aspace.map_area(10 * PAGE_SIZE, "a")
        b = aspace.map_area(10 * PAGE_SIZE, "b")
        assert a.end <= b.start

    def test_map_aligns_length(self):
        aspace = AddressSpace()
        area = aspace.map_area(100, "tiny")
        assert area.length == PAGE_SIZE

    def test_invalid_length_rejected(self):
        with pytest.raises(VmaError):
            AddressSpace().map_area(0)

    def test_find_area(self):
        aspace = AddressSpace()
        a = aspace.map_area(4 * PAGE_SIZE, "a")
        assert aspace.find_area(a.start) is a
        assert aspace.find_area(a.start + PAGE_SIZE) is a
        assert aspace.find_area(a.end) is not a

    def test_unmap_returns_zapped_pages(self):
        aspace = AddressSpace()
        area = aspace.map_area(8 * PAGE_SIZE)
        area.populate(0, 3 * PAGE_SIZE)
        assert aspace.unmap_area(area) == 3
        assert aspace.find_area(area.start) is None

    def test_unmap_twice_rejected(self):
        aspace = AddressSpace()
        area = aspace.map_area(PAGE_SIZE)
        aspace.unmap_area(area)
        with pytest.raises(VmaError):
            aspace.unmap_area(area)

    def test_vma_count_aggregates_intervals(self):
        from repro.oskernel.vma import Prot

        aspace = AddressSpace()
        a = aspace.map_area(16 * PAGE_SIZE)
        b = aspace.map_area(16 * PAGE_SIZE)
        assert aspace.vma_count == 2
        a.prot_map.protect(PAGE_SIZE, 2 * PAGE_SIZE, Prot.RW)
        assert aspace.vma_count == 4

    def test_populated_bytes_aggregates(self):
        aspace = AddressSpace()
        a = aspace.map_area(16 * PAGE_SIZE)
        b = aspace.map_area(16 * PAGE_SIZE)
        a.populate(0, 2 * PAGE_SIZE)
        b.populate(0, 3 * PAGE_SIZE)
        assert aspace.populated_bytes == 5 * PAGE_SIZE
