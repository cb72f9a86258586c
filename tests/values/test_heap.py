"""Simulated-heap tests: allocation, object protocol, arrays, GC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.values.heap import (
    JS_ARRAY_LENGTH_OFFSET,
    MAP_OFFSET,
    Heap,
    HeapError,
)
from repro.values.maps import ElementsKind, InstanceType
from repro.values.tagged import is_heap_pointer, is_smi, pointer_tag, pointer_untag


@pytest.fixture
def heap():
    return Heap()


class TestBoxing:
    def test_small_int_becomes_smi(self, heap):
        assert is_smi(heap.to_word(1000))

    def test_large_int_becomes_heap_number(self, heap):
        word = heap.to_word(2**40)
        assert is_heap_pointer(word)
        assert heap.to_python(word) == float(2**40)

    def test_float_roundtrip(self, heap):
        assert heap.to_python(heap.to_word(3.5)) == 3.5

    def test_integral_float_becomes_smi(self, heap):
        assert is_smi(heap.number_from_float(7.0))

    def test_negative_zero_is_boxed(self, heap):
        word = heap.number_from_float(-0.0)
        assert is_heap_pointer(word)
        import math

        assert math.copysign(1.0, heap.number_to_float(word)) == -1.0

    def test_string_roundtrip(self, heap):
        assert heap.to_python(heap.to_word("hello")) == "hello"

    def test_bool_and_none(self, heap):
        assert heap.to_word(True) == heap.true_value
        assert heap.to_word(False) == heap.false_value
        assert heap.to_python(heap.undefined) is None

    def test_interned_strings_share_words(self, heap):
        a = heap.alloc_string("key", intern=True)
        b = heap.alloc_string("key", intern=True)
        assert a == b
        assert heap.alloc_string("key") != a  # non-interned is fresh

    @given(st.integers(min_value=-(2**30), max_value=2**30 - 1))
    @settings(max_examples=50)
    def test_int_roundtrip_property(self, value):
        heap = Heap()
        assert heap.to_python(heap.to_word(value)) == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=50)
    def test_float_roundtrip_property(self, value):
        heap = Heap()
        assert heap.to_python(heap.to_word(value)) == pytest.approx(value, nan_ok=True)


class TestObjects:
    def test_property_set_get(self, heap):
        obj = heap.alloc_object()
        heap.object_set_property(obj, "x", heap.to_word(5))
        assert heap.to_python(heap.object_get_property(obj, "x")) == 5

    def test_missing_property_is_none(self, heap):
        obj = heap.alloc_object()
        assert heap.object_get_property(obj, "nope") is None

    def test_adding_property_transitions_map(self, heap):
        obj = heap.alloc_object()
        before = heap.map_of(pointer_untag(obj))
        heap.object_set_property(obj, "x", heap.to_word(1))
        after = heap.map_of(pointer_untag(obj))
        assert before is not after
        assert after.lookup("x") == 1

    def test_same_shape_shares_map(self, heap):
        a, b = heap.alloc_object(), heap.alloc_object()
        for obj in (a, b):
            heap.object_set_property(obj, "x", heap.to_word(1))
            heap.object_set_property(obj, "y", heap.to_word(2))
        assert heap.map_of(pointer_untag(a)) is heap.map_of(pointer_untag(b))

    def test_overwriting_keeps_map(self, heap):
        obj = heap.alloc_object()
        heap.object_set_property(obj, "x", heap.to_word(1))
        mid = heap.map_of(pointer_untag(obj))
        heap.object_set_property(obj, "x", heap.to_word(9))
        assert heap.map_of(pointer_untag(obj)) is mid

    def test_capacity_limit_enforced(self, heap):
        obj = heap.alloc_object(capacity=2)
        heap.object_set_property(obj, "a", heap.to_word(1))
        heap.object_set_property(obj, "b", heap.to_word(2))
        with pytest.raises(HeapError):
            heap.object_set_property(obj, "c", heap.to_word(3))

    def test_transition_destabilizes_source_map(self, heap):
        obj = heap.alloc_object()
        heap.object_set_property(obj, "x", heap.to_word(1))
        source = heap.map_of(pointer_untag(obj))
        fired = []
        source.add_dependent(fired.append)
        other = heap.alloc_object()
        heap.object_set_property(other, "x", heap.to_word(1))
        heap.object_set_property(other, "y", heap.to_word(2))
        assert fired  # lazy-deopt hook fired


class TestArrays:
    def test_literal_kinds(self, heap):
        smi = heap.to_word([1, 2, 3])
        dbl = heap.to_word([1.5, 2.5])
        mixed = heap.to_word([1, "s"])
        assert heap.map_of(pointer_untag(smi)).elements_kind == ElementsKind.PACKED_SMI
        assert heap.map_of(pointer_untag(dbl)).elements_kind == ElementsKind.PACKED_DOUBLE
        assert heap.map_of(pointer_untag(mixed)).elements_kind == ElementsKind.PACKED

    def test_store_double_transitions_smi_array(self, heap):
        arr = heap.to_word([1, 2, 3])
        heap.array_set(arr, 0, heap.to_word(1.5))
        assert (
            heap.map_of(pointer_untag(arr)).elements_kind
            == ElementsKind.PACKED_DOUBLE
        )
        assert heap.to_python(arr) == [1.5, 2.0, 3.0]

    def test_store_string_transitions_to_packed(self, heap):
        arr = heap.to_word([1.5])
        heap.array_set(arr, 0, heap.to_word("s"))
        assert heap.map_of(pointer_untag(arr)).elements_kind == ElementsKind.PACKED
        assert heap.to_python(arr) == ["s"]

    def test_out_of_bounds_read_is_undefined(self, heap):
        arr = heap.to_word([1, 2])
        assert heap.to_python(heap.array_get(arr, 5)) is None
        assert heap.to_python(heap.array_get(arr, -1)) is None

    def test_out_of_bounds_store_raises(self, heap):
        arr = heap.to_word([1, 2])
        with pytest.raises(HeapError):
            heap.array_set(arr, 7, heap.to_word(1))

    def test_push_grows_and_keeps_address(self, heap):
        arr = heap.to_word([])
        address_before = pointer_untag(arr)
        for i in range(20):
            assert heap.array_push(arr, heap.to_word(i)) == i + 1
        assert pointer_untag(arr) == address_before
        assert heap.to_python(arr) == list(range(20))

    def test_push_transitions_kind(self, heap):
        arr = heap.to_word([1])
        heap.array_push(arr, heap.to_word(2.5))
        assert (
            heap.map_of(pointer_untag(arr)).elements_kind
            == ElementsKind.PACKED_DOUBLE
        )
        assert heap.to_python(arr) == [1.0, 2.5]

    def test_transition_after_push_ignores_backing_slack(self, heap):
        # Regression (found by the fuzz corpus under chaos): a push that
        # grows the backing store leaves filler in the slack slots; a
        # later SMI->double transition must convert only the live
        # elements, not untag the filler — and must keep the capacity.
        arr = heap.to_word([1, 2, 3])
        heap.array_push(arr, heap.to_word(4))  # grows 3 -> capacity 6
        heap.array_set(arr, 0, heap.to_word(0.5))  # SMI -> double
        assert heap.to_python(arr) == [0.5, 2.0, 3.0, 4.0]
        assert heap.array_push(arr, heap.to_word(5)) == 5  # slack intact

    def test_double_to_tagged_after_push_ignores_slack(self, heap):
        arr = heap.to_word([1.5])
        heap.array_push(arr, heap.to_word(2.5))  # grows 1 -> capacity 4
        heap.array_set(arr, 0, heap.to_word("s"))  # double -> tagged
        assert heap.map_of(pointer_untag(arr)).elements_kind == ElementsKind.PACKED
        assert heap.to_python(arr) == ["s", 2.5]

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=30))
    @settings(max_examples=40)
    def test_array_roundtrip_property(self, values):
        heap = Heap()
        assert heap.to_python(heap.to_word(values)) == values


class TestGC:
    def test_unreachable_is_freed_and_space_reused(self, heap):
        junk = [heap.alloc_number(1.5) for _ in range(50)]
        live = heap.to_word([1, 2, 3])
        words_before = len(heap.words)
        freed = heap.collect([live])
        assert freed >= 100
        # New allocations reuse the free list: heap does not grow.
        for _ in range(50):
            heap.alloc_number(2.5)
        assert len(heap.words) == words_before

    def test_live_graph_survives(self, heap):
        obj = heap.alloc_object()
        inner = heap.to_word([1, 2.5, "deep"])
        heap.object_set_property(obj, "inner", inner)
        heap.collect([obj])
        assert heap.to_python(obj) == {"inner": [1.0, 2.5, "deep"]}

    def test_oddballs_survive_without_roots(self, heap):
        heap.collect([])
        assert heap.to_python(heap.undefined) is None
        assert heap.to_python(heap.true_value) is True

    def test_interned_strings_survive(self, heap):
        word = heap.alloc_string("kept", intern=True)
        heap.collect([])
        assert heap.to_python(word) == "kept"

    def test_stats_updated(self, heap):
        heap.alloc_number(1.0)
        heap.collect([])
        assert heap.gc_stats.collections == 1
        assert heap.gc_stats.words_freed >= 2


class TestReserveRegion:
    def test_region_is_outside_allocator(self, heap):
        start = heap.reserve_region(64)
        heap.words[start] = 12345
        heap.collect([])
        assert heap.words[start] == 12345  # never swept
        fresh = heap.alloc_number(1.0)
        assert pointer_untag(fresh) >= start + 64  # never reused by alloc


class _FullScanHeap(Heap):
    """The allocator before scan-start hints: first fit from index 0."""

    def _allocate(self, size):
        self.allocations += 1
        self.allocated_words += size
        for index, (block_size, addr) in enumerate(self._free):
            if block_size >= size:
                if block_size == size:
                    self._free.pop(index)
                else:
                    self._free[index] = (block_size - size, addr + size)
                self._sizes[addr] = size
                for i in range(size):
                    self.words[addr + i] = None
                return addr
        addr = len(self.words)
        self.words.extend([None] * size)
        self._sizes[addr] = size
        return addr


class TestScanHints:
    @pytest.mark.parametrize("seed", range(8))
    def test_addresses_match_a_full_first_fit_scan(self, seed):
        """Random allocations of mixed sizes interleaved with collections
        that free random subsets: the hinted scan must hand out exactly
        the addresses the full scan does (map words and the cache models
        depend on them)."""
        import random

        rng = random.Random(seed)
        hinted, reference = Heap(), _FullScanHeap()
        live = []
        for _ in range(60):
            for _ in range(rng.randint(1, 40)):
                size = rng.choice((1, 2, 2, 3, 4, 5, 8, rng.randint(1, 24)))
                addr = hinted._allocate(size)
                assert reference._allocate(size) == addr
                live.append(addr)
            live = [addr for addr in live if rng.random() < 0.4]
            roots = [pointer_tag(addr) for addr in live]
            assert hinted.collect(roots) == reference.collect(roots)
            assert hinted._free == reference._free
        assert hinted.words == reference.words
        assert hinted._sizes == reference._sizes

    def test_real_objects_keep_their_addresses(self):
        """Boxed numbers, strings and arrays through a collection."""
        hinted, reference = Heap(), _FullScanHeap()
        for heap in (hinted, reference):
            kept = [heap.to_word([1, 2.5, "x"]) for _ in range(5)]
            for i in range(40):
                heap.alloc_number(i + 0.5)
                heap.alloc_string(f"s{i}")
            heap.collect(kept)
            for i in range(60):
                heap.to_word([i, i + 0.25])
        assert hinted.words == reference.words
        assert hinted._free == reference._free
