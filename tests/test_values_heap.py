"""Heap/value unit tests and the experiments Table renderer."""

import pytest

from repro.errors import InterpError, SourcePos, SynlError
from repro.experiments.common import Table, ratio
from repro.interp.values import (Heap, HeapArray, HeapObject, Ref,
                                 default_primitives)


# -- heap ---------------------------------------------------------------------------

def test_alloc_returns_distinct_refs():
    heap = Heap()
    a, b = heap.alloc("C"), heap.alloc("C")
    assert a != b
    assert isinstance(heap.get(a), HeapObject)


def test_field_read_write_roundtrip():
    heap = Heap()
    r = heap.alloc("C")
    heap.write_field(r, "fd", 42)
    assert heap.read_field(r, "fd") == 42
    assert heap.read_field(r, "other") is None  # unset -> null


def test_array_alloc_zero_filled_and_bounds():
    heap = Heap()
    a = heap.alloc_array("int", 3)
    assert heap.read_elem(a, 2) == 0
    heap.write_elem(a, 0, 9)
    assert heap.read_elem(a, 0) == 9
    with pytest.raises(InterpError, match="bounds"):
        heap.read_elem(a, 3)
    with pytest.raises(InterpError, match="bounds"):
        heap.write_elem(a, -1, 0)


# -- refs ---------------------------------------------------------------------------

def test_refs_with_one_oid_are_equal_and_hash_equally():
    a, b = Ref(1), Ref(1)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash((1,))
    assert Ref(1) != Ref(2)


def test_a_ref_equals_no_int_or_tuple():
    assert Ref(1) != 1 and not Ref(1) == 1
    assert Ref(1) != (1,) and not Ref(1) == (1,)
    assert 1 != Ref(1) and (1,) != Ref(1)


def test_ref_repr():
    assert repr(Ref(1)) == "@1"
    assert repr([Ref(3), None]) == "[@3, None]"


def test_a_ref_is_a_dict_key():
    table = {Ref(1): "one", Ref(2): "two"}
    assert table[Ref(1)] == "one"
    assert Ref(3) not in table
    assert {Ref(1), Ref(1), Ref(2)} == {Ref(2), Ref(1)}


def test_negative_array_size_rejected():
    with pytest.raises(InterpError, match="negative"):
        Heap().alloc_array("int", -1)


def test_non_integer_index_rejected():
    heap = Heap()
    a = heap.alloc_array("int", 2)
    with pytest.raises(InterpError, match="index"):
        heap.read_elem(a, True)  # booleans are not indices


def test_field_access_on_array_rejected():
    heap = Heap()
    a = heap.alloc_array("int", 2)
    with pytest.raises(InterpError):
        heap.read_field(a, "fd")


def test_dereference_non_ref_rejected():
    with pytest.raises(InterpError, match="non-reference"):
        Heap().get(42)


def test_dangling_reference_rejected():
    with pytest.raises(InterpError, match="dangling"):
        Heap().get(Ref(99))


def test_non_integer_array_size_rejected():
    with pytest.raises(InterpError, match="non-integer array size True"):
        Heap().alloc_array("int", True)  # booleans are not sizes
    with pytest.raises(InterpError, match="non-integer array size None"):
        Heap().alloc_array("int", None)


def test_heap_copies_are_independent():
    heap = Heap()
    r = heap.alloc("C")
    heap.write_field(r, "fd", 1)
    clone = heap.copy()
    clone.write_field(r, "fd", 2)
    assert heap.read_field(r, "fd") == 1
    heap.write_field(r, "fd", 3)
    assert clone.read_field(r, "fd") == 2
    # allocation counters continue without collision
    r2 = clone.alloc("C")
    assert r2.oid != r.oid


def test_default_primitives_packing_laws():
    prims = default_primitives()
    packed = prims["packactive"](3, 2)
    assert prims["sbof"](packed) == 3
    assert prims["creditsof"](packed) == 2
    anchor = 5 * 64 + 4
    assert prims["availof"](anchor) == 5
    assert prims["countof"](anchor) == 4
    popped = prims["popanchor"](anchor, 6, 2)
    assert prims["availof"](popped) == 6
    assert prims["countof"](popped) == 4


# -- errors ---------------------------------------------------------------------------

def test_source_pos_renders_and_orders():
    assert str(SourcePos(3, 7)) == "3:7"
    assert SourcePos(1, 9) < SourcePos(2, 1)


def test_synl_error_prefixes_position():
    err = SynlError("bad thing", SourcePos(4, 2))
    assert str(err).startswith("4:2:")
    assert SynlError("no pos").args[0] == "no pos"


# -- experiments table --------------------------------------------------------------------

def test_table_render_alignment_and_notes():
    table = Table("Title", ["col", "value"])
    table.add("short", 1)
    table.add("a-much-longer-row", 123456)
    table.note("a note")
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "Title"
    header, sep, row1, row2, note = lines[2:]
    assert header.index("value") == row1.index("1")
    assert "a-much-longer-row" in row2
    assert note.strip() == "note: a note"


def test_ratio_formatting():
    assert ratio(100, 4) == "25.0x"
    assert ratio(1, 0) == "inf"
