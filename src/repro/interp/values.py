"""Runtime values and heap objects for the SYNL interpreter.

Values are Python ints/bools, ``None`` (SYNL ``null``), and
:class:`Ref` heap references.  Heap objects come in two shapes: records
(class instances with named fields) and arrays (int-indexed cells).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InterpError

Value = object  # int | bool | None | Ref


class Ref:
    """A reference to heap object ``oid``, a value like an int: equal
    refs have equal oids, and the hash is that of ``(oid,)``.  Never
    written after it is made."""

    __slots__ = ("oid",)

    def __init__(self, oid: int) -> None:
        self.oid = oid

    def __eq__(self, other):
        if other.__class__ is Ref:
            return self.oid == other.oid
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.oid,))

    def __repr__(self) -> str:
        return f"@{self.oid}"


def cache_slot():
    """A slot where the model checker caches something derived from a
    heap object's or a thread's contents: :mod:`repro.mc.canonical`'s
    rename-independent key fragment, or :mod:`repro.mc.explorer`'s
    memo of a step that writes only its thread, keyed by the shared
    values the step loads.  The owner clears it on every write
    (:class:`Heap`, ``World.own_thread``).  Not an argument, not
    compared, not shown, not copied."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass
class HeapObject:
    class_name: str
    fields: dict[str, Value] = field(default_factory=dict)
    canon: Optional[tuple] = cache_slot()

    def copy(self) -> "HeapObject":
        return HeapObject(self.class_name, dict(self.fields))


@dataclass
class HeapArray:
    class_name: str
    cells: list[Value] = field(default_factory=list)
    canon: Optional[tuple] = cache_slot()

    def copy(self) -> "HeapArray":
        return HeapArray(self.class_name, list(self.cells))


class Heap:
    """An object heap with integer object ids, copied on write.

    Copies share their objects.  A heap *owns* the objects it allocated
    and those it has already copied; :meth:`write_field` and
    :meth:`write_elem`, the only mutators, copy a shared object before
    its first write and clear an owned object's canonical cache.  Code
    outside this class must not mutate ``objects`` or an object in it.
    """

    def __init__(self) -> None:
        self.objects: dict[int, HeapObject | HeapArray] = {}
        self._next = 1
        #: oids whose objects no other heap can see
        self._owned: set[int] = set()

    def alloc(self, class_name: str) -> Ref:
        oid = self._next
        self._next += 1
        self.objects[oid] = HeapObject(class_name)
        self._owned.add(oid)
        return Ref(oid)

    def alloc_array(self, class_name: str, size: Value) -> Ref:
        if not isinstance(size, int) or isinstance(size, bool):
            raise InterpError(f"non-integer array size {size!r}")
        if size < 0:
            raise InterpError(f"negative array size {size}")
        oid = self._next
        self._next += 1
        self.objects[oid] = HeapArray(class_name, [0] * size)
        self._owned.add(oid)
        return Ref(oid)

    @property
    def owned(self) -> set[int]:
        """The oids of the objects allocated or written since this heap
        was made by :meth:`copy` (all of them for a fresh heap), until
        it is copied again: every object that may differ from the heap
        it was copied from.  Incremental state keys
        (:mod:`repro.mc.canonical`) re-key exactly these.  Read-only."""
        return self._owned

    def _own(self, oid: int,
             obj: HeapObject | HeapArray) -> HeapObject | HeapArray:
        """``obj`` (at ``oid``) made safe to write: a shared object is
        replaced by a private copy, an owned one drops its cache."""
        if oid in self._owned:
            obj.canon = None
            return obj
        obj = self.objects[oid] = obj.copy()
        self._owned.add(oid)
        return obj

    def get(self, ref: Value) -> HeapObject | HeapArray:
        if not isinstance(ref, Ref):
            raise InterpError(f"dereference of non-reference {ref!r}")
        try:
            return self.objects[ref.oid]
        except KeyError:
            raise InterpError(f"dangling reference {ref!r}") from None

    def read_field(self, ref: Value, name: str) -> Value:
        obj = self.get(ref)
        if not isinstance(obj, HeapObject):
            raise InterpError(f"field access {name} on array {ref!r}")
        return obj.fields.get(name)

    def write_field(self, ref: Value, name: str, value: Value) -> None:
        obj = self.get(ref)
        if not isinstance(obj, HeapObject):
            raise InterpError(f"field write {name} on array {ref!r}")
        self._own(ref.oid, obj).fields[name] = value

    def read_elem(self, ref: Value, index: Value) -> Value:
        obj = self.get(ref)
        if not isinstance(obj, HeapArray):
            raise InterpError(f"index access on non-array {ref!r}")
        if not isinstance(index, int) or isinstance(index, bool):
            raise InterpError(f"non-integer array index {index!r}")
        if not 0 <= index < len(obj.cells):
            raise InterpError(
                f"array index {index} out of bounds [0, {len(obj.cells)})")
        return obj.cells[index]

    def write_elem(self, ref: Value, index: Value, value: Value) -> None:
        obj = self.get(ref)
        if not isinstance(obj, HeapArray):
            raise InterpError(f"index write on non-array {ref!r}")
        if not isinstance(index, int) or isinstance(index, bool):
            raise InterpError(f"non-integer array index {index!r}")
        if not 0 <= index < len(obj.cells):
            raise InterpError(
                f"array index {index} out of bounds [0, {len(obj.cells)})")
        self._own(ref.oid, obj).cells[index] = value

    def copy(self) -> "Heap":
        """An independent heap that shares every object with this one
        until either side writes it: a shallow copy of ``objects``,
        after which neither heap owns any object."""
        out = Heap.__new__(Heap)
        out._next = self._next
        out.objects = dict(self.objects)
        out._owned = set()
        self._owned.clear()
        return out


#: Default pure primitives (§3.2: "primitive operations have no side
#: effect").  Applications register more via ``Interp(primitives=...)``.
def _compute(*args: int) -> int:
    return sum(a for a in args if isinstance(a, int)) + 1


#: Packing helpers for the allocator corpus.  ``Active`` packs
#: (superblock id, credits) as sb*8 + credits; anchors pack
#: (avail, count) as avail*64 + count.
def default_primitives() -> dict:
    return {
        "compute": _compute,
        "inc": lambda v: v + 1,
        "min": min,
        "max": max,
        "packactive": lambda sb, credits: sb * 8 + credits,
        "sbof": lambda a: a // 8,
        "creditsof": lambda a: a % 8,
        "reserve": lambda a, c: -1 if c == 0 else a - 1,
        "availof": lambda anchor: anchor // 64,
        "countof": lambda anchor: anchor % 64,
        "popanchor": lambda anchor, nxt, credits: nxt * 64 + anchor % 64,
        "takeall": lambda anchor: anchor % 64,
        "putcount": lambda anchor, n: anchor + n,
        "packlist": lambda prev, head: prev,
        "sbfirst": lambda sb: sb * 8,
    }
