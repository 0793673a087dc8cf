"""Canonical hashing of interpreter worlds for explicit-state search.

Heap object ids are renamed by first-visit order along a deterministic
traversal (globals in name order, then threads in tid order), so states
differing only in allocation order collapse.  Two unbounded components
are abstracted relationally, keeping the state space finite:

* LL/SC *reservations* store only the set of currently-valid reserved
  addresses (an invalid reservation is indistinguishable from no
  reservation: both make SC fail);
* per-address *modification counters* store, per thread, only the set of
  addresses whose last observed counter is still current (all a
  versioned CAS can test).

Repeating thread scripts wrap their op index modulo the script length.

Heap objects and threads cache the rename-independent part of their
key in their ``canon`` slot (:func:`_object_fragment`,
:func:`_thread_fragment`).  Both are shared between copied worlds until
written (:class:`repro.interp.values.Heap`,
:meth:`repro.interp.state.World.own_thread`), and a write drops the
cache, so one fragment serves every world holding the object or thread.
A fragment lists the refs it holds in the order they are numbered; a
ref-free part is used as is, only the rest is mapped through the key's
renaming.  Observed counters are compared with ``world.versions`` on
every key: the versions belong to the world, not to the thread.

A thread's reservation and observed addresses are resolved right after
its own refs are numbered, before later threads' refs and the heap
walk; an address whose object is not numbered by then is dropped.  This
order is kept on purpose: resolving addresses after the walk would
change which states collapse, hence every state count.

:func:`state_key`, :func:`quiescent_key` and :func:`shared_key` are one
walk (:func:`_walk`) from different roots.

**Incremental keys.**  The explorer keys a successor from its parent's
:class:`KeyContext` (``state_key(world, base)``) instead of walking it
again.  The context holds the parent's key, its numbering (oid to
``("ref", n)``, shared read-only by every context that keeps it), how
many refs were numbered after the globals, after each thread and after
each heap object, the thread fragments the thread keys were rendered
from, and the parent world, never written once keyed (the explorer
steps copies, and ``Interp.enabled`` writes nothing).  What the step
wrote is read off the successor: a thread whose ``canon`` is not the
fragment its key was rendered from, a heap object in ``Heap.owned``,
and globals, locks or versions that compare unequal.

The numbering is kept when every written component *introduces* the
same oids as before: the oids it numbers first, in the same order.
Equal ref tuples are not required; a frame may gain or drop a ref to
an object numbered earlier.  Then unwritten components keep their
rendered keys, and only the written ones are rendered again, under the
same numbering, and interned.  A written thread's heap reservations
and observed addresses resolve only against refs numbered up to and
including that thread, as in the walk.  Its new fragment takes the
thread-locals, reservations and observed parts whose dicts are
unchanged from the parent's fragment, and its key keeps the parent's
rendering of those parts.  When the versions changed, every unwritten
thread that observed a bumped address is rendered again too: its
current counters may have gone stale.  Anything else, e.g. a global or
a frame that moves a ref or a heap write that links a fresh object,
falls back to the full walk.  Keys are the same either way.

**Collapsed keys.**  A context keeps the key as ids: an
:class:`Interner` gives each distinct component (globals key, thread
key, heap entry, locks key) an id from 1 up and keeps the component
under it, so equal components are one object.  ``slots`` lists the
ids in key order: globals, each thread, each heap object, locks.
``packed`` puts slot ``p`` in bits ``SLOT_BITS * (p + 1)`` and up of
one int, leaving the lowest slot to the explorer's ghosts.  No slot is
zero, so for one interner and one thread count, two packed ints are
equal exactly when the keys are, heaps of different sizes included,
and :func:`unpack` turns one back into the nested key (as
``KeyContext.key`` does).  An incremental key
adds ``(new - old) << SLOT_BITS * (p + 1)`` for each slot it rendered
again; the full walk packs every slot.  An id too wide for its slot
raises instead of aliasing.

**Steps that write only their thread.**  Such a step (a load, an
``LL``, a failed ``SC`` or ``CAS``, or one over locals) leaves every
other component as it was, versions included, so the successor's
packed key is the parent's with one thread slot changed.  The explorer
memoizes such a step on the parent thread, keyed by the shared values
it loaded, and with each outcome ``keys``: the map from ``(the parent
thread's key id, refs numbered before the thread, the number of each
extra oid)`` to what the step adds to the packed key, the change of
the thread's slot from its key id to the successor thread's.  The
extra oids, kept once on the outcome (``StepMemo.extra``), are those
of the refs the successor holds and the parent thread does not, and of
the heap reservations and observed ``(address, counter)`` pairs the
successor has and the parent thread lacks; an oid the parent world
does not number counts as None.  These determine the successor's key
id: the parent thread's key renders the number of every ref it holds,
and every heap reservation and observed pair it has as the successor's
key will (a thread-local step only adds a reservation or a pair, or
renews an observed address's counter, whose oid is then extra: only
another thread's store clears a reservation), the start says which
refs the thread introduces and so where its heap addresses stop
resolving, the extra numbers render the rest, and the outcome fixes
the counters the step observed, all current.  (A load of ``B.f`` by a
thread holding no ref to ``B``'s object renders that object's number,
which two worlds may differ in under one thread key id.)  The map is
filled by :func:`note_step_key` from a rekey that kept the numbering,
and read by the explorer's keying call, one dict lookup
(:meth:`repro.mc.explorer.Explorer._key`).  :func:`step_context`
builds the successor's context, once the explorer has built its world,
from the parent's context and that slot.
"""

from __future__ import annotations

from typing import Optional

from repro.interp.state import Thread, World
from repro.interp.values import HeapArray, HeapObject, Ref

#: the roots a walk starts from: globals and whole threads, globals and
#: thread-locals, globals only
_STATE, _QUIESCENT, _SHARED = range(3)

#: the width of one component id's slot in a packed state key
#: (:class:`KeyContext`); an :class:`Interner` refuses ids that do not
#: fit
SLOT_BITS = 32


def _refs(values) -> Optional[tuple]:
    """The refs among ``values``, in order, or None when there are none."""
    return tuple([v for v in values if v.__class__ is Ref]) or None


def _object_fragment(obj: HeapObject | HeapArray) -> tuple:
    """``(tag, class_name, body, refs)``: the object's key body before
    renaming (its fields sorted by name, or its cells) and the refs it
    holds in numbering order (field insertion order, or cell order), or
    None when it holds none."""
    if isinstance(obj, HeapArray):
        body = tuple(obj.cells)
        return "arr", obj.class_name, body, _refs(body)
    return ("obj", obj.class_name, tuple(sorted(obj.fields.items())),
            _refs(obj.fields.values()))


def _thread_fragment(thread: Thread, like: Optional[tuple] = None) -> tuple:
    """``(op_index, tls, tls_refs, frame, frame_refs, valid,
    valid_heap, observed, observed_heap)``: the wrapped op index, the
    thread-locals sorted by name, the frame as ``(proc, node uid, env
    sorted by binder, args)``, the valid reservations and the observed
    ``(addr, counter)`` pairs.  ``*_refs`` list the refs to number (in
    insertion order, then the args), or are None.  Global addresses
    come sorted; heap addresses need the renaming and are sorted with
    them per key.  Thread-private addresses are never invalidated nor
    contested, and are left out.

    ``like`` is ``(other thread, its fragment)``, the fragment up to
    date: the thread-locals, reservations and observed parts are taken
    from it, the same objects, where the dicts compare equal."""
    spec = thread.spec
    op_index = thread.op_index
    if spec.repeat and spec.ops:
        op_index %= len(spec.ops)
    other = None
    if like is not None:
        other, other_frag = like
    values = thread.threadlocals
    if other is not None and values == other.threadlocals:
        tls, tls_refs = other_frag[1], other_frag[2]
    else:
        tls = tuple(sorted(values.items()))
        tls_refs = _refs(values.values())
    frame = thread.frame
    if frame is None:
        frame_key = frame_refs = None
    else:
        node = frame.node
        args = tuple(frame.args)
        frame_key = (frame.proc_name, node.uid if node is not None else -1,
                     tuple(sorted(frame.env.items())), args)
        frame_refs = _refs([*frame.env.values(), *args])
    reservations = thread.reservations
    if other is not None and reservations == other.reservations:
        valid, valid_heap = other_frag[5], other_frag[6]
    else:
        addrs = [addr for addr, ok in reservations.items() if ok]
        valid = tuple(sorted(a for a in addrs if a[0] == "g"))
        valid_heap = tuple([a for a in addrs if a[0] in ("f", "e")])
    pairs = thread.observed
    if other is not None and pairs == other.observed:
        observed, observed_heap = other_frag[7], other_frag[8]
    else:
        observed = tuple(sorted(p for p in pairs.items() if p[0][0] == "g"))
        observed_heap = tuple([p for p in pairs.items()
                               if p[0][0] in ("f", "e")])
    return (op_index, tls, tls_refs, frame_key, frame_refs, valid,
            valid_heap, observed, observed_heap)


def _number(refs: tuple, ids: dict, pending: list) -> None:
    """Give the refs not numbered yet the next numbers, in order."""
    for ref in refs:
        oid = ref.oid
        if oid not in ids:
            pending.append(oid)
            ids[oid] = ("ref", len(pending))


def _introduces(refs, ids: dict, start: int, end: int) -> bool:
    """Would numbering ``refs`` right after ref ``start`` give the next
    numbers to exactly the oids ``ids`` numbers ``start + 1`` to
    ``end``, in that order?  Then the component holding ``refs`` leaves
    the numbering as ``ids`` has it."""
    expected = start + 1
    for ref in refs:
        n = ids.get(ref.oid)
        if n is None:
            return False
        n = n[1]
        if n == expected:
            expected += 1
        elif n > expected:
            return False
    return expected == end + 1


def _renamed(pairs, ids: dict) -> tuple:
    """``(name, value)`` pairs with their refs renamed through ``ids``."""
    return tuple([(name, ids[v.oid] if v.__class__ is Ref else v)
                  for name, v in pairs])


def _observes(frag: tuple, addrs: set) -> bool:
    """Did the thread of fragment ``frag`` observe one of ``addrs``?"""
    for addr, _counter in frag[7] + frag[8]:
        if addr in addrs:
            return True
    return False


def _thread_key(frag: tuple, base_frag: tuple, base_key: tuple, ids: dict,
                limit: int, versions: dict, bumped: Optional[set]) -> tuple:
    """A thread's key from its fragment, its refs numbered, given the
    fragment and key of the same thread in the base world, keyed under
    the same numbering: each part of ``frag`` that is the same object
    as in ``base_frag`` keeps its rendering in ``base_key``, but
    observed counters are resolved again when ``bumped``, the addresses
    whose counters changed since (or None), holds one of them.  Heap
    reservations and observed addresses resolve only against refs
    numbered ``limit`` or lower (those numbered up to this thread)."""
    (op_index, tls, tls_refs, frame_key, frame_refs, valid,
     valid_heap, observed, observed_heap) = frag
    if tls is base_frag[1]:
        tls = base_key[1]
    elif tls_refs is not None:
        tls = _renamed(tls, ids)
    if frame_key is base_frag[3]:
        frame_key = base_key[2]
    elif frame_refs is not None:
        proc, uid, env, args = frame_key
        frame_key = (proc, uid, _renamed(env, ids),
                     tuple([ids[v.oid] if v.__class__ is Ref else v
                            for v in args]))
    if valid is base_frag[5] and valid_heap is base_frag[6]:
        valid = base_key[3]
    elif valid_heap:
        valid = list(valid)
        for kind, oid, sel in valid_heap:
            ref = ids.get(oid)
            if ref is not None and ref[1] <= limit:
                valid.append((kind, ref[1], sel))
        valid.sort()
        valid = tuple(valid)
    if observed is base_frag[7] and observed_heap is base_frag[8] \
            and (bumped is None or not _observes(frag, bumped)):
        return op_index, tls, frame_key, valid, base_key[4]
    current = [addr for addr, counter in observed
               if versions.get(addr, 0) == counter]
    if observed_heap:
        for addr, counter in observed_heap:
            if versions.get(addr, 0) == counter:
                ref = ids.get(addr[1])
                if ref is not None and ref[1] <= limit:
                    current.append((addr[0], ref[1], addr[2]))
        current.sort()
    return op_index, tls, frame_key, valid, tuple(current)


def _heap_entry(frag: tuple, n: int, ids: dict) -> tuple:
    """Heap object ``n``'s key entry from its fragment, its refs
    numbered."""
    tag, class_name, body, refs = frag
    if refs is not None:
        if tag == "obj":
            body = _renamed(body, ids)
        else:
            body = tuple([ids[v.oid] if v.__class__ is Ref else v
                          for v in body])
    return tag, n, class_name, body


def _locks_key(locks: dict, ids: dict) -> tuple:
    """The held locks on numbered objects, as ``(n, (tid, depth))``."""
    return tuple(sorted((ids[oid][1], owner)
                        for oid, owner in locks.items()
                        if oid in ids)) if locks else ()


def _walk(world: World, roots: int) -> tuple:
    """``(globals_key, threads_part, heap_key, locks_key, ids, ends)``:
    number the refs reachable from ``roots`` and key what they reach.
    The threads part is the thread keys (``_STATE``), each thread's
    ``(progress, thread-locals)`` (``_QUIESCENT``), or None
    (``_SHARED``).  ``ids`` maps each numbered oid to ``("ref", n)``;
    ``ends`` holds how many refs were numbered after the globals, after
    each thread (unless ``_SHARED``) and after each heap object.

    The walk renders inline what :func:`_thread_key` and
    :func:`_heap_entry` render for incremental keys: a call per thread
    and object makes it ~15 % slower, and it is also the key atomic runs
    take after every inner step.  A thread's heap addresses resolve
    against ``ids`` as it is right after the thread's own refs."""
    ids: dict[int, tuple] = {}  # oid -> ("ref", n)
    pending: list[int] = []     # oids in numbering order
    values = world.globals
    globals_key = []
    for name in sorted(values):
        v = values[name]
        if v.__class__ is Ref:
            oid = v.oid
            if oid not in ids:
                pending.append(oid)
                ids[oid] = ("ref", len(pending))
            v = ids[oid]
        globals_key.append((name, v))
    ends = [len(pending)]

    threads_part = None
    if roots != _SHARED:
        versions = world.versions
        threads_part = []
        for thread in world.threads:
            frag = thread.canon
            if frag is None:
                frag = thread.canon = _thread_fragment(thread)
            (op_index, tls, tls_refs, frame_key, frame_refs, valid,
             valid_heap, observed, observed_heap) = frag
            if tls_refs is not None:
                _number(tls_refs, ids, pending)
                tls = tuple([(name, ids[v.oid] if v.__class__ is Ref else v)
                             for name, v in tls])
            if roots == _QUIESCENT:
                threads_part.append((op_index, tls))
                ends.append(len(pending))
                continue
            if frame_refs is not None:
                _number(frame_refs, ids, pending)
                proc, uid, env, args = frame_key
                frame_key = (
                    proc, uid,
                    tuple([(b, ids[v.oid] if v.__class__ is Ref else v)
                           for b, v in env]),
                    tuple([ids[v.oid] if v.__class__ is Ref else v
                           for v in args]))
            if valid_heap:
                valid = list(valid)
                for kind, oid, sel in valid_heap:
                    ref = ids.get(oid)
                    if ref is not None:
                        valid.append((kind, ref[1], sel))
                valid.sort()
                valid = tuple(valid)
            current = [addr for addr, counter in observed
                       if versions.get(addr, 0) == counter]
            if observed_heap:
                for addr, counter in observed_heap:
                    if versions.get(addr, 0) == counter:
                        ref = ids.get(addr[1])
                        if ref is not None:
                            current.append((addr[0], ref[1], addr[2]))
                current.sort()
            threads_part.append(
                (op_index, tls, frame_key, valid, tuple(current)))
            ends.append(len(pending))

    objects = world.heap.objects
    heap_key = []
    # pending grows as the walk numbers new refs
    for n, oid in enumerate(pending, 1):
        obj = objects[oid]
        frag = obj.canon
        if frag is None:
            frag = obj.canon = _object_fragment(obj)
        tag, class_name, body, refs = frag
        if refs is not None:
            _number(refs, ids, pending)
            if tag == "obj":
                body = tuple([(name, ids[v.oid] if v.__class__ is Ref else v)
                              for name, v in body])
            else:
                body = tuple([ids[v.oid] if v.__class__ is Ref else v
                              for v in body])
        heap_key.append((tag, n, class_name, body))
        ends.append(len(pending))
    return (tuple(globals_key), threads_part, tuple(heap_key),
            _locks_key(world.locks, ids), ids, ends)


class Interner(dict):
    """One exploration's hash-consing table: ``interner[part]`` is the
    id of a key component (a globals key, thread key, heap entry, locks
    key or ghosts tuple), from 1 up in first-seen order, and
    ``objects[id]`` is the component itself, the one object every key
    holding an equal component shares.  A miss assigns the next id; an
    id that would not fit a :data:`SLOT_BITS`-bit slot raises
    ``OverflowError`` rather than alias another component's."""

    __slots__ = ("objects",)

    def __init__(self) -> None:
        super().__init__()
        #: id -> component; id 0 stands for none
        self.objects: list = [None]

    def __missing__(self, part) -> int:
        objects = self.objects
        n = len(objects)
        if n >> SLOT_BITS:
            raise OverflowError(
                f"state key component #{n} does not fit a {SLOT_BITS}-bit "
                f"slot of the packed state key")
        objects.append(part)
        self[part] = n
        return n


def _pack(slots: list) -> int:
    """``slots`` as one int: slot ``p`` in bits ``SLOT_BITS * (p + 1)``
    and up, bits below ``SLOT_BITS`` zero."""
    packed = 0
    for n in reversed(slots):
        packed = (packed | n) << SLOT_BITS
    return packed


class KeyContext:
    """What keying a world leaves for keying the worlds stepped from it
    (:func:`state_key` with ``base``): the world's key as the ids of its
    components (``slots``: globals, each thread, each heap object, then
    the locks) and those ids packed into one int (``packed``, see
    :func:`_pack`), its numbering (``ids``, read-only and shared by
    every context that reuses it), the numbering's component boundaries
    (``ends`` of :func:`_walk`), the fragments its thread keys were
    rendered from, and the world itself, which nothing writes once it
    is keyed, to compare with a successor.  ``KeyContext(intern)``
    stands for no world yet."""

    __slots__ = ("intern", "slots", "packed", "ids", "ends", "frags",
                 "world")

    def __init__(self, intern: Interner, slots: Optional[list] = None,
                 packed: int = 0, ids: Optional[dict] = None,
                 ends: Optional[list] = None, frags: Optional[list] = None,
                 world: Optional[World] = None) -> None:
        #: the interner the key's components went through
        self.intern = intern
        self.slots = slots
        self.packed = packed
        self.ids = ids
        self.ends = ends
        self.frags = frags
        self.world = world

    @property
    def key(self) -> Optional[tuple]:
        """The world's key, ``(globals_key, thread_keys, heap_key,
        locks_key)``, made of the interned components."""
        if not self.packed:
            return None
        return unpack(self.intern, self.packed, len(self.frags))[0]


def unpack(intern: Interner, packed: int, threads: int) -> tuple:
    """``(world key, ghosts)`` of a state with ``threads`` threads,
    ``packed`` as the explorer's seen set holds it: the world key as
    :func:`state_key` without ``base`` gives it, and the ghosts (None
    for a zero low slot), made of the components in ``intern``."""
    objects = intern.objects
    mask = (1 << SLOT_BITS) - 1
    parts = []
    # the locks' slot, the highest, is never zero
    while packed:
        parts.append(objects[packed & mask])
        packed >>= SLOT_BITS
    heap = threads + 2
    return ((parts[1], tuple(parts[2:heap]), tuple(parts[heap:-1]),
             parts[-1]), parts[0])


def _full_context(world: World, intern: Interner) -> KeyContext:
    """``world``'s context from a full walk."""
    globals_key, thread_keys, heap_key, locks_key, ids, ends = \
        _walk(world, _STATE)
    slots = [intern[globals_key], *map(intern.__getitem__, thread_keys),
             *map(intern.__getitem__, heap_key), intern[locks_key]]
    return KeyContext(intern, slots, _pack(slots), ids, ends,
                      [t.canon for t in world.threads], world)


def _rekey(world: World, base: KeyContext) -> Optional[KeyContext]:
    """``world``'s context from ``base``, the context of the world it
    was copied from: only the components its step wrote are re-rendered,
    under ``base``'s numbering, plus the unwritten threads that observed
    a bumped counter, and only their slots of the packed key change.
    None when a written component introduces other refs than before,
    which would change the numbering."""
    ids, ends, intern = base.ids, base.ends, base.intern
    slots = base.slots
    # (slot, id) of each component rendered again
    rendered = []
    values = world.globals
    parent = base.world
    if values != parent.globals:
        items = sorted(values.items())
        refs = _refs([v for _name, v in items]) or ()
        if not _introduces(refs, ids, 0, ends[0]):
            return None
        rendered.append((0, intern[_renamed(items, ids)]))

    versions = world.versions
    bumped = None
    if versions != parent.versions:
        before = parent.versions
        bumped = {addr for addr, counter in versions.items()
                  if before.get(addr) != counter}
    frags = base_frags = base.frags
    components = intern.objects
    for tid, thread in enumerate(world.threads):
        base_frag = base_frags[tid]
        frag = thread.canon
        if frag is base_frag:
            # unwritten: only the observed counters can have gone stale
            if bumped is None or not _observes(frag, bumped):
                continue
        else:
            if frag is None:
                frag = thread.canon = _thread_fragment(
                    thread, (parent.threads[tid], base_frag))
            if not _introduces((*(frag[2] or ()), *(frag[4] or ())), ids,
                               ends[tid], ends[tid + 1]):
                return None
            if frags is base_frags:
                frags = list(frags)
            frags[tid] = frag
        key = _thread_key(frag, base_frag, components[slots[tid + 1]], ids,
                          ends[tid + 1], versions, bumped)
        rendered.append((tid + 1, intern[key]))

    written = world.heap.owned
    if written:
        objects = world.heap.objects
        # heap object n's boundaries are ends[first + n - 1], ends[first + n]
        # and its slot is first + n
        first = len(frags)
        for oid in written:
            ref = ids.get(oid)
            if ref is None:
                continue  # unreachable, unless a written part links it
            n = ref[1]
            obj = objects[oid]
            frag = obj.canon
            if frag is None:
                frag = obj.canon = _object_fragment(obj)
            if not _introduces(frag[3] or (), ids, ends[first + n - 1],
                               ends[first + n]):
                return None
            rendered.append((first + n, intern[_heap_entry(frag, n, ids)]))

    locks = world.locks
    if locks != parent.locks:
        rendered.append((len(slots) - 1, intern[_locks_key(locks, ids)]))

    packed = base.packed
    if rendered:
        slots = list(slots)
        for slot, new in rendered:
            packed += (new - slots[slot]) << SLOT_BITS * (slot + 1)
            slots[slot] = new
    return KeyContext(intern, slots, packed, ids, ends, frags, world)


def note_step_key(leaf, base: KeyContext, ctx: KeyContext,
                  tid: int) -> None:
    """Record in ``leaf.keys`` what the thread-local step of ``leaf``
    from the world of ``base`` to that of ``ctx`` added to the packed
    key, when the rekey kept the numbering: thread ``tid``'s slot
    changed from its key id in ``base`` to the one ``ctx`` gave it.
    The first record sets ``leaf.extra`` (see the module docstring).
    :meth:`repro.mc.explorer.Explorer._key` reads the map: ``base``'s
    packed key plus the entry under ``(thread tid's key id, its start,
    *the numbers of the extra oids)`` is the successor's."""
    if ctx.ids is not base.ids:
        return
    frag = base.frags[tid]
    extra = leaf.extra
    if extra is None:
        after = ctx.frags[tid]
        held = {ref.oid for ref in (*(frag[2] or ()), *(frag[4] or ()))}
        oids = [ref.oid for ref in (*(after[2] or ()), *(after[4] or ()))
                if ref.oid not in held]
        # a heap reservation or observed pair the parent thread has
        # renders in its key as it will in the successor's
        if after[6] is not frag[6]:
            kept = set(frag[6])
            oids += [addr[1] for addr in after[6] if addr not in kept]
        if after[8] is not frag[8]:
            kept = set(frag[8])
            oids += [pair[0][1] for pair in after[8] if pair not in kept]
        extra = leaf.extra = tuple(dict.fromkeys(oids))
    ids = base.ids
    old = base.slots[tid + 1]
    leaf.keys[(old, base.ends[tid], *map(ids.get, extra))] \
        = (ctx.slots[tid + 1] - old) << SLOT_BITS * (tid + 2)


def step_context(base: KeyContext, world: World, tid: int,
                 packed: int) -> KeyContext:
    """The context of ``world``, stepped from the world of ``base`` by
    thread ``tid``'s thread-local step, whose packed key a step memo
    leaf's map gave as ``packed`` (:func:`note_step_key`)."""
    slot = tid + 1
    slots = list(base.slots)
    slots[slot] += (packed - base.packed) >> SLOT_BITS * (slot + 1)
    frags = list(base.frags)
    frags[tid] = world.threads[tid].canon
    return KeyContext(base.intern, slots, packed, base.ids, base.ends,
                      frags, world)


def state_key(world: World, base: Optional[KeyContext] = None):
    """Full canonical key of a world (threads included), from a full
    walk.

    Given ``base`` — the :class:`KeyContext` of the world ``world`` was
    copied from, or ``KeyContext(interner)`` for a world without one —
    returns ``world``'s own context instead.  Its ``key`` is the same
    key, each component interned in ``base.intern``, and its ``packed``
    int is equal for two worlds exactly when their keys are; both are
    built from ``base`` when the writes since the copy left the
    numbering as it was, else by a full walk.
    ``world`` must not have been copied since it was, and the world
    ``base`` was built from must not have been written since."""
    if base is None:
        globals_key, thread_keys, heap_key, locks_key, _ids, _ends = \
            _walk(world, _STATE)
        return globals_key, tuple(thread_keys), heap_key, locks_key
    if base.ids is not None:
        ctx = _rekey(world, base)
        if ctx is not None:
            return ctx
    return _full_context(world, base.intern)


def shared_key(world: World) -> tuple:
    """Canonical key of the *shared* state only: globals, the heap
    reachable from them, and the lock table.  Thread-private residue
    (working copies, script progress) is projected away.  This is the
    granularity at which the ``both`` mode's operation-commutativity
    ample sets preserve reachability: two commuting operations leave the
    same shared state either way, but may leave different private
    scratch objects."""
    globals_key, _none, heap_key, locks_key, _ids, _ends = \
        _walk(world, _SHARED)
    return (globals_key, heap_key, locks_key)


def quiescent_key(world: World) -> tuple:
    """Canonical key of the *shared* state plus each thread's script
    progress — the granularity at which the atomicity definition of
    §3.2 compares executions.  Stale reservations and observation sets
    are dropped: every procedure in the corpus re-reads (LL / matching
    read) before any SC/CAS, so they cannot influence future behaviour
    from a quiescent state."""
    globals_key, threads, heap_key, locks_key, _ids, _ends = \
        _walk(world, _QUIESCENT)
    return (globals_key, tuple(op_index for op_index, _tls in threads),
            tuple(tls for _op_index, tls in threads), heap_key, locks_key)
