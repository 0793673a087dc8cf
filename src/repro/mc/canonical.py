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
"""

from __future__ import annotations

from typing import Optional

from repro.interp.state import Thread, World
from repro.interp.values import HeapArray, HeapObject, Ref

#: the roots a walk starts from: globals and whole threads, globals and
#: thread-locals, globals only
_STATE, _QUIESCENT, _SHARED = range(3)


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


def _thread_fragment(thread: Thread) -> tuple:
    """``(op_index, tls, tls_refs, frame, frame_refs, valid,
    valid_heap, observed, observed_heap)``: the wrapped op index, the
    thread-locals sorted by name, the frame as ``(proc, node uid, env
    sorted by binder, args)``, the valid reservations and the observed
    ``(addr, counter)`` pairs.  ``*_refs`` list the refs to number (in
    insertion order, then the args), or are None.  Global addresses
    come sorted; heap addresses need the renaming and are sorted with
    them per key.  Thread-private addresses are never invalidated nor
    contested, and are left out."""
    spec = thread.spec
    op_index = thread.op_index
    if spec.repeat and spec.ops:
        op_index %= len(spec.ops)
    tls = tuple(sorted(thread.threadlocals.items()))
    tls_refs = _refs(thread.threadlocals.values())
    frame = thread.frame
    if frame is None:
        frame_key = frame_refs = None
    else:
        node = frame.node
        args = tuple(frame.args)
        frame_key = (frame.proc_name, node.uid if node is not None else -1,
                     tuple(sorted(frame.env.items())), args)
        frame_refs = _refs([*frame.env.values(), *args])
    valid = [addr for addr, ok in thread.reservations.items() if ok]
    observed = thread.observed.items()
    return (op_index, tls, tls_refs, frame_key, frame_refs,
            tuple(sorted(a for a in valid if a[0] == "g")),
            tuple([a for a in valid if a[0] in ("f", "e")]),
            tuple(sorted(p for p in observed if p[0][0] == "g")),
            tuple([p for p in observed if p[0][0] in ("f", "e")]))


def _number(refs: tuple, ids: dict, pending: list) -> None:
    """Give the refs not numbered yet the next numbers, in order."""
    for ref in refs:
        oid = ref.oid
        if oid not in ids:
            pending.append(oid)
            ids[oid] = ("ref", len(pending))


def _walk(world: World, roots: int) -> tuple:
    """``(globals_key, threads_part, heap_key, locks_key)``: number the
    refs reachable from ``roots`` and key what they reach.  The threads
    part is the thread keys (``_STATE``), each thread's ``(progress,
    thread-locals)`` (``_QUIESCENT``), or None (``_SHARED``)."""
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

    objects = world.heap.objects
    heap_key = []
    for oid in pending:  # grows as the walk numbers new refs
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
        heap_key.append((tag, ids[oid][1], class_name, body))

    locks = world.locks
    locks_key = tuple(sorted(
        (ids[oid][1], owner) for oid, owner in locks.items()
        if oid in ids)) if locks else ()
    return tuple(globals_key), threads_part, tuple(heap_key), locks_key


def state_key(world: World) -> tuple:
    """Full canonical key of a world (threads included)."""
    globals_key, thread_keys, heap_key, locks_key = _walk(world, _STATE)
    return (globals_key, tuple(thread_keys), heap_key, locks_key)


def rebase_node_uids(world_key: tuple, uid_map: dict) -> tuple:
    """Rewrite the CFG-node uids embedded in a :func:`state_key` tuple
    (each thread's ``frame_key[1]`` program counter) through
    ``uid_map``.

    CFG node uids come from a process-global counter, so the *same*
    program rebuilt later in one process gets shifted uids and
    otherwise-equal state keys stop comparing equal across builds.
    Graph capture (:mod:`repro.obs.graph`) uses this to rebase keys
    onto a build-independent dense numbering before hashing them into
    node ids, making captures comparable across runs and processes.
    Unmapped uids pass through unchanged."""
    globals_key, thread_keys, heap_key, locks_key = world_key
    threads = []
    for op_index, tls, frame_key, valid, current in thread_keys:
        if frame_key is not None:
            proc, uid, env, args = frame_key
            frame_key = (proc, uid_map.get(uid, uid), env, args)
        threads.append((op_index, tls, frame_key, valid, current))
    return (globals_key, tuple(threads), heap_key, locks_key)


def shared_key(world: World) -> tuple:
    """Canonical key of the *shared* state only: globals, the heap
    reachable from them, and the lock table.  Thread-private residue
    (working copies, script progress) is projected away.  This is the
    granularity at which the ``both`` mode's operation-commutativity
    ample sets preserve reachability: two commuting operations leave the
    same shared state either way, but may leave different private
    scratch objects."""
    globals_key, _none, heap_key, locks_key = _walk(world, _SHARED)
    return (globals_key, heap_key, locks_key)


def quiescent_key(world: World) -> tuple:
    """Canonical key of the *shared* state plus each thread's script
    progress — the granularity at which the atomicity definition of
    §3.2 compares executions.  Stale reservations and observation sets
    are dropped: every procedure in the corpus re-reads (LL / matching
    read) before any SC/CAS, so they cannot influence future behaviour
    from a quiescent state."""
    globals_key, threads, heap_key, locks_key = _walk(world, _QUIESCENT)
    return (globals_key, tuple(op_index for op_index, _tls in threads),
            tuple(tls for _op_index, tls in threads), heap_key, locks_key)
