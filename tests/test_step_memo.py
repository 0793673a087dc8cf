"""The step memo (:class:`repro.mc.explorer.StepMemo`): a step that
writes nothing but its own thread is cached on the thread, keyed by
the shared values it loaded (:class:`repro.mc.explorer.StepRead`), and
replayed in every world that holds the same thread and the same
values.  Each replay must equal a real interpreter step, which must
leave every shared component and the other threads as they were."""

import pytest

from repro import corpus
from repro.experiments import table2
from repro.interp import Interp, ThreadSpec
from repro.interp.values import HeapObject
from repro.mc import Explorer, QueueContents, QueueShape
from repro.mc import explorer as mc_explorer
from tests.key_oracle import ALIAS, ALIAS_SPECS, explore
from tests.memo_replay import Replayed, replayed

GH_SPECS = [ThreadSpec.of(("Apply", i)) for i in (1, 2)]
#: the correct Table 2 rows, capped for tier-1
NFQ_ROWS = [("unbounded AddNode", table2._specs_add_heavy(2)),
            ("unbounded DeqP", table2._specs_deq_heavy(2))]
CAP = 3000


@pytest.mark.parametrize("mode", ["full", "por"])
def test_gh_memo_hits_equal_real_steps(mode):
    _result, explorer = replayed(Interp(corpus.GH_PROGRAM1), GH_SPECS, mode)
    assert explorer.hits > 100
    assert explorer.mismatches == []


@pytest.mark.parametrize("label,specs", NFQ_ROWS)
def test_nfq_memo_hits_equal_real_steps(label, specs):
    _result, explorer = replayed(Interp(corpus.NFQ_PRIME), specs, "full",
                                 CAP, props=True)
    assert explorer.read_hits > 100
    assert explorer.mismatches == []


class _ThreadKeyed(Replayed):
    """The mutation: every load keyed by a constant, so a step's memo
    is keyed by its thread alone."""

    def _read_key(self, world, addr):
        return None


def test_a_memo_keyed_by_the_thread_alone_fails_the_replay():
    # DeqP's `if (h == LL(Tail))` reads the shared tail, so an outcome
    # cached for one tail is wrong in worlds with another
    _result, explorer = replayed(Interp(corpus.NFQ_PRIME), NFQ_ROWS[0][1],
                                 "full", CAP, props=True, cls=_ThreadKeyed)
    assert explorer.mismatches


READER = """
global X;
init { X = 0; }
proc Get() { local v = X in { return v; } }
"""


def _at_load():
    """An explorer over :data:`READER` and a world whose one thread
    is about to load ``X``."""
    interp = Interp(READER)
    specs = [ThreadSpec.of(("Get",))]
    explorer = Explorer(interp, specs)
    world = interp.make_world(specs)
    interp.step(world, 0)  # invoke
    return explorer, world


def test_the_memo_keys_a_load_by_its_modification_counter():
    # a read records the counter in the thread's observed map, so two
    # worlds with the same thread and value but another counter must
    # not share an outcome
    explorer, first = _at_load()
    thread = first.threads[0]
    stepped = explorer._step_thread(first, 0)
    assert stepped.memo is not None and thread.memo is not None
    addr = ("g", "X")
    second = first.copy()
    second.versions[addr] = first.versions[addr] + 1
    assert second.threads[0] is thread and second.globals == first.globals
    assert explorer._recall(first, thread.memo) is stepped.memo
    assert explorer._recall(second, thread.memo) is None
    succ = explorer._step_thread(second, 0)
    assert succ.memo is not stepped.memo
    assert succ.memo.thread.observed[addr] == second.versions[addr]
    assert stepped.memo.thread.observed[addr] == first.versions[addr]
    # both outcomes are cached now
    assert explorer._recall(second, thread.memo) is succ.memo
    assert explorer._recall(first, thread.memo) is stepped.memo


def test_the_memo_keys_a_load_by_the_value_class():
    # True == 1 in Python, but the thread returns a different value
    explorer, first = _at_load()
    first.globals["X"] = 1
    thread = first.threads[0]
    explorer._step_thread(first, 0)
    second = first.copy()
    second.globals["X"] = True
    assert explorer._recall(second, thread.memo) is None
    envs = [explorer._step_thread(w, 0).memo.thread.frame.env
            for w in (first, second)]
    assert [type(v) for env in envs for v in env.values()] == [int, bool]


CELLS = """
class Cell { versioned V; }
class Plain { V; }
global C;
init { C = new Cell; local r = C in { r.V = 0; } }
proc Bump() { if (CAS(C.V, 0, 1)) { return; } }
"""


def test_the_memo_keys_a_versioned_cas_by_the_target_class():
    # the CAS honours a stale counter only on a versioned field, so
    # the class of the target object is a load the memo keys: two
    # worlds may hold objects of different classes under one oid
    interp = Interp(CELLS)
    specs = [ThreadSpec.of(("Bump",))]
    explorer = Explorer(interp, specs)
    first = interp.make_world(specs)
    interp.step(first, 0)  # invoke
    oid = first.globals["C"].oid
    first.threads[0].observed[("f", oid, "V")] = -1  # a stale read
    thread = first.threads[0]
    failed = explorer._step_thread(first, 0)
    assert failed.memo is not None  # the CAS failed: nothing written
    second = first.copy()
    second.heap.objects[oid] = HeapObject("Plain", {"V": 0})
    assert explorer._recall(second, thread.memo) is None
    succ = explorer._step_thread(second, 0)
    assert succ.memo is None and succ.world.heap.objects[oid].fields \
        == {"V": 1}


def test_memo_hits_reuse_the_parent_key_slot(monkeypatch):
    # most hits are keyed from their parent's context alone, with no
    # world built for the duplicates
    calls = []
    state_key = mc_explorer.state_key
    monkeypatch.setattr(mc_explorer, "state_key",
                        lambda *a: calls.append(1) or state_key(*a))
    copies = []
    copy = mc_explorer.World.copy
    monkeypatch.setattr(mc_explorer.World, "copy",
                        lambda w: copies.append(1) or copy(w))
    result = Explorer(Interp(corpus.GH_PROGRAM1), GH_SPECS,
                      mode="full").run()
    assert len(calls) < 0.8 * result.transitions
    assert len(copies) < 0.8 * result.transitions


def test_most_nfq_steps_come_from_the_memo():
    # the NFQ' row's loads, LLs and failed SCs write only their thread
    interp = Interp(corpus.NFQ_PRIME)
    steps = []
    step = interp.step
    interp.step = lambda *a, **k: steps.append(1) or step(*a, **k)
    result = Explorer(interp, NFQ_ROWS[0][1], mode="full",
                      max_states=CAP,
                      properties=[QueueShape(), QueueContents()]).run()
    assert len(steps) < 0.12 * result.transitions


def test_most_gh_steps_come_from_the_memo():
    # GH's stores write shared state and are never memoized, but the
    # successor thread is the run's one thread with its contents, and
    # so is the memo of the steps that follow it
    interp = Interp(corpus.GH_PROGRAM1)
    steps = []
    step = interp.step
    interp.step = lambda *a, **k: steps.append(1) or step(*a, **k)
    result = Explorer(interp,
                      [ThreadSpec.of(("Apply", i)) for i in (1, 2, 3)],
                      mode="full", max_states=CAP).run()
    assert len(steps) < 0.2 * result.transitions


# -- one thread object, and one memo, per distinct thread --------------------

SWAP = """
global X, Y;
init { X = 0; Y = 0; }
proc SetX() { X = 1; return; }
proc SetY() { Y = 1; }
"""


def _stepped(explorer, world, tids):
    """The world after thread ``tids[0]``, then ``tids[1]``, ... each
    took one step by :meth:`Explorer._step_thread`."""
    for tid in tids:
        succ = explorer._step_thread(world, tid)
        if succ.world is None:
            explorer._build(succ)
        world = succ.world
    return world


def test_two_interleavings_reaching_one_thread_share_it_and_its_memo():
    # `X = 1` writes a global, so each interleaving's step copies the
    # thread: both copies become the one thread the run keeps for them
    interp = Interp(SWAP)
    specs = [ThreadSpec.of(("SetX",)), ThreadSpec.of(("SetY",))]
    explorer = Explorer(interp, specs)
    world0 = interp.make_world(specs)
    first = _stepped(explorer, world0, [0, 0])
    second = _stepped(explorer, world0, [1, 1, 0, 0])
    assert first.globals != second.globals
    assert first.threads[0] is second.threads[0]
    # `return` writes only the thread: its memo serves both worlds
    leaf = explorer._step_thread(first, 0).memo
    assert leaf is not None
    assert explorer._step_thread(second, 0).memo is leaf


TWINS = """
global X;
threadlocal T;
init { X = 0; }
threadinit { T = 1; }
proc Set() { local v = 1 in { X = 1; X = v; } }
"""


def _twins(change):
    """Thread 0 stepped over `X = 1` in two worlds, the second's thread
    a copy of the first's changed by ``change``: the two successor
    threads, whose key fragments are equal."""
    interp = Interp(TWINS)
    specs = [ThreadSpec.of(("Set",), repeat=True)]
    explorer = Explorer(interp, specs)
    first = interp.make_world(specs)
    interp.step(first, 0)  # invoke
    interp.step(first, 0)  # local v = 1
    second = first.copy()
    change(second.own_thread(0))
    a, b = (explorer._step_thread(w, 0).world.threads[0]
            for w in (first, second))
    assert a.canon == b.canon
    return a, b


def _set_env_true(thread):
    (binder,) = thread.frame.env
    thread.frame.env[binder] = True


@pytest.mark.parametrize("change", [
    _set_env_true,
    lambda t: t.threadlocals.update(T=True),
    lambda t: t.reservations.update({("t", 0, "T"): True}),
    lambda t: setattr(t, "op_index", t.op_index + 1),  # one script period
], ids=["env-class", "threadlocal-class", "private-reservation",
        "op-index-period"])
def test_threads_with_equal_fragments_but_other_contents_are_not_shared(
        change):
    a, b = _twins(change)
    assert a is not b


def test_threads_with_equal_contents_are_shared():
    a, b = _twins(lambda t: None)
    assert a is b


@pytest.mark.parametrize("mode", ["full", "por"])
def test_a_memo_key_renders_the_numbers_of_the_heap_addresses_it_adds(mode):
    # Read's load observes B's cell, which Read holds no ref to; Move
    # renumbers that cell from 2 to 1 and leaves Read's key as it was,
    # so the memo's map must key the successor by the cell's number too
    result, oracle = explore(Interp(ALIAS), ALIAS_SPECS, mode)
    assert oracle.exact, oracle.mismatches[:1]
    assert (result.states, result.transitions) == (20, 31)


# -- every corpus program ------------------------------------------------------


def _specs(interp: Interp) -> list[ThreadSpec]:
    """Three threads, each calling one procedure twice, the procedures
    taken in turn."""
    procs = list(interp.proc_params.items())
    specs = []
    for i in range(3):
        name, params = procs[i % len(procs)]
        args = tuple(range(1, len(params) + 1))
        specs.append(ThreadSpec.of((name, *args), (name, *args)))
    return specs


@pytest.mark.parametrize("name", corpus.__all__)
def test_local_steps_touch_no_shared_component(name):
    # every memo hit is a step that wrote only its thread: its real
    # replay must leave the shared components and other threads alone
    interp = Interp(getattr(corpus, name))
    _result, explorer = replayed(interp, _specs(interp), "full", 400)
    assert explorer.read_hits
    assert explorer.mismatches == []
