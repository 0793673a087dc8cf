"""Memoized thread-local steps (:class:`repro.mc.explorer.StepMemo`): a
step that reads and writes only its thread's own state is cached on the
thread and replayed in every world that holds the same thread.  Each
replay must equal a real interpreter step, and no step the interpreter
classifies as local may touch a shared component."""

import random

import pytest

from repro import corpus
from repro.cfg.graph import NodeKind
from repro.errors import InterpError
from repro.experiments import table2
from repro.interp import Interp, ThreadSpec, run
from repro.mc import Explorer, QueueContents, QueueShape
from repro.mc import explorer as mc_explorer
from repro.synl import ast as A
from tests.key_oracle import fresh_world

GH_SPECS = [ThreadSpec.of(("Apply", i)) for i in (1, 2)]
#: the correct Table 2 rows, capped for tier-1
NFQ_ROWS = [("unbounded AddNode", table2._specs_add_heavy(2)),
            ("unbounded DeqP", table2._specs_deq_heavy(2))]
CAP = 3000


def _detached(world):
    """A copy of ``world`` sharing no thread or heap object with it,
    made without touching ``world``'s ownership."""
    out = fresh_world(world)
    out.heap._next = world.heap._next
    return out


class _Replayed(Explorer):
    """Replays every memo hit with a real step of a detached copy of
    the parent world and keeps what differs from the memo."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hits = 0
        self.mismatches: list[str] = []

    def _step_thread(self, world, tid):
        memo = world.threads[tid].memo
        if memo is not None:
            self.hits += 1
            self._replay(world, tid, memo)
        return super()._step_thread(world, tid)

    def _replay(self, world, tid, memo):
        stepped = _detached(world)
        event = self.interp.step(stepped, tid)
        found = []
        if stepped.threads[tid] != memo.thread:
            found.append("thread")
        if ([event] if event is not None else []) != memo.events:
            found.append("event")
        if stepped.globals != world.globals:
            found.append("globals")
        if stepped.heap.objects != world.heap.objects:
            found.append("heap")
        if stepped.versions != world.versions:
            found.append("versions")
        if stepped.locks != world.locks:
            found.append("locks")
        if any(t != world.threads[j] for j, t in enumerate(stepped.threads)
               if j != tid):
            found.append("other threads")
        if found and len(self.mismatches) < 5:
            self.mismatches.append(f"t{tid}: {', '.join(found)}")


def _replayed(interp, specs, mode, cap=None, props=False) -> _Replayed:
    explorer = _Replayed(interp, specs, mode=mode, max_states=cap,
                         properties=[QueueShape(), QueueContents()]
                         if props else None)
    explorer.run()
    return explorer


@pytest.mark.parametrize("mode", ["full", "por"])
def test_gh_memo_hits_equal_real_steps(mode):
    explorer = _replayed(Interp(corpus.GH_PROGRAM1), GH_SPECS, mode)
    assert explorer.hits > 100
    assert explorer.mismatches == []


@pytest.mark.parametrize("label,specs", NFQ_ROWS)
def test_nfq_memo_hits_equal_real_steps(label, specs):
    explorer = _replayed(Interp(corpus.NFQ_PRIME), specs, "full", CAP,
                         props=True)
    assert explorer.hits > 100
    assert explorer.mismatches == []


def _reads_global(e) -> bool:
    """Does expression ``e`` read a global without SC or CAS?"""
    if isinstance(e, (A.SCExpr, A.CASExpr)):
        return False
    if isinstance(e, A.Var):
        return e.kind is A.VarKind.GLOBAL
    if isinstance(e, A.LLExpr):
        return _reads_global(e.loc)
    if isinstance(e, A.Unary):
        return _reads_global(e.operand)
    if isinstance(e, A.Binary):
        return _reads_global(e.left) or _reads_global(e.right)
    return False


def test_a_global_reading_branch_marked_local_fails_the_replay():
    # mutation check: DeqP's `if (h == LL(Tail))` reads the shared
    # tail, so its cached outcome is wrong in worlds with another tail
    # (reached on the AddNode row, whose one DeqP holds no reservation
    # on the tail the first time round)
    interp = Interp(corpus.NFQ_PRIME)
    classify = interp._node_is_local

    def mislabel(node):
        if node.kind is NodeKind.BRANCH and _reads_global(node.expr):
            return True
        return classify(node)

    interp._node_is_local = mislabel
    explorer = _replayed(interp, NFQ_ROWS[0][1], "full", CAP, props=True)
    assert explorer.mismatches


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


# -- the classifier over random runs ------------------------------------------


def _shared(world, tid: int) -> tuple:
    """Everything a step of thread ``tid`` must not touch to be local:
    globals, heap, versions, locks, the other threads, and the
    thread's own observed counters (a shared read records one)."""
    return (dict(world.globals), dict(world.versions), dict(world.locks),
            {oid: obj.copy() for oid, obj in world.heap.objects.items()},
            world.heap._next,
            [t.copy() for j, t in enumerate(world.threads) if j != tid],
            dict(world.threads[tid].observed))


def _checking(interp: Interp, checked: list) -> None:
    """Make ``interp.step`` check every step it classifies as local."""
    step = interp.step

    def checked_step(world, tid, thread=None):
        if thread is not None or not interp.local_step(world.threads[tid]):
            return step(world, tid, thread)
        before = _shared(world, tid)
        event = step(world, tid)
        assert _shared(world, tid) == before, \
            f"local step of t{tid} changed shared state"
        checked.append(1)
        return event

    interp.step = checked_step


def _specs(interp: Interp) -> list[ThreadSpec]:
    """Up to three threads, each calling one procedure twice."""
    specs = []
    for i, (name, params) in enumerate(interp.proc_params.items()):
        args = tuple(range(1, len(params) + 1))
        specs.append(ThreadSpec.of((name, *args), (name, *args)))
        if i == 2:
            break
    return specs


@pytest.mark.parametrize("name", corpus.__all__)
def test_local_steps_touch_no_shared_component(name):
    checked = []
    interp = Interp(getattr(corpus, name))
    _checking(interp, checked)
    for seed in range(4):
        world = interp.make_world(_specs(interp))
        rng = random.Random(seed)
        try:
            run(interp, world, lambda _w, enabled: rng.choice(enabled),
                max_steps=400)
        except InterpError:
            pass  # a failed assertion or a fault ends the run
    assert checked
