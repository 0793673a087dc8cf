"""What one full/por transition pays for, and the results that must not
move when it pays less: a thread-local step that changes no ghost
skips ``check_state`` (its parent passed it on the same shared state
and ghosts), a successor's provenance is derived only when read, and
the keying call stays the one profiler region per transition."""

import json

import pytest

from repro import corpus
from repro.cli import main
from repro.experiments import table2
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, QueueContents, QueueShape
from repro.mc.properties import Property
from tests.memo_replay import Replayed, replayed

BLOCKED = """
global X;
init { X = 0; }
proc Set() { X = 1; return; }
proc Wait() { TRUE(X == 1); X = 2; return; }
"""


@pytest.mark.parametrize("mode", ["full", "por"])
def test_a_blocked_assume_is_a_disabled_transition(mode):
    # Wait's TRUE(X == 1) raises AssumeFailed until Set has run
    r = Explorer(Interp(BLOCKED), [ThreadSpec.of(("Set",)),
                                   ThreadSpec.of(("Wait",))],
                 mode=mode).run()
    assert (r.states, r.transitions, r.violation) == (14, 19, None)


def test_cli_mc_over_a_blocked_assume_exits_0(tmp_path, capsys):
    path = tmp_path / "blocked.synl"
    path.write_text(BLOCKED)
    assert main(["mc", str(path), "Set()", "Wait()"]) == 0
    assert "states=14 transitions=19" in capsys.readouterr().out


def test_profile_regions_count_one_key_per_transition(capsys):
    code = main(["mc", "examples/synl/aba_stack.synl", "PopCheck()",
                 "Recycle()", "--mode", "full", "--profile", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    calls = {h["name"]: h["calls"] for h in doc["profile"]["hotspots"]}
    assert (doc["states"], doc["transitions"]) == (336, 593)
    assert calls["mc.canonicalize"] == doc["transitions"] == 593
    assert calls["mc.successors"] == 336


# -- Table 2's incorrect AddNode: the counterexample ---------------------------

#: AddNode's statement uids, counted from its CFG's entry node as 1
#: (CFG node uids come from one counter per process)
_ADD_NODE_UIDS = (3, 4, 5, 6, 7, 8, 9, 11, 12)
_LOST = ("queue contents [2] != outstanding enqueues [1, 2] "
         "(lost or duplicated node)")
_INIT = {"tid": -1, "uid": None, "desc": "init", "kind": "init",
         "via": None}


def _step(tid, uid, desc, kind):
    return {"tid": tid, "uid": uid, "desc": desc, "kind": kind,
            "via": None, "proc": "AddNode"}


def _add_node_steps(tid):
    """One AddNode of thread ``tid`` run alone, statement by
    statement."""
    return [_step(tid, None, f"t{tid}@call", "invoke")] + [
        _step(tid, uid, f"t{tid}@{uid}", "stmt") for uid in _ADD_NODE_UIDS]


@pytest.mark.parametrize("mode,counts,path", [
    ("full", (21, 20), [_INIT, *_add_node_steps(0), *_add_node_steps(1)]),
    ("atomic", (3, 2), [_INIT,
                        _step(0, None, "t0:AddNode(1,)", "atomic"),
                        _step(1, None, "t1:AddNode(2,)", "atomic")]),
])
def test_incorrect_add_node_counterexample(mode, counts, path):
    # the explorer of table2._check, with its interpreter at hand
    interp = Interp(corpus.NFQ_PRIME_BUGGY)
    r = Explorer(interp, table2._specs_add_heavy(2), mode=mode,
                 properties=[QueueShape(), QueueContents()],
                 max_states=400_000).run()
    assert (r.states, r.transitions) == counts
    assert r.violation == _LOST
    shift = interp.cfgs["AddNode"].entry.uid - 1
    got = []
    for step in r.path:
        uid = step["uid"]
        if uid is not None:
            step = {**step, "uid": uid - shift,
                    "desc": step["desc"].replace(f"@{uid}",
                                                 f"@{uid - shift}")}
        got.append(step)
    assert got == path
    # the key order is what `repro mc --json` prints
    assert [list(s) for s in got] == [list(s) for s in path]
    assert r.trace == [s["desc"] for s in r.path]


# -- the skipped check_state -----------------------------------------------------

class _Counting(Property):
    """Counts its checks; both always pass."""

    def __init__(self):
        self.states = self.quiescent = 0

    def check_state(self, world, interp, ghost):
        self.states += 1

    def check_quiescent(self, world, interp, ghost):
        self.quiescent += 1


class _CheckEverywhere(Explorer):
    """The explorer without the skip: every new state runs every
    ``check_state``."""

    def _check(self, world, ghosts, shared_passed=False):
        return super()._check(world, ghosts)


def test_thread_local_steps_skip_check_state_but_not_check_quiescent():
    specs = [ThreadSpec.of(("Apply", i)) for i in (1, 2)]
    interp = Interp(corpus.GH_PROGRAM1)
    runs = []
    for cls in (Explorer, _CheckEverywhere):
        prop = _Counting()
        r = cls(interp, specs, mode="full", properties=[prop]).run()
        runs.append((r, prop))
    (skipping, fewer), (checking, every) = runs
    assert (skipping.states, skipping.transitions) \
        == (checking.states, checking.transitions)
    assert every.states == checking.states
    assert 0 < fewer.states < every.states // 2
    # quiescent states are reached by invokes and returns, which write
    # only their thread, yet each still runs check_quiescent
    assert fewer.quiescent == every.quiescent > 0


@pytest.mark.parametrize("program", ["NFQ_PRIME", "NFQ_PRIME_BUGGY"])
def test_the_skip_keeps_table2_verdicts(program):
    interp = Interp(getattr(corpus, program))
    specs = table2._specs_add_heavy(2)
    results = [cls(interp, specs, mode="full", max_states=3000,
                   properties=[QueueShape(), QueueContents()]).run()
               for cls in (Explorer, _CheckEverywhere)]
    skipping, checking = results
    assert (skipping.states, skipping.transitions, skipping.violation,
            skipping.path) == (checking.states, checking.transitions,
                               checking.violation, checking.path)


class _ThreadPeeking(Property):
    """Breaks the ``check_state`` contract: it reads a thread, not only
    the shared state and its ghost."""

    def check_state(self, world, interp, ghost):
        if world.threads[0].frame is not None:
            return "thread 0 is inside a call"
        return None


def test_the_replay_oracle_catches_a_check_that_reads_a_thread():
    explorer = replayed(Interp(corpus.NFQ_PRIME),
                        table2._specs_add_heavy(2), "full", 2000,
                        props=True)[1]
    assert explorer.checked > 100 and explorer.check_mismatched == 0
    # thread 0's invoke writes only the thread: the explorer skips the
    # check there, the oracle runs it and sees the message
    peeking = Replayed(Interp(corpus.GH_PROGRAM1),
                       [ThreadSpec.of(("Apply", i)) for i in (1, 2)],
                       mode="full", max_states=2000,
                       properties=[_ThreadPeeking()])
    peeking.run()
    assert peeking.check_mismatched


def test_events_that_change_no_ghost_keep_the_ghosts_object():
    interp = Interp(corpus.NFQ_PRIME)
    explorer = Explorer(interp, [],
                        properties=[QueueShape(), QueueContents()])
    ghosts = (None, QueueContents().initial_ghost())
    invoke = interp.step(interp.make_world([ThreadSpec.of(("AddNode", 1))]),
                         0)
    assert invoke.kind == "invoke"
    assert explorer._apply_events(ghosts, [invoke]) is ghosts
