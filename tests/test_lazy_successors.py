"""Lazy successors: a memo hit's world is built only when its state is
new, with or without an observer.  A run under an observer must
explore what a plain one does: states, transitions, the violation and
its path, and the quiescent and final sets."""

import pytest

from repro import corpus
from repro.experiments import table2
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, QueueContents, QueueShape
from repro.mc.observers import Coverage

GH = Interp(corpus.GH_PROGRAM1)
NFQ = Interp(corpus.NFQ_PRIME)
ABA = Interp(corpus.ABA_STACK)

CASES = {
    "gh": (GH, [ThreadSpec.of(("Apply", i)) for i in (1, 2)], None, False),
    "nfq-addnode": (NFQ, table2._specs_add_heavy(2), 3000, True),
    "nfq-deqp": (NFQ, table2._specs_deq_heavy(2), 3000, True),
    # PopCheck twice against Recycle reaches the failing assertion
    "aba-stack": (ABA, [ThreadSpec.of(("PopCheck",), ("PopCheck",)),
                        ThreadSpec.of(("Recycle",))], None, False),
}


def _run(case: str, mode: str, observer=None):
    interp, specs, cap, props = CASES[case]
    return Explorer(interp, specs, mode=mode, max_states=cap,
                    properties=[QueueShape(), QueueContents()]
                    if props else None,
                    collect_quiescent=True, observer=observer).run()


@pytest.mark.parametrize("mode", ["full", "por"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_observed_run_explores_what_a_plain_run_does(case, mode):
    plain = _run(case, mode)
    observed = _run(case, mode, Coverage())
    assert observed.metrics["mc.depth"]  # the observer did run
    for attr in ("states", "transitions", "violation", "path", "capped",
                 "quiescent", "final", "final_shared"):
        assert getattr(plain, attr) == getattr(observed, attr), attr
    if case == "aba-stack":
        assert plain.violation is not None and plain.path
