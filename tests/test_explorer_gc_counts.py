"""The explorer's GC policy and exact state counts.

``Explorer.run`` keeps the cyclic garbage collector off during the
search, which is safe only while the search allocates no reference
cycles; the caller's collector state is restored afterwards.  The exact
counts pin canonicalization: a change that merges or splits states
fails here, not only in the benchmark."""

import gc

import pytest

from repro import corpus
from repro.experiments import table2
from repro.experiments.section63 import commutes
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer, observers
from tests.test_observers import _everything

GH = Interp(corpus.GH_PROGRAM1)
GH_SPECS_2 = [ThreadSpec.of(("Apply", 1)), ThreadSpec.of(("Apply", 2))]
GH_SPECS_3 = GH_SPECS_2 + [ThreadSpec.of(("Apply", 3))]


@pytest.mark.parametrize("observed", [False, True],
                         ids=["bare", "every-observer"])
@pytest.mark.parametrize("mode", ["full", "por"])
def test_exploration_leaves_no_cyclic_garbage(mode, observed):
    gc.collect()
    gc.disable()
    try:
        observer = _everything()[0] if observed else None
        explorer = Explorer(GH, GH_SPECS_3, mode=mode, max_states=2000,
                            observer=observer)
        result = explorer.run()
        assert result.capped and not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_gc_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        seen = []

        class Probe(observers.Observer):
            def start(self, explorer, result):
                seen.append(gc.isenabled())

            def state(self, key, world, depth):
                seen.append(gc.isenabled())
                if depth > 3:
                    raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            Explorer(GH, GH_SPECS_2, observer=Probe()).run()
        assert seen[0] is enabled
        assert not any(seen[1:])  # off for the whole search
        assert gc.isenabled() is enabled
        Explorer(GH, GH_SPECS_2, max_states=50).run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("mode,kw,states,transitions,quiescent,final", [
    ("full", {}, 1153, 2121, 5, 2),
    ("por", {}, 751, 936, 5, 2),
    ("atomic", {}, 5, 4, 5, 2),
    ("both", {}, 5, 4, 5, 2),
    ("both", {"commutes": commutes}, 3, 2, 3, 1),
])
def test_gh_exact_counts(mode, kw, states, transitions, quiescent, final):
    r = Explorer(GH, GH_SPECS_2, mode=mode, collect_quiescent=True,
                 **kw).run()
    assert (r.states, r.transitions) == (states, transitions)
    assert (len(r.quiescent), len(r.final)) == (quiescent, final)
    assert r.violation is None and not r.capped


def test_table2_exact_counts():
    rows = {row.name: row for row in table2.run(n_threads=1).rows}
    counts = {name: ((row.full.states, row.full.transitions),
                     (row.atomic.states, row.atomic.transitions))
              for name, row in rows.items()}
    assert counts == {
        "unbounded AddNode": ((1532, 4036), (7, 6)),
        "unbounded DeqP": ((1532, 4036), (7, 6)),
        "incorrect AddNode": ((21, 20), (3, 2)),
    }
    bad = rows["incorrect AddNode"]
    assert bad.full.violation and bad.atomic.violation
    assert not rows["unbounded AddNode"].full.violation
