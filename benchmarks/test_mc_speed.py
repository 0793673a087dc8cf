"""Raw model-checking throughput on a small NFQ' driver (not a paper
artifact — tracks explorer states/sec across the reduction modes; the
full §6.3 workload lives in ``test_section63.py``, the paper-scale
benchmark in ``bench/``)."""

import pytest

from repro import corpus
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer

MODES = ["full", "por", "atomic"]


def _specs():
    return [ThreadSpec.of(("AddNode", 1), ("UpdateTail",)),
            ThreadSpec.of(("DeqP",), ("UpdateTail",))]


@pytest.mark.parametrize("mode", MODES)
def test_mc_speed(benchmark, mode):
    interp = Interp(corpus.NFQ_PRIME)

    def explore():
        return Explorer(interp, _specs(), mode=mode,
                        max_states=200_000).run()

    result = benchmark.pedantic(explore, rounds=1, iterations=1)
    assert result.violation is None and not result.capped
    assert result.states > 0
    assert result.metrics["mc.states_per_s"] > 0
